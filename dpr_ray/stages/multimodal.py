"""Multimodal columns: image/audio/video as opaque ``binary`` columns with
typed metadata. The decode kernels themselves are STUBBED (no image/audio
libraries in this environment — clearly marked below); the Ray-side
plumbing — schema, per-block stage tasks, zero-copy binary columns,
deterministic fake decode for tests — is real and tested.

Pattern: a stateful decode stage is a callable CLASS, because real decoders
hold codec state; ``util.map_per_block`` runs it as one task per block that
builds the state once and decodes the whole block. Binary payloads stay in
Arrow (never pandas object dtype).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .._shipping import ensure_shippable
from ..util import map_per_block

MEDIA_SCHEMA_FIELDS = [
    ("media_id", pa.int64()),
    ("media_type", pa.string()),      # "image" | "audio" | "video"
    ("payload", pa.large_binary()),   # opaque encoded bytes
    ("meta_format", pa.string()),     # e.g. "png", "wav"
]


def synth_media_batch(batch: pa.Table, id_col: str = "docid",
                      text_col: str = "content") -> pa.Table:
    """Deterministic fake media payloads derived from text rows (test/bench
    stand-in for real image bytes). sha256-seeded — NOT blake2b — so the
    whole synth→decode→feature chain is replayable in DuckDB SQL
    (``sha256(VARCHAR)`` is the only digest DuckDB ships), giving the media
    queries a full value-hash oracle instead of a rows-only check."""
    ids = batch[id_col].to_pylist()
    payloads, types, fmts = [], [], []
    for i, t in zip(ids, batch[text_col].to_pylist()):
        seed = hashlib.sha256(f"{i}:{t[:64]}".encode()).digest()
        payloads.append(seed * 64)  # 2 KiB payload
        types.append("image" if int(i) % 2 == 0 else "audio")
        fmts.append("png" if int(i) % 2 == 0 else "wav")
    return pa.table(
        {
            "media_id": pa.array([int(i) for i in ids], pa.int64()),
            "media_type": pa.array(types),
            "payload": pa.array(payloads, pa.large_binary()),
            "meta_format": pa.array(fmts),
        }
    )


class DecodeImage:
    """Decode stage. With ``fake=False`` this raises
    NotImplementedError — REAL DECODE IS STUBBED (no PIL/cv2 in this
    container). ``fake=True`` produces deterministic pseudo-decode metadata
    (width/height/channels from payload bytes) so downstream plumbing and
    tests are exercised end-to-end."""

    def __init__(self, fake: bool = False):
        self.fake = fake
        # real implementation would open codec handles here, once per block

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:
            raise NotImplementedError(
                "image decode requires PIL/cv2, not available in this "
                "environment; run with fake=True for the deterministic stub"
            )
        widths, heights, chans = [], [], []
        for p in batch["payload"]:
            b = p.as_py()
            widths.append(16 + b[0] % 64)
            heights.append(16 + b[1] % 64)
            chans.append(1 + b[2] % 3)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "channels": pa.array(chans, pa.int32()),
                "n_bytes": pa.array(
                    [len(p.as_py()) for p in batch["payload"]], pa.int64()
                ),
            }
        )


class ExtractFeatures:
    """Feature extraction: payload bytes → fixed-dim float32
    vector. Deterministic sha256-expanded stand-in for a real model forward
    pass (expansion hashes the hex string of the payload's 32-byte seed, so
    DuckDB's ``sha256(VARCHAR)`` can replay it exactly); the
    per-block plumbing matches what a model stage needs (state in
    __init__, batched __call__)."""

    def __init__(self, dim: int = 32):
        self.dim = dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = []
        for p in batch["payload"]:
            seed_hex = p.as_py()[:32].hex()
            need = self.dim * 4
            raw = b"".join(
                hashlib.sha256(f"{seed_hex}:{i}".encode()).digest()
                for i in range((need + 31) // 32)
            )[:need]
            v = np.frombuffer(raw, dtype=np.uint32).astype(np.float32)
            v = v / np.float32(2**32)
            vecs.append(v.tolist())
        return pa.table(
            {
                "media_id": batch["media_id"],
                "feature": pa.array(vecs, pa.list_(pa.float32())),
            }
        )


def media_pipeline(corpus_ds, fake_decode: bool = True):
    """corpus → synth media → decode (stub) → features, each stage a task
    per block of the corpus."""
    ensure_shippable()
    media = corpus_ds.map_batches(synth_media_batch, batch_format="pyarrow")
    decoded = map_per_block(media, DecodeImage, {"fake": fake_decode})
    feats = map_per_block(media, ExtractFeatures, {})
    return decoded, feats


class Resize:
    """Resize stage: aspect-preserving downscale to fit a
    (target_w, target_h) box, never upscaling. REAL PIXEL RESAMPLING IS
    STUBBED (``fake=False`` raises — no PIL/cv2 here); ``fake=True``
    computes the real geometry (scale factor + output dims) from the
    deterministic decode metadata, so the plumbing, schema and the SQL
    oracle exercise the full stage."""

    def __init__(self, target_w: int = 32, target_h: int = 32,
                 fake: bool = False):
        self.tw, self.th, self.fake = target_w, target_h, fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:
            raise NotImplementedError(
                "pixel resampling requires PIL/cv2, not available here; "
                "run with fake=True for the geometry-only stub"
            )
        out_w, out_h, scales = [], [], []
        for p in batch["payload"]:
            b = p.as_py()
            w = 16 + b[0] % 64
            h = 16 + b[1] % 64
            scale = min(self.tw / w, self.th / h, 1.0)
            out_w.append(int(w * scale))
            out_h.append(int(h * scale))
            scales.append(scale)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "out_w": pa.array(out_w, pa.int32()),
                "out_h": pa.array(out_h, pa.int32()),
                "scale_i6": pa.array(
                    [int(np.sign(s * 1e6) * np.floor(abs(s * 1e6) + 0.5))
                     for s in scales],
                    pa.int64(),
                ),
            }
        )


class FrameSample:
    """Video frame sampler: every ``every``-th frame of the
    payload's frame sequence. The fake chain derives n_frames from the
    seed and a per-frame signature by hashing ``seed_hex:f{idx}`` —
    sha256 again, so DuckDB replays the exact sampled (idx, signature)
    rows. A real implementation would demux/seek per keyframe here."""

    def __init__(self, every: int = 4, fake: bool = False):
        self.every, self.fake = every, fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:
            raise NotImplementedError(
                "video demux requires an av library, not available here; "
                "run with fake=True for the deterministic stub"
            )
        mids, idxs, nfs, sigs = [], [], [], []
        for mid, p in zip(batch["media_id"].to_pylist(), batch["payload"]):
            b = p.as_py()
            seed_hex = b[:32].hex()
            n_frames = 8 + b[3] % 32
            for idx in range(0, n_frames, self.every):
                mids.append(int(mid))
                idxs.append(idx)
                nfs.append(n_frames)
                sigs.append(
                    hashlib.sha256(f"{seed_hex}:f{idx}".encode())
                    .hexdigest()[:8]
                )
        return pa.table(
            {
                "media_id": pa.array(mids, pa.int64()),
                "frame_idx": pa.array(idxs, pa.int32()),
                "n_frames": pa.array(nfs, pa.int32()),
                "frame_sig": pa.array(sigs, pa.string()),
            }
        )
