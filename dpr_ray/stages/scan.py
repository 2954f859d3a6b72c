"""Distributed prefix sum (exclusive scan) over a globally-ordered key,
and the token-budget bin packing built on it — the sequence-packing /
global-offset primitive a pretraining data pipeline needs ("which context
window does each doc land in?", "what is each shard's byte offset?").

Scale shape (the classic two-pass scan):
- pass 1: each row is assigned an ORDER-PRESERVING bucket
  (``key // bucket_width``) and one ``groupby(bucket)`` computes per-bucket
  value sums — a shuffle of one partial row per (block, bucket).
- the per-bucket sums (≤ ``max_key / bucket_width`` rows — thousands, not
  corpus-sized) come to the driver for an exclusive scan and go back as a
  broadcast dict.
- pass 2: a map-only pass re-groups by bucket, sorts each bucket by key
  (bucket-local — no global sort ever happens), computes the local
  cumsum, and adds the bucket's broadcast offset.

Determinism: offsets are a pure function of (key order, values); ties are
impossible because ``key`` must be unique (enforced — duplicate keys make
"prefix" ill-defined).

No reference counterpart (DPR never needs a global scan); this is an
engine primitive like heavy_hitters/exact_quantiles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .._shipping import ensure_shippable
from ..util import ids_int64


def prefix_sum(
    ds,
    key_col: str,
    value_col: str,
    bucket_width: int | None = None,
):
    """→ Dataset ``(key, value, offset)``: ``offset`` = sum of ``value``
    over all rows with smaller ``key`` (exclusive scan in key order).
    Keys must be unique non-negative int64. ``bucket_width`` defaults to
    ``max_key/8192`` (≤ 8k bucket rows on the driver at ANY key range —
    the scan's driver traffic is bounded by construction)."""
    ensure_shippable()
    from ray.data.aggregate import Sum

    if bucket_width is None:
        max_key = ds.max(key_col)
        bucket_width = max(1, (int(max_key) + 1) // 8192) if max_key is not None else 1

    def lift(batch: pa.Table) -> pa.Table:
        k = ids_int64(batch[key_col])
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "key": pa.array(k, pa.int64()),
                "value": pa.array(v, pa.int64()),
                "bucket": pa.array(k // bucket_width, pa.int64()),
            }
        )

    rows = ds.map_batches(lift, batch_format="pyarrow")

    # pass 1: per-bucket sums → driver exclusive scan → broadcast
    sums = (
        rows.groupby("bucket")
        .aggregate(Sum("value", alias_name="bsum"))
        .take_all()
    )
    sums.sort(key=lambda r: r["bucket"])
    offsets: dict[int, int] = {}
    acc = 0
    for r in sums:
        offsets[int(r["bucket"])] = acc
        acc += int(r["bsum"])
    off_ref = ray.put(offsets)

    # pass 2: bucket-local sorted cumsum + broadcast bucket offset
    def scan_bucket(group: pa.Table) -> pa.Table:
        offs = ray.get(off_ref)
        k = group["key"].to_numpy(zero_copy_only=False)
        v = group["value"].to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        if len(np.unique(k)) != len(k):
            raise ValueError("prefix_sum: duplicate keys in bucket")
        k, v = k[order], v[order]
        base = offs[int(k[0]) // bucket_width]
        local = np.concatenate(([0], np.cumsum(v[:-1], dtype=np.int64)))
        return pa.table(
            {
                "key": pa.array(k, pa.int64()),
                "value": pa.array(v, pa.int64()),
                "offset": pa.array(base + local, pa.int64()),
            }
        )

    return rows.groupby("bucket").map_groups(scan_bucket, batch_format="pyarrow")


def pack_bins(
    ds,
    key_col: str,
    value_col: str,
    budget: int,
    bucket_width: int | None = None,
):
    """Token-budget packing: → Dataset ``(key, value, offset, bin_id)``
    with ``bin_id = offset // budget`` — documents laid out in key order
    and cut into fixed-budget context windows. (The cumulative-offset
    definition splits a doc straddling a boundary into the earlier bin;
    exact greedy first-fit is inherently sequential, while this layout is
    a pure function of the scan and packs within 1 doc of greedy.)"""

    def add_bin(batch: pa.Table) -> pa.Table:
        off = batch["offset"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bin_id", pa.array(off // budget, pa.int64())
        )

    return prefix_sum(ds, key_col, value_col, bucket_width).map_batches(
        add_bin, batch_format="pyarrow"
    )


def pack_fragments(
    ds,
    key_col: str,
    value_col: str,
    budget: int,
    bucket_width: int | None = None,
):
    """Sequence packing WITH boundary splitting — the layout an LLM
    pretraining loader actually materializes: documents concatenated in
    key order and cut into exactly-``budget``-token context windows, a
    doc straddling a window boundary contributing one FRAGMENT to each
    window it crosses. → Dataset ``(key, bin_id, tok_start, tok_end,
    frag_len)``, one row per (doc, window) incidence; ``tok_start``/
    ``tok_end`` are doc-relative ([start, end) exclusive), so a loader
    can slice each doc's token array directly. Zero-token docs emit no
    fragments.

    Built on the same two-pass distributed scan as ``pack_bins`` (global
    offsets without a global sort); the fragment expansion is a map-only
    vectorized repeat/gather per batch — total output rows =
    n_docs + n_boundary_crossings ≤ n_docs + total_tokens/budget."""

    def explode(batch: pa.Table) -> pa.Table:
        off = batch["offset"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False)
        k = batch["key"].to_numpy(zero_copy_only=False)
        keep = v > 0
        off, v, k = off[keep], v[keep], k[keep]
        b0 = off // budget
        b1 = (off + v - 1) // budget
        nb = (b1 - b0 + 1).astype(np.int64)
        total = int(nb.sum())
        rep = np.repeat(np.arange(len(k)), nb)
        pos = np.arange(total) - np.repeat(np.cumsum(nb) - nb, nb)
        bins = b0[rep] + pos
        g_start = np.maximum(off[rep], bins * budget)
        g_end = np.minimum(off[rep] + v[rep], (bins + 1) * budget)
        return pa.table(
            {
                "key": pa.array(k[rep], pa.int64()),
                "bin_id": pa.array(bins, pa.int64()),
                "tok_start": pa.array(g_start - off[rep], pa.int64()),
                "tok_end": pa.array(g_end - off[rep], pa.int64()),
                "frag_len": pa.array(g_end - g_start, pa.int64()),
            }
        )

    return prefix_sum(ds, key_col, value_col, bucket_width).map_batches(
        explode, batch_format="pyarrow"
    )
