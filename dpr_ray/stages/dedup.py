"""Deduplication family: exact, n-gram Jaccard (exact, shuffle-based),
MinHash+LSH, SimHash, duplicate spans. Ray-Data-native shapes per the
scale playbook:

- exact: content-hash in map_batches → sort(hash) → block-level
  first-wins (the reference's only dedup is first-wins on a stringified
  key, ``dpr/data/biencoder_data.py:379-380``).
- n-gram Jaccard: shingle explode (each row carries its doc's shingle-set
  size — no driver-side sizes table) → groupby(shingle) co-occurrence pairs
  → groupby(pair) intersection counts → exact Jaccard. EXACT for any
  threshold (every qualifying pair shares ≥1 shingle) UNLESS a shingle's
  df exceeds ``shingle_df_cap`` (default 4096): such ultra-hot shingles
  (license headers, boilerplate) would emit O(df²) pair rows, so they are
  dropped with a logged warning — the documented scale cap.
- MinHash+LSH: per-batch signatures (vectorized universal hashing over
  31-bit rolling shingle hashes) → band explode → groupby(band) candidates
  → exact-Jaccard verification (batched source fetch per verify batch).
  The 31-bit hash chain is SQL-expressible, so the DuckDB oracle reproduces
  the FULL pipeline (signatures → band candidates → verified pairs).
- SimHash: 62-bit tf-weighted fingerprints (two 31-bit rolling hashes per
  token — SQL-expressible); near-dup candidates via 4×16-bit band equality,
  verified by Hamming distance.
- duplicate spans: per-batch (span hash, doc) combine → sort(span hash) →
  block-level n_docs/n_occ. The exact and span finishers run through
  ``util.map_sorted_groups``: one numpy call per sorted block, not one
  Python call per key (~10^5 span keys in a corpus).

All hashes are rolling-mod-p31/arithmetic — deterministic across processes
(never python ``hash()``).
"""

from __future__ import annotations

import hashlib
import logging
from itertools import combinations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .. import analyzer
from .._shipping import ensure_shippable
from ..util import (
    P31,
    map_per_block,
    map_sorted_groups,
    poly_mod31,
    round_half_away,
    run_starts,
    token_hash31_impl,
    token_hash62_impl,
)

logger = logging.getLogger("dpr_ray.dedup")


def shingles(tokens: list[str], k: int = 3) -> set[str]:
    if len(tokens) < k:
        return {" ".join(tokens)} if tokens else set()
    return {" ".join(tokens[i : i + k]) for i in range(len(tokens) - k + 1)}


def shingle_hashes(tokens: list[str], k: int = 3) -> np.ndarray:
    """31-bit rolling hashes (base 131, mod 2^31-1) of the doc's distinct
    shingles — one vectorized poly_mod31 pass over the concatenated code
    points (SQL-reproducible, unlike a cryptographic digest)."""
    ss = sorted(shingles(tokens, k))
    if not ss:
        return np.empty(0, np.uint64)
    offs = np.zeros(len(ss) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in ss], out=offs[1:])
    cps = np.frombuffer("".join(ss).encode("utf-32-le"), dtype=np.uint32)
    return poly_mod31(cps, offs, 131)


def shingle_hashes62(
    tokens: list[str], k: int = 3, memo: dict | None = None
) -> np.ndarray:
    """Distinct 62-bit shingle hashes, STRING-FREE: two Horner folds
    (bases 137 and 139) over per-token 31-bit hashes, combined as
    h137 | (h139 << 31). No shingle string is ever built — the folds are
    ``k`` shifted multiply-adds over the doc's token-hash array (the
    ``_span_hashes`` construction twice), so the hot explode stage does
    zero per-shingle Python work. Docs shorter than ``k`` fold their
    whole token array (one shingle — the string variant's semantics).
    Deduplicated with np.unique: the hashed-variant Jaccard is DEFINED
    over distinct hash values, so the engine and the DuckDB oracle
    (which replays the same chains) agree bitwise even under a
    collision. ``memo`` caches token hashes across calls in one batch."""
    n = len(tokens)
    if n == 0:
        return np.empty(0, np.uint64)
    th = _token_hashes(tokens, {} if memo is None else memo)
    w = min(k, n)
    m = n - w + 1
    P = np.uint64(P31)
    h137 = np.zeros(m, np.uint64)
    h139 = np.zeros(m, np.uint64)
    B137, B139 = np.uint64(137), np.uint64(139)
    for j in range(w):  # Horner folds, vectorized over spans
        sl = th[j : j + m]
        h137 = (h137 * B137 + sl) % P
        h139 = (h139 * B139 + sl) % P
    return np.unique(h137 | (h139 << np.uint64(31)))


def _token_hashes(toks: list[str], memo: dict[str, int]) -> np.ndarray:
    """Per-token 31-bit rolling hashes as uint64, memoized across calls
    within one batch (an lru_cache wrapper would not ship by value)."""
    th = np.empty(len(toks), np.uint64)
    for i, t in enumerate(toks):
        v = memo.get(t)
        if v is None:
            v = memo[t] = token_hash31_impl(t)
        th[i] = v
    return th


# ---------------------------------------------------------------- exact ----


def exact_dedup(ds, id_col: str = "docid", text_col: str = "content"):
    """→ Dataset (content_sha, docid_keep, n_dups): one row per distinct
    content, keeping the smallest id (first-wins, deterministic)."""
    ensure_shippable()

    def add_sha(batch: pa.Table) -> pa.Table:
        sha = [
            hashlib.sha256(t.encode()).hexdigest()
            for t in batch[text_col].to_pylist()
        ]
        return pa.table(
            {"content_sha": pa.array(sha), "docid": batch[id_col]}
        )

    def first_wins(block: pa.Table) -> pa.Table:
        sha = block["content_sha"].combine_chunks()
        ids = pc.cast(block["docid"], pa.int64()).combine_chunks().to_numpy()
        starts = run_starts(pc.dictionary_encode(sha).indices.to_numpy())
        return pa.table(
            {
                "content_sha": sha.take(starts),
                "docid_keep": pa.array(
                    np.minimum.reduceat(ids, starts), pa.int64()
                ),
                "n_dups": pa.array(np.diff(starts, append=len(ids)), pa.int64()),
            }
        )

    return map_sorted_groups(
        ds.map_batches(add_sha, batch_format="pyarrow"), "content_sha", first_wins
    )


# ------------------------------------------------------- n-gram Jaccard ----


def ngram_jaccard_pairs(
    ds,
    id_col: str = "docid",
    text_col: str = "content",
    k: int = 3,
    threshold: float = 0.2,
    shingle_df_cap: int | None = 4096,
):
    """→ Dataset (docid_a, docid_b, jaccard) for pairs with exact k-gram
    Jaccard ≥ threshold (docid_a < docid_b; jaccard rounded to 6).

    Scale shape: every (shingle, docid) row carries the doc's shingle-set
    size, so the pair finisher needs NO broadcast sizes table (unbounded in
    n_docs) — union = na + nb - |intersection| from the group alone.
    Shingles with df > ``shingle_df_cap`` are dropped with a warning (each
    would emit df²/2 pair rows; a pair sharing ONLY capped shingles is
    missed — boilerplate at corpus scale. cap=None restores strict
    exactness)."""
    ensure_shippable()

    def explode(batch: pa.Table) -> pa.Table:
        out_s, out_d, out_n = [], [], []
        ids = batch[id_col].to_pylist()
        for i, toks in enumerate(
            analyzer.tokenize_batch(batch[text_col].to_pylist())
        ):
            ss = shingles(toks, k)
            for s in ss:
                out_s.append(s)
                out_d.append(ids[i])
                out_n.append(len(ss))
        return pa.table(
            {
                "shingle": pa.array(out_s, pa.string()),
                "docid": pa.array(out_d, pa.int64()),
                "n_shingles": pa.array(out_n, pa.int64()),
            }
        )

    sh = ds.map_batches(explode, batch_format="pyarrow")
    pairs = sh.groupby("shingle").map_groups(
        _pairs_of_factory("shingle", shingle_df_cap), batch_format="pyarrow"
    )
    return _finish_pairs(pairs, threshold)


def _pairs_of_factory(key_col: str, df_cap: int | None):
    """Per-key group → co-occurrence pair rows carrying both docs' set
    sizes (so the finisher needs no broadcast sizes table)."""

    def pairs_of(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "docid_a": pa.array([], pa.int64()),
                "docid_b": pa.array([], pa.int64()),
                "na": pa.array([], pa.int64()),
                "nb": pa.array([], pa.int64()),
            }
        )
        m = group.num_rows  # one row per doc (per-doc sets are distinct)
        if m < 2:
            return empty
        if df_cap and m > df_cap:
            logger.warning(
                "ngram_jaccard: dropping %s %r (df=%d > cap=%d); pairs "
                "sharing only this key are not compared",
                key_col, group[key_col][0].as_py(), m, df_cap,
            )
            return empty
        d = group["docid"].to_numpy(zero_copy_only=False)
        n = group["n_shingles"].to_numpy(zero_copy_only=False)
        order = np.argsort(d)
        d, n = d[order], n[order]
        ii, jj = np.triu_indices(m, 1)
        return pa.table(
            {
                "docid_a": pa.array(d[ii], pa.int64()),
                "docid_b": pa.array(d[jj], pa.int64()),
                "na": pa.array(n[ii], pa.int64()),
                "nb": pa.array(n[jj], pa.int64()),
            }
        )

    return pairs_of


def _finish_pairs(pairs, threshold: float):
    """Candidate pair rows (one per shared key) → exact Jaccard rows
    ≥ threshold, via groupby(pair).map_groups. MEASURED non-lever: the
    'vectorized' alternative — groupby().aggregate(Count, Max(na),
    Max(nb)) + a batch finisher — is 2-3× SLOWER at sf0.1 (5.5-10 s
    map_groups vs 13-16 s aggregate, same session A/B): Ray's
    multi-aggregate pays its own sort+combine machinery per aggregate,
    which exceeds per-group Python until candidate-pair cardinality is
    far larger than the ~10^3-10^5 this pipeline produces. Untried lever:
    ``util.map_sorted_groups`` (same sort, one numpy finisher per block)."""

    def finish_pair(group: pa.Table) -> pa.Table:
        da = int(group["docid_a"][0].as_py())
        db = int(group["docid_b"][0].as_py())
        inter = group.num_rows  # one row per shared key
        union = int(group["na"][0].as_py()) + int(group["nb"][0].as_py()) - inter
        j = float(round_half_away(inter / union)) if union else 0.0
        if j < threshold:
            return pa.table(
                {
                    "docid_a": pa.array([], pa.int64()),
                    "docid_b": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "docid_a": pa.array([da], pa.int64()),
                "docid_b": pa.array([db], pa.int64()),
                "jaccard": pa.array([j], pa.float64()),
            }
        )

    return pairs.groupby(["docid_a", "docid_b"]).map_groups(
        finish_pair, batch_format="pyarrow"
    )


def ngram_jaccard_pairs_hashed(
    ds,
    id_col: str = "docid",
    text_col: str = "content",
    k: int = 3,
    threshold: float = 0.2,
    shingle_df_cap: int | None = 4096,
):
    """String-free variant of :func:`ngram_jaccard_pairs` for corpus scale:
    the shuffle key is a 62-bit shingle hash (int64) instead of the shingle
    STRING, so the explode→groupby exchange carries fixed 24 B rows rather
    than k-token strings — at 100 TB that is the difference between
    shuffling roughly the tokenized corpus ×k and shuffling 3 int64
    columns (~5-10× less volume for k=3 prose, and no string allocation
    on either side of the exchange).

    Trades the strict-exactness claim for a documented collision bound:
    two distinct shingles collide with P ≈ S²/2^63 for S distinct shingles
    corpus-wide (S = 10^12 → expected ~10^5 colliding shingle pairs, each
    inflating ONE document pair's intersection count by ≤ 1 — negligible
    against any dedup threshold). Jaccard is DEFINED over distinct hash
    values (np.unique per doc), so the DuckDB oracle — which replays the
    same token-Horner folds (bases 137/139) — matches bitwise even when a
    collision occurs. Same df-cap semantics as the string variant."""
    ensure_shippable()

    def explode(batch: pa.Table) -> pa.Table:
        out_h, out_d, out_n = [], [], []
        ids = batch[id_col].to_pylist()
        memo: dict[str, int] = {}
        for i, toks in enumerate(
            analyzer.tokenize_batch(batch[text_col].to_pylist())
        ):
            hs = shingle_hashes62(toks, k, memo)
            # uint64 → int64 on purpose: 62-bit hashes keep their value
            out_h.append(hs.astype(np.int64))
            out_d.append(np.full(len(hs), ids[i], np.int64))
            out_n.append(np.full(len(hs), len(hs), np.int64))
        if not out_h:
            return pa.table(
                {
                    "shash": pa.array([], pa.int64()),
                    "docid": pa.array([], pa.int64()),
                    "n_shingles": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "shash": pa.array(np.concatenate(out_h), pa.int64()),
                "docid": pa.array(np.concatenate(out_d), pa.int64()),
                "n_shingles": pa.array(np.concatenate(out_n), pa.int64()),
            }
        )

    sh = ds.map_batches(explode, batch_format="pyarrow")
    pairs = sh.groupby("shash").map_groups(
        _pairs_of_factory("shash", shingle_df_cap), batch_format="pyarrow"
    )
    return _finish_pairs(pairs, threshold)


# ------------------------------------------------------------- MinHash -----


_P31 = np.uint64((1 << 31) - 1)  # Mersenne prime; products fit in uint64


class MinHasher:
    """Vectorized universal-hash MinHash signatures over 31-bit shingle
    hashes: h_i(x) = (a_i*x + b_i) mod (2^31-1). a_i,x < 2^31 so products
    fit uint64 — one (num_perm × n_shingles) matrix op per document.
    Coefficients are deterministic from a fixed seed."""

    def __init__(self, num_perm: int = 64, seed: int = 1337):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, int(_P31), num_perm, dtype=np.uint64)[:, None]
        self.b = rng.integers(0, int(_P31), num_perm, dtype=np.uint64)[:, None]
        self.num_perm = num_perm

    def signature(self, shingle_h: np.ndarray) -> np.ndarray:
        if len(shingle_h) == 0:
            return np.full(self.num_perm, int(_P31), dtype=np.uint64)
        x = (shingle_h % _P31)[None, :]
        return ((self.a * x + self.b) % _P31).min(axis=1)


class _MinHashEmit:
    def __init__(self, id_col, text_col, k, num_perm, bands, seed):
        self.h = MinHasher(num_perm, seed)
        self.id_col, self.text_col, self.k = id_col, text_col, k
        self.bands = bands
        self.rows_per_band = num_perm // bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_pylist()
        band_ids, band_hash, docids = [], [], []
        for i, toks in enumerate(
            analyzer.tokenize_batch(batch[self.text_col].to_pylist())
        ):
            sh = shingle_hashes(toks, self.k)
            if len(sh) == 0:
                # zero-shingle docs (< k tokens) all share the sentinel
                # signature, so they'd collapse into ONE band bucket —
                # O(m²) candidates that verification then rejects anyway
                # (an empty set's jaccard with anything is 0 < threshold;
                # minhash_lsh_pairs refuses threshold <= 0). Skip at emit.
                continue
            sig = self.h.signature(sh)
            for b in range(self.bands):
                chunk = sig[b * self.rows_per_band : (b + 1) * self.rows_per_band]
                bh = hashlib.blake2b(chunk.tobytes(), digest_size=8).hexdigest()
                band_ids.append(b)
                band_hash.append(bh)
                docids.append(ids[i])
        return pa.table(
            {
                "band": pa.array(band_ids, pa.int32()),
                "band_hash": pa.array(band_hash, pa.string()),
                "docid": pa.array(docids, pa.int64()),
            }
        )


def minhash_lsh_pairs(
    ds,
    id_col: str = "docid",
    text_col: str = "content",
    k: int = 3,
    num_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.5,
    source_parquet: str | None = None,
    band_group_cap: int = 20_000,
):
    """→ Dataset (docid_a, docid_b, jaccard) of LSH candidate pairs whose
    EXACT shingle Jaccard ≥ threshold. Verification re-reads candidate docs'
    text from ``source_parquet`` — ONE isin-filtered parquet scan per verify
    block (the DocJoin pattern). A candidate docid with no row in
    ``source_parquet`` is a LOUD error (the doc-join policy) — a silent
    empty shingle set would report jaccard 0 and drop real near-dups. Band buckets larger than ``band_group_cap`` (e.g. a
    shard of exact duplicates — run exact dedup first) are truncated to
    the ``band_group_cap`` smallest docids with a logged warning, the
    no-silent-caps rule shared with ``shingle_df_cap`` and the embedding
    LSH ``bucket_cap``."""
    ensure_shippable()
    if threshold <= 0.0:
        raise ValueError(
            "threshold must be > 0 — threshold <= 0 admits every candidate "
            "pair (all-pairs output); zero-shingle docs are skipped at "
            "emit on the strength of this bound"
        )
    if source_parquet is None:
        raise ValueError(
            "minhash_lsh_pairs requires source_parquet: candidate "
            "verification re-reads document text (without it every pair "
            "would silently verify against empty shingle sets and the "
            "result would always be empty)"
        )
    emit = map_per_block(ds, _MinHashEmit, {
        "id_col": id_col, "text_col": text_col, "k": k,
        "num_perm": num_perm, "bands": bands, "seed": 1337,
    })

    def candidates(group: pa.Table) -> pa.Table:
        ids = sorted(set(group["docid"].to_pylist()))
        if len(ids) > band_group_cap:
            logger.warning(
                "minhash band bucket holds %d docids (> band_group_cap=%d)"
                " — truncating to the %d smallest; near-dups whose every "
                "shared bucket overflows may be missed (run exact dedup "
                "first if the corpus carries duplicate shards)",
                len(ids), band_group_cap, band_group_cap,
            )
            ids = ids[:band_group_cap]
        if len(ids) < 2:
            return pa.table(
                {"docid_a": pa.array([], pa.int64()), "docid_b": pa.array([], pa.int64())}
            )
        a, b = zip(*combinations(ids, 2))
        return pa.table(
            {"docid_a": pa.array(a, pa.int64()), "docid_b": pa.array(b, pa.int64())}
        )

    cand = (
        emit.groupby(["band", "band_hash"])
        .map_groups(candidates, batch_format="pyarrow")
        .groupby(["docid_a", "docid_b"])
        .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")
    )

    class Verify:
        def __init__(self):
            import pyarrow.dataset as pads

            self._ds = pads.dataset(source_parquet)

        def _fetch(self, docids: list[int]) -> dict[int, set]:
            """{docid: shingle set} for every requested docid — ONE
            isin-filtered scan (not per docid); a docid with no row in
            the parquet raises (never a silent empty set)."""
            import pyarrow.compute as pc_

            tbl = self._ds.to_table(
                columns=[id_col, text_col],
                filter=pc_.field(id_col).isin(docids),
            )
            out = {
                int(did): shingles(toks, k)
                for did, toks in zip(
                    tbl[id_col].to_pylist(),
                    analyzer.tokenize_batch(tbl[text_col].to_pylist()),
                )
            }
            not_found = [d for d in docids if d not in out]
            if not_found:
                raise ValueError(
                    f"{len(not_found)} candidate docid(s) have no row in "
                    f"{source_parquet} (first: {not_found[0]}) — the LSH "
                    "emit input and the verification source disagree"
                )
            return out

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids_a = batch["docid_a"].to_pylist()
            ids_b = batch["docid_b"].to_pylist()
            sh_map = self._fetch(sorted({int(x) for x in (*ids_a, *ids_b)}))
            out_a, out_b, out_j = [], [], []
            for da, db in zip(ids_a, ids_b):
                sa = sh_map[int(da)]
                sb = sh_map[int(db)]
                union = len(sa | sb)
                j = float(round_half_away(len(sa & sb) / union)) if union else 0.0
                if j >= threshold:
                    out_a.append(int(da))
                    out_b.append(int(db))
                    out_j.append(j)
            return pa.table(
                {
                    "docid_a": pa.array(out_a, pa.int64()),
                    "docid_b": pa.array(out_b, pa.int64()),
                    "jaccard": pa.array(out_j, pa.float64()),
                }
            )

    return map_per_block(cand, Verify, {})


# ------------------------------------------------------------- SimHash -----


def simhash64(tokens: list[str]) -> int:
    """tf-weighted SimHash of the token multiset over 62-bit token hashes
    (two 31-bit rolling hashes — SQL-expressible; bits 62/63 always 0).
    Vectorized: ONE (n_terms, 64) bit-matrix op per document, no per-term
    or per-bit Python loop."""
    if not tokens:
        return 0
    from collections import Counter

    c = Counter(tokens)
    hs = np.fromiter(
        (token_hash62_impl(t) for t in c), dtype=np.uint64, count=len(c)
    )
    tfs = np.fromiter(c.values(), dtype=np.int64, count=len(c))
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((hs[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
    acc = ((2 * bits - 1) * tfs[:, None]).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) << shifts).sum())


class SimHash:
    def __init__(self, id_col: str = "docid", text_col: str = "content"):
        self.id_col, self.text_col = id_col, text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        hs = [
            simhash64(toks)
            for toks in analyzer.tokenize_batch(batch[self.text_col].to_pylist())
        ]
        return pa.table(
            {
                "docid": batch[self.id_col],
                "simhash": pa.array([h >> 1 for h in hs], pa.int64()),
                # 4×16-bit bands for banding-based near-dup candidates
                # (int64 so the DuckDB oracle's BIGINT bit ops match dtype)
                "b0": pa.array([h & 0xFFFF for h in hs], pa.int64()),
                "b1": pa.array([(h >> 16) & 0xFFFF for h in hs], pa.int64()),
                "b2": pa.array([(h >> 32) & 0xFFFF for h in hs], pa.int64()),
                "b3": pa.array([(h >> 48) & 0xFFFF for h in hs], pa.int64()),
            }
        )


def simhash_fingerprints(ds, id_col: str = "docid", text_col: str = "content"):
    ensure_shippable()
    return ds.map_batches(
        SimHash(id_col=id_col, text_col=text_col), batch_format="pyarrow"
    )


# ----------------------------------------------------- duplicate spans -----


def _span_hashes(
    toks: list[str], window: int, memo: dict[str, int]
) -> np.ndarray:
    """Rolling ``window``-token span fingerprints: Horner base-137 fold
    over per-token 31-bit rolling hashes (SQL-expressible). One hash per
    span position; empty array if the doc is shorter than the window.
    Vectorized: ``window`` shifted multiply-adds, no per-window loop.
    ``memo`` caches token hashes across calls within one batch."""
    n = len(toks)
    if n < window:
        return np.empty(0, np.uint64)
    th = _token_hashes(toks, memo)
    m = n - window + 1
    B, P = np.uint64(137), np.uint64(P31)
    h = np.zeros(m, np.uint64)
    for k in range(window):  # Horner fold, vectorized over spans
        h = (h * B + th[k : k + m]) % P
    return h


def duplicate_spans(
    ds,
    id_col: str = "docid",
    text_col: str = "content",
    window: int = 8,
):
    """Window-level (substring) duplication detection — the contamination
    check a pretraining corpus runs below document granularity: → Dataset
    ``(whash, n_docs, n_occ)`` for every ``window``-token rolling span
    appearing in ≥2 DISTINCT documents, in ascending ``whash`` order.

    whash = Horner base-137 fold over the span's per-token 31-bit rolling
    hashes (the ``token_fingerprint`` family — SQL-expressible, so the
    oracle replays it exactly). Vectorized: the fold is ``window`` shifted
    multiply-adds over the doc's token-hash array, no per-window loop.

    Scale shape: per-batch combine (one lexsort + run-length count) to
    distinct ``(whash, docid, occ)`` rows — the shuffle carries one row per
    distinct (span, doc), the irreducible volume of an exact substring-dedup
    (suffix-array pipelines move the same). The finisher is block-level
    (``map_sorted_groups``): it lexsorts each whash-sorted block by
    ``(whash, docid)`` and takes every span's ``n_docs``/``n_occ`` with
    ``np.add.reduceat``, no Python call per span. Docids must fit int64.
    For 100-TB corpora, gate with a per-batch Bloom/sketch prefilter;
    exact output here."""
    ensure_shippable()

    def emit(batch: pa.Table) -> pa.Table:
        # safe cast: an id outside int64 raises instead of wrapping
        ids = pc.cast(batch[id_col], pa.int64()).combine_chunks().to_numpy()
        memo: dict[str, int] = {}
        hs = [
            _span_hashes(toks, window, memo)
            for toks in analyzer.tokenize_batch(batch[text_col].to_pylist())
        ]
        # uint64 → int64 on purpose: 31-bit span hashes keep their value
        wh = np.concatenate([np.empty(0, np.uint64), *hs]).astype(np.int64)
        docs = np.repeat(ids, [len(h) for h in hs])
        order = np.lexsort((docs, wh))
        wh, docs = wh[order], docs[order]
        starts = run_starts(wh, docs)
        return pa.table(
            {
                "whash": pa.array(wh[starts], pa.int64()),
                "docid": pa.array(docs[starts], pa.int64()),
                "occ": pa.array(np.diff(starts, append=len(wh)), pa.int64()),
            }
        )

    def finish(block: pa.Table) -> pa.Table:
        wh, docs, occ = (
            block[c].to_numpy() for c in ("whash", "docid", "occ")
        )
        order = np.lexsort((docs, wh))
        wh, docs, occ = wh[order], docs[order], occ[order]
        span = run_starts(wh)
        first_of_doc = np.zeros(len(wh), np.int64)
        first_of_doc[run_starts(wh, docs)] = 1
        n_docs = np.add.reduceat(first_of_doc, span)
        keep = n_docs >= 2
        return pa.table(
            {
                "whash": pa.array(wh[span][keep], pa.int64()),
                "n_docs": pa.array(n_docs[keep], pa.int64()),
                "n_occ": pa.array(np.add.reduceat(occ, span)[keep], pa.int64()),
            }
        )

    return map_sorted_groups(
        ds.map_batches(emit, batch_format="pyarrow"), "whash", finish
    )

# ------------------------------------------------- decontamination ---------


def decontaminate(
    corpus_ds,
    test_ds,
    id_col: str = "docid",
    text_col: str = "content",
    window: int = 8,
):
    """Cross-set (train-vs-eval) decontamination — the benchmark-leakage
    check every pretraining corpus runs before training: → Dataset
    ``(docid, n_spans, n_hits, contaminated)``, one row per CORPUS doc,
    where ``n_hits`` counts the doc's ``window``-token span occurrences
    whose fingerprint appears anywhere in the TEST set.

    Scale shape: the test side is the small side by definition (an eval
    benchmark, not a corpus), so its distinct span-hash set is collected
    once and broadcast via ``ray.put`` (sorted int64 array, zero-copy from
    plasma) — the corpus pass is then MAP-ONLY (no shuffle at all):
    per-doc rolling fingerprints (the same Horner fold as
    :func:`duplicate_spans`) membership-tested with one ``searchsorted``
    per doc. A 100-TB corpus streams through at read bandwidth; a 1M-span
    test set costs 8 MB per node.

    Docs shorter than the window get ``n_spans = n_hits = 0`` (nothing to
    leak). Span semantics are occurrence-level: a test span appearing 3
    times in a corpus doc counts 3 hits."""
    ensure_shippable()

    def emit_test_hashes(batch: pa.Table) -> pa.Table:
        memo: dict[str, int] = {}
        hs = [
            _span_hashes(toks, window, memo)
            for toks in analyzer.tokenize_batch(batch[text_col].to_pylist())
        ]
        u = (
            np.unique(np.concatenate(hs))
            if hs
            else np.empty(0, np.uint64)
        )
        # uint64 → int64 on purpose: 31-bit span hashes keep their value
        return pa.table({"whash": pa.array(u.astype(np.int64), pa.int64())})

    # small side: distinct test-set span hashes → one sorted broadcast
    # array (unique() on an all-empty dataset yields None / [None] —
    # normalize to an empty hash set)
    raw = (
        test_ds.map_batches(emit_test_hashes, batch_format="pyarrow")
        .unique("whash")
        or []
    )
    uniq = [v for v in raw if v is not None]
    test_hashes = np.sort(np.asarray(uniq, dtype=np.int64))
    ref = ray.put(test_hashes)

    class Scan:
        def __init__(self):
            self.th = ray.get(ref)  # zero-copy plasma read, once per block

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch[id_col].to_pylist()
            n_spans, n_hits = [], []
            memo: dict[str, int] = {}
            for toks in analyzer.tokenize_batch(batch[text_col].to_pylist()):
                # uint64 → int64 on purpose: 31-bit hashes keep their value
                h = _span_hashes(toks, window, memo).astype(np.int64)
                n_spans.append(len(h))
                if len(h) == 0 or len(self.th) == 0:
                    n_hits.append(0)
                    continue
                pos = np.searchsorted(self.th, h)
                pos[pos == len(self.th)] = 0
                n_hits.append(int((self.th[pos] == h).sum()))
            hits = np.asarray(n_hits, np.int64)
            return pa.table(
                {
                    "docid": pa.array(ids, pa.int64()),
                    "n_spans": pa.array(n_spans, pa.int64()),
                    "n_hits": pa.array(hits, pa.int64()),
                    "contaminated": pa.array(
                        (hits > 0).astype(np.int64), pa.int64()
                    ),
                }
            )

    return map_per_block(corpus_ds, Scan, {})
