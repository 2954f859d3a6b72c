"""Query execution: stateful actor-pool top-k BM25 (SURVEY §7 M4).

Ray-Data restatement of the reference's retrieval stage
(``DenseFlatIndexer.search_knn``, ``dpr/indexer/faiss_indexers.py:107-112``,
called from ``dense_retriever.py:168-179,596``): instead of a driver-resident
FAISS index, a ``map_batches`` actor pool (``QueryExecutor``) where each actor
lazily loads + caches posting lists from the term-partitioned segment store
(ST3/ST6 mapping) and answers exact top-k.

Three exact, rank-identical scoring paths:

- ``taat`` (default): vectorized term-at-a-time — accumulate float64
  contributions in sorted-term order (dense reusable buffer when the docid
  space is ordinal; np.unique merge otherwise), top-k via partition +
  (-score, docid) lexsort.
- ``maxscore`` (planned): on a dense index ``plan_route`` picks each
  query's route before any candidate work, from the dfs in its scored
  entries, with cost counted in postings touched. Head-only queries (no
  df ≤ 5% of Σdf) take impact-ordered expansion: per-term cached impact
  permutations, prefix rounds + a threshold-algorithm stop — sub-linear
  in df (~70x warm at 1.5M docs, measured). Otherwise MaxScore must
  gather ``need`` exact candidates (the ascending-df prefix reaching k)
  before θ exists: above 5% of Σdf the query takes one TAAT scatter
  instead (a df-1 id + head terms), else selective ascending-df rounds
  with exact searchsorted gathers and a remaining-upper-bound stop (~100x
  warm on rare+head queries with df_rare ≥ k, measured).
- ``bmw``: block-max pruning with conservative float32-rounded-up
  bounds. On a dense index it is block-pruned TAAT over the scored
  entries (``pruned_topk_dense``); on sparse ids it is document-at-a-time
  block-max WAND with a bounded min-heap (``bmw_topk``), whose cursors
  read blocks from the term's slice of the resident bucket table and
  never decode a skipped block.

All paths consume the per-posting (tf, dl) integers and recompute float64
scores, so engine scores == oracle scores bitwise, not approximately.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import os
from collections import Counter, OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from .. import analyzer, codec
from ..config import BM25Params, DEFAULT_TOP_K
from ..util import auto_pool

log = logging.getLogger(__name__)
from ..index import segments as seg
from . import scorer


import ray as _ray


class SegmentStore:
    """Per-actor view of an index: stats + LRU-cached posting lists.

    Cache layers (all per actor, shared across batches):
    - whole term buckets as Arrow tables, sorted by (term, slice_id), + a
      term → row range map: the first miss in a bucket reads it with one
      partition-pruned scan, and every later miss there is a zero-copy
      slice. LRU by Σdf under the ``cache_postings`` budget; the bucket
      just read always stays. ``bucket_reads`` counts the scans.
    - decoded + pre-scored arrays per term: (docids, float64 contributions,
      upper bound) — contributions depend only on (tf, dl, df, N, avgdl),
      all fixed for an index, so repeated terms across queries cost nothing;
      each actor fills it on first touch of a term
    - impact permutations per head term (``impact``)
    - dense docid → position maps per head term (``posmap``)
    """

    def __init__(self, index_dir: str,
                 cache_postings: int | None = None,
                 docid_range: tuple[int, int] | None = None,
                 banned_docids=None):
        # Query-time tombstones (the Lucene live-docs pattern): banned
        # docids are dropped at posting-DECODE time, so every method —
        # dense/sparse TAAT, MaxScore, both BMW variants — serves deletes
        # immediately without waiting for an upsert merge. Block-max
        # bounds stay valid (they bound a SUPERSET), so pruning remains
        # exact. Collection stats (df, N, avgdl) intentionally keep their
        # index-time values until a real merge, exactly like Lucene
        # deletes. Accepts a sequence or a ray.ObjectRef (one ray.put,
        # zero-copy plasma read per actor).
        self.banned: np.ndarray | None = None
        if banned_docids is not None:
            if isinstance(banned_docids, _ray.ObjectRef):
                banned_docids = _ray.get(banned_docids)
            b = np.unique(np.asarray(banned_docids, dtype=np.uint64))
            if len(b):
                self.banned = b
        # Per-actor cache ceiling, overridable for large-corpus deployments
        # (env knob follows the DPR_BATCH_ACCUM_MB convention). Combined
        # worst-case per-actor footprint over the four layers ≈ scored
        # (≤ cache_postings elements × ~20 B: int64 docid + float64
        # contribution + overhead) + impact perms (≤ cache_postings × 4 B
        # int32) + posmaps (≤ 3×cache_postings × 4 B) + resident term
        # buckets (≤ cache_postings encoded postings, ~4 B each, plus the
        # bucket just read) ≈ 4 GB at the 120M default — times the
        # query-pool size; shrink DPR_CACHE_POSTINGS (or the pool) when
        # corpus × actors exceeds node DRAM.
        if cache_postings is None:
            cache_postings = int(
                os.environ.get("DPR_CACHE_POSTINGS", 120_000_000)
            )
        self.index_dir = index_dir
        self.stats = seg.read_stats(index_dir)
        self.params = BM25Params(k1=self.stats["k1"], b=self.stats["b"])
        self.num_tbuckets = int(self.stats["num_tbuckets"])
        self.n_docs = int(self.stats["N"])
        self.avgdl = float(self.stats["avgdl"])
        self._ds = pads.dataset(
            os.path.join(index_dir, "segments"), partitioning="hive"
        )
        # tbucket → (table, term → (first row, row count), Σdf)
        self._buckets: OrderedDict[int, tuple] = OrderedDict()
        self._bucket_total = 0
        self.bucket_reads = 0
        self._scored: OrderedDict[str, tuple] = OrderedDict()
        self._scored_budget = cache_postings
        self._scored_total = 0
        self._impact: OrderedDict[str, np.ndarray] = OrderedDict()
        self._impact_total = 0
        self._posmap: OrderedDict[str, np.ndarray] = OrderedDict()
        self._posmap_total = 0
        # doc-sharded mode: this store only ever DECODES blocks intersecting
        # [lo, hi) — a hot posting list costs df/n_shards heap per actor, the
        # lever for corpora whose head terms exceed a worker's memory. df for
        # idf stays GLOBAL (scores must match the unsharded engine bitwise).
        if docid_range is not None:
            lo_r, hi_r = int(docid_range[0]), int(docid_range[1])
            if not (0 <= lo_r <= hi_r <= (1 << 64)):
                # a reversed range used to surface as an opaque numpy
                # "negative dimensions" error deep in the decode path
                raise ValueError(
                    f"docid_range must be half-open [lo, hi) with "
                    f"0 <= lo <= hi <= 2^64, got ({lo_r}, {hi_r})"
                )
            # store the PYTHON ints, not the caller's tuple: a numpy-typed
            # bound (e.g. np.uint64 from a docids.max()+1) silently promotes
            # `hi - 1` to float64 under NumPy 1.26 in scored()'s window mask,
            # losing up to ~2^11 of precision near 2^64
            docid_range = (lo_r, hi_r)
        self.docid_range = docid_range
        # dense TAAT accumulator: when docids are dense (ordinal strategy),
        # score into a reusable float64 buffer indexed by docid — O(postings)
        # adds, no per-query np.unique sort. Sparse (hash64) ids fall back.
        max_docid = int(self.stats.get("max_docid", 1 << 62))
        if docid_range is not None:
            span = int(docid_range[1]) - int(docid_range[0])
            self.dense_size = span if span < (1 << 23) else 0
        else:
            self.dense_size = max_docid + 1 if max_docid < (1 << 23) else 0
        self._dense_buf: np.ndarray | None = None
        self._dense_ids: np.ndarray | None = None
        self._multi_buf: np.ndarray | None = None
        self._scratch: tuple | None = None

    def dense_buffers(self):
        if self._dense_buf is None:
            self._dense_buf = np.zeros(self.dense_size, dtype=np.float64)
            self._dense_ids = np.arange(self.dense_size, dtype=np.uint64)
        return self._dense_buf, self._dense_ids

    def dense_scratch(self):
        """Persistent extraction scratch (partition copy + two masks):
        np.partition/mask allocations are dense_size-sized; fresh mmaps
        every query fault in new pages, and this class of VM serializes
        fault handling (~40-90 MB/s measured) — reuse makes extraction
        allocation-free."""
        if self._scratch is None:
            n = self.dense_size
            self._scratch = (np.empty(n, np.float64), np.empty(n, bool))
        return self._scratch

    def multi_group_size(self) -> int:
        """How many dense accumulators fit the batch-TAAT scratch budget
        (term-major accumulation amortizes each term's contribution stream
        across the queries of a group — the single biggest DRAM-bandwidth
        lever for head-heavy query batches). ≥2 required to pay.

        Gated to LARGE dense spaces (accumulator ≥ DPR_BATCH_MIN_ACCUM_MB,
        default 32 MB ≈ 4M docs): below that the term arrays are
        cache-resident anyway (measured ~1.1x at 500k docs) while the
        (g × dense_size) scratch costs g × dense_size × 8 B of one-time
        first-touch page faults per actor — a real regression on
        fault-throttled hosts. Above it, per-query streams dwarf cache and
        the amortization is the win the docstring describes."""
        if not self.dense_size:
            return 1
        min_mb = int(os.environ.get("DPR_BATCH_MIN_ACCUM_MB", "32"))
        if self.dense_size * 8 < (min_mb << 20):
            return 1
        budget = int(os.environ.get("DPR_BATCH_ACCUM_MB", "128")) << 20
        return max(1, min(16, budget // (self.dense_size * 8)))

    def dense_buffers_multi(self, g: int):
        """(g, dense_size) float64 zeroed scratch (persistent per actor —
        first-touch page faults are paid once) + the shared id map."""
        if self._multi_buf is None or self._multi_buf.shape[0] < g:
            self._multi_buf = np.zeros(
                (g, self.dense_size), dtype=np.float64
            )
        self.dense_buffers()  # ensure ids exist
        return self._multi_buf, self._dense_ids

    def scored(self, term: str):
        """Scored postings entry for one term, or None:
        ``(docids, contrib, ub, block_first, block_last, block_ub,
        block_offsets)`` — full float64-scored arrays PLUS per-block
        metadata (conservative contribution bounds + offsets into the
        decoded arrays) so the block-pruned executor can skip ranges
        without re-fetching. Decode + score happen once per term per actor
        (LRU by postings)."""
        hit = self._scored.get(term)
        if hit is not None:
            self._scored.move_to_end(term)
            return hit
        tbl = self.fetch([term])[term]
        if tbl is None:
            return None
        mask = None
        if self.docid_range is not None:
            # only blocks intersecting the shard are decoded, which keeps
            # the uint64 range mask below safe: a selected block has
            # block_first < hi, so hi >= 1 (hi - 1 cannot wrap) and
            # lo <= block_last < 2^64 (np.uint64(lo) cannot overflow).
            lo, hi = self.docid_range
            mask = np.array([
                bl >= lo and bf < hi for bf, bl in zip(
                    pc.list_flatten(tbl["block_first"]).to_pylist(),
                    pc.list_flatten(tbl["block_last"]).to_pylist(),
                )
            ], bool)
        docids, tfs, dls, _, vals_per_blob = seg.decode_blocks(tbl, mask)
        if not len(vals_per_blob):
            z = np.empty(0, np.uint64)
            zf = np.empty(0, np.float64)
            zi = np.zeros(1, np.int64)
            entry = (z, zf, 0.0, z.copy(), z.copy(), zf.copy(), zi)
        else:
            if self.banned is not None and len(docids):
                pos = np.searchsorted(self.banned, docids)
                posc = np.minimum(pos, len(self.banned) - 1)
                keep = self.banned[posc] != docids
                if not keep.all():
                    # shrink per-blob counts so block offsets stay aligned
                    csum = np.zeros(len(keep) + 1, np.int64)
                    np.cumsum(keep, out=csum[1:])
                    ends0 = np.cumsum(vals_per_blob)
                    vals_per_blob = csum[ends0] - csum[ends0 - vals_per_blob]
                    docids, tfs, dls = docids[keep], tfs[keep], dls[keep]
            if self.docid_range is not None:
                # boundary blocks may carry out-of-range postings. hi is
                # half-open and may be 2^64 (full-span shard over a
                # provided-id corpus), which overflows np.uint64 — compare
                # inclusively against hi-1 instead (identical for ints).
                m = (docids >= np.uint64(lo)) & (docids <= np.uint64(hi - 1))
                docids, tfs, dls = docids[m], tfs[m], dls[m]
            if self.dense_size:
                # int64 indices: numpy fancy-index scatter is ~2.3x faster
                # than with uint64 (measured); safe below the dense cutoff.
                # Ranged: rebase to buffer-local ids IN uint64 space first —
                # docids >= lo is guaranteed by the range mask above, so the
                # uint64 subtraction never wraps and the small offsets cast
                # cleanly, whereas astype(int64)-then-subtract breaks for
                # lo >= 2^63 (int64 wrap + numpy rejecting the python int).
                if self.docid_range is not None:
                    docids = (
                        docids - np.uint64(self.docid_range[0])
                    ).astype(np.int64)
                else:
                    docids = docids.astype(np.int64)
            # df stays GLOBAL in sharded mode: idf (and thus every score)
            # must equal the unsharded engine's bitwise
            df = pc.sum(tbl["df"]).as_py()
            contrib = scorer.score_contrib_vec(
                tfs, dls, df, self.n_docs, self.avgdl, self.params
            )
            ub = float(contrib.max()) if len(contrib) else 0.0
            term_idf = scorer.idf(df, self.n_docs)
            if self.docid_range is None:
                bfirst = pc.list_flatten(tbl["block_first"]).to_numpy()
                blast = pc.list_flatten(tbl["block_last"]).to_numpy()
                # conservative: block_max is a float32 tf_norm bound rounded UP
                bub = term_idf * pc.list_flatten(
                    tbl["block_max"]
                ).to_numpy().astype(np.float64)
                boffs = np.zeros(len(vals_per_blob) + 1, np.int64)
                np.cumsum(vals_per_blob, out=boffs[1:])
            elif len(docids):
                # boundary trimming invalidates per-block offsets: expose
                # the kept range as ONE block (coarser but conservative)
                bfirst = docids[:1].astype(np.uint64)
                blast = docids[-1:].astype(np.uint64)
                bub = np.array([ub], np.float64)
                boffs = np.array([0, len(docids)], np.int64)
            else:
                bfirst = np.empty(0, np.uint64)
                blast = np.empty(0, np.uint64)
                bub = np.empty(0, np.float64)
                boffs = np.zeros(1, np.int64)
            entry = (docids, contrib, ub, bfirst, blast, bub, boffs)
        self._scored[term] = entry
        self._scored_total += len(entry[0])
        while self._scored_total > self._scored_budget and len(self._scored) > 1:
            _, old = self._scored.popitem(last=False)
            self._scored_total -= len(old[0])
        return entry

    def impact(self, term: str) -> np.ndarray | None:
        """Impact permutation for one term: posting indices ordered by
        (-contribution, docid) — descending score impact. Computed once per
        term per actor (one lexsort, ~100 ms at df=1.2M) and LRU-cached:
        the amortized key to sub-linear head-only queries, where streaming
        the full posting list is pure memory-bus traffic."""
        p = self._impact.get(term)
        if p is not None:
            self._impact.move_to_end(term)
            return p
        e = self.scored(term)
        if e is None:
            return None
        d, c = e[0], e[1]
        p = np.lexsort((d, -c)).astype(np.int32 if len(d) < (1 << 31) else np.int64)
        self._impact[term] = p
        self._impact_total += len(p)
        while self._impact_total > self._scored_budget and len(self._impact) > 1:
            _, old = self._impact.popitem(last=False)
            self._impact_total -= len(old)
        return p

    def posmap(self, term: str) -> np.ndarray | None:
        """Dense docid → posting-position map for one term (int32, -1 =
        absent; dense docid spaces only). Turns candidate membership tests
        from binary searches over a multi-MB docid array into single
        random loads — the per-candidate cost lever of impact-ordered
        expansion. Cached per term per actor (dense_size × 4 bytes)."""
        if not self.dense_size:
            return None
        p = self._posmap.get(term)
        if p is not None:
            self._posmap.move_to_end(term)
            return p
        e = self.scored(term)
        if e is None:
            return None
        p = np.full(self.dense_size, -1, dtype=np.int32)
        p[e[0]] = np.arange(len(e[0]), dtype=np.int32)
        self._posmap[term] = p
        self._posmap_total += len(p)
        # int32 maps cost a quarter of a scored entry's bytes per element:
        # 3x the entry budget is still fewer bytes than the scored cache
        while self._posmap_total > 3 * self._scored_budget and len(self._posmap) > 1:
            _, old = self._posmap.popitem(last=False)
            self._posmap_total -= len(old)
        return p

    def fetch(self, terms: list[str]) -> dict[str, pa.Table | None]:
        """term → its segment rows (slices) as an Arrow table in slice_id
        order, or None if the term is absent: a zero-copy slice of the
        term's resident bucket table (read first if not resident)."""
        by_bucket: dict[int, list[str]] = {}
        for t in terms:
            b = seg.term_bucket(t, self.num_tbuckets)
            by_bucket.setdefault(b, []).append(t)
        out: dict[str, pa.Table | None] = {}
        for b, ts in by_bucket.items():
            tbl, rows_of, _ = self._bucket(b)
            for t in ts:
                span = rows_of.get(t)
                out[t] = None if span is None else tbl.slice(*span)
        return out

    def _bucket(self, b: int) -> tuple:
        """(table sorted by (term, slice_id), term → (first row, row
        count), Σdf) of term bucket ``b``, read once and kept in an LRU by
        Σdf; the bucket just read is never evicted."""
        hit = self._buckets.get(b)
        if hit is not None:
            self._buckets.move_to_end(b)
            return hit
        tbl = self._ds.to_table(filter=pc.field("tbucket") == b).sort_by(
            [("term", "ascending"), ("slice_id", "ascending")]
        )
        self.bucket_reads += 1
        rows_of: dict[str, tuple[int, int]] = {}
        for i, t in enumerate(tbl.column("term").to_pylist()):
            first, n = rows_of.get(t, (i, 0))
            rows_of[t] = (first, n + 1)
        entry = (tbl, rows_of, pc.sum(tbl.column("df")).as_py() or 0)
        self._buckets[b] = entry
        self._bucket_total += entry[2]
        while self._bucket_total > self._scored_budget and len(self._buckets) > 1:
            _, old = self._buckets.popitem(last=False)
            self._bucket_total -= old[2]
        return entry


class _PostingCursor:
    """Lazy-decoding cursor over one term's blocks (for BMW). A block is
    decoded only when the cursor actually lands in it; peeking the next
    docid at a block boundary uses block_first metadata, no decode."""

    __slots__ = (
        "idf", "block_first", "block_last", "block_ub", "_ub_sfx",
        "_enc", "_dec", "bi", "off", "nblocks",
    )

    def __init__(self, tbl: pa.Table, idf: float):
        self.idf = idf
        self.block_first, self.block_last, bmax = (
            pc.list_flatten(tbl[c]).to_numpy()
            for c in ("block_first", "block_last", "block_max")
        )
        self.block_ub = idf * bmax.astype(np.float64)
        # suffix max of block_ub: max_ub() fires once per active cursor
        # per WAND iteration, and rescanning block_ub[bi:] made pivot
        # selection O(pivots × blocks) per term. max() over identical
        # floats, so values are bitwise-unchanged.
        self._ub_sfx = (
            np.maximum.accumulate(self.block_ub[::-1])[::-1]
            if len(self.block_ub)
            else np.empty(0, np.float64)
        )
        self._enc = list(zip(*(
            pc.list_flatten(tbl[c]).to_pylist()
            for c in ("block_docids", "block_tfs", "block_dls")
        )))
        self._dec: dict[int, tuple] = {}
        self.nblocks = len(self._enc)
        self.bi = 0
        self.off = 0

    def exhausted(self) -> bool:
        return self.bi >= self.nblocks

    def cur_docid(self) -> int:
        if self.off == 0 and self.bi not in self._dec:
            return int(self.block_first[self.bi])  # peek without decoding
        d = self._decode(self.bi)[0]
        return int(d[self.off])

    def cur_block_ub(self) -> float:
        return float(self.block_ub[self.bi])

    def max_ub(self) -> float:
        return float(self._ub_sfx[self.bi]) if not self.exhausted() else 0.0

    def _decode(self, bi: int) -> tuple:
        dec = self._dec.get(bi)
        if dec is None:
            e = self._enc[bi]
            dec = (
                codec.delta_decode(e[0]),
                codec.decode_varint(e[1]),
                codec.decode_varint(e[2]),
            )
            self._dec[bi] = dec
        return dec

    def advance_to(self, target: int) -> None:
        """Move cursor to the first posting with docid >= target."""
        if self.exhausted():
            return
        t = np.uint64(target)
        bi = int(np.searchsorted(self.block_last, t, side="left"))
        if bi >= self.nblocks:
            self.bi = self.nblocks
            self.off = 0
            return
        if bi > self.bi:
            self.bi = bi
            self.off = 0
        if self.block_first[self.bi] >= t and self.off == 0:
            return  # block starts at/after target; no decode needed
        d = self._decode(self.bi)[0]
        off = int(np.searchsorted(d, t, side="left"))
        if off >= len(d):  # target past block end (can't happen: bl >= t)
            self.bi += 1
            self.off = 0
        else:
            self.off = max(self.off, off)

    def advance(self) -> None:
        """Step past the current posting."""
        d = self._decode(self.bi)[0]
        self.off += 1
        if self.off >= len(d):
            self.bi += 1
            self.off = 0

    def score_if_match(self, docid: int, avgdl: float, params: BM25Params) -> float:
        """Contribution of this term for ``docid`` if the cursor sits on it."""
        if self.exhausted():
            return 0.0
        d, tf, dl = self._decode(self.bi)
        if self.off < len(d) and int(d[self.off]) == docid:
            t = float(tf[self.off])
            l = float(dl[self.off])
            return self.idf * (
                t * (params.k1 + 1.0)
                / (t + params.k1 * (1.0 - params.b + params.b * l / avgdl))
            )
        return 0.0


def taat_topk_entries(
    entries: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized exact TAAT over pre-scored (docids, contrib) arrays given
    in sorted-term order. Returns (docids, scores), (-score, docid) order."""
    if not entries:
        return np.empty(0, np.uint64), np.empty(0, np.float64)
    if len(entries) == 1:
        docids, contrib = entries[0][0], entries[0][1]  # unique+sorted already
        order = scorer.topk_order(contrib, docids, k)
        return docids[order], contrib[order]
    all_docs = np.concatenate([e[0] for e in entries])
    all_contrib = np.concatenate([e[1] for e in entries])
    uniq, inv = np.unique(all_docs, return_inverse=True)
    scores = np.zeros(len(uniq), dtype=np.float64)
    # np.add.at accumulates sequentially over the concatenated (term-sorted)
    # order → per-doc summation order == oracle == BMW (bitwise determinism)
    np.add.at(scores, inv, all_contrib)
    order = scorer.topk_order(scores, uniq, k)
    return uniq[order], scores[order]


def taat_topk_dense(
    entries: list[tuple[np.ndarray, np.ndarray]],
    k: int,
    buf: np.ndarray,
    ids: np.ndarray,
    scratch: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact TAAT via a reusable dense accumulator indexed by docid. Each
    term's docids are unique, so ``buf[docids] += contrib`` is a plain
    vectorized scatter (term-sequential → same float64 summation order as
    every other path). Zeroes only the touched entries afterwards."""
    if not entries:
        return np.empty(0, np.uint64), np.empty(0, np.float64)
    if len(entries) == 1:
        docids, contrib = entries[0][0], entries[0][1]
        order = scorer.topk_order(contrib, docids, k)
        return docids[order], contrib[order]
    for e in entries:
        buf[e[0]] += e[1]
    return _dense_topk_extract(buf, ids, k, entries, scratch)


def _dense_topk_extract(
    buf: np.ndarray,
    ids: np.ndarray,
    k: int,
    entries: list[tuple],
    scratch: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k + reset over an accumulated dense buffer — the single source
    of truth for both the per-query and the batched term-major TAAT paths
    (shared code = shared bitwise behavior). ``scratch`` (partition copy +
    two bool masks, persistent per actor) makes the dense-size-sized
    temporaries allocation-free — identical values, no per-query mmap
    page-fault cycle."""
    # top-k over the touched (positive) entries only: compress the
    # positives into the persistent scratch (np.compress writes into a
    # preallocated buffer — no dense-sized fresh pages on this
    # fault-throttled VM) and partition just those. kth over positives ==
    # kth over the whole buffer whenever ≥k entries are positive, and the
    # p<k case reduces to "all positives" — bitwise-identical selection
    # with one full copy and one mask pass less per query.
    if len(buf) > k:
        if scratch is not None:
            part, m1 = scratch
            np.greater(buf, 0.0, out=m1)
            p = int(np.count_nonzero(m1))
            if p > k:
                vals = np.compress(m1, buf, out=part[:p])
                vals.partition(p - k)
                kth = vals[p - k]
                np.greater_equal(buf, kth, out=m1)  # kth > 0 ⇒ ⊆ positives
            mask = m1
        else:
            kth = np.partition(buf, len(buf) - k)[len(buf) - k]
            mask = (buf > 0.0) & (buf >= kth)
    else:
        mask = buf > 0.0
    cand = np.flatnonzero(mask)
    order = cand[np.lexsort((ids[cand], -buf[cand]))][:k]
    out = ids[order], buf[order].copy()
    # reset: a sequential memset streams ~8x faster than re-streaming the
    # docid arrays for a fancy-index zero once most of the buffer was hit
    if sum(len(e[0]) for e in entries) * 8 > len(buf):
        buf.fill(0.0)
    else:
        for e in entries:
            buf[e[0]] = 0.0
    return out


def taat_topk_dense_multi(
    qentries: list[list[tuple[str, tuple]]],
    k: int,
    bufs: np.ndarray,
    ids: np.ndarray,
    scratch: tuple | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Batched TERM-MAJOR dense TAAT: one group of queries accumulates
    together, streaming each shared term's (docids, contrib) arrays from
    DRAM once per GROUP instead of once per query (they stay cache-hot
    across the group's scatter-adds). Head-heavy query batches share most
    terms, so this divides posting-stream bandwidth — the single-node
    memory-bus wall — by up to the group size.

    ``qentries[j]`` is query j's [(term, scored-entry)] with terms sorted
    ascending. Terms are visited in globally sorted order, so each query's
    accumulation order is exactly its own sorted-term order — bitwise
    identical to the per-query ``taat_topk_dense`` path (test-gated).
    ``bufs`` is a (g≥len(qentries), dense_size) zeroed scratch."""
    union: dict[str, tuple[tuple, list[int]]] = {}
    for j, qe in enumerate(qentries):
        for t, e in qe:
            union.setdefault(t, (e, []))[1].append(j)
    for t in sorted(union):
        e, js = union[t]
        d, c = e[0], e[1]
        for j in js:
            bufs[j][d] += c
    return [
        _dense_topk_extract(bufs[j], ids, k, [e for _, e in qe], scratch)
        for j, qe in enumerate(qentries)
    ]


def _gather_exact(
    entries: list[tuple],
    new: np.ndarray,
    posmaps: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Exact scores for candidate docids ``new``: per-term contribution
    gathers accumulated in sorted-term order (the determinism contract —
    per-doc float64 summation order matches TAAT/oracle bitwise). Uses a
    dense position map when available (one random load per candidate)
    instead of binary searches over the docid arrays."""
    ne = np.zeros(len(new), dtype=np.float64)
    for i, e in enumerate(entries):
        pm = posmaps[i] if posmaps is not None else None
        if pm is not None:
            pos = pm[new]
            hit = pos >= 0
            ne[hit] += e[1][pos[hit]]
        else:
            d = e[0]
            if not len(d):
                # a term can carry ZERO postings inside a narrow
                # docid_range shard (scored() keeps the empty entry so df
                # stays global) — the clamped searchsorted below would
                # index d[-1] of an empty array
                continue
            pos = np.searchsorted(d, new)
            pos_c = np.minimum(pos, len(d) - 1)
            hit = d[pos_c] == new
            ne[hit] += e[1][pos_c[hit]]
    return ne


def _impact_expand(
    entries: list[tuple],
    k: int,
    buf: np.ndarray,
    ids: np.ndarray,
    perms: list[np.ndarray],
    posmaps: list[np.ndarray] | None = None,
    defer_taat: bool = False,
    scratch: tuple | None = None,
):
    """Exact top-k for head-only queries via impact-ordered candidate
    expansion (the threshold-algorithm shape over cached impact
    permutations).

    Each round consumes the next prefix of every term's impact order (its
    postings sorted by descending contribution), exact-scores the NEW
    candidate docids with the same sorted-term searchsorted gathers as
    maxscore (bitwise determinism contract), and stops when the k-th best
    exact candidate score strictly exceeds the sum of the per-list next
    UNSEEN impacts — a doc outside every consumed prefix scores at most
    that sum (contributions are positive: Lucene idf ≥ 0), so no outsider
    can reach or tie the top-k. Falls back to plain dense TAAT if the
    candidate set grows past a gather-vs-scatter break-even (flat
    contribution distributions don't discriminate).

    Warm cost is O(prefix · m log df) instead of streaming O(Σ df)
    postings through the accumulator — the memory-bandwidth lever at
    >1M-posting head terms."""
    m = len(entries)
    dfs = [len(e[0]) for e in entries]
    total = sum(dfs)
    plain = [(e[0], e[1]) for e in entries]
    p = [0] * m
    step = max(1024, 4 * k)
    cand = np.empty(0, entries[0][0].dtype)
    exact = np.empty(0, np.float64)
    predicted = False
    while True:
        parts = []
        for i in range(m):
            if p[i] < dfs[i]:
                sl = perms[i][p[i]:p[i] + step]
                parts.append(entries[i][0][sl])
                p[i] = min(p[i] + step, dfs[i])
        if not parts:
            break  # every list fully consumed: cand is the full union
        new = np.unique(np.concatenate(parts))
        if len(cand):
            new = new[~np.isin(new, cand, assume_unique=True)]
        if len(cand) + len(new) > 0.25 * total:
            return (None if defer_taat
                    else taat_topk_dense(plain, k, buf, ids, scratch))
        if len(new):
            ne = _gather_exact(entries, new, posmaps)
            cand = np.concatenate([cand, new])
            exact = np.concatenate([exact, ne])
        if len(exact) >= k:
            theta = float(np.partition(exact, len(exact) - k)[len(exact) - k])
            ub_unseen = sum(
                float(entries[i][1][perms[i][p[i]]])
                for i in range(m)
                if p[i] < dfs[i]
            )
            if ub_unseen < theta - 1e-9:
                break
            if not predicted:
                # One-time stop-cost prediction from block metadata: the
                # loop ends once Σ per-list frontiers < θ. Split θ across
                # lists proportional to their upper bounds and count the
                # postings living in blocks whose bound exceeds that share
                # (block bounds are conservative, so the estimate is an
                # overcount → biases toward TAAT, never breaks exactness).
                # Flat symmetric head lists (TAAT's home turf) bail here
                # after one cheap round instead of expanding 10% of the
                # index through random gathers.
                predicted = True
                ub_sum = sum(e[2] for e in entries) or 1.0
                est = 0
                for i, e in enumerate(entries):
                    share = theta * (e[2] / ub_sum)
                    if len(e) > 6 and len(e[5]):
                        sizes = e[6][1:] - e[6][:-1]
                        est += int(sizes[e[5] >= share].sum())
                    else:
                        # no block metadata: sample the impact order
                        stride = max(1, dfs[i] // 256)
                        samp = e[1][perms[i][::stride]]
                        est += int((samp >= share).sum()) * stride
                if est > total // 8:
                    return (None if defer_taat
                            else taat_topk_dense(plain, k, buf, ids, scratch))
        step *= 2
    order = np.lexsort((cand, -exact))[:k]
    return cand[order].astype(np.uint64), exact[order]


def plan_route(entries: list[tuple], k: int) -> str:
    """Route for one query on a dense index, chosen before any candidate
    work from the posting counts its scored entries already hold. Cost is
    counted in postings touched:

    - ``"impact"``: no selective term (every df > 5% of Σdf; a single
      term included) — impact-ordered expansion.
    - ``"taat"``: MaxScore cannot set θ before it holds k exact
      candidates, so it first gathers ``need`` = the shortest
      ascending-df prefix whose Σdf reaches k (all of Σdf when k > Σdf),
      each scored by ~m lookups. When ``need`` > 5% of Σdf — a df-1 id
      plus head terms at k=10 — one TAAT scatter of Σdf postings is
      cheaper (serve_distinct latency ×0.47, measured).
    - ``"maxscore"``: selective candidate rounds otherwise."""
    dfs = sorted(len(e[0]) for e in entries)  # plain ints: m is tiny
    total = sum(dfs)
    if dfs and dfs[0] > 0.05 * total:
        return "impact"
    need = next((s for s in itertools.accumulate(dfs) if s >= k), total)
    return "taat" if need > 0.05 * total else "maxscore"


def maxscore_topk_dense(
    entries: list[tuple],
    k: int,
    buf: np.ndarray,
    ids: np.ndarray,
    impact_fn=None,
    posmap_fn=None,
    defer_taat: bool = False,
    scratch: tuple | None = None,
):
    """Exact candidate-expansion MaxScore over pre-scored entries, on the
    sub-route ``plan_route`` chose: ``impact_fn`` given → impact-ordered
    expansion (``"impact"``), otherwise selective rounds (``"maxscore"``).

    With ``defer_taat=True``, every would-be plain-dense-TAAT fallback
    returns ``None`` instead so the caller can batch those queries through
    the term-major ``taat_topk_dense_multi`` (bandwidth amortization);
    the pruned paths are unaffected.

    Selective rounds process terms in ASCENDING df order. Each round adds
    the next term's postings to the candidate set and computes those
    documents' EXACT scores by sorted-term searchsorted gathers over every
    query term (the oracle's float64 summation order → bitwise-identical
    output, tested); θ = the k-th best exact candidate score so far.
    Before each round: any document lacking every processed term scores
    at most the sum of the remaining terms' upper bounds — when that is
    strictly below θ, no outside document can reach or tie the top-k and
    the loop stops.

    On selective queries (a rare term with df ≥ k + frequent terms) round
    one scores only df_rare documents, θ lands near the final k-th score,
    and the frequent terms' postings are never streamed (49 → ~2
    ms/query at 500k docs, measured). If the candidate set still grows
    past half of Σdf it falls back to plain dense TAAT (the safety net
    behind the planner's df-only estimate)."""
    if not entries:
        return np.empty(0, np.uint64), np.empty(0, np.float64)
    if len(entries) == 1:
        docids, contrib = entries[0][0], entries[0][1]
        order = scorer.topk_order(contrib, docids, k)
        return docids[order], contrib[order]
    plain = [(e[0], e[1]) for e in entries]
    if impact_fn is not None:
        perms = [impact_fn(i) for i in range(len(entries))]
        if all(pm is not None for pm in perms):
            posmaps = (
                [posmap_fn(i) for i in range(len(entries))]
                if posmap_fn is not None
                else None
            )
            return _impact_expand(
                entries, k, buf, ids, perms, posmaps,
                defer_taat=defer_taat, scratch=scratch,
            )
        return (None if defer_taat
                else taat_topk_dense(plain, k, buf, ids, scratch))
    dfs = np.array([len(e[0]) for e in entries], dtype=np.int64)
    total = int(dfs.sum())
    posmaps = None  # selective rounds: candidate sets are small, binary
    # search over the rare prefixes beats building dense maps
    order_df = np.argsort(dfs, kind="stable")
    ubs = np.array([e[2] for e in entries], dtype=np.float64)
    # match the entries' docid dtype (int64 on the dense path): seeding
    # uint64 made the first concatenate promote cand — and every
    # setdiff1d/lexsort after it — to float64 (same fix as _impact_expand)
    cand = np.empty(0, entries[0][0].dtype)
    exact = np.empty(0, np.float64)
    theta = -np.inf
    for round_i, ti in enumerate(order_df):
        if round_i > 0:
            if float(ubs[order_df[round_i:]].sum()) < theta - 1e-9:
                break  # outsiders provably below the k-th candidate score
            new = np.setdiff1d(entries[ti][0], cand, assume_unique=True)
        else:
            new = entries[ti][0]
        if len(cand) + len(new) > 0.5 * total:
            return (None if defer_taat
                    else taat_topk_dense(plain, k, buf, ids, scratch))
        if len(new):
            ne = _gather_exact(entries, new, posmaps)
            cand = np.concatenate([cand, new])
            exact = np.concatenate([exact, ne])
        if len(exact) >= k:
            theta = float(np.partition(exact, len(exact) - k)[len(exact) - k])
    order = np.lexsort((cand, -exact))[:k]
    return cand[order].astype(np.uint64), exact[order]


def _ranges_to_indices(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenated np.arange(s, e) for each (s, e) pair, vectorized."""
    lens = (ends - starts).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, np.int64)
    excl = np.concatenate([[0], np.cumsum(lens)[:-1]])
    return np.arange(total, dtype=np.int64) + np.repeat(starts - excl, lens)


def pruned_topk_dense(
    entries: list[tuple],
    k: int,
    buf: np.ndarray,
    ids: np.ndarray,
    scratch: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact block-max pruned TAAT over the dense accumulator — the
    vectorized BMW replacement (numpy over block metadata, no per-posting
    Python loop).

    1. θ₀ = k-th largest contribution of the rarest term (k docs provably
       have exact score ≥ θ₀, so θ₀ lower-bounds the true k-th score).
    2. Interval stabbing over every term's (block_first, block_last,
       block_ub): merge boundaries, cumsum a delta array → per-segment
       upper bound; segments with cover < θ₀ cannot host a top-k doc.
    3. Scatter ONLY postings of blocks intersecting surviving segments.
       Every block containing a doc of a surviving segment covers that
       segment, so survivors' partial sums are their EXACT scores with the
       same sorted-term float64 summation order as plain TAAT — output is
       bitwise identical (docs of dropped segments carry partial sums
       strictly below θ₀ and cannot reach or tie the top-k).

    Falls back to plain dense TAAT when pruning would keep most postings
    (uniform-ub head-only queries) — the pruning pass itself is O(blocks).
    """
    if not entries:
        return np.empty(0, np.uint64), np.empty(0, np.float64)
    plain = [(e[0], e[1]) for e in entries]
    if len(entries) == 1:
        docids, contrib = entries[0][0], entries[0][1]
        order = scorer.topk_order(contrib, docids, k)
        return docids[order], contrib[order]
    dfs = [len(e[0]) for e in entries]
    rare = min(range(len(entries)), key=lambda i: dfs[i])
    c = entries[rare][1]
    if len(c) < k:
        return taat_topk_dense(plain, k, buf, ids, scratch)
    theta0 = float(np.partition(c, len(c) - k)[len(c) - k]) - 1e-9
    firsts = np.concatenate([e[3] for e in entries]).astype(np.int64)
    lasts = np.concatenate([e[4] for e in entries]).astype(np.int64)
    ubs = np.concatenate([e[5] for e in entries])
    bounds = np.unique(np.concatenate([firsts, lasts + 1]))
    delta = np.zeros(len(bounds), np.float64)
    np.add.at(delta, np.searchsorted(bounds, firsts), ubs)
    np.add.at(delta, np.searchsorted(bounds, lasts + 1), -ubs)
    surv = np.cumsum(delta) >= theta0  # cover of [bounds[i], bounds[i+1])
    surv_cum = np.concatenate([[0], np.cumsum(surv)])
    keeps = []
    total_sel = 0
    for e in entries:
        lo = np.searchsorted(bounds, e[3].astype(np.int64), side="right") - 1
        hi = np.searchsorted(bounds, e[4].astype(np.int64), side="right") - 1
        keep = (surv_cum[hi + 1] - surv_cum[lo]) > 0
        keeps.append(keep)
        total_sel += int((e[6][1:][keep] - e[6][:-1][keep]).sum())
    if total_sel > 0.6 * sum(dfs):
        return taat_topk_dense(plain, k, buf, ids, scratch)
    touched = []
    for e, keep in zip(entries, keeps):
        if not keep.any():
            continue
        idx = _ranges_to_indices(e[6][:-1][keep], e[6][1:][keep])
        d = e[0][idx]
        buf[d] += e[1][idx]
        touched.append(d)
    if not touched:
        return taat_topk_dense(plain, k, buf, ids, scratch)
    cand = np.unique(np.concatenate(touched))
    vals = buf[cand]
    nz = vals > 0.0
    cand, vals = cand[nz], vals[nz]
    order = np.lexsort((cand, -vals))[:k]
    out = cand[order].astype(np.uint64), vals[order].copy()
    for d in touched:
        buf[d] = 0.0
    return out


def bmw_topk(
    term_rows: dict[str, pa.Table | None],
    n_docs: int,
    avgdl: float,
    params: BM25Params,
    k: int,
    banned: np.ndarray | None = None,
    docid_range: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact block-max WAND with a bounded min-heap. Rank-identical to TAAT.

    ``banned`` (sorted uint64): tombstoned docids never enter the heap —
    they may still be evaluated as pivots (bounds unchanged, pruning
    stays exact for every surviving doc), they just can't win.

    ``docid_range=(lo, hi)``: doc-sharded execution — only docs in the
    range can win. Cursors fast-forward to ``lo`` (block-skip, no decode)
    and the loop ends once every cursor passes ``hi``, so the evaluation
    branch only ever sees in-range pivots (a pivot ≥ hi can be selected
    from a laggard cursor, but then only drives laggard advancement).
    Per-doc scores are full-cursor sums in term-sorted order, so shard
    results are bitwise-equal to the unsharded engine's rows for that
    range."""
    cursors = [
        _PostingCursor(tbl, scorer.idf(pc.sum(tbl["df"]).as_py(), n_docs))
        for _t, tbl in sorted(term_rows.items()) if tbl is not None
    ]
    if not cursors or k <= 0:
        # k <= 0 must short-circuit like the other methods do: theta()'s
        # `len(heap) >= k` is vacuously true at k=0, so it would index
        # heap[0] of an empty heap
        return np.empty(0, np.uint64), np.empty(0, np.float64)
    hi = None
    if docid_range is not None:
        lo, hi = int(docid_range[0]), int(docid_range[1])
        if lo >= hi:
            # empty window ([lo, lo) is legal, e.g. a shard edge past
            # max_docid — and the only way lo can reach 2^64, which would
            # overflow the uint64 fast-forward below)
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        if lo > 0:
            for c in cursors:
                c.advance_to(lo)
    heap: list[tuple[float, int]] = []  # (score, -docid): heap[0] = weakest

    def theta() -> float:
        return heap[0][0] if len(heap) >= k else -np.inf

    while True:
        active = [c for c in cursors if not c.exhausted()]
        if not active:
            break
        active.sort(key=lambda c: c.cur_docid())
        if hi is not None and active[0].cur_docid() >= hi:
            break  # every remaining doc is past the shard range
        # WAND pivot: first doc where the running term-level UB sum beats θ
        th = theta()
        ub_sum = 0.0
        pivot = -1
        pivot_i = -1
        for i, c in enumerate(active):
            ub_sum += c.max_ub()
            if ub_sum > th:
                pivot = c.cur_docid()
                pivot_i = i
                break
        if pivot < 0:
            break  # total remaining UB can't beat θ: done
        if active[0].cur_docid() == pivot:
            # refine with BLOCK-max bounds before full evaluation
            block_sum = 0.0
            for c in active:
                if c.cur_docid() > pivot:
                    break
                c.advance_to(pivot)  # aligns block for block_ub
                if not c.exhausted() and c.cur_docid() <= pivot:
                    block_sum += c.cur_block_ub()
                elif not c.exhausted():
                    # cursor moved past pivot inside advance; no contribution
                    pass
            # pivot == active[0].cur_docid() < hi here (the loop breaks
            # above otherwise), so no range check is needed: out-of-range
            # docs can never reach this heap-push path
            is_banned = False
            if banned is not None:
                p_ = int(np.searchsorted(banned, np.uint64(pivot)))
                is_banned = p_ < len(banned) and int(banned[p_]) == pivot
            if block_sum > th and not is_banned:
                # full evaluation: cursors list is term-sorted → summation
                # order matches the oracle exactly
                score = 0.0
                for c in cursors:
                    if not c.exhausted() and c.cur_docid() == pivot:
                        score += c.score_if_match(pivot, avgdl, params)
                if len(heap) < k:
                    heapq.heappush(heap, (score, -pivot))
                elif score > heap[0][0]:
                    heapq.heapreplace(heap, (score, -pivot))
                # score == θ: later (larger) docid loses the tie — skip
            for c in cursors:
                if not c.exhausted() and c.cur_docid() == pivot:
                    c.advance()
        else:
            # advance laggards up to the pivot
            for c in active[:pivot_i]:
                c.advance_to(pivot)
    out = sorted(heap, key=lambda e: (-e[0], -e[1]))
    docids = np.array([-d for _s, d in out], dtype=np.uint64)
    scores = np.array([s for s, _d in out], dtype=np.float64)
    return docids, scores


def _check_method(method: str) -> None:
    if method not in ("taat", "maxscore", "bmw"):
        # a typo ('MaxScore', 'max-score') would otherwise fall through
        # every dispatch into the sparse BMW cursor path — rank-correct
        # but silently skipping the scored cache and dense accumulator
        # the caller meant to measure
        raise ValueError(
            f"unknown method {method!r}: expected 'taat', 'maxscore' "
            "or 'bmw'"
        )


class QueryExecutor:
    """map_batches actor: (qid, question) rows → (qid, question, rank, docid,
    score) top-k rows. Segment fetch is batched across the queries of a batch
    and LRU-cached across batches (per actor)."""

    def __init__(
        self,
        index_dir: str,
        k: int = DEFAULT_TOP_K,
        method: str = "taat",
        result_cache: int = 100_000,
        docid_range: tuple[int, int] | None = None,
        banned_docids=None,
    ):
        _check_method(method)
        self.store = SegmentStore(
            index_dir, docid_range=docid_range, banned_docids=banned_docids,
        )
        self.k = k
        self.method = method
        s = self.store.stats
        self.n_docs = int(s["N"])
        self.avgdl = float(s["avgdl"])
        # Result LRU keyed by the query's distinct-term set (the Lucene
        # query-cache analog): scores depend only on (term set, k, index),
        # and real query logs repeat heavily. Entries are top-k arrays —
        # ~200 B each. result_cache=0 disables.
        self._rcache: OrderedDict[tuple, tuple] = OrderedDict()
        self._rcache_max = result_cache
        # per-executor route mix: plan_route's decisions ("taat",
        # "maxscore", "impact"), "deferred" queries handed to the batched
        # TAAT, and "result_cache" hits
        self.routes: Counter = Counter()

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.k <= 0:
            # k <= 0 is an empty top-k for EVERY query and method (LIMIT 0
            # semantics). Guarded here, above the per-method scorers: the
            # dense paths size np.partition's kth as len(x) - k, which
            # indexes one past the end at k=0 (the sparse bmw_topk guard
            # alone only covered hash64 indexes).
            return pa.table(
                {
                    "qid": pa.array([], pa.string()),
                    "question": pa.array([], pa.string()),
                    "rank": pa.array([], pa.int32()),
                    "docid": pa.array([], pa.uint64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        qids = batch["qid"].to_pylist()
        questions = batch["question"].to_pylist()
        q_terms = [sorted(set(toks)) for toks in analyzer.tokenize_batch(questions)]
        dense_bmw = self.method == "bmw" and bool(self.store.dense_size)
        nq = len(qids)
        results: list = [None] * nq
        # Plain-dense-TAAT queries are DEFERRED and evaluated together by
        # taat_topk_dense_multi (term-major: shared head-term streams are
        # read from DRAM once per group, not once per query). Dedup by the
        # query's distinct-term tuple so in-batch repeats compute once.
        g = self.store.multi_group_size() if self.store.dense_size else 1
        can_defer = (
            g >= 2
            and self.method in ("taat", "maxscore")
            and bool(self.store.dense_size)
        )
        deferred: dict[tuple, list[int]] = {}
        deferred_pairs: dict[tuple, list] = {}
        for i, (qid, question, terms) in enumerate(
            zip(qids, questions, q_terms)
        ):
            ckey = (tuple(terms), self.k) if self._rcache_max else None
            cached = self._rcache.get(ckey) if ckey else None
            if cached is not None:
                self._rcache.move_to_end(ckey)
                results[i] = cached
                self.routes["result_cache"] += 1
                continue
            if self.method in ("taat", "maxscore") or dense_bmw:
                pairs = [
                    (t, e)
                    for t, e in ((t, self.store.scored(t)) for t in terms)
                    if e is not None
                ]
                entries = [e for _, e in pairs]
                pres = [t for t, _ in pairs]
                if self.store.dense_size:
                    buf, ids_arr = self.store.dense_buffers()
                    scratch = self.store.dense_scratch()
                    route = self.method
                    if route == "maxscore":
                        route = plan_route(entries, self.k)
                        self.routes[route] += 1
                    r = None
                    if route in ("maxscore", "impact"):
                        r = maxscore_topk_dense(
                            entries, self.k, buf, ids_arr,
                            impact_fn=(lambda i: self.store.impact(pres[i]))
                            if route == "impact" else None,
                            posmap_fn=lambda i: self.store.posmap(pres[i]),
                            defer_taat=can_defer, scratch=scratch,
                        )
                    elif not (route == "taat" and can_defer
                              and len(entries) >= 2):
                        topk = {
                            "taat": taat_topk_dense,
                            "bmw": pruned_topk_dense,
                        }[route]
                        r = topk(entries, self.k, buf, ids_arr, scratch)
                    if r is None:
                        key = tuple(terms)
                        deferred.setdefault(key, []).append(i)
                        deferred_pairs[key] = pairs
                        self.routes["deferred"] += 1
                        continue
                    docids, scores = r
                else:
                    # sparse ids: maxscore falls back to plain TAAT
                    docids, scores = taat_topk_entries(entries, self.k)
            else:
                # sparse docid space: document-at-a-time block-max WAND
                # over lazily-decoded cursors
                docids, scores = bmw_topk(
                    self.store.fetch(terms), self.n_docs, self.avgdl,
                    self.store.params, self.k,
                    banned=self.store.banned,
                    docid_range=self.store.docid_range,
                )
            results[i] = (docids, scores)
            if ckey is not None:
                self._rcache[ckey] = (docids, scores)
                while len(self._rcache) > self._rcache_max:
                    self._rcache.popitem(last=False)
        if deferred:
            keys = list(deferred)
            bufs, ids_arr = self.store.dense_buffers_multi(min(g, len(keys)))
            for start in range(0, len(keys), g):
                grp = keys[start : start + g]
                outs = taat_topk_dense_multi(
                    [deferred_pairs[kk] for kk in grp], self.k, bufs, ids_arr,
                    self.store.dense_scratch(),
                )
                for kk, out in zip(grp, outs):
                    for slot in deferred[kk]:
                        results[slot] = out
                    if self._rcache_max:
                        self._rcache[(kk, self.k)] = out
                        while len(self._rcache) > self._rcache_max:
                            self._rcache.popitem(last=False)
        # one columnar table for the whole batch. Each query's docids are
        # FORCED to uint64 before the concatenate: dense top-k paths return
        # the entry's own dtype (int64 on single-entry/maxscore fast paths)
        # and sparse ones uint64, and a mixed int64/uint64 concatenate
        # promotes to float64 (collapses docids near 2^63). Dense ids are
        # small non-negatives, so the astype is exact.
        lens = [len(r[0]) for r in results]
        docids = np.concatenate(
            [np.empty(0, np.uint64)]
            + [r[0].astype(np.uint64, copy=False) for r in results]
        )
        if self.store.docid_range is not None and self.store.dense_size:
            # buffer-local ids back to absolute docids, added in uint64
            # (int64 + np.uint64(lo) would wrap or promote to float64)
            docids += np.uint64(self.store.docid_range[0])
        scores = np.concatenate(
            [np.empty(0, np.float64)]
            + [r[1].astype(np.float64, copy=False) for r in results]
        )
        n = np.asarray(lens, np.int64)
        rank = np.arange(1, len(docids) + 1) - np.repeat(np.cumsum(n) - n, n)
        return pa.table(
            {
                "qid": _per_row(qids, lens),
                "question": _per_row(questions, lens),
                "rank": pa.array(rank.astype(np.int32), pa.int32()),
                "docid": pa.array(docids, pa.uint64()),
                "score": pa.array(scores, pa.float64()),
            }
        )


def _per_row(values: list, lens: list[int]) -> pa.Array:
    """String column holding ``values[i]`` ``lens[i]`` times in a row.
    Repeating the Python references costs less than an Arrow ``take`` on
    the one-query batches of serial serving (~30 µs a call there)."""
    rows = itertools.chain.from_iterable(map(itertools.repeat, values, lens))
    return pa.array(list(rows), pa.string())


class DocJoin:
    """Attach docstore columns (title/text/ext_id/...) to result rows by
    docid — the J1 join (reference builds a 21M-entry driver dict instead,
    ``dense_retriever.py:461-469``). Per batch: one parquet scan filtered to
    the batch's unique docids; the docstore is written docid-SORTED, so
    pyarrow prunes row groups by min/max stats (docid-range pruning).

    Scale trade-off: this probe shape streams inside a warm pipeline
    (no shuffle barrier, pool already up), but at bulk result volume
    every batch re-scans overlapping row groups and a one-shot use pays
    pool spawn. For one-shot or bulk joins use
    ``doc_join_copartitioned`` — one shuffle of the (small) result rows
    by the docstore's own part-file ranges, then each docstore file is
    scanned once per run, not once per batch (measured 7× at 2k AND
    200k result rows, BASELINE.md round 4)."""

    def __init__(self, index_dir: str, columns: list[str] | None = None):
        self.columns = columns or ["ext_id", "title", "content"]
        self._ds = pads.dataset(
            os.path.join(index_dir, "docstore"), partitioning="hive"
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            out = {name: batch[name] for name in batch.column_names}
            for c in self.columns:
                out[c] = pa.array([], self._ds.schema.field(c).type)
            return pa.table(out)
        docids = batch["docid"].to_numpy(zero_copy_only=False)
        uniq = np.unique(docids)
        filt = pc.field("docid").isin(pa.array(uniq, pa.uint64()))
        docs = self._ds.to_table(columns=["docid"] + self.columns, filter=filt)
        d_ids = docs["docid"].to_numpy(zero_copy_only=False)
        order = np.argsort(d_ids)
        sorted_ids = d_ids[order]
        ins = np.searchsorted(sorted_ids, docids)
        hit = (ins < len(sorted_ids)) & (
            sorted_ids[np.minimum(ins, max(len(sorted_ids) - 1, 0))]
            == docids
        ) if len(sorted_ids) else np.zeros(len(docids), bool)
        if not hit.all():
            # loud failure over silent mis-join (same contract as the
            # co-partitioned path): a docid the docstore doesn't hold
            # would otherwise take a neighboring row's content
            missing = docids[~hit]
            raise ValueError(
                f"{len(missing)} result docid(s) not in docstore "
                f"(first: {int(missing[0])})"
            )
        pos = order[ins]
        out = {name: batch[name] for name in batch.column_names}
        for c in self.columns:
            out[c] = docs[c].take(pa.array(pos, pa.int64()))
        return pa.table(out)


def doc_join_copartitioned(results_ds, index_dir: str, columns=None):
    """Range-co-partitioned variant of :class:`DocJoin` — identical
    output, different scan shape. The docstore is a directory of
    docid-SORTED parts named ``part-<lo>-<hi>.parquet`` (disjoint docid
    ranges); the driver lists the directory once (names only, no data),
    broadcasts the (lo, hi) arrays via one ``ray.put``, and each result
    row is tagged with the index of the part file owning its docid
    (searchsorted — a map-only stage). One ``groupby(dpart)`` then
    co-locates every row that needs a given part, so each docstore file
    is opened and scanned ONCE per run instead of being re-probed by
    every result batch. The shuffle moves only the narrow result rows
    (qid, rank, docid, ...), never document text.

    Measured (BASELINE.md round 4, 100k-doc docstore): 7× faster than
    the probe for ONE-SHOT joins at both 2k and 200k result rows — the
    probe pays actor-pool spawn per run and re-probes row groups per
    batch. The probe remains the right shape INSIDE a warm streaming
    pipeline (``search_pipeline(with_docs=True)`` default): its pool is
    already up, and it streams results as they arrive instead of
    inserting a shuffle barrier."""
    from .._shipping import ensure_shippable

    ensure_shippable()
    import ray

    import re as _re

    cols = columns or ["ext_id", "title", "content"]
    store_dir = os.path.join(index_dir, "docstore")
    # ONLY range-named parts participate: an empty-corpus build or a
    # fully-deleted upsert merge writes a schema-only "empty.parquet"
    # (build.py:359, merge.py empty path) that must not be range-parsed
    names = sorted(
        fn for fn in os.listdir(store_dir)
        if _re.fullmatch(r"part-\d+-\d+\.parquet", fn)
    )
    if not names:
        if any(
            fn.endswith(".parquet") for fn in os.listdir(store_dir)
        ):  # schema-only empty docstore: a join against it is empty
            if results_ds.count() == 0:
                # keep the DocJoin schema contract: the probe path appends
                # typed empty doc columns on its empty-batch path, so this
                # mode must too — downstream select_columns/writes see the
                # same schema either way. Built as one explicit empty
                # Arrow table: a map_batches over a zero-block Dataset can
                # drop the appended columns entirely.
                rs = results_ds.schema()
                dschema = pads.dataset(
                    store_dir, partitioning="hive"
                ).schema
                arrs = {
                    n: pa.array([], t)
                    for n, t in zip(rs.names, rs.types)
                }
                for c in cols:
                    arrs[c] = pa.array([], dschema.field(c).type)
                import ray.data as _rd

                return _rd.from_arrow(pa.table(arrs))
            raise ValueError(
                f"docstore under {store_dir} is empty but the result set "
                "is not — result docids cannot be joined"
            )
        raise FileNotFoundError(f"no docstore parts under {store_dir}")
    # part-<lo>-<hi>.parquet; zero-padded so lexical sort == numeric sort
    lo = np.array([int(fn.split("-")[1]) for fn in names], np.uint64)
    hi = np.array(
        [int(fn.split("-")[2].split(".")[0]) for fn in names], np.uint64
    )
    ranges_ref = ray.put((lo, hi))

    def tag(batch: pa.Table) -> pa.Table:
        los, _ = ray.get(ranges_ref)
        # uint64 throughout — int64-typed result docids near 2^63 must
        # not promote to float64 in searchsorted
        d = batch["docid"].to_numpy(zero_copy_only=False).astype(np.uint64)
        idx = (
            np.searchsorted(los, d, side="right").astype(np.int64) - 1
            if len(d)
            else np.empty(0, np.int64)
        )
        return batch.append_column(
            "dpart", pa.array(np.maximum(idx, 0), pa.int64())
        )

    def join_group(group: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq_

        part_idx = int(group["dpart"][0].as_py())
        los, his = ray.get(ranges_ref)
        fname = (
            f"part-{int(los[part_idx]):020d}-"
            f"{int(his[part_idx]):020d}.parquet"
        )
        docids = (
            group["docid"].to_numpy(zero_copy_only=False).astype(np.uint64)
        )
        docs = pq_.read_table(
            os.path.join(store_dir, fname), columns=["docid"] + cols
        )
        d_ids = docs["docid"].to_numpy(zero_copy_only=False)
        # the part is docid-sorted on disk; one searchsorted merges
        pos = np.searchsorted(d_ids, docids)
        hit = (pos < len(d_ids)) & (
            d_ids[np.minimum(pos, max(len(d_ids) - 1, 0))] == docids
        ) if len(d_ids) else np.zeros(len(docids), bool)
        if not hit.all():
            # silent mis-joins are worse than a loud failure: a docid the
            # docstore doesn't hold (stale results vs a refreshed index)
            # would otherwise take SOME row's content
            missing = docids[~hit]
            raise ValueError(
                f"{len(missing)} result docid(s) not in docstore part "
                f"{fname} (first: {int(missing[0])})"
            )
        out = {
            name: group[name]
            for name in group.column_names
            if name != "dpart"
        }
        for c in cols:
            out[c] = docs[c].take(pa.array(pos, pa.int64()))
        return pa.table(out)

    return (
        results_ds.map_batches(tag, batch_format="pyarrow")
        .groupby("dpart")
        .map_groups(join_group, batch_format="pyarrow")
    )


# CPUs the query pools' minimums leave free: one for upstream tasks (the
# queries' read or repartition shuffle, the sharded per-qid merge) and one
# each for the minimum actor of the downstream pools a serving call may
# chain on (DocJoin, retrieve_and_evaluate's AttachHasAnswer).
_CPUS_LEFT_BY_QUERY_POOLS = 3


def _shard_concurrency(caller, total_cpus: int, doc_shards: int):
    """(min, max) actor bounds for each of the ``doc_shards`` query pools
    (one pool when unsharded) — the one sizing rule for every
    ``search_pipeline`` call.

    Default: an autoscaling pool from 1 up to the bandwidth cap
    ``min(total-1, max(8, total//2))``, split across the shards. Dense
    scoring is memory-bandwidth-bound — measured 892 QPS at 16 actors vs
    834 at 31 on a 32-CPU node (500k docs) — so actors past half the
    node only add spawn cost. (Per NODE: on a multi-node cluster each
    node brings its own memory bus.)

    ``caller`` (the ``search_pipeline(concurrency=...)`` value) applies to
    EACH pool, but its MINIMUM is clamped so the pools' summed minimums
    leave ``_CPUS_LEFT_BY_QUERY_POOLS`` CPUs free: pool minimums are held
    reservations, and minimums that hold every CPU starve the upstream
    shuffle or the downstream pools of the same streaming execution — a
    real measured deadlock (an actor pool after a shuffle at 4 CPUs;
    ``search_pipeline(with_docs=True)`` over a repartitioned query set
    with a ``(3, 3)`` pool at 4 CPUs never finished). Pool MAXIMUMS are
    autoscaling demand, not held reservations, so the caller's max passes
    through."""
    bandwidth_cap = max(1, min(total_cpus - 1, max(8, total_cpus // 2)))
    if caller is None:
        return (1, max(1, bandwidth_cap // doc_shards))
    cap = max(1, (total_cpus - _CPUS_LEFT_BY_QUERY_POOLS) // doc_shards)
    cmin, cmax = (caller, caller) if isinstance(caller, int) else caller
    if cmin > cap:
        log.warning(
            "%d query pool(s) with min concurrency %d would reserve %d CPUs "
            "of %d and starve the stages around them — clamping each "
            "pool's minimum to %d",
            doc_shards, cmin, cmin * doc_shards, total_cpus, cap,
        )
        cmin = cap
    return (cmin, max(cmax, cmin))


def search_pipeline(
    queries_ds,
    index_dir: str,
    k: int = DEFAULT_TOP_K,
    method: str = "taat",
    concurrency=None,
    with_docs: bool = False,
    doc_columns: list[str] | None = None,
    doc_shards: int | None = None,
    doc_join_mode: str = "probe",
    banned_docids=None,
):
    """queries Dataset (qid, question) → top-k result Dataset
    (qid, question, rank, docid, score [, doc columns]).

    One streaming execution: ``map_batches(QueryExecutor)`` (per shard,
    see below), then the optional doc join. Every executor actor decodes
    and scores each term on its first touch and keeps it in its scored
    LRU. ``concurrency`` sizes each query pool; ``_shard_concurrency``
    holds the one rule (default: autoscaling from 1 to the bandwidth cap).

    Known cost of serving without a cluster-wide warm-up: there is no
    decode-once-per-cluster broadcast of scored entries and head-term
    impact permutations any more, so each actor pays its own first decode
    and lexsort of a head term. The removed broadcast was credited with
    84.4 → 63.2 s on 1.5M docs at 32 CPUs (BASELINE round 2) and 3.2× on
    5M-doc tombstoned serving; no benchmark workload reaches that size,
    and it was not re-measured there. At the benchmark's 10k-doc size the
    warm-up pass lost on both serving workloads.

    ``banned_docids``: query-time tombstones (Lucene live-docs pattern) —
    one ``ray.put`` broadcast; banned docs vanish from results of every
    method with pruning still exact (filtered at posting decode; bounds
    bound a superset). Serves deletes IMMEDIATELY between upsert merges;
    collection stats stay index-time until the merge, as in Lucene.

    ``doc_shards=S``: doc-sharded execution for corpora whose hot posting
    lists exceed a worker's heap — S executor pools each own a docid RANGE
    and decode ONLY blocks intersecting it (per-actor heap ~ df/S per hot
    term); per-shard top-k merge by qid with the exact (-score, docid)
    order. Bitwise-identical to the unsharded path (a doc's postings live
    in exactly one shard, so per-doc float summation is unchanged);
    identity test-gated."""
    _check_method(method)
    if doc_join_mode not in ("probe", "copartition"):
        raise ValueError(
            f"unknown doc_join_mode {doc_join_mode!r}: expected 'probe' "
            "or 'copartition'"
        )
    from .._shipping import ensure_shippable

    ensure_shippable()
    import ray

    total = int(ray.cluster_resources().get("CPU", 4))
    banned_ref = None
    if banned_docids is not None:
        b = np.unique(np.asarray(banned_docids, dtype=np.uint64))
        if len(b):
            banned_ref = ray.put(b)  # one put; zero-copy read per actor
    shards = doc_shards if doc_shards and doc_shards > 1 else 1
    exec_kwargs = {
        "index_dir": index_dir, "k": k, "method": method,
        "banned_docids": banned_ref,
    }
    pool = _shard_concurrency(concurrency, total, shards)
    if shards == 1:
        res = queries_ds.map_batches(
            QueryExecutor,
            fn_constructor_kwargs=exec_kwargs,
            batch_format="pyarrow",
            concurrency=pool,
        )
    else:
        stats = seg.read_stats(index_dir)
        if "max_docid" not in stats:
            # defaulting to 0 would make every shard an empty window and
            # silently serve (near-)nothing; a hand-built/corrupt index
            # must fail loudly here (unsharded SegmentStore treats the
            # same missing stat as sparse full-range and stays correct)
            raise ValueError(
                f"stats.json under {index_dir} lacks max_docid — cannot "
                "compute doc_shards ranges (rebuild the index or serve "
                "unsharded)"
            )
        span = int(stats["max_docid"]) + 1
        # integer edge math: hash64 docids approach 2^63, where float64
        # linspace loses exactness (and int64 casts can overflow)
        edges = [span * s // shards for s in range(shards + 1)]
        shard_res = []
        for s in range(shards):
            kw = dict(exec_kwargs)
            kw["docid_range"] = (edges[s], edges[s + 1])
            shard_res.append(
                queries_ds.map_batches(
                    QueryExecutor,
                    fn_constructor_kwargs=kw,
                    batch_format="pyarrow",
                    concurrency=pool,
                )
            )
        res = shard_res[0]
        for r in shard_res[1:]:
            res = res.union(r)

        def merge_topk(group: pa.Table) -> pa.Table:
            docids = group["docid"].to_numpy(zero_copy_only=False)
            scores = group["score"].to_numpy(zero_copy_only=False)
            order = np.lexsort((docids, -scores))[:k]
            take = pa.array(order, pa.int64())
            return pa.table(
                {
                    "qid": group["qid"].take(take),
                    "question": group["question"].take(take),
                    "rank": pa.array(
                        np.arange(1, len(order) + 1, dtype=np.int32),
                        pa.int32(),
                    ),
                    "docid": group["docid"].take(take),
                    "score": group["score"].take(take),
                }
            )

        res = res.groupby("qid").map_groups(merge_topk, batch_format="pyarrow")
    if with_docs:
        if doc_join_mode == "copartition":
            res = doc_join_copartitioned(res, index_dir, columns=doc_columns)
        else:
            res = res.map_batches(
                DocJoin,
                fn_constructor_kwargs={
                    "index_dir": index_dir, "columns": doc_columns,
                },
                batch_format="pyarrow",
                concurrency=auto_pool(0.5),
            )
    return res
