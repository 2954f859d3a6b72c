"""Segment layout and posting-list (de)serialization.

On-disk index layout (replaces the reference's FAISS index file + pickled id
map, ``dpr/indexer/faiss_indexers.py:41-79``):

    <index_dir>/
      stats.json                       # {"N", "avgdl", "sum_dl", ...}
      manifest.json                    # build lineage + per-stage metrics
      checkpoints.json                 # signed resume entries (manifest.py)
      docstore/part-<lo>-<hi>.parquet  # docid-sorted, range-named parts
      segments/tbucket=<i>/*.parquet   # term-partitioned posting lists

Segment schema (one row per term SLICE — FIXTURES.md F7):
    term: string, tbucket: int32, slice_id: int32, df: int64, cf: int64,
    block_first / block_last: list<uint64>,
    block_max: list<float32>,                         # block-max tf_norm bound
    block_docids / block_tfs / block_dls: list<binary>  # delta+varint / varint

A term's postings are docid-sorted, cut into slices of at most
``max_postings_per_slice`` (so no Arrow row outgrows a block even for
stopword-scale terms — SURVEY §7 hard part (d)), and within a slice into
fixed ``block_size`` blocks carrying a conservative max-score bound for WAND.
``df``/``cf`` are per-slice partials; readers sum them. Slice boundaries are
fixed positions in the docid-sorted postings, so the encoded segment bytes
are a pure function of the logical posting set — independent of salting,
parallelism, or resume points.

``tbucket = crc32(term) % num_tbuckets`` is the stable term-partitioning
function shared by build and query (partition pruning at query time).

The codec: every reader and rewriter of segment rows goes through two
functions here. ``decode_blocks`` decodes all blocks of a segment table
(any rows, any terms; optionally only the blocks of a mask) with one
delta and two varint decodes over the concatenated blobs, and reports
each posting's row. ``encode_bucket`` is its inverse for a whole term
bucket: lexsort by (term, docid), one run per term, small unsalted runs
through the batched ``encode_single_block_lists``, the rest through
``encode_posting_list``. Build (``merge_bucket``), merge
(``_remerge_buckets``), the query store (``SegmentStore.scored``) and the
postings dump (``entrypoints.q_postings``) all use this pair.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import codec
from ..config import BLOCK_SIZE, BM25Params

MAX_POSTINGS_PER_SLICE = 1_000_000

SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("tbucket", pa.int32()),
        ("slice_id", pa.int32()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("block_first", pa.list_(pa.uint64())),
        ("block_last", pa.list_(pa.uint64())),
        ("block_max", pa.list_(pa.float32())),
        ("block_docids", pa.list_(pa.binary())),
        ("block_tfs", pa.list_(pa.binary())),
        ("block_dls", pa.list_(pa.binary())),
    ]
)


def term_bucket(term: str, num_tbuckets: int) -> int:
    return zlib.crc32(term.encode()) % num_tbuckets


def encode_posting_list(
    term: str,
    docids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    avgdl: float,
    params: BM25Params,
    num_tbuckets: int,
    block_size: int = BLOCK_SIZE,
    max_postings_per_slice: int = MAX_POSTINGS_PER_SLICE,
    slice_id_offset: int = 0,
) -> list[dict]:
    """Sort postings by docid, slice, block, encode. Returns segment-row
    dicts (one per slice, ids starting at ``slice_id_offset``).
    Deterministic regardless of input order."""
    order = np.argsort(docids, kind="stable")
    docids = docids[order].astype(np.uint64)
    tfs = np.asarray(tfs)[order]
    dls = np.asarray(dls)[order]
    n = len(docids)
    tb = term_bucket(term, num_tbuckets)
    rows = []
    for slice_id, ss in enumerate(range(0, n, max_postings_per_slice)):
        se = min(ss + max_postings_per_slice, n)
        sd, st, sl = docids[ss:se], tfs[ss:se], dls[ss:se]
        b_first, b_last, b_max, b_doc, b_tf, b_dl = [], [], [], [], [], []
        for s in range(0, len(sd), block_size):
            e = min(s + block_size, len(sd))
            d, t, l = sd[s:e], st[s:e], sl[s:e]
            b_first.append(int(d[0]))
            b_last.append(int(d[-1]))
            b_max.append(
                float(codec.max_tf_norm_bound(t, l, avgdl, params.k1, params.b))
            )
            b_doc.append(codec.delta_encode(d))
            b_tf.append(codec.encode_varint(t))
            b_dl.append(codec.encode_varint(l))
        rows.append(
            {
                "term": term,
                "tbucket": tb,
                "slice_id": slice_id_offset + slice_id,
                "df": int(len(sd)),
                "cf": int(np.asarray(st, dtype=np.uint64).sum()),
                "block_first": b_first,
                "block_last": b_last,
                "block_max": b_max,
                "block_docids": b_doc,
                "block_tfs": b_tf,
                "block_dls": b_dl,
            }
        )
    return rows


def encode_single_block_lists(
    terms: list[str],
    group_offsets: np.ndarray,
    docids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    avgdl: float,
    params: BM25Params,
    num_tbuckets: int,
    salts: np.ndarray | None = None,
) -> tuple[pa.Table, np.ndarray]:
    """Vectorized encode of MANY single-block posting lists at once.

    Inputs are per-term-CONCATENATED arrays (term i owns
    ``[group_offsets[i], group_offsets[i+1])``, docid-sorted within each
    term). One numpy pass computes deltas-with-resets, varint bytes with
    per-value counts, per-term byte offsets, reduceat df/cf/block-max —
    no per-term numpy calls, which otherwise dominate on code-scale
    vocabularies (~70µs × |vocab| per batch, measured). Byte output is
    IDENTICAL to ``encode_posting_list`` for n ≤ block_size terms.

    Returns (segment table [+ salt column when given], per-term df)."""
    T = len(terms)
    if T == 0:
        empty = rows_to_table([])
        if salts is not None:
            empty = empty.append_column("salt", pa.array([], pa.int64()))
        return empty, np.empty(0, np.int64)
    docids = docids.astype(np.uint64)
    starts = group_offsets[:-1]
    ends = group_offsets[1:]
    if not (ends > starts).all():
        # an empty group would SILENTLY steal a neighbor's bounds
        # (reduceat identity semantics; first/last index out of the
        # group) — a df=0 row with bogus block_max corrupts BMW pruning.
        # No caller produces empty groups; make the precondition loud.
        raise ValueError(
            "encode_single_block_lists: empty term group "
            f"(term {terms[int(np.argmin(ends - starts))]!r})"
        )
    deltas = docids.copy()
    deltas[1:] = docids[1:] - docids[:-1]
    deltas[starts] = docids[starts]
    d_bytes, d_cnt = codec.encode_varint_with_counts(deltas)
    t_bytes, t_cnt = codec.encode_varint_with_counts(tfs)
    l_bytes, l_cnt = codec.encode_varint_with_counts(dls)
    d_off = np.zeros(len(docids) + 1, dtype=np.int64)
    np.cumsum(d_cnt, out=d_off[1:])
    t_off = np.zeros_like(d_off)
    np.cumsum(t_cnt, out=t_off[1:])
    l_off = np.zeros_like(d_off)
    np.cumsum(l_cnt, out=l_off[1:])
    tf64 = tfs.astype(np.float64)
    dl64 = dls.astype(np.float64)
    norm = tf64 * (params.k1 + 1.0) / (
        tf64 + params.k1 * (1.0 - params.b + params.b * dl64 / avgdl)
    )
    bmax = np.nextafter(
        np.maximum.reduceat(norm, starts).astype(np.float32),
        np.float32(np.inf),
    )
    dfs = (ends - starts).astype(np.int64)
    cfs = np.add.reduceat(tfs.astype(np.int64), starts)
    first = docids[starts]
    last = docids[ends - 1]
    crc = zlib.crc32
    tbuckets = [crc(t.encode()) % num_tbuckets for t in terms]
    dmv = memoryview(d_bytes)
    tmv = memoryview(t_bytes)
    lmv = memoryview(l_bytes)
    cols = {
        "term": pa.array(terms, pa.string()),
        "tbucket": pa.array(tbuckets, pa.int32()),
        "slice_id": pa.array(np.zeros(T, np.int32), pa.int32()),
        "df": pa.array(dfs, pa.int64()),
        "cf": pa.array(cfs, pa.int64()),
        "block_first": pa.array([[int(x)] for x in first], pa.list_(pa.uint64())),
        "block_last": pa.array([[int(x)] for x in last], pa.list_(pa.uint64())),
        "block_max": pa.array([[float(x)] for x in bmax], pa.list_(pa.float32())),
        "block_docids": pa.array(
            [[bytes(dmv[d_off[s] : d_off[e]])] for s, e in zip(starts, ends)],
            pa.list_(pa.binary()),
        ),
        "block_tfs": pa.array(
            [[bytes(tmv[t_off[s] : t_off[e]])] for s, e in zip(starts, ends)],
            pa.list_(pa.binary()),
        ),
        "block_dls": pa.array(
            [[bytes(lmv[l_off[s] : l_off[e]])] for s, e in zip(starts, ends)],
            pa.list_(pa.binary()),
        ),
    }
    tbl = pa.table(cols)
    if salts is not None:
        tbl = tbl.append_column("salt", pa.array(salts.astype(np.int64), pa.int64()))
    return tbl, dfs


def concat_varint_decode(blobs: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Decode MANY varint byte strings in one numpy pass. Returns
    (values, values_per_blob). A value ends on a byte < 0x80, so per-blob
    value counts fall out of the terminator mask — no per-blob calls."""
    if not blobs:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    joined = b"".join(blobs)
    values = codec.decode_varint(joined)
    ends_mask = (np.frombuffer(joined, dtype=np.uint8) & 0x80) == 0
    term_cum = np.concatenate([[0], np.cumsum(ends_mask)])
    byte_ends = np.cumsum(np.array([len(b) for b in blobs], dtype=np.int64))
    vals_per_blob = np.diff(np.concatenate([[0], term_cum[byte_ends]]))
    return values, vals_per_blob


def concat_delta_decode(blobs: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Like concat_varint_decode but each blob is a delta stream that
    RESTARTS at its first value (absolute). One cumsum with per-blob
    corrections reconstructs all absolutes."""
    deltas, vals_per_blob = concat_varint_decode(blobs)
    if (vals_per_blob == 0).any():
        # writers never emit a zero-posting block; a blob that decodes to
        # nothing is a truncated/corrupt segment file. Without this check
        # a TRAILING empty blob surfaced as an opaque IndexError in
        # absd[starts] deep inside query serving (before the early return
        # below: an all-empty blob list must also refuse, while an empty
        # blob LIST — no blocks at all — stays a legal empty decode).
        raise ValueError(
            "corrupt posting blob: a block decoded to zero values"
        )
    if len(deltas) == 0:
        return deltas, vals_per_blob
    starts = np.concatenate([[0], np.cumsum(vals_per_blob)[:-1]])
    absd = np.cumsum(deltas)
    corr = absd[starts] - deltas[starts]
    return absd - np.repeat(corr, vals_per_blob), vals_per_blob


def decode_blocks(
    tbl: pa.Table, block_mask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode the posting blocks of a segment table in one concatenated
    pass per stream (rows in table order, blocks in row order).
    ``block_mask`` (bool, one entry per block of the flattened table)
    drops blocks before they are decoded. Returns (docids, tfs, dls,
    row of each posting, values per decoded block)."""
    streams = [
        pc.list_flatten(tbl.column(c))
        for c in ("block_docids", "block_tfs", "block_dls")
    ]
    row_of_block = np.repeat(
        np.arange(tbl.num_rows),
        pc.list_value_length(tbl.column("block_docids")).to_numpy(),
    )
    if block_mask is not None:
        row_of_block = row_of_block[block_mask]
        streams = [b.filter(pa.array(block_mask)) for b in streams]
    docids, vals_per_block = concat_delta_decode(streams[0].to_pylist())
    tfs, _ = concat_varint_decode(streams[1].to_pylist())
    dls, _ = concat_varint_decode(streams[2].to_pylist())
    rows = np.repeat(row_of_block, vals_per_block)
    return docids, tfs, dls, rows, vals_per_block


def encode_bucket(
    row_terms: list[str],
    rows: np.ndarray,
    docids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    avgdl: float,
    params: BM25Params,
    num_tbuckets: int,
    block_size: int,
    max_postings_per_slice: int,
    slice_id_offset: int = 0,
) -> pa.Table:
    """Segment table of a bucket's postings, given in any order with
    ``row_terms[rows[i]]`` the term of posting i (``decode_blocks``'s
    output). Lexsorts by (term, docid) and encodes one run per term: at
    slice offset 0 a term of ≤ ``block_size`` postings goes through the
    batched single-block encoder, every other term through
    ``encode_posting_list`` with slice ids from ``slice_id_offset``."""
    if len(docids) == 0:
        return rows_to_table([])
    terms = sorted(set(row_terms))
    t_to_i = {t: i for i, t in enumerate(terms)}
    tidx = np.asarray([t_to_i[t] for t in row_terms], np.int64)[rows]
    order = np.lexsort((docids, tidx))
    docids, tfs, dls, tidx = docids[order], tfs[order], dls[order], tidx[order]
    bounds = np.flatnonzero(np.diff(tidx)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(tidx)]])
    small_terms: list[str] = []
    s_off = [0]
    s_idx: list[np.ndarray] = []
    out_rows: list[dict] = []
    for s, e in zip(starts, ends):
        term = terms[tidx[s]]
        if e - s <= block_size and slice_id_offset == 0:
            small_terms.append(term)
            s_idx.append(np.arange(s, e))
            s_off.append(s_off[-1] + e - s)
        else:
            out_rows.extend(encode_posting_list(
                term, docids[s:e], tfs[s:e], dls[s:e], avgdl, params,
                num_tbuckets, block_size, max_postings_per_slice,
                slice_id_offset,
            ))
    parts = []
    if small_terms:
        sel = np.concatenate(s_idx)
        small_tbl, _ = encode_single_block_lists(
            small_terms, np.asarray(s_off, dtype=np.int64),
            docids[sel], tfs[sel], dls[sel], avgdl, params, num_tbuckets,
        )
        parts.append(small_tbl)
    if out_rows:
        parts.append(rows_to_table(out_rows))
    return pa.concat_tables(parts)


def decode_rows(rows: list[dict]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment rows (any mix of slices/sub-lists of ONE term) →
    (docids, tfs, dls) concatenated uint64 arrays (not re-sorted).
    Vectorized: ONE varint decode per stream regardless of block count
    (per-block numpy calls cost ~30µs each — 550 blocks of a head term
    made cold scoring ~400ms before this)."""
    rows_sorted = sorted(rows, key=lambda r: r.get("slice_id", 0))
    d_blobs = [b for row in rows_sorted for b in row["block_docids"]]
    t_blobs = [b for row in rows_sorted for b in row["block_tfs"]]
    l_blobs = [b for row in rows_sorted for b in row["block_dls"]]
    if not d_blobs:
        z = np.empty(0, np.uint64)
        return z, z.copy(), z.copy()
    docids, _ = concat_delta_decode(d_blobs)
    tfs, _ = concat_varint_decode(t_blobs)
    dls, _ = concat_varint_decode(l_blobs)
    return docids, tfs, dls


def rows_to_table(rows: list[dict]) -> pa.Table:
    cols = {name: [r[name] for r in rows] for name in SEGMENT_SCHEMA.names}
    return pa.table(
        {name: pa.array(cols[name], SEGMENT_SCHEMA.field(name).type)
         for name in SEGMENT_SCHEMA.names}
    )


def ensure_nonempty_segments(segments_dir: str) -> None:
    """Guarantee at least one (0-row) canonical-schema segment file: an
    empty corpus (build) or a fully-tombstoned merge would otherwise leave
    a segments dir with no parquet files, and every hive read of it fails
    with an opaque ``No match for FieldRef.Name(tbucket)``."""
    import pyarrow.parquet as pq_

    has_files = any(
        f.endswith(".parquet")
        for _d, _s, fs in os.walk(segments_dir)
        for f in fs
    )
    if has_files:
        return
    d0 = os.path.join(segments_dir, "tbucket=0")
    os.makedirs(d0, exist_ok=True)
    empty_seg = rows_to_table([]).remove_column(
        SEGMENT_SCHEMA.get_field_index("tbucket")
    )
    pq_.write_table(empty_seg, os.path.join(d0, "empty.parquet"))


def write_stats(index_dir: str, stats: dict) -> None:
    from .manifest import write_json_atomic

    os.makedirs(index_dir, exist_ok=True)
    # atomic like every other index-dir JSON: a kill mid-dump must not
    # leave a truncated stats.json next to otherwise-valid segments
    write_json_atomic(
        os.path.join(index_dir, "stats.json"), stats,
        indent=1, sort_keys=True,
    )


def read_stats(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "stats.json")) as f:
        return json.load(f)
