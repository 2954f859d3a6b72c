"""Segment merge (SURVEY §7 M3): k indexes → one canonical index.

``merge_indexes([A, B, ...], out)`` re-merges posting lists across source
indexes with a groupby(term) over the ENCODED sub-lists (compact — the
shuffle moves compressed postings, not raw tokens), decodes, re-sorts by
docid and re-blocks with the MERGED corpus stats (block-max bounds depend
on the merged avgdl). The remerge encodes each term with contiguous
slice_ids, so for UNSALTED builds ``merge(build(A), build(B)) ==
build(A ∪ B)`` byte-for-byte (property-tested). When head terms were
salted, build emits per-salt slice_id offsets (salt*64) while the remerge
re-derives contiguous ids — the equality then holds LOGICALLY (same
decoded posting sets, same scores; ``test_merge_of_salted_indexes``), not
byte-for-byte.

Two modes:

- ``mode="disjoint"`` (default): docids must be disjoint across inputs
  (they are, for disjoint corpora with deterministic ids). Postings and
  docstores concatenate; stats are input-stat sums.
- ``mode="upsert"``: the incremental-refresh cycle. ``index_dirs`` is
  ordered oldest → newest; a docid present in several inputs keeps ONLY
  its newest version (postings of the older content drop for EVERY term),
  and ``delete_ext_ids`` tombstones documents out of the result entirely.
  ``upsert_merge(base, build(delta)) == build(latest_corpus)``
  byte-for-byte for unsalted builds (property-tested) — adds, updates and
  deletes in one pass, replacing a full rebuild of the base.

Scale shape (upsert): the arbitration map covers only docids of the
NON-BASE inputs plus tombstones — delta-sized by definition of an
incremental refresh, NOT corpus-sized. It is built on the driver from the
deltas' narrow docid columns (8 B/doc; capped by $DPR_UPSERT_DRIVER_CAP,
default 50M ≈ 400 MB) and broadcast once via ``ray.put`` (sorted uint64 +
winner-rank arrays, zero-copy plasma reads in every task). The docstore
filter is map-only; the segments pass is the same single groupby(term)
as disjoint mode. The 100-TB shape is therefore: base index any size,
delta bounded by the cap per merge — chain merges for bigger backlogs.

Tiered refresh policy (operational guidance; measured in BASELINE.md):
every upsert merge is a FULL rewrite of the merged index — the merged
avgdl changes every block-max bound, so cost ≈ one warm rebuild of
N_total regardless of delta size (100k docs: merge 10.7-11.0 s vs 6.0 s
warm rebuild; 500k 24.5 s vs 16.9 s; 5M 128.8 s vs ~110-150 s; 10k on 4
CPUs, median of 5 on perfbench's index_refresh inputs: 1.9 s vs 1.4 s,
since a fresh build runs two executions and tokenizes each document once
— the same inputs measured 2.1 s vs 2.3 s with the former four-execution
build). So do NOT merge per small delta. Accumulate:

- deletes serve IMMEDIATELY via query-time tombstones
  (``QueryExecutor(banned_docids=...)``, overhead below host noise at
  10% banned) — no merge needed;
- adds/updates batch into a delta corpus; trigger the merge when the
  backlog reaches ~5-10% of N (amortizes the fixed rewrite over a
  meaningful refresh) or when the tombstone fraction approaches ~10%
  (collection stats stay index-time until the merge, as in Lucene);
- chain merges for multi-delta backlogs (v1+d1→v2, v2+d2→v3 —
  byte-identical to replaying the log, property-tested in
  tests/test_merge_upsert.py and measured as a 2-tier cycle in
  BASELINE.md); the arbitration map stays delta-sized per run, so a
  backlog larger than DPR_UPSERT_DRIVER_CAP splits into chained runs.

Fewer, larger deltas strictly dominate: k merges cost k full rewrites.
The merge's value is never beating a warm rebuild on one node — it is
refreshing WITHOUT the raw corpus text (the base may be unmounted
petabytes; the shuffle moves compressed varint postings, not tokens).

Replaces the reference's index serialize/ingest cycle
(``faiss_indexers.py:41-105``), which cannot merge two HNSW indexes at all
(``faiss_indexers.py:148-151`` one-shot constraint) and has no
delete/update story short of rebuilding.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import ray.data

from .._shipping import ensure_shippable
from ..config import BLOCK_SIZE, BM25Params
from ..util import full_width, partial_rows
from . import manifest as man
from . import segments as seg
from .manifest import write_manifest

UPSERT_DRIVER_CAP = int(os.environ.get("DPR_UPSERT_DRIVER_CAP", 50_000_000))


def _keep_mask(
    docids: np.ndarray, rank: int, sh_ids: np.ndarray, sh_win: np.ndarray
) -> np.ndarray:
    """True where a (docid, source-rank) posting/doc survives the upsert:
    docid not arbitrated at all, or arbitrated with this rank as winner.
    ``sh_ids`` sorted uint64; ``sh_win`` the winning rank (-1 = deleted)."""
    if len(sh_ids) == 0:
        return np.ones(len(docids), bool)
    pos = np.searchsorted(sh_ids, docids)
    pos_c = np.minimum(pos, len(sh_ids) - 1)
    hit = sh_ids[pos_c] == docids
    return ~hit | ((sh_win[pos_c] == rank) & hit)


def _build_shadow(
    index_dirs: list[str],
    stats_list: list[dict],
    delete_ext_ids: list[str] | None,
    delete_docids=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Driver-side arbitration map for upsert mode: (sorted docids that
    appear in any non-base input or the tombstone list, winning rank per
    docid). Later inputs win; tombstones (-1) beat everything."""
    import pyarrow.dataset as pads

    from ..stages.featurize import docid_from_ext_id

    n_delta = sum(int(s["N"]) for s in stats_list[1:])
    n_del = len(delete_ext_ids or []) + (
        len(delete_docids) if delete_docids is not None else 0
    )
    if n_delta + n_del > UPSERT_DRIVER_CAP:
        raise ValueError(
            f"upsert arbitration map would hold {n_delta + n_del} docids > "
            f"DPR_UPSERT_DRIVER_CAP={UPSERT_DRIVER_CAP}; chain smaller "
            "delta merges or raise the cap"
        )
    ids_parts: list[np.ndarray] = []
    rank_parts: list[np.ndarray] = []
    for rank, d in enumerate(index_dirs[1:], start=1):
        t = pads.dataset(
            os.path.join(d, "docstore"), partitioning="hive"
        ).to_table(columns=["docid"])
        arr = t["docid"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids_parts.append(arr)
        rank_parts.append(np.full(len(arr), rank, np.int64))
    tomb: list[np.ndarray] = []
    if delete_ext_ids:
        tomb.append(
            np.fromiter(
                (docid_from_ext_id(e) for e in delete_ext_ids),
                dtype=np.uint64,
                count=len(delete_ext_ids),
            )
        )
    if delete_docids is not None and len(delete_docids):
        tomb.append(np.asarray(delete_docids, dtype=np.uint64))
    if tomb:
        darr = np.concatenate(tomb)
        ids_parts.append(darr)
        rank_parts.append(np.full(len(darr), -1, np.int64))
    if not ids_parts:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    ids = np.concatenate(ids_parts)
    rk = np.concatenate(rank_parts)
    # stable sort keeps concatenation order within a docid; the LAST entry
    # per docid is the highest delta rank (or the tombstone, appended last)
    order = np.argsort(ids, kind="stable")
    ids_s, rk_s = ids[order], rk[order]
    last = np.concatenate([ids_s[1:] != ids_s[:-1], [True]])
    return ids_s[last], rk_s[last]


def _merge_sig(
    index_dirs, stats_list, *, mode, params, num_tbuckets, block_size,
    max_postings_per_slice, delete_ext_ids=None, delete_docids=None,
) -> str:
    """Signs a merge's docstore checkpoint and manifest. Besides stats, it
    fingerprints each input docstore's part files (name, size, mtime_ns):
    an input rebuilt in place with identical stats but different text
    must NOT falsely resume a stale merged docstore (false invalidation
    is harmless — the pass just recomputes)."""
    inputs = []
    for d, s in zip(index_dirs, stats_list):
        doc_dir = os.path.join(d, "docstore")
        parts = []
        if os.path.isdir(doc_dir):
            for name in sorted(os.listdir(doc_dir)):
                p = os.path.join(doc_dir, name)
                if name.endswith(".parquet") and os.path.isfile(p):
                    st = os.stat(p)
                    parts.append((name, st.st_size, st.st_mtime_ns))
        inputs.append((os.path.abspath(d), s, parts))
    return man.sign(
        "merge", inputs=inputs, mode=mode, k1=params.k1, b=params.b,
        num_tbuckets=num_tbuckets, block_size=block_size,
        max_postings_per_slice=max_postings_per_slice,
        delete_ext_ids=sorted(delete_ext_ids or []),
        delete_docids=sorted(
            int(x) for x in (() if delete_docids is None else delete_docids)
        ),
    )


def _write_docstore_ranged(ds_sorted, out_dir: str, mode: str) -> dict:
    """Terminal docstore writer: one ``part-<lo>-<hi>.parquet`` per
    docid-sorted block (the layout ``build_index`` produces and
    ``doc_join_copartitioned`` / DocJoin range pruning require), with
    (rows, sum_dl, max_docid, blocks) partials folded into the same pass
    and reduced on the driver — no re-read or reduce execution for the
    merged stats, and the written-block count feeds the part-file
    collision check."""
    import pyarrow.parquet as pq_

    from .build import (
        _check_docstore_ranges,
        check_block_duplicates,
        docstore_part_name,
    )

    # disjoint mode REQUIRES disjoint docids across inputs but nothing
    # upstream enforces it (upsert arbitrates cross-input collisions away
    # before this point, so a duplicate there means an input index itself
    # carries duplicate docids): a violated precondition would silently
    # double-count postings. Blocks are docid-sorted, so collisions are
    # adjacent here or straddle block boundaries (caught by
    # _check_docstore_ranges after the write).
    advice = (
        "in the merged docstore: mode='disjoint' requires disjoint docids "
        "across inputs — use mode='upsert' to arbitrate collisions "
        "newest-wins"
        if mode == "disjoint"
        else "in the merged docstore under mode='upsert': an input index "
        "itself contains duplicate docids (built before duplicate "
        "validation) — rebuild that input from a deduplicated corpus"
    )

    def write_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _docstore_partial(0, 0, 0, 0)
        docids = batch["docid"].to_numpy(zero_copy_only=False)
        check_block_duplicates(docids, advice)
        name = docstore_part_name(docids)
        pq_.write_table(batch, os.path.join(out_dir, name))
        dl = int(batch["doclen"].to_numpy(zero_copy_only=False).sum())
        return _docstore_partial(batch.num_rows, dl, int(docids.max()), 1)

    parts = partial_rows(
        ds_sorted.map_batches(write_block, batch_format="pyarrow")
    )
    total = {
        c: [int(x) for t in parts for x in t[c].to_pylist()]
        for c in ("rows", "sum_dl", "max_docid", "blocks")
    }
    _check_docstore_ranges(out_dir, expected_parts=sum(total["blocks"]))
    return {
        "rows": sum(total["rows"]),
        "sum_dl": sum(total["sum_dl"]),
        # zero blocks, or only zero-row ones, give docid 0
        "max_docid": max(total["max_docid"], default=0),
    }


def _docstore_partial(rows: int, sum_dl: int, max_docid: int,
                      blocks: int) -> pa.Table:
    return pa.table({
        "rows": pa.array([rows], pa.int64()),
        "sum_dl": pa.array([sum_dl], pa.int64()),
        "max_docid": pa.array([max_docid], pa.uint64()),
        "blocks": pa.array([blocks], pa.int64()),
    })


def merge_indexes(index_dirs: list[str], out_dir: str, **kw) -> dict:
    """The merged stats of ``merge_with_decision`` (same arguments)."""
    return merge_with_decision(index_dirs, out_dir, **kw)[0]


def merge_with_decision(
    index_dirs: list[str],
    out_dir: str,
    *,
    params: BM25Params | None = None,
    num_tbuckets: int | None = None,
    block_size: int | None = None,
    max_postings_per_slice: int | None = None,
    mode: str = "disjoint",
    delete_ext_ids: list[str] | None = None,
    delete_docids=None,
    resume: bool = True,
) -> tuple[dict, str]:
    """Merge k built indexes into ``out_dir``; returns ``(stats,
    decision)``. ``mode="disjoint"`` requires disjoint docids;
    ``mode="upsert"`` arbitrates collisions newest-wins
    (``index_dirs`` ordered oldest → newest) and drops tombstones
    everywhere (docstore + every term's postings). Tombstones are
    ``delete_ext_ids`` (hash64-docid indexes) and/or ``delete_docids``
    (raw ids, for ``docid_strategy="provided"`` corpora).

    ``resume=True`` returns an ``out_dir`` this same merge completed
    (``decision`` "resumed") and reuses its docstore after a kill
    mid-segments; anything else in ``out_dir`` is recomputed (records,
    decisions and policy in ``manifest``)."""
    if mode not in ("disjoint", "upsert"):
        raise ValueError(f"unknown merge mode {mode!r}")
    if not index_dirs:
        raise ValueError(
            "merge_indexes needs at least one input index (an empty-base "
            "refresh should pass only the delta index — tools/merge_job.py "
            "does this for a missing base)"
        )
    # refuse in-place merges BEFORE any mutation: the docstore/segments
    # phases wipe out_dir's prior contents, so out_dir aliasing an input
    # would destroy the only copy of that index and then fail reading it
    # (the non-destructive-refusal rule). Merge to a fresh dir and swap.
    out_real = os.path.realpath(out_dir)
    for d in index_dirs:
        if os.path.realpath(d) == out_real:
            raise ValueError(
                f"out_dir {out_dir} aliases input index {d} — in-place "
                "merges would destroy the input before reading it; merge "
                "to a new directory and rename"
            )
    has_dels = bool(delete_ext_ids) or (
        delete_docids is not None and len(delete_docids) > 0
    )
    if has_dels and mode != "upsert":
        raise ValueError("delete_ext_ids/delete_docids require mode='upsert'")
    ensure_shippable()
    t0 = time.time()
    stats_list = [seg.read_stats(d) for d in index_dirs]
    s0 = stats_list[0]
    params = params or BM25Params(k1=s0["k1"], b=s0["b"])
    num_tbuckets = num_tbuckets or int(s0["num_tbuckets"])
    block_size = block_size or int(s0.get("block_size", BLOCK_SIZE))
    max_pps = max_postings_per_slice or seg.MAX_POSTINGS_PER_SLICE
    num_dbuckets = int(s0.get("num_dbuckets", 16))
    upsert = mode == "upsert"
    if not upsert:
        # validate BEFORE any out_dir mutation: the refusal must not brick
        # a previously complete out_dir (manifest/stats removal + segments
        # wipe happen below). Fabricating max_docid=0 instead would defeat
        # the executor's loud refuse-when-absent doc_shards guard AND flip
        # it into dense mode with real docids far past the buffer.
        for d, s in zip(index_dirs, stats_list):
            if "max_docid" not in s:
                raise ValueError(
                    f"input index {d} has no max_docid in stats.json — "
                    "rebuild it before merging"
                )
    # before any out_dir mutation; a mismatch recomputes (new inputs mean
    # a new merge)
    sig = _merge_sig(
        index_dirs, stats_list, mode=mode, params=params,
        num_tbuckets=num_tbuckets, block_size=block_size,
        max_postings_per_slice=max_pps, delete_ext_ids=delete_ext_ids,
        delete_docids=delete_docids,
    )
    done_stats, out_decision = man.resume_index(out_dir, sig, resume=resume)
    if done_stats is not None:
        return done_stats, out_decision

    if upsert:
        sh_ids, sh_win = _build_shadow(
            index_dirs, stats_list, delete_ext_ids, delete_docids
        )
        shadow_ref = ray.put((sh_ids, sh_win))
    else:
        shadow_ref = None

    keep_mask = _keep_mask  # captured as a FUNCTION (ship-by-value safe)

    def _read_union(subdir: str, per_rank=None):
        # read_parquet rejects a LIST of directories in this Ray version;
        # read each index's dir and union (multi-source concat is native).
        # per_rank(batch, rank) maps one input's batches: rank is a
        # per-BRANCH constant (a post-union batch could mix inputs)
        parts = []
        for rank, d in enumerate(index_dirs):
            p = ray.data.read_parquet(os.path.join(d, subdir))
            if per_rank is not None:
                p = p.map_batches(lambda b, _r=rank: per_rank(b, _r),
                                  batch_format="pyarrow")
            parts.append(p)
        ds = parts[0]
        for p in parts[1:]:
            ds = ds.union(p)
        return ds

    def _tag_rank(batch: pa.Table, rank: int) -> pa.Table:
        return batch.append_column(
            "src_rank", pa.array(np.full(batch.num_rows, rank, np.int64))
        )

    def _doc_filter(batch: pa.Table, rank: int) -> pa.Table:
        si, sw = ray.get(shadow_ref)
        ids = batch["docid"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return batch.filter(pa.array(keep_mask(ids, rank, si, sw)))

    out_segments = os.path.join(out_dir, "segments")
    out_docstore = os.path.join(out_dir, "docstore")
    checkpoints = os.path.join(out_dir, man.CHECKPOINTS)
    os.makedirs(out_dir, exist_ok=True)
    man.drop(checkpoints, "segments")
    shutil.rmtree(out_segments, ignore_errors=True)

    # ---- docstore first: the upsert avgdl comes from SURVIVING docs, and
    # the ranged writer folds (N, sum_dl, max_docid) into the write pass.
    # Its checkpoint (committed only AFTER a complete pass): a merge
    # killed during the SEGMENTS shuffle resumes without repaying the
    # docstore sort+rewrite — a partial docstore has no entry and is
    # recomputed from scratch.
    done, decision = man.reuse(checkpoints, "docstore", sig, resume=resume)
    if done is not None:
        doc_stats = done["doc_stats"]
    else:
        shutil.rmtree(out_docstore, ignore_errors=True)
        os.makedirs(out_docstore, exist_ok=True)
        doc_ds = _read_union("docstore", _doc_filter if upsert else None)
        doc_stats = _write_docstore_ranged(
            full_width(doc_ds.sort("docid")), out_docstore, mode
        )
        if doc_stats["rows"] == 0:
            # fully-deleted corpus: keep an empty docstore file so
            # downstream readers see the schema (mirrors build_index's
            # empty-corpus path)
            import pyarrow.dataset as pads
            import pyarrow.parquet as pq_

            schema = pads.dataset(
                os.path.join(index_dirs[0], "docstore"), partitioning="hive"
            ).schema
            pq_.write_table(
                schema.empty_table(),
                os.path.join(out_docstore, "empty.parquet"),
            )
        man.commit(checkpoints, "docstore", sig, doc_stats=doc_stats)
    t_docstore = time.time()

    if upsert:
        n_docs = doc_stats["rows"]
        sum_dl = doc_stats["sum_dl"]
        max_docid = doc_stats["max_docid"]
    else:
        # input-stat sums: identical ints (and avgdl float) to a from-
        # scratch union build — the byte-for-byte property depends on it
        n_docs = sum(int(s["N"]) for s in stats_list)
        sum_dl = sum(int(s["sum_dl"]) for s in stats_list)
        # max_docid presence was validated BEFORE any out_dir mutation
        max_docid = max(int(s["max_docid"]) for s in stats_list)
    avgdl = (sum_dl / n_docs) if n_docs else 0.0

    # ---- segments: ONE groupby(tbucket) over encoded sub-lists, re-encoded
    # with the merged avgdl (block-max bounds depend on it). BUCKET
    # granularity, not per-term: map_groups costs ~1ms of Python per group,
    # which at code-scale vocabularies (100k+ terms) dominates the stage.
    # A bucket goes through the same segment codec as build's merge_bucket
    # (seg.decode_blocks → encode_bucket); upsert filtering in between is
    # a single searchsorted over the decoded postings.
    decode_blocks = seg.decode_blocks
    encode_bucket = seg.encode_bucket

    def remerge_bucket(group: pa.Table) -> pa.Table:
        docids, tfs, dls, rows, _ = decode_blocks(group)
        if upsert:
            si, sw = ray.get(shadow_ref)
            rk = group["src_rank"].to_numpy()[rows]
            m = keep_mask(docids, rk, si, sw)
            docids, tfs, dls, rows = docids[m], tfs[m], dls[m], rows[m]
        return encode_bucket(
            group["term"].to_pylist(), rows, docids, tfs, dls, avgdl,
            params, num_tbuckets, block_size, max_pps,
        )

    from .io import write_partitioned

    # The groupby key is the inputs' precomputed tbucket column
    # (crc32(term) % num_tbuckets). If any input was built with a DIFFERENT
    # num_tbuckets than this merge's, one term would land in two groups —
    # duplicate slice sets with colliding slice_ids whose concatenated
    # block ranges are non-monotonic, silently breaking BMW's
    # searchsorted-over-block_last exactness. Recompute a uniform tbucket
    # from term in that case (cheap: one crc32 per SLICE row, not posting).
    seg_ds = _read_union("segments", _tag_rank if upsert else None)
    if any(int(s.get("num_tbuckets", num_tbuckets)) != num_tbuckets
           for s in stats_list):
        import zlib as _zlib

        def _rebucket(batch: pa.Table, _n: int = num_tbuckets) -> pa.Table:
            crc = _zlib.crc32
            tb = pa.array(
                [crc(t.encode()) % _n for t in batch["term"].to_pylist()],
                pa.int32(),
            )
            return batch.set_column(
                batch.schema.get_field_index("tbucket"), "tbucket", tb
            )

        seg_ds = seg_ds.map_batches(_rebucket, batch_format="pyarrow")

    # sum_cols folds (slice count, Σdf) into the write pass — a separate
    # read_parquet+aggregate costs seconds of fixed dispatch per merge
    # (CLAUDE.md: fold side computations into the pass touching the data)
    final = full_width(seg_ds.groupby("tbucket").map_groups(
        remerge_bucket, batch_format="pyarrow"
    ))
    wres = write_partitioned(final, out_segments, "tbucket", sum_cols=["df"])
    # fully-tombstoned merge: no segment rows survive, but readers still
    # need one canonical-schema file (mirrors build_index's empty-corpus
    # guard; the docstore side already writes empty.parquet above)
    seg.ensure_nonempty_segments(out_segments)
    stats = {
        "N": n_docs,
        "sum_dl": sum_dl,
        "avgdl": avgdl,
        "max_docid": max_docid,
        "postings": int(wres["sum_df"]),
        "segment_slices": int(wres["rows"]),
        "k1": params.k1,
        "b": params.b,
        "num_tbuckets": num_tbuckets,
        "num_dbuckets": num_dbuckets,
        "block_size": block_size,
        "head_terms_salted": 0,
        "merged_from": [os.path.abspath(d) for d in index_dirs],
        "merge_mode": mode,
        "tombstones": len(delete_ext_ids or [])
        + (len(delete_docids) if delete_docids is not None else 0),
    }
    seg.write_stats(out_dir, stats)
    write_manifest(
        out_dir,
        stats=stats,
        timings={
            "total_sec": time.time() - t0,
            "docstore_sec": t_docstore - t0,
            "segments_sec": time.time() - t_docstore,
        },
        salt_map={},
        # build_index(resume=True) pointed at a merge output refuses
        # loudly: no build signature equals a merge's
        resume_sig=sig,
        resume={"docstore": decision},
    )
    return stats, out_decision
