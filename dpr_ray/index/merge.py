"""Segment merge (SURVEY §7 M3): k indexes → one canonical index.

``merge_indexes([A, B, ...], out)`` re-merges posting lists across source
indexes and re-blocks them with the MERGED corpus stats (block-max bounds
depend on the merged avgdl), with contiguous slice_ids: for UNSALTED
builds ``merge(build(A), build(B)) == build(A ∪ B)`` byte-for-byte; for
salted ones (build's slice_ids are salt*64 + i) the decoded postings and
scores are equal (``test_merge_of_salted_indexes``).

- ``mode="disjoint"`` (default): docids must be disjoint across inputs;
  stats are input-stat sums.
- ``mode="upsert"``: the incremental refresh. ``index_dirs`` is ordered
  oldest → newest; a docid present in several inputs keeps ONLY its
  newest version (for EVERY term), and tombstones drop documents
  entirely. ``upsert_merge(base, build(delta)) == build(latest_corpus)``
  byte-for-byte for unsalted builds (property-tested).

No shuffle: both passes follow the partitioning the inputs already have
on disk. Each pass is ``from_items(work units)`` → ``map_batches`` (one
task per block of units, via ``util.full_width``) → partial rows reduced
on the driver.

- Docstore: the units are half-open docid cells, planned on the driver
  from part-file NAMES (``plan_cells``). A task reads the input parts
  overlapping its cell, keeps its surviving rows, sorts them and writes
  one ``part-<lo>-<hi>`` file. Cells partition the docid space, so a
  duplicate docid always meets its twin inside one task.
- Segments: the units are the target term buckets. A task reads every
  input's ``segments/tbucket=b`` files (all files of an input built with
  another ``num_tbuckets``, kept where ``crc32(term) % n == b``, read once
  per task), decodes, drops superseded postings, re-encodes with the
  merged avgdl and writes one content-named file per bucket.

Scale (upsert): the arbitration map holds only the NON-BASE inputs'
docids plus tombstones (8 B/doc, capped by $DPR_UPSERT_DRIVER_CAP,
default 50M), built on the driver and shared through one ``ray.put``. A
task holds one cell or one term bucket, so the base may be any size.

Refresh policy: every upsert merge is a FULL rewrite — the merged avgdl
changes every block-max bound, so it reads and writes all N_total docs
and postings whatever the delta size (figures in BASELINE.md and ROADMAP
direction 4). Deletes serve at once through query-time tombstones
(``QueryExecutor(banned_docids=...)``); batch adds/updates into a delta
and merge when it reaches ~5-10% of N or the tombstones ~10%; chain
merges (v1+d1→v2, v2+d2→v3, byte-identical to replaying the log) for
backlogs beyond DPR_UPSERT_DRIVER_CAP. k merges cost k rewrites. It
needs no corpus text: the segments pass moves varint postings.

Replaces the reference's serialize/ingest cycle (``faiss_indexers.py:41-105``),
which cannot merge two HNSW indexes (``:148-151``) nor delete or update.
"""

from __future__ import annotations

import bisect
import os
import re
import shutil
import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from .._shipping import ensure_shippable
from ..config import BLOCK_SIZE, BM25Params
from ..util import full_width, partial_rows
from . import manifest as man
from . import segments as seg
from .build import (
    _check_docstore_ranges, check_block_duplicates, docstore_part_name,
)
from .io import write_content_named
from .manifest import write_manifest
from .segments import decode_blocks, encode_bucket

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


_PART = re.compile(r"part-(\d{20})-(\d{20})\.parquet")
# what the remerge reads of a segment file: the blobs and their term
_SEG_COLS = ["term", "block_docids", "block_tfs", "block_dls"]
_CELL_PARTIAL = pa.schema([("rows", pa.int64()), ("sum_dl", pa.int64()),
                           ("max_docid", pa.uint64()), ("blocks", pa.int64())])


def _docstore_parts(index_dir: str) -> list[tuple[int, int, str]]:
    """An input's docstore parts as (lo, hi, path) in docid order, from
    their ``docstore_part_name`` names. A 0-row file (an empty corpus's
    ``empty.parquet``) holds nothing to merge."""
    root = os.path.join(index_dir, "docstore")
    parts = []
    for f in sorted(os.listdir(root)):
        p, m = os.path.join(root, f), _PART.fullmatch(f)
        if m:
            parts.append((int(m[1]), int(m[2]), p))
        elif f.endswith(".parquet") and pq.ParquetFile(p).metadata.num_rows:
            raise ValueError(f"docstore file {p} has no part-<lo>-<hi> "
                             "name to plan the merge from: rebuild it")
    return parts


def plan_cells(inputs: list[list[tuple[int, int, str]]], big: int) -> list:
    """Half-open docid cells ``(lo, hi, [(rank, path), ...])`` (``hi``
    None: unbounded), each with every part of ``inputs`` (per input, its
    ``_docstore_parts``) whose ``[lo, hi]`` overlaps it; no data read.
    The cuts are the part lows of input ``big`` (the most docs) and the
    other inputs' part lows above ``big``'s max docid, so ids appended
    past the base get cells of their own, not one growing tail cell."""
    top = inputs[big][-1][1] if inputs[big] else -1
    cuts = sorted({lo for lo, _, _ in inputs[big]} | {
        lo for r, ps in enumerate(inputs) if r != big
        for lo, _, _ in ps if lo > top
    })
    # an input's parts are docid-ordered and disjoint: sorted lows and highs
    bounds = [([p[0] for p in ps], [p[1] for p in ps]) for ps in inputs]
    cells = []
    for i, lo in enumerate(cuts):
        lo, hi = (lo if i else 0), (cuts[i + 1] if i + 1 < len(cuts) else None)
        srcs = []
        for rank, ((los, his), ps) in enumerate(zip(bounds, inputs)):
            j = bisect.bisect_left(his, lo)
            k = len(ps) if hi is None else bisect.bisect_left(los, hi)
            srcs += [(rank, p[2]) for p in ps[j:k]]
        cells.append((lo, hi, srcs))
    return cells


def _merge_cells(batch, *, cells, out_dir, shadow_ref, advice) -> pa.Table:
    """Docstore task: each cell's surviving rows of its input parts,
    docid-sorted, as one ``part-<lo>-<hi>`` file; returns per cell
    (rows, sum_dl, max_docid, blocks)."""
    shadow = ray.get(shadow_ref) if shadow_ref is not None else None
    out = {"rows": [], "sum_dl": [], "max_docid": [], "blocks": []}
    for i in batch["item"].to_pylist():
        lo, hi, srcs = cells[i]
        kept = []
        for rank, path in srcs:
            t = pq.read_table(path)
            ids = t["docid"].to_numpy(zero_copy_only=False).astype(np.uint64)
            m = (ids >= np.uint64(lo)) & (
                True if hi is None else ids < np.uint64(hi))
            if shadow is not None:
                m &= _keep_mask(ids, rank, *shadow)
            kept.append(t.filter(pa.array(m)))
        t = pa.concat_tables(kept).sort_by("docid")
        docids = t["docid"].to_numpy(zero_copy_only=False)
        if t.num_rows:
            check_block_duplicates(docids, advice)
            pq.write_table(t, f"{out_dir}/{docstore_part_name(docids)}")
        for k, v in (("rows", t.num_rows), ("blocks", int(t.num_rows > 0)),
                     ("sum_dl", _col_sum(t["doclen"])),
                     ("max_docid", int(docids[-1]) if t.num_rows else 0)):
            out[k].append(v)
    return pa.table(out, schema=_CELL_PARTIAL)


def _segment_plan(index_dirs, stats_list, n: int) -> list:
    """Work units ``(b, [(rank, path, rebucket), ...])``, one per target
    term bucket ``b`` some input file can hold: an input built with ``n``
    buckets offers its ``tbucket=b`` files, any other input all its files
    (``rebucket``: only rows with ``crc32(term) % n == b`` belong to b)."""
    units: dict[int, list] = {}
    for rank, (d, s) in enumerate(zip(index_dirs, stats_list)):
        rebucket = int(s.get("num_tbuckets", n)) != n
        root = os.path.join(d, "segments")
        for sub in sorted(os.listdir(root)):
            for f in sorted(os.listdir(os.path.join(root, sub))):
                if f.endswith(".parquet"):
                    b = int(sub.split("=")[1])
                    for t in range(n) if rebucket else [b]:
                        units.setdefault(t, []).append(
                            (rank, os.path.join(root, sub, f), rebucket))
    return sorted(units.items())


def _remerge_buckets(batch, *, plan, out_dir, shadow_ref, avgdl, params,
                     num_tbuckets, block_size, max_pps) -> pa.Table:
    """Segments task: each term bucket's input rows decoded, superseded
    and tombstoned postings dropped, re-encoded with the merged ``avgdl``
    and written as one content-named file; returns per bucket (rows,
    sum_df)."""
    shadow = ray.get(shadow_ref) if shadow_ref is not None else None
    shared: dict[str, tuple] = {}  # rebucketed files, read once per task
    out = {"rows": [], "sum_df": []}
    for i in batch["item"].to_pylist():
        b, srcs = plan[i]
        tables = []
        for rank, path, rebucket in srcs:
            if rebucket and path not in shared:
                t = pq.read_table(path, columns=_SEG_COLS)
                shared[path] = (t, np.array([
                    zlib.crc32(x.encode()) % num_tbuckets
                    for x in t["term"].to_pylist()]))
            t = (shared[path][0].filter(pa.array(shared[path][1] == b))
                 if rebucket else pq.read_table(path, columns=_SEG_COLS))
            tables.append(t.append_column("src_rank", pa.array(
                np.full(t.num_rows, rank, np.int64))))
        group = pa.concat_tables(tables)
        docids, tfs, dls, rows, _ = decode_blocks(group)
        if shadow is not None:
            rk = group["src_rank"].to_numpy()[rows]
            m = _keep_mask(docids, rk, *shadow)
            docids, tfs, dls, rows = docids[m], tfs[m], dls[m], rows[m]
        enc = encode_bucket(
            group["term"].to_pylist(), rows, docids, tfs, dls, avgdl,
            params, num_tbuckets, block_size, max_pps,
        )
        if enc.num_rows:
            write_content_named(enc.drop_columns(["tbucket"]),
                                os.path.join(out_dir, f"tbucket={b}"))
        out["rows"].append(enc.num_rows)
        out["sum_df"].append(_col_sum(enc["df"]))
    return pa.table(out)


def _col_sum(col) -> int:
    return int(col.to_numpy(zero_copy_only=False).sum()) if len(col) else 0


def _run_units(fn, units: list, n_tasks: int, **kw) -> dict[str, list]:
    """``fn`` over ``units`` (by index) as ``n_tasks`` Ray tasks started at
    once (``full_width``); returns each partial column as one list."""
    if not units:
        return {}
    ds = full_width(ray.data.from_items(
        list(range(len(units))), override_num_blocks=n_tasks
    ).map_batches(fn, fn_kwargs=kw, batch_size=None, batch_format="pyarrow"))
    parts = partial_rows(ds)
    return {c: [x for t in parts for x in t[c].to_pylist()]
            for c in parts[0].column_names}


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
    # refuse in-place merges BEFORE any mutation: wiping out_dir would
    # destroy the only copy of an aliased input (non-destructive refusal)
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

    shadow_ref = ray.put(_build_shadow(
        index_dirs, stats_list, delete_ext_ids, delete_docids
    )) if upsert else None

    out_segments = os.path.join(out_dir, "segments")
    out_docstore = os.path.join(out_dir, "docstore")
    checkpoints = os.path.join(out_dir, man.CHECKPOINTS)
    os.makedirs(out_dir, exist_ok=True)
    man.drop(checkpoints, "segments")
    shutil.rmtree(out_segments, ignore_errors=True)
    cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
    plan = {"docstore_cells": 0, "docstore_parts_read": 0}

    # ---- docstore first: the upsert avgdl comes from SURVIVING docs, and
    # the cell tasks fold (N, sum_dl, max_docid) into the write. Its
    # checkpoint (committed only AFTER a complete pass) lets a merge killed
    # during the segments pass resume without repaying the docstore.
    done, decision = man.reuse(checkpoints, "docstore", sig, resume=resume)
    if done is not None:
        doc_stats = done["doc_stats"]
    else:
        shutil.rmtree(out_docstore, ignore_errors=True)
        os.makedirs(out_docstore, exist_ok=True)
        big = max(range(len(index_dirs)),
                  key=lambda r: (int(stats_list[r]["N"]), -r))
        cells = plan_cells([_docstore_parts(d) for d in index_dirs], big)
        plan = {"docstore_cells": len(cells),
                "docstore_parts_read": sum(len(c[2]) for c in cells)}
        # nothing upstream enforces disjoint mode's disjoint docids, and
        # upsert arbitrates collisions away, so there a duplicate means an
        # input itself carries one: either would double-count postings
        advice = "in the merged docstore: " + (
            "mode='disjoint' requires disjoint docids across inputs — use "
            "mode='upsert' to arbitrate collisions newest-wins" if not upsert
            else "under mode='upsert', an input index itself contains "
            "duplicate docids (built before duplicate validation) — "
            "rebuild that input from a deduplicated corpus")
        tot = _run_units(_merge_cells, cells, len(cells), cells=cells,
                         out_dir=out_docstore, shadow_ref=shadow_ref,
                         advice=advice)
        _check_docstore_ranges(out_docstore,
                               expected_parts=sum(tot.get("blocks", [])))
        doc_stats = {"rows": sum(tot.get("rows", [])),
                     "sum_dl": sum(tot.get("sum_dl", [])),
                     "max_docid": max(tot.get("max_docid", []), default=0)}
        if doc_stats["rows"] == 0:
            # fully-deleted corpus: keep an empty docstore file so
            # downstream readers see the schema (as build_index does)
            import pyarrow.dataset as pads

            schema = pads.dataset(
                os.path.join(index_dirs[0], "docstore"), partitioning="hive"
            ).schema
            pq.write_table(schema.empty_table(),
                           os.path.join(out_docstore, "empty.parquet"))
        man.commit(checkpoints, "docstore", sig, doc_stats=doc_stats)
    t_docstore = time.time()

    if not upsert:
        # input-stat sums: identical ints (and avgdl float) to a from-
        # scratch union build — the byte-for-byte property depends on it
        # (max_docid presence was validated BEFORE any out_dir mutation)
        doc_stats = {
            "rows": sum(int(s["N"]) for s in stats_list),
            "sum_dl": sum(int(s["sum_dl"]) for s in stats_list),
            "max_docid": max(int(s["max_docid"]) for s in stats_list),
        }
    n_docs, sum_dl = doc_stats["rows"], doc_stats["sum_dl"]
    max_docid = doc_stats["max_docid"]
    avgdl = (sum_dl / n_docs) if n_docs else 0.0

    # ---- segments: one unit per target term bucket, through the segment
    # codec with the merged avgdl, as build's merge_bucket. An input built
    # with a DIFFERENT num_tbuckets is re-bucketed from its terms: one term
    # in two units would give two slice sets with colliding slice_ids
    # (silently breaking BMW's searchsorted over block_last). A task per
    # CPU, each a run of buckets, beat a task per bucket (CHANGES.md).
    units = _segment_plan(index_dirs, stats_list, num_tbuckets)
    plan["segment_tasks"] = min(len(units), cpus)
    tot = _run_units(
        _remerge_buckets, units, plan["segment_tasks"], plan=units,
        out_dir=out_segments, shadow_ref=shadow_ref, avgdl=avgdl,
        params=params, num_tbuckets=num_tbuckets, block_size=block_size,
        max_pps=max_pps,
    )
    seg.ensure_nonempty_segments(out_segments)  # a fully-tombstoned merge
    stats = {
        "N": n_docs, "sum_dl": sum_dl, "avgdl": avgdl, "max_docid": max_docid,
        "postings": sum(tot.get("sum_df", [])),
        "segment_slices": sum(tot.get("rows", [])),
        "k1": params.k1, "b": params.b, "num_tbuckets": num_tbuckets,
        "num_dbuckets": num_dbuckets, "block_size": block_size,
        "head_terms_salted": 0,
        "merged_from": [os.path.abspath(d) for d in index_dirs],
        "merge_mode": mode,
        "tombstones": len(delete_ext_ids or [])
        + (len(delete_docids) if delete_docids is not None else 0),
    }
    seg.write_stats(out_dir, stats)
    write_manifest(
        out_dir, stats=stats, salt_map={}, merge_plan=plan,
        timings={"total_sec": time.time() - t0,
                 "docstore_sec": t_docstore - t0,
                 "segments_sec": time.time() - t_docstore},
        # build_index(resume=True) pointed at a merge output refuses
        # loudly: no build signature equals a merge's
        resume_sig=sig, resume={"docstore": decision},
    )
    return stats, out_decision
