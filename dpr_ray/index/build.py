"""Index build pipeline (SURVEY §7 M0–M3): corpus → docstore + segments.

Ray-Data restatement of the reference's index-build front half
(``generate_dense_embeddings.py:41-149`` + ``faiss_indexers.py:86-105``),
with postings instead of dense vectors:

  read corpus → map_batches(Featurize) → sort(docid) →
  map_batches(DocstoreWriter)  — ONE fused execution that writes the
       docid-sorted docstore AND emits partials for the global stats
       (N, avgdl, max docid — the A5-analog aggregates) and the
       deterministic docid%mod head-term df sample (skew plan); the
       stats + salt plan persist in the docstore checkpoint entry
  → map_batches(EmitEncodedPostings)  — map-side combine over batches of
       N / CPUs docs (≤ 8192): per-(term, salt) delta+varint-encoded
       sub-lists (small terms via the BATCHED single-block encoder — one
       numpy pass per batch, which survives code-scale vocabularies); head
       terms salted by docid RANGE (salt = docid >> shift) so groups stay
       ≤ group_budget postings (skew: SURVEY §4)
  → groupby(tbucket, salt).map_groups(merge_bucket)  — the ONLY shuffle,
       moving compressed sub-lists; groups are term BUCKETS (16), not terms
       (map_groups costs ~1ms Python per group). Each bucket goes through
       the segment codec (segments.decode_blocks → encode_bucket): small
       terms batched, head terms per-term with slice_id = salt*64 + i
       (ordered docid ranges ⇒ slices concatenate sorted).
       Same skew plan + same corpus ⇒ byte-identical segments at any
       parallelism (resume determinism; the plan is a deterministic
       function of the corpus sample).
  → parallel hive writer (segments/tbucket=i/; index/io.py). Both
       executions run via util.full_width, so their map stages use every CPU.

The driver never materializes the corpus (the reference holds all passages
in driver RAM — ``dense_retriever.py:461-469`` — the one scalability sin this
design removes).
"""

from __future__ import annotations

import hashlib
import math
import logging
import os
import time
from collections import Counter

import numpy as np
import pyarrow as pa
import ray.data
from ray.data.aggregate import Count, Max, Sum

from .. import analyzer
from ..config import (
    BLOCK_SIZE,
    BM25Params,
    DEFAULT_GROUP_BUDGET,
    DEFAULT_TERM_BUCKETS,
)
from ..stages.featurize import Featurize
from ..util import full_width
from . import manifest as man
from . import segments as seg
from .manifest import write_manifest

log = logging.getLogger(__name__)


class EmitEncodedPostings:
    """Docstore batch → PRE-ENCODED per-(term, salt) posting sub-lists.

    Map-side combine: tokenize + tf-count each doc, gather the batch's
    postings per term, delta+varint-encode them BEFORE the shuffle — the
    groupby then moves compressed sub-lists (a few bytes per posting, one
    row per term per batch) instead of raw (term, docid, tf, dl) rows.
    Measured ~4x on the bench corpus vs shuffling raw postings.

    Skew plan: head terms (the {term: shift} map, pickled with the
    instance) are salted by docid RANGE — salt = docid >> shift — so each
    (term, salt) group holds ≤ ~group_budget postings and, because ranges
    are ordered, the per-salt merged lists concatenate docid-sorted: the
    final segment stores them as slice_id = salt."""

    def __init__(self, shift_map, avgdl, params, num_tbuckets, block_size):
        self.shift_map = shift_map
        self.avgdl = avgdl
        self.params = params
        self.num_tbuckets = num_tbuckets
        self.block_size = block_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        docids = batch["docid"].to_numpy(zero_copy_only=False)
        dls = batch["doclen"].to_numpy(zero_copy_only=False)
        texts = batch["content"].to_pylist()
        token_lists = analyzer.tokenize_batch(texts)
        per_term: dict[str, tuple[list, list, list]] = {}
        for i, toks in enumerate(token_lists):
            d = int(docids[i])
            l = int(dls[i])
            for t, c in Counter(toks).items():
                e = per_term.get(t)
                if e is None:
                    e = per_term[t] = ([], [], [])
                e[0].append(d)
                e[1].append(c)
                e[2].append(l)
        # unsalted terms go through the BATCHED single-block encoder (one
        # numpy pass for the whole batch — per-term numpy calls dominate on
        # code-scale vocabularies); salted head terms (few) per-term
        u_terms: list[str] = []
        u_off = [0]
        u_d: list[int] = []
        u_tf: list[int] = []
        u_dl: list[int] = []
        rows: list[dict] = []
        salts: list[int] = []
        for t, (d_l, tf_l, dl_l) in per_term.items():
            shift = self.shift_map.get(t)
            if shift is None:
                u_terms.append(t)
                u_d.extend(d_l)
                u_tf.extend(tf_l)
                u_dl.extend(dl_l)
                u_off.append(len(u_d))
            else:
                d = np.array(d_l, dtype=np.uint64)
                tf = np.array(tf_l, dtype=np.uint64)
                dl = np.array(dl_l, dtype=np.uint64)
                sv = (d >> np.uint64(shift)).astype(np.int64)
                for s in np.unique(sv):
                    mask = sv == s
                    new = seg.encode_posting_list(
                        t, d[mask], tf[mask], dl[mask],
                        self.avgdl, self.params, self.num_tbuckets,
                        block_size=1 << 30, max_postings_per_slice=1 << 62,
                    )
                    rows.extend(new)
                    salts.extend([int(s)] * len(new))
        small_tbl, _ = seg.encode_single_block_lists(
            u_terms,
            np.asarray(u_off, dtype=np.int64),
            np.asarray(u_d, dtype=np.uint64),
            np.asarray(u_tf, dtype=np.uint64),
            np.asarray(u_dl, dtype=np.uint64),
            self.avgdl, self.params, self.num_tbuckets,
            salts=np.zeros(len(u_terms), dtype=np.int64),
        )
        if rows:
            big_tbl = seg.rows_to_table(rows).append_column(
                "salt", pa.array(salts, pa.int64())
            )
            return pa.concat_tables([small_tbl, big_tbl])
        return small_tbl


def emit_batch_size(n_docs: int, cpus: int) -> int:
    """Docs per Emit batch: ceil(N / CPUs) in [1, 8192] (see build_index)."""
    return max(1, min(8192, math.ceil(n_docs / cpus)))


_PARTIAL_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df_part", pa.int64()),
        ("cnt", pa.int64()),
        ("sum_dl", pa.int64()),
        # ORDER-PRESERVING-ENCODED int64 (x - 2^63): provided docids use
        # the full 64-bit space, and BOTH raw int64 (overflow at 2^63 in
        # the writer) and raw uint64 (Ray's Max aggregate rebuilds values
        # through Python ints as int64, overflowing at 2^64-1 in the
        # reduce) fail at the edges; the shifted encoding is total
        ("max_docid_s", pa.int64()),
        # 1 on the per-block stats row, 0 on term rows: Sum("blocks") is the
        # number of blocks WRITTEN, checked against the number of part files
        # on disk (two blocks with an identical docid range — a duplicated
        # docid split into two singleton blocks by the sort — would write
        # the same filename, silently dropping a row)
        ("blocks", pa.int64()),
    ]
)


def docstore_part_name(docids: np.ndarray) -> str:
    """part-<lo>-<hi>.parquet, zero-padded so lexical sort == numeric
    sort. ONE definition shared by build's DocstoreWriter and merge's
    _write_docstore_ranged — _check_docstore_ranges' filename slicing
    (f[5:25]/f[26:46]) depends on this exact format."""
    return f"part-{int(docids[0]):020d}-{int(docids[-1]):020d}.parquet"


def encode_max_docid_s(x: int) -> int:
    """Order-preserving int64 encoding of a uint64 max_docid partial (see
    _PARTIAL_SCHEMA's max_docid_s comment); shared with merge.py."""
    return int(x) - (1 << 63)


def decode_max_docid_s(mx) -> int:
    """Inverse of encode_max_docid_s; a None aggregate (zero data rows)
    decodes to docid 0."""
    return (int(mx) + (1 << 63)) if mx is not None else 0


def check_block_duplicates(docids: np.ndarray, advice: str) -> None:
    """Blocks arrive docid-sorted, so a duplicate docid within a block is
    adjacent — it would silently double-count postings at query time, so
    fail loudly with caller-specific remediation ``advice``.
    Boundary-straddling duplicates are caught after the write by
    ``_check_docstore_ranges`` (range overlap, or the part-count mismatch
    when both straddling blocks are singletons with the same range)."""
    if docids.size > 1:
        dup_at = np.flatnonzero(docids[1:] == docids[:-1])
        if dup_at.size:
            raise ValueError(
                f"duplicate docid {int(docids[dup_at[0]])} {advice}"
            )


class DocstoreWriter:
    """Terminal docstore stage: writes each docid-sorted block as one
    parquet file (named by its docid range — idempotent under task retry,
    range-prunable by DocJoin) and emits TINY partial rows that fold the
    former stats and skew-sample executions into this single pass:

    - one ``term=""`` row per block with (cnt, sum_dl, max_docid) partials
      (the A5-analog global aggregates),
    - one (term, df_part) row per term seen in the block's deterministic
      ``docid % sample_mod == 0`` sample (drives the head-term salt plan).

    Each standalone Dataset execution costs seconds of fixed dispatch on
    top of the work — measured ~7s of the build's non-scaling time at both
    8 and 32 CPUs before the fold."""

    def __init__(self, out_dir: str, sample_mod: int):
        self.out_dir = out_dir
        self.sample_mod = sample_mod

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq_

        if batch.num_rows == 0:
            return pa.Table.from_pylist([], schema=_PARTIAL_SCHEMA)
        docids = batch["docid"].to_numpy(zero_copy_only=False)
        check_block_duplicates(
            docids,
            "in the corpus (same provided id on two rows, or the same "
            "repo/path ingested twice): duplicate ids would double-count "
            "postings — deduplicate upstream, or pass dedup_ids=True IF "
            "the duplicates are the same document (dedup_ids fails loudly "
            "on distinct documents colliding on one docid)",
        )
        name = docstore_part_name(docids)
        pq_.write_table(batch, os.path.join(self.out_dir, name))
        terms: list[str] = []
        dfp: list[int] = []
        if self.sample_mod >= 1:
            keep = docids % self.sample_mod == 0
            texts = [
                t for t, k in zip(batch["content"].to_pylist(), keep) if k
            ]
            df: Counter = Counter()
            for toks in analyzer.tokenize_batch(texts):
                df.update(set(toks))
            terms = list(df.keys())
            dfp = list(df.values())
        n = batch.num_rows
        dl_sum = int(batch["doclen"].to_numpy(zero_copy_only=False).sum())
        z = [0] * len(terms)
        return pa.table(
            {
                "term": pa.array([""] + terms, pa.string()),
                "df_part": pa.array([0] + dfp, pa.int64()),
                "cnt": pa.array([n] + z, pa.int64()),
                "sum_dl": pa.array([dl_sum] + z, pa.int64()),
                "max_docid_s": pa.array(
                    # term rows carry the MINIMUM encoding (docid 0) so
                    # they never win the max
                    [encode_max_docid_s(docids.max())]
                    + [encode_max_docid_s(0)] * len(terms),
                    pa.int64(),
                ),
                "blocks": pa.array([1] + z, pa.int64()),
            }
        )


def _check_docstore_ranges(
    docstore_dir: str, expected_parts: int | None = None
) -> None:
    """Driver-side complement of the in-block duplicate check
    (``check_block_duplicates``): part filenames carry each block's
    [lo, hi] docid range, and the global sort makes ranges of distinct
    docids strictly increasing — so a boundary-straddling duplicate (the
    sort split equal keys across blocks) shows up as hi_i >= lo_{i+1}.
    ``expected_parts`` (the number of blocks the writer actually wrote,
    folded into the write pass) closes the one hole range order can't see:
    two singleton blocks of the SAME duplicated docid share a filename, so
    the second write silently overwrites the first — on disk that is one
    part file for two written blocks. O(#files) driver work, no data
    read."""
    ranges = sorted(
        (int(f[5:25]), int(f[26:46]))
        for f in os.listdir(docstore_dir)
        if f.startswith("part-") and f.endswith(".parquet")
    )
    if expected_parts is not None and len(ranges) != expected_parts:
        raise ValueError(
            f"docstore wrote {expected_parts} blocks but {len(ranges)} part "
            "files exist: two blocks shared a docid range (a duplicate "
            "docid split into identical singleton blocks) — deduplicate "
            "the corpus upstream or pass dedup_ids=True"
        )
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        if hi >= lo:
            raise ValueError(
                f"docstore part docid ranges overlap at {lo} (block ends at "
                f"{hi}): a duplicate docid straddles a block boundary — "
                "deduplicate the corpus upstream or pass dedup_ids=True"
            )


_FINGERPRINT_STAT_CAP = 1 << 16


def _stat_sig(path: str) -> str | None:
    """``size:mtime_ns`` for a corpus input path, or None when neither the
    local filesystem nor pyarrow.fs can stat it. os.stat first (the common
    case, and ns mtime for free); object-store / URI paths
    (s3://, file://, hdfs://, ...) resolve through
    ``pyarrow.fs.FileSystem.from_uri`` — without this, a remote corpus
    regenerated in place (same keys, new content) fingerprinted identically
    and resume silently served the OLD corpus."""
    try:
        st = os.stat(path)
        return f"{st.st_size}:{st.st_mtime_ns}"
    except OSError:
        pass
    try:
        from pyarrow import fs as pafs

        f, rel = pafs.FileSystem.from_uri(path)
        info = f.get_file_info([rel])[0]
        # mtime is optional in pyarrow FileInfo: a None mtime would make the
        # signature size-only, which passes a same-size content rewrite — the
        # exact false-pass this function exists to prevent. Treat it as
        # unstatable so the degradation warning fires instead.
        if info.type == pafs.FileType.File and info.mtime_ns is not None:
            return f"{info.size}:{info.mtime_ns}"
    except Exception:
        pass
    return None


def _stat_sigs(paths: list[str]) -> list[str | None]:
    """Per-path ``_stat_sig``, with remote paths batched: ONE filesystem
    resolved from the first URI and ONE ``get_file_info`` list call —
    per-path ``from_uri`` + single-file RPC would add up to
    ``_FINGERPRINT_STAT_CAP`` sequential filesystem constructions and
    metadata round-trips of fixed driver latency at every build/merge
    start on an object-store corpus. The relative path of each sibling
    URI is derived from the first URI's (uri, rel) suffix relationship
    (s3/gs/hdfs/file URIs all satisfy ``uri.endswith(rel)``); any path
    that doesn't share the first URI's prefix falls back to the
    per-path route."""
    out: list[str | None] = [None] * len(paths)
    remote: list[int] = []
    for i, p in enumerate(paths):
        try:
            st = os.stat(p)
            out[i] = f"{st.st_size}:{st.st_mtime_ns}"
        except OSError:
            remote.append(i)
    if not remote:
        return out
    singles = remote
    try:
        from pyarrow import fs as pafs

        uri0 = paths[remote[0]]
        f, rel0 = pafs.FileSystem.from_uri(uri0)
        if uri0.endswith(rel0):
            prefix = uri0[: len(uri0) - len(rel0)]
            batched = [i for i in remote if paths[i].startswith(prefix)]
            singles = [i for i in remote if not paths[i].startswith(prefix)]
            infos = f.get_file_info([paths[i][len(prefix):] for i in batched])
            for i, info in zip(batched, infos):
                # None mtime → unstatable, same policy as _stat_sig
                if info.type == pafs.FileType.File and info.mtime_ns is not None:
                    out[i] = f"{info.size}:{info.mtime_ns}"
    except Exception:
        singles = remote
    for i in singles:
        out[i] = _stat_sig(paths[i])
    return out


def corpus_fingerprint(corpus_ds: ray.data.Dataset) -> str | None:
    """Best-effort identity of the input corpus for resume safety: blake2b
    over the sorted input-file list with per-file (size, mtime_ns) where
    the path is stat-able (locally or via pyarrow.fs for URI paths).
    Returns None when the dataset has no file lineage (in-memory corpora)
    — the resume check is then skipped.
    A false REFUSAL (mtime touched, identical bytes) is safe — rerun
    without resume; a false pass would silently serve the old corpus, so
    mtime is hashed at ns granularity (second granularity passed a file
    regenerated within the same second) and EVERY path is hashed. Only
    the first 2^16 paths are stat'ed (bounded driver time); past the cap
    — and for any path neither stat route can see — a same-path content
    change is invisible, so a warning is logged: the resume check
    degrades to path-list identity there."""
    try:  # input_files() stops at a map stage, and a read task lists its
        # files without infer_metadata's schema-hash warning on pandas files
        files = set(corpus_ds.input_files()) or {
            f for op in corpus_ds._logical_plan.dag.post_order_iter()
            if hasattr(op, "_datasource")  # a Read
            for t in op._datasource.get_read_tasks(1)
            for f in t.metadata.input_files
        }
    except Exception:
        return None
    if not files:
        return None
    h = hashlib.blake2b(digest_size=16)
    h.update(str(len(files)).encode())
    ordered = sorted(files)
    if len(ordered) > _FINGERPRINT_STAT_CAP:
        log.warning(
            "corpus_fingerprint: %d input files > stat cap %d — content "
            "changes confined to files past the cap (same paths, same "
            "count) will not invalidate resume",
            len(ordered), _FINGERPRINT_STAT_CAP,
        )
    sigs = _stat_sigs(ordered[:_FINGERPRINT_STAT_CAP])
    unstatable = 0
    for i, p in enumerate(ordered):
        pb = p.encode()
        # length-framed path: without it, a stat-able path 'a' with sig
        # '1:2' and a single unstat-able path literally named 'a:1:2'
        # hash identical bytes — two distinct corpora, one fingerprint
        h.update(b"\0")
        h.update(str(len(pb)).encode())
        h.update(b":")
        h.update(pb)
        if i >= _FINGERPRINT_STAT_CAP:
            continue
        sig = sigs[i]
        if sig is None:
            unstatable += 1
        else:
            h.update(b":")
            h.update(sig.encode())
    if unstatable:
        log.warning(
            "corpus_fingerprint: %d/%d input files had no stat-able "
            "size/mtime — the changed-corpus resume check degrades to "
            "path-list identity for them",
            unstatable, len(ordered),
        )
    return h.hexdigest()


def _strip_tbucket(t: pa.Table) -> pa.Table:
    """Drop the physical tbucket column before a hive-partitioned segment
    write: the directory name carries the value, and the OTHER segment
    writers (io.write_partitioned, ensure_nonempty_segments) already
    strip it — keeping it here gave partition-resume builds a different
    file schema than plain builds for the same logical index."""
    i = t.schema.get_field_index("tbucket")
    return t.remove_column(i) if i >= 0 else t


def build_index(
    corpus_ds: ray.data.Dataset,
    index_dir: str,
    *,
    params: BM25Params = BM25Params(),
    num_tbuckets: int = DEFAULT_TERM_BUCKETS,
    num_dbuckets: int = 16,
    group_budget: int = DEFAULT_GROUP_BUDGET,
    sample_mod: int = 64,
    docid_strategy: str = "provided",
    block_size: int = BLOCK_SIZE,
    max_postings_per_slice: int = seg.MAX_POSTINGS_PER_SLICE,
    resume: bool = False,
    partition_resume: bool = False,
    dedup_ids: bool = False,
) -> dict:
    """Build a BM25 index under ``index_dir``. Returns the stats dict.

    Resume (``resume=True``; records and trust policy in ``manifest``): a
    complete manifest with this build's signature skips the whole build
    (segments are byte-deterministic, so skip == rebuild); a signed
    ``docstore`` checkpoint skips featurize+write. Partially-written
    outputs are wiped before rewrite, so a killed run restarted with
    resume=True converges to the clean-run bytes (property-tested).
    Resuming with CHANGED parameters, over a merge's outputs, or against
    a changed corpus (``corpus_fingerprint``; in-memory corpora have no
    file lineage) fails loudly instead of serving a stale index."""
    import shutil

    from .._shipping import ensure_shippable

    ensure_shippable()
    t0 = time.time()
    docstore_dir = os.path.join(index_dir, "docstore")
    segments_dir = os.path.join(index_dir, "segments")
    checkpoints = os.path.join(index_dir, man.CHECKPOINTS)
    corpus_fp = corpus_fingerprint(corpus_ds)
    # two resume scopes: the docstore's bytes + salt plan depend only on
    # the featurize/salt parameters (segment params may legitimately
    # change between a docstore resume and the segment rebuild it feeds);
    # the complete manifest freezes everything. The corpus fingerprint is
    # checked apart from the parameters, so in-memory corpora (fp=None)
    # still get the parameter guard.
    doc_sig = man.sign(
        "docstore", docid_strategy=docid_strategy, num_dbuckets=num_dbuckets,
        dedup_ids=dedup_ids, sample_mod=sample_mod, group_budget=group_budget,
    )
    full_sig = man.sign(
        "index", doc_sig=doc_sig, k1=params.k1, b=params.b,
        num_tbuckets=num_tbuckets, block_size=block_size,
        max_postings_per_slice=max_postings_per_slice,
    )
    # affirmative mismatches refuse loudly: a changed corpus or changed
    # parameters under resume=True is user error, not a kill artifact
    trust = dict(resume=resume, strict=True, corpus_fp=corpus_fp)
    done_stats, _ = man.resume_index(index_dir, full_sig, **trust)
    if done_stats is not None:
        return done_stats
    os.makedirs(index_dir, exist_ok=True)

    # ---- stage 1 (fused): featurize → sorted docstore + stats + skew plan
    # ONE Dataset execution writes the docid-sorted docstore AND emits the
    # partial rows for (N, sum_dl, max_docid) and the head-term df sample
    # (DocstoreWriter); the former separate stats + sample executions each
    # re-read the docstore and cost seconds of fixed dispatch that did not
    # shrink with CPUs (the round-1 scaling gap). The docstore checkpoint
    # persists the stats + salt plan so a resumed run recomputes nothing.
    salt_map: dict[str, int] = {}  # term -> shift
    decisions: dict[str, str] = {}  # output → resume decision
    dmark, decisions["docstore"] = man.reuse(
        checkpoints, "docstore", doc_sig, **trust
    )
    if dmark is not None:
        t_docstore = t_stats = t_sample = time.time()
        n_docs = int(dmark["n_docs"])
        sum_dl = int(dmark["sum_dl"])
        max_docid = int(dmark["max_docid"])
        salt_map = {k: int(v) for k, v in dmark["salt_map"].items()}
    else:
        shutil.rmtree(docstore_dir, ignore_errors=True)
        os.makedirs(docstore_dir, exist_ok=True)
        feat = corpus_ds.map_batches(
            Featurize(docid_strategy=docid_strategy, num_dbuckets=num_dbuckets),
            batch_format="pyarrow",
        )
        # docid-SORTED plain parquet: files cover docid ranges, so point
        # lookups (DocJoin) prune via row-group stats, and downstream stages
        # read a few large blocks instead of thousands of hive fragments
        # (hive partition_cols write is also pathologically slow in this
        # Ray version — measured 49s vs 3.5s for 500k rows)
        if dedup_ids:
            # (repo, path) dedup (D1 analog): the same ext_id appearing
            # multiple times (e.g. several commits of one file) keeps ONE
            # deterministic row — the lexicographically greatest
            # (commit, sha256). groupby is sort-based, so the output is
            # docid-sorted like the plain path. Costlier (per-group calls):
            # off by default; enable when the corpus may carry duplicates.
            import pyarrow.compute as pc_

            def first_wins(g: pa.Table) -> pa.Table:
                # dedup is only correct when the group really is ONE
                # document ingested twice. Distinct ext_ids sharing a docid
                # are a hash64 collision between DIFFERENT documents
                # (~n²/2^64 — a real risk near 10^8-10^9 docs): collapsing
                # would silently drop a real document from the index.
                if g.num_rows > 1 and pc_.count_distinct(
                    g["ext_id"]
                ).as_py() > 1:
                    ids = sorted(set(g["ext_id"].to_pylist()))[:4]
                    raise ValueError(
                        f"docid {g['docid'][0].as_py()} is shared by "
                        f"DISTINCT documents {ids}: a hash64 collision "
                        "(or colliding provided ids) between different "
                        "documents — dedup_ids would silently drop one. "
                        "Use docid_strategy='provided' with unique ids "
                        "(or rename one ext_id)."
                    )
                order = pc_.sort_indices(
                    g,
                    sort_keys=[("commit", "descending"),
                               ("sha256", "descending")],
                )
                return g.take(order[:1])

            sorted_feat = feat.groupby("docid").map_groups(
                first_wins, batch_format="pyarrow"
            )
        else:
            sorted_feat = feat.sort("docid")
        partials = full_width(sorted_feat.map_batches(
            DocstoreWriter(docstore_dir, sample_mod), batch_format="pyarrow"
        )).materialize()  # executes the write ONCE; keeps only the tiny rows
        t_docstore = time.time()
        agg = partials.aggregate(
            Sum("cnt"), Sum("sum_dl"), Max("max_docid_s"), Sum("blocks")
        ) or {}  # zero-block dataset: aggregate returns None, not zeros
        _check_docstore_ranges(
            docstore_dir, expected_parts=int(agg.get("sum(blocks)") or 0)
        )
        n_docs = int(agg.get("sum(cnt)") or 0)
        sum_dl = int(agg.get("sum(sum_dl)") or 0)
        max_docid = decode_max_docid_s(agg.get("max(max_docid_s)"))
        t_stats = time.time()
        space_bits = max(1, max_docid.bit_length())
        if n_docs and sample_mod >= 1:
            # head terms get docid-RANGE salts: salt = docid >> shift, with
            # 2^(space_bits-shift) ≈ df_est*mod/group_budget ranges
            # (pow2-rounded). The "" stats rows carry df_part=0 and never
            # pass the positive threshold.
            head = (
                partials.groupby("term")
                .aggregate(Sum("df_part", alias_name="df_est"))
                .filter(expr=f"df_est > {group_budget / sample_mod}")
                .take_all()
            )
            for r in head:
                n_salts = max(
                    1, math.ceil(r["df_est"] * sample_mod / group_budget)
                )
                bits = max(1, (n_salts - 1).bit_length())
                salt_map[r["term"]] = max(0, space_bits - bits)
        t_sample = time.time()
        if not any(f.endswith(".parquet") for f in os.listdir(docstore_dir)):
            # empty corpus: create an empty docstore file so downstream
            # reads see a valid (0-row) table with the canonical schema
            import pyarrow.parquet as pq_

            empty = Featurize(docid_strategy=docid_strategy,
                              num_dbuckets=num_dbuckets)(
                pa.table({
                    "repo": pa.array([], pa.string()),
                    "path": pa.array([], pa.string()),
                    "commit": pa.array([], pa.string()),
                    "lang": pa.array([], pa.string()),
                    "content": pa.array([], pa.large_string()),
                })
            )
            pq_.write_table(empty, os.path.join(docstore_dir, "empty.parquet"))
        man.commit(
            checkpoints, "docstore", doc_sig, corpus_fp=corpus_fp,
            n_docs=n_docs, sum_dl=sum_dl, max_docid=max_docid,
            salt_map=salt_map,
        )
    avgdl = (sum_dl / n_docs) if n_docs else 0.0

    # ---- stage 4: pre-encoded postings → groupby(tbucket, salt) → segments
    # Grouping at BUCKET granularity (not per term): map_groups costs ~1ms
    # of Python per group, which at code-scale vocabularies (100k+ terms)
    # dominates the whole stage. One group = one term bucket, decoded and
    # re-encoded by the segment codec (seg.decode_blocks / encode_bucket).
    def merge_bucket(group: pa.Table) -> pa.Table:
        salt = int(group["salt"][0].as_py())
        docids, tfs, dls, rows, _ = seg.decode_blocks(group)
        out = seg.encode_bucket(
            group["term"].to_pylist(), rows, docids, tfs, dls, avgdl,
            params, num_tbuckets, block_size, max_postings_per_slice,
            slice_id_offset=salt * 64,
        )
        # a salted term's slices must stay inside its salt's 64 ids
        # (unsalted terms own every slice id and have no cap)
        over = np.flatnonzero(out["slice_id"].to_numpy() >= salt * 64 + 64)
        for term in out["term"].take(over).to_pylist():
            if term in salt_map:
                raise ValueError(
                    f"salted term {term!r} needs more than 64 slices in "
                    f"salt group {salt}: raise max_postings_per_slice "
                    f"({max_postings_per_slice}) or lower group_budget "
                    f"({group_budget})"
                )
        return out

    posts = ray.data.read_parquet(
        docstore_dir, columns=["docid", "content", "doclen"]
    )
    # Emit runs as plain TASKS (the salt map rides in the pickled instance):
    # an actor pool pays ~1s spawn per actor plus ramp-up idle — measured slower.
    # Explicit batch_size: emit cost is per-BATCH (one sub-list row per term
    # per batch), so batches hold N / CPUs docs (one Emit task per CPU, as
    # many blocks into the groupby), capped at 8192 to bound task memory.
    posts = posts.map_batches(
        EmitEncodedPostings(salt_map, avgdl, params, num_tbuckets, block_size),
        batch_format="pyarrow",
        batch_size=emit_batch_size(n_docs, ray.cluster_resources().get("CPU", 1)),
    )
    from .io import write_partitioned

    n_slices = n_postings = None
    if not partition_resume:
        # drop the PARTITION-path entries before wiping segments_dir: a
        # later partition_resume=True run would skip every "done" bucket
        # whose dir is gone — silently empty segments (live-reproduced)
        man.drop(checkpoints, "postings_spill", "segments")
        shutil.rmtree(
            os.path.join(index_dir, "postings_spill"), ignore_errors=True
        )
        final = full_width(posts.groupby(["tbucket", "salt"]).map_groups(
            merge_bucket, batch_format="pyarrow"
        ))
        shutil.rmtree(segments_dir, ignore_errors=True)
        wres = write_partitioned(final, segments_dir, "tbucket", sum_cols=["df"])
        n_slices = wres["rows"]  # one slice row per segment row
        n_postings = wres["sum_df"]
    else:
        # Per-PARTITION checkpointing (the external-sort-run shape): spill
        # the pre-encoded sub-lists once, hive-partitioned by tbucket, then
        # merge+write one term bucket at a time, recording completion after
        # each. A killed run resumes at the first unfinished bucket with no
        # re-tokenization (the spill survives); the skew plan is frozen in
        # the spill, so resumed output is byte-identical to a clean run.
        spill_dir = os.path.join(index_dir, "postings_spill")
        # The spill holds pre-ENCODED postings, so its bytes depend on the
        # segment params AND the corpus: its entry is signed with full_sig
        # and records corpus_fp (a reused spill with another num_tbuckets
        # silently lost terms). Its rewrite drops the bucket list first.
        smark, decisions["postings_spill"] = man.reuse(
            checkpoints, "postings_spill", full_sig, **trust
        )
        if smark is None:
            man.drop(checkpoints, "segments")
            shutil.rmtree(spill_dir, ignore_errors=True)
            write_partitioned(posts, spill_dir, "tbucket")
            man.commit(
                checkpoints, "postings_spill", full_sig, corpus_fp=corpus_fp
            )
        dp, decisions["segments"] = man.reuse(
            checkpoints, "segments", full_sig, **trust
        )
        done = set(dp["buckets"]) if dp else set()
        if dp is None:
            # start empty, like the non-partition path: a leftover dir
            # outside range(num_tbuckets) keeps the OLD tbucket assignment
            # (phantom terms in full-segment scans, inflated stats)
            shutil.rmtree(segments_dir, ignore_errors=True)
        for b in range(num_tbuckets):
            if b in done:
                continue
            bdir = os.path.join(spill_dir, f"tbucket={b}")
            out_b = os.path.join(segments_dir, f"tbucket={b}")
            shutil.rmtree(out_b, ignore_errors=True)
            if os.path.isdir(bdir):
                final_b = ray.data.read_parquet(bdir).groupby(
                    "salt"
                ).map_groups(
                    merge_bucket, batch_format="pyarrow"
                ).map_batches(_strip_tbucket, batch_format="pyarrow")
                final_b.write_parquet(out_b)
            done.add(b)
            man.commit(checkpoints, "segments", full_sig, buckets=sorted(done))
    # empty corpus / empty buckets: guarantee at least one (0-row) segment
    # file so readers always see the canonical schema
    seg.ensure_nonempty_segments(segments_dir)
    t_segments = time.time()

    # ---- stage 5: stats + manifest (write-pass partials when available) ---
    if n_slices is None:
        seg_agg = ray.data.read_parquet(
            segments_dir, columns=["term", "df"]
        ).aggregate(Count(), Sum("df"))
        n_slices = int(seg_agg["count()"])
        n_postings = int(seg_agg["sum(df)"] or 0)
    stats = {
        "N": n_docs,
        "sum_dl": sum_dl,
        "avgdl": avgdl,
        "max_docid": max_docid,
        "postings": n_postings,
        "segment_slices": n_slices,
        "k1": params.k1,
        "b": params.b,
        "num_tbuckets": num_tbuckets,
        "num_dbuckets": num_dbuckets,
        "block_size": block_size,
        "head_terms_salted": len(salt_map),
    }
    seg.write_stats(index_dir, stats)
    write_manifest(
        index_dir,
        corpus_fp=corpus_fp,
        resume_sig=full_sig,
        resume=decisions,
        stats=stats,
        timings={
            "docstore_sec": t_docstore - t0,
            "stats_sec": t_stats - t_docstore,
            "head_sample_sec": t_sample - t_stats,
            "segments_sec": t_segments - t_sample,
            "total_sec": time.time() - t0,
        },
        salt_map=salt_map,
    )
    return stats
