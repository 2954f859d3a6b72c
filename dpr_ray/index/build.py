"""Index build pipeline (SURVEY §7 M0–M3): corpus → docstore + segments.

Ray-Data restatement of the reference's index-build front half
(``generate_dense_embeddings.py:41-149`` + ``faiss_indexers.py:86-105``),
with postings instead of dense vectors. A fresh build is TWO Ray Data
executions, and each document is tokenized once:

  1. read corpus → map_batches(FeaturizeRows) → sort(docid) →
     map_batches(DocstoreWriter), one task per sorted block, materialized.
     The writer tokenizes each doc once (slices of ≤ 8,192 docs), sets
     ``doclen``, writes the docid-sorted docstore part, and returns the
     block's stats row (docs, Σ doclen, max docid), its deterministic
     ``docid % sample_mod`` head-term df sample and its delta+varint
     encoded, UNSALTED per-term sub-lists (map-side combine: the shuffle
     moves a few bytes per posting, not tokens). On the driver, one small
     task per output block projects the stats and sample rows, and the
     driver reduces them to N, avgdl, max docid, the part-count check and
     the salt plan, with no AllToAll execution and without fetching the
     sub-lists. The stats + salt plan persist in the docstore checkpoint.
  2. the materialized sub-lists → (only when the plan salts a term)
     map_batches(split_salted): head terms' rows are decoded and cut by
     docid RANGE (salt = docid >> shift) so groups stay ≤ group_budget
     postings (skew: SURVEY §4) → groupby(tbucket, salt).map_groups(
     merge_bucket) — the ONLY data shuffle; groups are term BUCKETS (16),
     not terms (map_groups costs ~1ms Python per group). Each bucket
     goes through the segment codec (segments.decode_blocks →
     encode_bucket) with the corpus avgdl: small terms batched, head
     terms per-term with slice_id = salt*64 + i (ordered docid ranges ⇒
     slices concatenate sorted) → parallel hive writer
     (segments/tbucket=i/; index/io.py).

The salt plan can wait until after pass 1 because no sub-list bound is
ever read: merge_bucket decodes every sub-list and re-encodes it with the
corpus avgdl, so only the head terms' rows need re-splitting. Same skew
plan + same corpus ⇒ byte-identical segment rows at any parallelism
(resume determinism; the plan is a deterministic function of the corpus
sample). Both executions run via util.full_width, so their map stages use
every CPU. A build resumed from its docstore checkpoint reads the
docstore back and tokenizes again (EmitEncodedPostings); with
``partition_resume`` the sub-lists are spilled, per tbucket, before
their merge.

The driver never materializes the corpus (the reference holds all passages
in driver RAM — ``dense_retriever.py:461-469`` — the one scalability sin this
design removes).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import logging
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Sum

from .. import analyzer
from ..config import (
    BLOCK_SIZE,
    BM25Params,
    DEFAULT_GROUP_BUDGET,
    DEFAULT_TERM_BUCKETS,
)
from ..stages.featurize import Featurize, FeaturizeRows, with_doclen
from ..util import block_refs, full_width, run_starts
from . import manifest as man
from . import segments as seg
from .manifest import write_manifest

log = logging.getLogger(__name__)


# docs a DocstoreWriter task tokenizes at once: bounds the tokens a task
# holds to those of one resumed-path Emit batch (≤ 8,192 docs)
SLICE_DOCS = 8192

# BM25 params and avgdl of the sub-lists' block bounds. Nothing reads those
# bounds: merge_bucket decodes every sub-list and re-encodes it with the
# corpus avgdl, which the docstore pass emits its sub-lists before knowing.
_SUBLIST_PARAMS = BM25Params()
_SUBLIST_AVGDL = 1.0


def group_postings(token_lists: list[list[str]]):
    """A batch's postings grouped by term in ONE vectorized pass: tokens
    become term ids (one Arrow dictionary encode), and ``np.unique`` over
    the (term id, row) keys yields each posting once with its tf. Returns
    (terms, starts, rows, tfs, lens): term i owns postings
    ``[starts[i], starts[i+1])`` (the last run ends at ``len(rows)``), in
    row order — docid order for a docid-sorted batch; ``lens`` is each
    row's token count (its BM25 ``dl``)."""
    n = len(token_lists)
    lens = np.fromiter(map(len, token_lists), np.int64, n)
    enc = pc.dictionary_encode(
        pa.array(list(itertools.chain.from_iterable(token_lists)), pa.string())
    )
    keys = enc.indices.to_numpy().astype(np.int64) * n + np.repeat(
        np.arange(n, dtype=np.int64), lens
    )
    keys, tfs = np.unique(keys, return_counts=True)
    tids, rows = np.divmod(keys, n) if n else (keys, keys)
    starts = run_starts(tids)
    terms = enc.dictionary.take(pa.array(tids[starts])).to_pylist()
    return terms, starts, rows, tfs.astype(np.uint64), lens


def encode_sublists(terms, starts, docids, tfs, dls, shift_map, avgdl,
                    params, num_tbuckets) -> pa.Table:
    """Single-block sub-lists (segment rows + ``salt``) of term-grouped
    postings (``group_postings``' layout, docid-sorted in each term).
    Head terms of ``shift_map`` ({term: shift}) are salted by docid RANGE:
    a run is cut wherever ``salt = docid >> shift`` changes, so each
    (term, salt) group holds ≤ ~group_budget postings and, because ranges
    are ordered, the per-salt merged lists concatenate docid-sorted (the
    segment stores them as slice ids from salt * 64). Other terms carry
    salt 0. One ``encode_single_block_lists`` call encodes them all."""
    n = len(docids)
    docids = docids.astype(np.uint64)
    salts = np.zeros(len(terms), np.int64)
    if shift_map:
        tid = np.repeat(np.arange(len(terms)), np.diff(np.append(starts, n)))
        shift = np.array([shift_map.get(t, -1) for t in terms], np.int64)[tid]
        salt = np.zeros(n, np.int64)
        on = shift >= 0
        salt[on] = (docids[on] >> shift[on].astype(np.uint64)).astype(np.int64)
        starts = run_starts(tid, salt)
        terms = [terms[i] for i in tid[starts]]
        salts = salt[starts]
    tbl, _ = seg.encode_single_block_lists(
        terms, np.append(starts, n).astype(np.int64), docids, tfs, dls,
        avgdl, params, num_tbuckets, salts=salts,
    )
    return tbl


class EmitEncodedPostings:
    """Docstore batch (docid, content, doclen) → PRE-ENCODED per-(term,
    salt) posting sub-lists: the segments input of a build RESUMED from
    its docstore checkpoint, the one path that reads the docstore back and
    tokenizes a second time (a fresh build emits its sub-lists in
    ``DocstoreWriter``).

    Map-side combine: the batch's postings are grouped by term in one
    vectorized pass (``group_postings``) and delta+varint-encoded BEFORE
    the shuffle — the groupby then moves compressed sub-lists (a few bytes
    per posting, one row per term per batch) instead of raw (term, docid,
    tf, dl) rows — measured ~4x on the bench corpus vs shuffling raw
    postings. Head terms of the {term: shift} map (pickled with the
    instance) are salted by docid range (``encode_sublists``)."""

    def __init__(self, shift_map, avgdl, params, num_tbuckets, block_size):
        self.shift_map = shift_map
        self.avgdl = avgdl
        self.params = params
        self.num_tbuckets = num_tbuckets
        self.block_size = block_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        docids = batch["docid"].to_numpy(zero_copy_only=False)
        dls = batch["doclen"].to_numpy(zero_copy_only=False)
        terms, starts, rows, tfs, _ = group_postings(
            analyzer.tokenize_batch(batch["content"].to_pylist())
        )
        return encode_sublists(
            terms, starts, docids[rows], tfs, dls[rows].astype(np.uint64),
            self.shift_map, self.avgdl, self.params, self.num_tbuckets,
        )


def split_salted(batch: pa.Table, shift_map, num_tbuckets) -> pa.Table:
    """Unsalted sub-lists (``DocstoreWriter`` output) → the same postings
    with the head terms of ``shift_map`` cut into their docid-range salts
    (``encode_sublists``); the other rows pass through unchanged. Only
    the head terms' rows are decoded."""
    names = seg.SEGMENT_SCHEMA.names + ["salt"]
    head = pc.is_in(batch["term"],
                    value_set=pa.array(list(shift_map), pa.string()))
    rest = batch.filter(pc.invert(head)).select(names)
    head = batch.filter(head)
    if head.num_rows == 0:
        return rest
    docids, tfs, dls, rows, _ = seg.decode_blocks(head)
    starts = run_starts(rows)  # a row's postings: contiguous, docid-sorted
    row_terms = head["term"].to_pylist()
    split = encode_sublists(
        [row_terms[r] for r in rows[starts]], starts, docids, tfs, dls,
        shift_map, _SUBLIST_AVGDL, _SUBLIST_PARAMS, num_tbuckets,
    )
    return pa.concat_tables([rest, split])


def emit_batch_size(n_docs: int, cpus: int) -> int:
    """Docs per Emit batch on the resumed path: ceil(N / CPUs) in
    [1, 8192] (see build_index)."""
    return max(1, min(8192, math.ceil(n_docs / cpus)))


def docstore_part_name(docids: np.ndarray) -> str:
    """part-<lo>-<hi>.parquet, zero-padded so lexical sort == numeric
    sort. ONE definition shared by build's DocstoreWriter and merge's
    _merge_cells — _check_docstore_ranges' filename slicing
    (f[5:25]/f[26:46]) depends on this exact format."""
    return f"part-{int(docids[0]):020d}-{int(docids[-1]):020d}.parquet"


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
    """The docstore stage of a fresh build, run on each docid-sorted
    block (``FeaturizeRows`` output): it tokenizes every document ONCE, in
    slices of at most ``slice_docs`` docs, and from those tokens

    - sets ``doclen`` and writes the block as one docstore parquet file
      (named by its docid range — idempotent under task retry,
      range-prunable by DocJoin);
    - returns the block's encoded, UNSALTED per-term sub-lists (segment
      rows + ``salt`` = 0, one row per term per slice; their block bounds
      are placeholders, see ``_SUBLIST_AVGDL``), each with ``sample_df``,
      the term's df over the block's deterministic ``docid % sample_mod
      == 0`` sample (drives the head-term salt plan);
    - returns one stats row per block under the empty term (no token is
      empty): df = docs, cf = Σ doclen, block_last = [max docid], and no
      encoded block, so the shuffle and ``merge_bucket`` carry it as a
      posting-free row.

    The driver reads only the stats and sample rows (``_block_partials``)
    to get N, avgdl, max docid, the part count and the salt plan, then
    shuffles the sub-lists as they are, so a fresh build tokenizes each
    document once and runs two Ray executions."""

    def __init__(self, out_dir: str, sample_mod: int, num_tbuckets: int,
                 slice_docs: int):
        self.out_dir = out_dir
        self.sample_mod = sample_mod
        self.num_tbuckets = num_tbuckets
        self.slice_docs = slice_docs

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq_

        if batch.num_rows == 0:
            return _sublists(self.num_tbuckets, *_NO_POSTINGS)
        docids = batch["docid"].to_numpy(zero_copy_only=False)
        check_block_duplicates(
            docids,
            "in the corpus (same provided id on two rows, or the same "
            "repo/path ingested twice): duplicate ids would double-count "
            "postings — deduplicate upstream, or pass dedup_ids=True IF "
            "the duplicates are the same document (dedup_ids fails loudly "
            "on distinct documents colliding on one docid)",
        )
        parts, doclen = [], []
        for lo in range(0, batch.num_rows, self.slice_docs):
            d = docids[lo:lo + self.slice_docs]
            terms, starts, rows, tfs, lens = group_postings(
                analyzer.tokenize_batch(
                    batch["content"].slice(lo, self.slice_docs).to_pylist()
                )
            )
            doclen.append(lens)
            sampled = np.zeros(len(rows), np.int64)
            if self.sample_mod >= 1:
                sampled[d[rows] % self.sample_mod == 0] = 1
            parts.append(_sublists(
                self.num_tbuckets, terms, starts, d[rows], tfs,
                lens[rows].astype(np.uint64),
                np.add.reduceat(sampled, starts) if terms else sampled,
            ))
        doclen = np.concatenate(doclen)
        pq_.write_table(
            with_doclen(batch, doclen),
            os.path.join(self.out_dir, docstore_part_name(docids)),
        )
        stats = {name: [] for name in parts[0].schema.names}
        stats.update(term="", tbucket=0, slice_id=0, df=len(docids),
                     cf=int(doclen.sum()), block_last=[int(docids.max())],
                     salt=0, sample_df=0)
        return pa.concat_tables(
            [pa.Table.from_pylist([stats], schema=parts[0].schema)] + parts
        )


def _sublists(num_tbuckets, terms, starts, docids, tfs, dls,
              sample_df) -> pa.Table:
    """``DocstoreWriter``'s unsalted sub-lists with their ``sample_df``."""
    return encode_sublists(
        terms, starts, docids, tfs, dls, {}, _SUBLIST_AVGDL, _SUBLIST_PARAMS,
        num_tbuckets,
    ).append_column("sample_df", pa.array(sample_df, pa.int64()))


# (terms, starts, docids, tfs, dls, sample_df) of no postings
_NO_POSTINGS = ([], np.empty(0, np.int64), *[np.empty(0, np.uint64)] * 3,
                np.empty(0, np.int64))


def _block_partials(block: pa.Table) -> pa.Table:
    """The stats and sampled-term rows of one ``DocstoreWriter`` output
    block: run as a Ray task next to the block, so the driver receives
    these few small rows and never the sub-lists."""
    keep = pc.or_(pc.equal(block["term"], ""),
                  pc.greater(block["sample_df"], 0))
    return block.filter(keep).select(
        ["term", "df", "cf", "block_last", "sample_df"]
    )


_block_partials_task = ray.remote(_block_partials)


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

    # ---- execution 1: featurize → sort(docid) → DocstoreWriter per block
    # ONE Dataset execution writes the docid-sorted docstore and keeps, in
    # the object store, each block's stats row, head-term sample and
    # unsalted sub-lists (DocstoreWriter). The driver reduces only the
    # stats and sample rows (plain tasks, no AllToAll execution); the
    # docstore checkpoint persists the stats + salt plan so a resumed run
    # recomputes nothing.
    salt_map: dict[str, int] = {}  # term -> shift
    decisions: dict[str, str] = {}  # output → resume decision
    sublists = None  # execution 1's output, absent on a docstore resume
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
            FeaturizeRows(docid_strategy=docid_strategy,
                          num_dbuckets=num_dbuckets),
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
            def first_wins(g: pa.Table) -> pa.Table:
                # dedup is only correct when the group really is ONE
                # document ingested twice. Distinct ext_ids sharing a docid
                # are a hash64 collision between DIFFERENT documents
                # (~n²/2^64 — a real risk near 10^8-10^9 docs): collapsing
                # would silently drop a real document from the index.
                if g.num_rows > 1 and pc.count_distinct(
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
                order = pc.sort_indices(
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
        # executes the write ONCE; the sub-lists stay in the object store
        # for execution 2
        sublists = full_width(sorted_feat.map_batches(
            DocstoreWriter(docstore_dir, sample_mod, num_tbuckets,
                           slice_docs=SLICE_DOCS),
            batch_format="pyarrow", batch_size=None,
        )).materialize()
        t_docstore = time.time()
        parts = ray.get([
            _block_partials_task.remote(ref) for ref in block_refs(sublists)
        ])
        parts = pa.concat_tables(parts) if parts else _block_partials(
            _sublists(num_tbuckets, *_NO_POSTINGS)
        )
        blocks = parts.filter(pc.equal(parts["term"], ""))
        _check_docstore_ranges(docstore_dir, expected_parts=blocks.num_rows)
        n_docs = int(pc.sum(blocks["df"]).as_py() or 0)
        sum_dl = int(pc.sum(blocks["cf"]).as_py() or 0)
        max_docid = int(
            pc.max(pc.list_flatten(blocks["block_last"])).as_py() or 0
        )
        t_stats = time.time()
        space_bits = max(1, max_docid.bit_length())
        if n_docs and sample_mod >= 1:
            # head terms get docid-RANGE salts: salt = docid >> shift, with
            # 2^(space_bits-shift) ≈ df_est*mod/group_budget ranges
            # (pow2-rounded). The stats rows carry sample_df=0 and never
            # pass the positive threshold.
            # a dict, not Table.group_by: Acero's first use costs the
            # driver ~7 MB of resident memory for a few thousand rows
            df_est: dict[str, int] = {}
            for term, df in zip(parts["term"].to_pylist(),
                                parts["sample_df"].to_pylist()):
                df_est[term] = df_est.get(term, 0) + df
            for term, df in sorted(df_est.items()):
                if df > group_budget / sample_mod:
                    n_salts = max(1, math.ceil(df * sample_mod / group_budget))
                    bits = max(1, (n_salts - 1).bit_length())
                    salt_map[term] = max(0, space_bits - bits)
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

    # ---- segments: pre-encoded sub-lists → groupby(tbucket, salt)
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

    if sublists is not None:
        # ---- execution 2: the sub-lists of execution 1, head terms split
        # into their salts (only when the plan salts a term), →
        # groupby(tbucket, salt).map_groups(merge_bucket) → segments
        posts = sublists
        if salt_map:
            posts = posts.map_batches(
                split_salted, fn_kwargs=dict(shift_map=salt_map,
                                             num_tbuckets=num_tbuckets),
                batch_format="pyarrow", batch_size=None,
            )
    else:
        # resumed from the docstore checkpoint: read it back and emit the
        # sub-lists from a second tokenization. Emit runs as plain TASKS
        # (the salt map rides in the pickled instance). Explicit
        # batch_size: emit cost is per-BATCH (one sub-list row per term per
        # batch), so batches hold N / CPUs docs (one Emit task per CPU, as
        # many blocks into the groupby), capped at 8192 to bound task memory.
        posts = ray.data.read_parquet(
            docstore_dir, columns=["docid", "content", "doclen"]
        ).map_batches(
            EmitEncodedPostings(salt_map, avgdl, params, num_tbuckets,
                                block_size),
            batch_format="pyarrow",
            batch_size=emit_batch_size(
                n_docs, ray.cluster_resources().get("CPU", 1)
            ),
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
