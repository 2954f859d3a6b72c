"""Index build integration: postings, stats, sha256 invariant, salting
determinism (merge(build(A), build(B)) == build(A∪B) via re-blocking)."""

import hashlib
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from dpr_ray import corpus as corpus_mod
from dpr_ray.config import BM25Params
from dpr_ray.index import manifest as man
from dpr_ray.index import segments as seg
from dpr_ray.index.build import build_index
from dpr_ray.query.oracle import BruteForceBM25

N_DOCS = 120


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    tbl = corpus_mod.synth_corpus_table(N_DOCS, seed=7)
    ds = ray.data.from_arrow(tbl).repartition(4)
    index_dir = str(tmp_path_factory.mktemp("idx"))
    # tiny group budget + dense sampling so the salting path actually runs
    stats = build_index(
        ds, index_dir, docid_strategy="hash64", group_budget=30, sample_mod=2,
        block_size=16,
    )
    return tbl, index_dir, stats


def _load_segment_rows(index_dir):
    d = pads.dataset(os.path.join(index_dir, "segments"), partitioning="hive")
    return d.to_table().to_pylist()


def test_stats(built):
    tbl, index_dir, stats = built
    assert stats["N"] == N_DOCS
    oracle = _oracle(tbl)
    assert stats["sum_dl"] == int(oracle.dls.sum())
    assert abs(stats["avgdl"] - oracle.avgdl) < 1e-12
    assert stats["head_terms_salted"] > 0, "salting path must execute"


def _oracle(tbl):
    from dpr_ray.stages.featurize import docid_from_ext_id

    ext = [f"{r}/{p}" for r, p in zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist())]
    docids = [docid_from_ext_id(e) for e in ext]
    return BruteForceBM25(docids, tbl["content"].to_pylist(), BM25Params())


def test_postings_match_oracle(built):
    tbl, index_dir, stats = built
    oracle = _oracle(tbl)
    rows = _load_segment_rows(index_dir)
    by_term = {}
    for r in rows:
        by_term.setdefault(r["term"], []).append(r)
    # every oracle term present, postings identical
    assert set(by_term.keys()) == set(oracle.df.keys())
    for term, trows in by_term.items():
        docids, tfs, dls = seg.decode_rows(trows)
        o_doc, o_tf, o_dl = oracle.postings(term)
        assert np.array_equal(docids, o_doc), term
        assert np.array_equal(tfs, o_tf), term
        assert np.array_equal(dls, o_dl), term
        assert sum(r["df"] for r in trows) == oracle.df[term]


def test_sha256_invariant(built):
    tbl, index_dir, stats = built
    d = pads.dataset(os.path.join(index_dir, "docstore"), partitioning="hive")
    got = d.to_table(columns=["ext_id", "sha256", "doclen", "content"]).to_pylist()
    src = {
        f"{r}/{p}": hashlib.sha256(c.encode()).hexdigest()
        for r, p, c in zip(
            tbl["repo"].to_pylist(), tbl["path"].to_pylist(), tbl["content"].to_pylist()
        )
    }
    assert len(got) == N_DOCS
    for row in got:
        assert src[row["ext_id"]] == row["sha256"]
        assert hashlib.sha256(row["content"].encode()).hexdigest() == row["sha256"]


def test_manifest_written(built):
    _tbl, index_dir, _stats = built
    m = man.read_manifest(index_dir)
    assert m and m["complete"]
    assert m["partitions"]["segments"], "per-partition metrics recorded"
    assert all(p["rows"] >= 0 for p in m["partitions"]["segments"])
    assert m["skew_plan"]["salted_terms"] > 0


def test_salting_does_not_change_logical_index(ray_session, tmp_path, monkeypatch):
    """The skew plan changes slice layout (slices = docid-range salts) but
    NOT the logical index: decoded postings and query results are identical
    between an aggressively-salted and an unsalted build; and a rebuild with
    the same plan is byte-identical (determinism under resume). The rebuild
    runs on another block count AND tokenizes its blocks in small slices
    (7 and 1,000 docs instead of 8,192), so each block emits several
    sub-lists per term and the head terms' split runs over them."""
    for n_docs, group_budget, rebuild_slice in ((60, 10, 7),
                                                (8300, 1000, 1000)):
        _check_salting_identity(tmp_path / str(n_docs), n_docs, group_budget,
                                rebuild_slice, monkeypatch)


def _check_salting_identity(root, n_docs, group_budget, rebuild_slice,
                            monkeypatch):
    import pyarrow as pa
    import ray.data

    from dpr_ray.index import build as build_mod
    from dpr_ray.query.executor import QueryExecutor

    tbl = corpus_mod.synth_corpus_table(n_docs, seed=11)
    a = str(root / "a")
    a2 = str(root / "a2")
    b = str(root / "b")
    build_index(ray.data.from_arrow(tbl).repartition(3), a,
                docid_strategy="hash64", group_budget=group_budget,
                sample_mod=1, block_size=8)
    with monkeypatch.context() as m:
        m.setattr(build_mod, "SLICE_DOCS", rebuild_slice)
        build_index(ray.data.from_arrow(tbl).repartition(2), a2,
                    docid_strategy="hash64", group_budget=group_budget,
                    sample_mod=1, block_size=8)
    build_index(ray.data.from_arrow(tbl).repartition(2), b,
                docid_strategy="hash64", group_budget=10**9, sample_mod=1, block_size=8)
    # same plan, different parallelism (and slicing) → byte-identical
    ra = sorted(_load_segment_rows(a), key=lambda r: (r["term"], r["slice_id"]))
    ra2 = sorted(_load_segment_rows(a2), key=lambda r: (r["term"], r["slice_id"]))
    assert ra == ra2
    # different plan → logically identical
    by_term_a, by_term_b = {}, {}
    for rows, acc in ((ra, by_term_a), (_load_segment_rows(b), by_term_b)):
        for r in rows:
            acc.setdefault(r["term"], []).append(r)
    assert set(by_term_a) == set(by_term_b)
    for t in by_term_a:
        da, ta, la = seg.decode_rows(by_term_a[t])
        db, tb_, lb = seg.decode_rows(by_term_b[t])
        assert np.array_equal(da, db) and np.array_equal(ta, tb_)
        assert np.array_equal(la, lb)
        assert sum(r["df"] for r in by_term_a[t]) == sum(r["df"] for r in by_term_b[t])
    # query results identical across plans
    qb = pa.table({"qid": ["q"], "question": ["def return import class"]})
    for method in ("taat", "bmw"):
        out_a = QueryExecutor(a, k=10, method=method)(qb).to_pylist()
        out_b = QueryExecutor(b, k=10, method=method)(qb).to_pylist()
        assert out_a == out_b


def test_build_leaves_data_context_unchanged(ray_session, tmp_path):
    """build_index runs its shuffle executions through util.full_width,
    which turns per-operator reservation off on a private DataContext: the
    global context, the caller's Dataset context and full_width's input
    keep the setting."""
    import ray.data
    from ray.data import DataContext

    from dpr_ray.util import full_width

    before = DataContext.get_current().op_resource_reservation_enabled
    assert before  # Ray's default; the check below would be vacuous if off
    tbl = corpus_mod.synth_corpus_table(40, seed=5)
    corpus_ds = ray.data.from_arrow(tbl).repartition(2)
    build_index(corpus_ds, str(tmp_path / "idx"), docid_strategy="hash64")
    assert DataContext.get_current().op_resource_reservation_enabled == before
    assert corpus_ds.context.op_resource_reservation_enabled == before

    grouped = corpus_ds.groupby("repo").count()
    wide = full_width(grouped)
    assert wide.context.op_resource_reservation_enabled is False
    assert grouped.context.op_resource_reservation_enabled == before
    assert grouped._logical_plan.context.op_resource_reservation_enabled == before
    assert DataContext.get_current().op_resource_reservation_enabled == before
    assert sum(r["count()"] for r in wide.take_all()) == tbl.num_rows


@pytest.mark.parametrize("n_docs", [0, 1, 3, 8192 * 4 + 5, 10_000])
@pytest.mark.parametrize("cpus", [1, 4, 32])
def test_emit_batch_size_rule(n_docs, cpus):
    """Emit batches (a build resumed from its docstore checkpoint) hold at
    most 8192 docs, and N docs split into at least min(CPUs, N) batches,
    so every CPU gets an Emit task when N allows."""
    from dpr_ray.index.build import emit_batch_size

    bs = emit_batch_size(n_docs, cpus)
    assert 1 <= bs <= 8192
    assert math.ceil(n_docs / bs) >= min(cpus, n_docs)


@pytest.mark.parametrize(
    "shape", ["omni_term", "two_heads", "identical_docs"]
)
def test_salted_merge_adversarial_skew(ray_session, tmp_path, shape):
    """Adversarial head-term skew: a single term covering >50% (here up to
    100%) of docs must spread across MANY docid-range salts and still
    merge to the exact logical index of an unsalted build — decoded
    postings, df sums, and query results identical; and a rebuild at
    different parallelism is byte-identical (determinism under the same
    skew plan)."""
    import pyarrow as pa
    import ray.data

    from dpr_ray.query.executor import QueryExecutor

    rng = np.random.default_rng(29)
    n = 90
    contents = []
    for i in range(n):
        if shape == "omni_term":
            # "omni" in EVERY doc (df = 100%), many times, plus noise
            toks = ["omni"] * int(rng.integers(2, 8)) + [
                f"noise{int(x)}" for x in rng.integers(0, 30, 10)
            ]
        elif shape == "two_heads":
            toks = [f"noise{int(x)}" for x in rng.integers(0, 30, 8)]
            if i % 10 < 6:
                toks += ["heavya"] * 3
            if i % 2 == 0:
                toks += ["heavyb"]
        else:  # identical_docs: EVERY term is a 100%-df head term
            toks = ["alpha", "beta", "gamma", "delta", "epsilon"] * 4
        rng.shuffle(toks)
        contents.append(" ".join(toks))
    tbl = pa.table(
        {
            "repo": pa.array([f"r{i % 5}" for i in range(n)], pa.string()),
            "path": pa.array([f"p/{i}.py" for i in range(n)], pa.string()),
            "commit": pa.array(["c"] * n, pa.string()),
            "lang": pa.array(["py"] * n, pa.string()),
            "content": pa.array(contents, pa.string()),
        }
    )
    salted = str(tmp_path / "salted")
    salted2 = str(tmp_path / "salted2")
    plain = str(tmp_path / "plain")
    # group_budget=8 with sample_mod=1 → the head term needs ceil(df/8)
    # salts (≥ 12 for the omni shapes)
    build_index(ray.data.from_arrow(tbl).repartition(4), salted,
                docid_strategy="hash64", group_budget=8, sample_mod=1,
                block_size=8)
    build_index(ray.data.from_arrow(tbl).repartition(2), salted2,
                docid_strategy="hash64", group_budget=8, sample_mod=1,
                block_size=8)
    build_index(ray.data.from_arrow(tbl).repartition(3), plain,
                docid_strategy="hash64", group_budget=10**9, sample_mod=1,
                block_size=8)
    salt_map = man.read_manifest(salted)["skew_plan"]["salt_map"]
    head_terms = {
        "omni_term": ["omni"],
        "two_heads": ["heavya", "heavyb"],
        "identical_docs": ["alpha", "beta", "gamma", "delta", "epsilon"],
    }[shape]
    for t in head_terms:
        assert t in salt_map, (shape, t, salt_map)
    rs = sorted(_load_segment_rows(salted),
                key=lambda r: (r["term"], r["slice_id"]))
    rs2 = sorted(_load_segment_rows(salted2),
                 key=lambda r: (r["term"], r["slice_id"]))
    assert rs == rs2  # same skew plan, different parallelism → same bytes
    # the head term really is spread over many slices
    n_slices_head = sum(1 for r in rs if r["term"] == head_terms[0])
    assert n_slices_head >= 4, (shape, n_slices_head)
    # logical identity vs the unsalted build, term by term
    by_term_s, by_term_p = {}, {}
    for rows, acc in ((rs, by_term_s), (_load_segment_rows(plain), by_term_p)):
        for r in rows:
            acc.setdefault(r["term"], []).append(r)
    assert set(by_term_s) == set(by_term_p)
    for t in by_term_s:
        ds_, ts_, ls_ = seg.decode_rows(
            sorted(by_term_s[t], key=lambda r: r["slice_id"]))
        dp_, tp_, lp_ = seg.decode_rows(
            sorted(by_term_p[t], key=lambda r: r["slice_id"]))
        assert np.array_equal(ds_, dp_) and np.array_equal(ts_, tp_)
        assert np.array_equal(ls_, lp_)
        assert (sum(r["df"] for r in by_term_s[t])
                == sum(r["df"] for r in by_term_p[t]))
    qb = pa.table(
        {"qid": ["q"], "question": [" ".join(head_terms + ["noise3"])]}
    )
    for method in ("taat", "maxscore", "bmw"):
        out_s = QueryExecutor(salted, k=15, method=method)(qb).to_pylist()
        out_p = QueryExecutor(plain, k=15, method=method)(qb).to_pylist()
        assert out_s == out_p, (shape, method)


def test_write_partitioned_retry_idempotent_and_zero_block(
    ray_session, tmp_path
):
    """The partitioned sink names files by a content hash of the written
    rows, so a Ray TASK RETRY (worker death after a partial write)
    overwrites its own files instead of duplicating rows under a fresh
    uuid. Simulated here by writing the same block twice into one dir.
    Also: a zero-block dataset returns zeros instead of crashing on the
    None aggregate."""
    import pyarrow as pa
    import ray.data

    from dpr_ray.index.io import write_partitioned

    tbl = pa.table(
        {
            "tbucket": pa.array([0, 0, 1], pa.int64()),
            "v": pa.array([10, 20, 30], pa.int64()),
        }
    )
    out = str(tmp_path / "o")
    r1 = write_partitioned(ray.data.from_arrow(tbl), out, "tbucket",
                           sum_cols=["v"])
    files1 = sorted(
        os.path.join(d, f)
        for d, _, fs in os.walk(out) for f in fs if f.endswith(".parquet")
    )
    # the retry: identical rows written again into the same directory
    r2 = write_partitioned(ray.data.from_arrow(tbl), out, "tbucket",
                           sum_cols=["v"])
    files2 = sorted(
        os.path.join(d, f)
        for d, _, fs in os.walk(out) for f in fs if f.endswith(".parquet")
    )
    assert files1 == files2  # same names, overwritten — no duplicates
    assert r1 == r2 == {"rows": 3, "sum_v": 60}
    import pyarrow.dataset as pads

    back = pads.dataset(out, partitioning="hive").to_table()
    assert back.num_rows == 3  # rows not doubled by the retry

    empty = ray.data.from_arrow(tbl.slice(0, 0))
    assert write_partitioned(
        empty, str(tmp_path / "e"), "tbucket", sum_cols=["v"]
    ) == {"rows": 0, "sum_v": 0}


def test_failed_rebuild_invalidates_completeness(
    ray_session, tmp_path, monkeypatch
):
    """An in-place rebuild that dies mid-way must not leave the PREVIOUS
    build's manifest.json or stats.json claiming completeness: merge_indexes
    and SegmentStore read stats.json without a completeness check, so a
    stale copy over partial data would serve the old corpus's N/avgdl
    silently. build_index removes both before mutating outputs (the same
    discipline merge_indexes applies to its out_dir)."""
    import ray.data

    from dpr_ray.index import io as iomod

    d = str(tmp_path / "idx")
    a = corpus_mod.synth_corpus_table(25, seed=3)
    b = corpus_mod.synth_corpus_table(40, seed=4)
    build_index(ray.data.from_arrow(a).repartition(2), d,
                docid_strategy="hash64")
    assert man.is_complete(d)
    assert os.path.exists(os.path.join(d, "stats.json"))

    real = iomod.write_partitioned

    def boom(*args, **kwargs):
        raise RuntimeError("injected segments-write failure")

    monkeypatch.setattr(iomod, "write_partitioned", boom)
    with pytest.raises(Exception, match="injected"):
        build_index(ray.data.from_arrow(b).repartition(2), d,
                    docid_strategy="hash64")
    assert not man.is_complete(d)
    assert not os.path.exists(os.path.join(d, "stats.json")), (
        "stale stats.json survived a failed rebuild"
    )
    monkeypatch.setattr(iomod, "write_partitioned", real)
    stats = build_index(ray.data.from_arrow(b).repartition(2), d,
                        docid_strategy="hash64")
    assert man.is_complete(d) and stats["N"] == 40


def _emit_groups(tbl, shift_map, avgdl, params, block_size, batch_rows=64):
    """Build's shuffle input, made in-process: Emit sub-lists over
    docid-sorted batches, grouped by (tbucket, salt) as the groupby does."""
    import pyarrow.compute as pc

    from dpr_ray.index.build import EmitEncodedPostings
    from dpr_ray.stages.featurize import Featurize

    docs = Featurize(docid_strategy="hash64", num_dbuckets=16)(tbl).sort_by(
        "docid"
    ).select(["docid", "content", "doclen"])
    emit = EmitEncodedPostings(shift_map, avgdl, params, 4, block_size)
    sub = pa.concat_tables([
        emit(docs.slice(i, batch_rows))
        for i in range(0, docs.num_rows, batch_rows)
    ])
    keys = sorted(set(zip(sub["tbucket"].to_pylist(), sub["salt"].to_pylist())))
    return [
        (salt, sub.filter((pc.field("tbucket") == tb) & (pc.field("salt") == salt)))
        for tb, salt in keys
    ]


@pytest.mark.parametrize("block_size,max_pps", [(4, 8), (16, 1_000_000)])
def test_encode_bucket_matches_build_reference(block_size, max_pps):
    """decode_blocks → encode_bucket writes the same segment table, byte
    for byte, as the build rewrite it replaced (tests/codec_reference.py),
    on unsalted groups and on head terms salted into docid ranges."""
    from codec_reference import assert_tables_identical, ref_merge_bucket

    tbl = corpus_mod.synth_corpus_table(300, seed=11)
    params = BM25Params()
    avgdl = 37.25
    groups = _emit_groups(
        tbl, {"def": 61, "return": 62, "import": 61}, avgdl, params,
        block_size,
    )
    salts = set()
    for salt, group in groups:
        docids, tfs, dls, rows, _ = seg.decode_blocks(group)
        got = seg.encode_bucket(
            group["term"].to_pylist(), rows, docids, tfs, dls, avgdl, params,
            4, block_size, max_pps, slice_id_offset=salt * 64,
        )
        assert_tables_identical(
            got, ref_merge_bucket(group, avgdl, params, 4, block_size, max_pps)
        )
        salts.add(salt)
    assert 0 in salts and len(salts) > 2


@pytest.mark.parametrize(
    "kw",
    [
        dict(block_size=4, max_postings_per_slice=8),
        dict(group_budget=20, sample_mod=1, partition_resume=True),
    ],
    ids=["multi_slice", "partition_resume"],
)
def test_decode_blocks_matches_decode_rows(ray_session, tmp_path, kw):
    """decode_blocks equals the row-dict reader decode_rows term by term,
    over the whole index and with a docid-range block mask."""
    import ray.data

    from codec_reference import check_decode_blocks, segment_table

    tbl = corpus_mod.synth_corpus_table(200, seed=6)
    d = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(tbl).repartition(4), d,
                docid_strategy="hash64", **kw)
    assert check_decode_blocks(d) == seg.read_stats(d)["postings"]
    first = np.sort(np.concatenate(
        segment_table(d)["block_first"].to_numpy(zero_copy_only=False)
    ))
    lo, hi = int(first[len(first) // 4]), int(first[len(first) // 2])
    n = check_decode_blocks(d, (lo, hi))
    assert 0 < n < seg.read_stats(d)["postings"]
    assert check_decode_blocks(d, (0, int(first[0]))) == 0


def _serve_equals_oracle(index_dir, tbl, queries, k=10):
    from bm25_oracle import oracle_topk
    from dpr_ray.query.executor import QueryExecutor

    oracle = _oracle(tbl)
    batch = pa.table({"qid": [f"q{i}" for i in range(len(queries))],
                      "question": queries})
    for method in ("taat", "maxscore", "bmw"):
        got = {q: [] for q in queries}
        for r in QueryExecutor(index_dir, k=k, method=method)(batch).to_pylist():
            got[r["question"]].append((r["docid"], r["score"]))
        for q in queries:
            assert got[q] == oracle_topk(oracle, q, k, []), (method, q)


def test_unsalted_term_past_64_slices_builds(ray_session, tmp_path):
    """The 64-slice cap only keeps a salted term's per-salt slice id
    ranges apart: an unsalted term may hold any number of slices (here
    300 one-posting slices) and must build and serve like merge does."""
    import ray.data

    tbl = corpus_mod.synth_corpus_table(300, seed=6)
    d = str(tmp_path / "idx")
    stats = build_index(ray.data.from_arrow(tbl).repartition(4), d,
                        docid_strategy="hash64", block_size=4,
                        max_postings_per_slice=1)
    assert stats["head_terms_salted"] == 0
    rows = _load_segment_rows(d)
    assert max(r["slice_id"] for r in rows if r["term"] == "def") == 299
    _serve_equals_oracle(
        d, tbl, ["def", "def return import", "while class rare_tok_3",
                 "self answer_7"],
    )


def test_salted_group_past_64_slices_raises(ray_session, tmp_path):
    """A salted term whose salt group needs more than 64 slices would run
    into the next salt's slice ids: the build refuses with a ValueError
    naming both knobs (an assert would vanish under python -O)."""
    import ray.data

    tbl = corpus_mod.synth_corpus_table(300, seed=6)
    with pytest.raises(Exception, match="max_postings_per_slice") as ei:
        build_index(ray.data.from_arrow(tbl).repartition(4),
                    str(tmp_path / "idx"), docid_strategy="hash64",
                    group_budget=200, sample_mod=1, max_postings_per_slice=1)
    assert "group_budget" in str(ei.value)
    assert "ValueError" in str(ei.value) or isinstance(ei.value, ValueError)


def _count_executions(monkeypatch) -> list:
    """Count Ray Data executions started on the driver from here on."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    calls = []
    real = StreamingExecutor.execute

    def execute(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return calls


def test_fresh_build_runs_two_executions(ray_session, tmp_path, monkeypatch):
    """A fresh build is two Ray Data executions — the docstore pass that
    also emits the sub-lists, then the segments shuffle and write — with
    the salt split in the second one; the stats, sample and writer counts
    are reduced on the driver, never by an aggregate execution."""
    import ray.data

    tbl = corpus_mod.synth_corpus_table(200, seed=8)
    ds = ray.data.from_arrow(tbl).repartition(4).materialize()
    calls = _count_executions(monkeypatch)
    stats = build_index(ds, str(tmp_path / "idx"), docid_strategy="hash64",
                        group_budget=20, sample_mod=1)
    assert stats["head_terms_salted"] > 0
    assert len(calls) == 2


def _dup_corpus(n):
    """A corpus with every fifth document ingested again at a later
    commit (the case dedup_ids collapses)."""
    import pyarrow.compute as pc

    tbl = corpus_mod.synth_corpus_table(n, seed=12)
    again = tbl.take(list(range(0, n, 5)))
    again = again.set_column(
        again.schema.get_field_index("commit"), "commit",
        pc.binary_join_element_wise(again["commit"], "b", ""),
    )
    return pa.concat_tables([tbl, again])


@pytest.mark.parametrize(
    "kw",
    [
        dict(),
        dict(group_budget=15, sample_mod=1, block_size=8),
        dict(dedup_ids=True, group_budget=40, sample_mod=2),
    ],
    ids=["unsalted", "salted", "dedup_ids"],
)
def test_fresh_build_equals_docstore_resume(ray_session, tmp_path, kw):
    """The fresh path (sub-lists emitted by the docstore pass, head terms
    split after it) and the read-back path (a build resumed from its
    docstore checkpoint with the segments wiped: EmitEncodedPostings
    tokenizes the docstore again and salts while it emits) write the same
    segment rows, byte for byte, and the same stats.json bytes. Segment
    FILE names follow Ray's sort boundaries, which vary between runs on
    either path, so rows are compared."""
    import shutil

    import ray.data

    tbl = _dup_corpus(150) if kw.get("dedup_ids") else (
        corpus_mod.synth_corpus_table(150, seed=12))
    d = str(tmp_path / "idx")
    ds = lambda: ray.data.from_arrow(tbl).repartition(3)  # noqa: E731
    build_index(ds(), d, docid_strategy="hash64", **kw)
    fresh_rows = _sorted_rows(d)
    with open(os.path.join(d, "stats.json"), "rb") as f:
        fresh_stats = f.read()
    if kw.get("sample_mod") == 1:
        assert seg.read_stats(d)["head_terms_salted"] > 0
    os.remove(os.path.join(d, "manifest.json"))
    os.remove(os.path.join(d, "stats.json"))
    shutil.rmtree(os.path.join(d, "segments"))
    build_index(ds(), d, docid_strategy="hash64", resume=True, **kw)
    assert man.read_manifest(d)["resume"]["docstore"] == "resumed"
    assert _sorted_rows(d) == fresh_rows
    with open(os.path.join(d, "stats.json"), "rb") as f:
        assert f.read() == fresh_stats


def _sorted_rows(index_dir):
    return sorted(_load_segment_rows(index_dir),
                  key=lambda r: (r["term"], r["slice_id"]))


def _emitted_postings(tbl: pa.Table) -> list:
    """(term, salt, docid, tf, dl) of every posting in sub-list rows."""
    docids, tfs, dls, rows, _ = seg.decode_blocks(tbl)
    terms = tbl["term"].to_pylist()
    salts = tbl["salt"].to_pylist()
    return sorted(
        (terms[r], salts[r], int(d), int(t), int(l))
        for r, d, t, l in zip(rows, docids, tfs, dls)
    )


def test_vectorized_emit_matches_counter_reference(tmp_path, monkeypatch):
    """Both emitters — EmitEncodedPostings (read-back path) and
    DocstoreWriter + split_salted (fresh path, here tokenizing in 3-doc
    slices) — decode to the (term, salt, docid, tf, dl) multiset of a
    per-document Counter, on a batch with empty documents, a document of
    one repeated token and head terms salted over several docid ranges
    (docids up to 2^64 - 1). The fresh path also gets doclen, the part
    file and the head-term sample right without analyzer.doc_lengths."""
    from collections import Counter

    import pyarrow.parquet as pq

    from dpr_ray import analyzer
    from dpr_ray.index.build import (
        DocstoreWriter,
        EmitEncodedPostings,
        split_salted,
    )
    from dpr_ray.stages.featurize import FeaturizeRows

    rng = np.random.default_rng(5)
    n = 40
    docids = np.sort(rng.choice(1 << 62, n, replace=False).astype(np.uint64)
                     * np.uint64(4) + np.uint64(3))
    docids[-1] = np.uint64((1 << 64) - 1)
    vocab = ["head", "Head", "tail", "x", "café", "ß", "a.b", "z"]
    contents = []
    for i in range(n):
        if i % 9 == 4:
            contents.append("")
        elif i == 7:
            contents.append("x x x x x x")
        else:
            toks = rng.choice(vocab, int(rng.integers(1, 12)))
            contents.append(" ".join(toks))
    tbl = pa.table({
        "repo": ["r"] * n, "path": [f"p{i}" for i in range(n)],
        "commit": ["c"] * n, "lang": ["py"] * n,
        "content": contents, "docid": pa.array(docids, pa.uint64()),
    })
    shift_map = {"head": 60, "x": 62}
    expect, sampled = [], Counter()
    for d, text in zip(docids, contents):
        toks = analyzer.tokenize(text)
        for t, c in Counter(toks).items():
            salt = int(d) >> shift_map[t] if t in shift_map else 0
            expect.append((t, salt, int(d), c, len(toks)))
        if int(d) % 3 == 0:
            sampled.update(set(toks))
    expect.sort()
    assert len({s for t, s, *_ in expect if t == "head"}) > 2

    params = BM25Params()
    rows = FeaturizeRows(docid_strategy="provided")(tbl)
    doclen = [len(analyzer.tokenize(c)) for c in contents]
    emit = EmitEncodedPostings(shift_map, 5.0, params, 4, 8)
    emitted = emit(rows.select(["docid", "content"]).append_column(
        "doclen", pa.array(doclen, pa.int64())))
    assert _emitted_postings(emitted) == expect

    def no_doc_lengths(texts):
        raise AssertionError("the fresh path counts tokens it already has")

    monkeypatch.setattr(analyzer, "doc_lengths", no_doc_lengths)
    out = DocstoreWriter(str(tmp_path), 3, 4, slice_docs=3)(rows)
    stats = out.filter(pa.compute.equal(out["term"], ""))
    assert stats["df"].to_pylist() == [n]
    assert stats["cf"].to_pylist() == [sum(doclen)]
    assert stats["block_last"].to_pylist() == [[(1 << 64) - 1]]
    got_sample = Counter()
    for t, s in zip(out["term"].to_pylist(), out["sample_df"].to_pylist()):
        if s:
            got_sample[t] += s
    assert got_sample == sampled
    assert set(out["salt"].to_pylist()) == {0}
    assert _emitted_postings(split_salted(out, shift_map, 4)) == expect
    (part,) = os.listdir(tmp_path)
    written = pq.read_table(os.path.join(tmp_path, part))
    assert written["doclen"].to_pylist() == doclen
    assert written.drop_columns(["doclen"]).equals(rows)
