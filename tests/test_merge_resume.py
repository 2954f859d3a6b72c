"""M3/M6 properties: merge(build(A), build(B)) == build(A∪B) byte-for-byte;
resume-after-kill converges to the clean-run bytes."""

import os

import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from dpr_ray import corpus as corpus_mod
from dpr_ray.index.build import build_index
from dpr_ray.index.merge import merge_indexes, merge_with_decision
from dpr_ray.index import segments as seg


def _segment_rows(index_dir):
    d = pads.dataset(os.path.join(index_dir, "segments"), partitioning="hive")
    return sorted(d.to_table().to_pylist(), key=lambda r: (r["term"], r["slice_id"]))


def test_merge_equals_union_build(ray_session, tmp_path):
    import ray.data

    tbl = corpus_mod.synth_corpus_table(80, seed=21)
    a, b = tbl.slice(0, 50), tbl.slice(50)
    da, db, dab, dm = (str(tmp_path / x) for x in ["a", "b", "ab", "m"])
    build_index(ray.data.from_arrow(a).repartition(2), da, docid_strategy="hash64")
    build_index(ray.data.from_arrow(b).repartition(2), db, docid_strategy="hash64")
    build_index(ray.data.from_arrow(tbl).repartition(3), dab, docid_strategy="hash64")
    stats_m = merge_indexes([da, db], dm)
    stats_ab = seg.read_stats(dab)
    assert stats_m["N"] == stats_ab["N"]
    assert stats_m["sum_dl"] == stats_ab["sum_dl"]
    assert stats_m["postings"] == stats_ab["postings"]
    ra, rb = _segment_rows(dm), _segment_rows(dab)
    assert len(ra) == len(rb)
    for x, y in zip(ra, rb):
        assert x == y, x["term"]
    # merged docstore serves queries identically
    from dpr_ray.query.executor import QueryExecutor

    for d in (dm, dab):
        ex = QueryExecutor(d, k=10)
        out = ex(pa.table({"qid": ["q"], "question": ["def return import"]}))
        if d == dm:
            first = out.to_pylist()
        else:
            assert out.to_pylist() == first


def test_resume_skips_and_matches(ray_session, tmp_path):
    import ray.data

    tbl = corpus_mod.synth_corpus_table(40, seed=9)
    clean, killed = str(tmp_path / "clean"), str(tmp_path / "killed")
    ds = lambda: ray.data.from_arrow(tbl).repartition(2)  # noqa: E731
    build_index(ds(), clean, docid_strategy="hash64")

    # simulate a kill after the docstore stage: docstore + marker exist,
    # segments partially written, no manifest
    build_index(ds(), killed, docid_strategy="hash64")
    os.remove(os.path.join(killed, "manifest.json"))
    import shutil

    seg_dir = os.path.join(killed, "segments")
    # corrupt/partial segments: drop one partition dir
    victim = sorted(os.listdir(seg_dir))[0]
    shutil.rmtree(os.path.join(seg_dir, victim))

    stats = build_index(ds(), killed, docid_strategy="hash64", resume=True)
    assert stats["N"] == 40
    assert _segment_rows(killed) == _segment_rows(clean)

    # fully-complete manifest → resume is a no-op (skip)
    import time

    t0 = time.time()
    stats2 = build_index(ds(), killed, docid_strategy="hash64", resume=True)
    assert stats2["N"] == 40
    assert time.time() - t0 < 5  # skipped, not rebuilt


def test_merged_index_search_matches_oracle(ray_session, tmp_path):
    import ray.data

    from dpr_ray.config import BM25Params
    from dpr_ray.query.executor import QueryExecutor
    from dpr_ray.query.oracle import BruteForceBM25
    from dpr_ray.stages.featurize import docid_from_ext_id

    tbl = corpus_mod.synth_corpus_table(60, seed=33)
    a, b = tbl.slice(0, 30), tbl.slice(30)
    da, db, dm = (str(tmp_path / x) for x in ["a", "b", "m"])
    build_index(ray.data.from_arrow(a), da, docid_strategy="hash64")
    build_index(ray.data.from_arrow(b), db, docid_strategy="hash64")
    merge_indexes([da, db], dm)
    ext = [f"{r}/{p}" for r, p in zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist())]
    oracle = BruteForceBM25(
        [docid_from_ext_id(e) for e in ext], tbl["content"].to_pylist(), BM25Params()
    )
    ex = QueryExecutor(dm, k=15)
    for q in ["def class", "rare", "import struct fn"]:
        got = ex(pa.table({"qid": ["x"], "question": [q]})).to_pylist()
        expected = oracle.top_k(q, 15)
        assert [(r["docid"], r["score"]) for r in got] == expected, q


def test_merge_of_salted_indexes_is_logically_exact(ray_session, tmp_path):
    """merge_indexes over inputs built with aggressive salting (multi-slice
    terms) must produce the same logical postings and query results as a
    direct build of the union."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from dpr_ray.query.executor import QueryExecutor

    tbl = corpus_mod.synth_corpus_table(90, seed=41)
    a, b = tbl.slice(0, 45), tbl.slice(45)
    da, db, dm, dab = (str(tmp_path / x) for x in ["a", "b", "m", "ab"])
    for src, dst in ((a, da), (b, db)):
        build_index(ray.data.from_arrow(src).repartition(2), dst,
                    docid_strategy="hash64", group_budget=15, sample_mod=1)
    merge_indexes([da, db], dm)
    build_index(ray.data.from_arrow(tbl).repartition(3), dab,
                docid_strategy="hash64", group_budget=10**9, sample_mod=1)
    # logical postings equal term-by-term
    by_term_m, by_term_ab = {}, {}
    for d, acc in ((dm, by_term_m), (dab, by_term_ab)):
        for r in _segment_rows(d):
            acc.setdefault(r["term"], []).append(r)
    assert set(by_term_m) == set(by_term_ab)
    for t in by_term_m:
        dm_, tm_, lm_ = seg.decode_rows(by_term_m[t])
        dab_, tab_, lab_ = seg.decode_rows(by_term_ab[t])
        assert np.array_equal(dm_, dab_) and np.array_equal(tm_, tab_)
        assert np.array_equal(lm_, lab_)
    q = pa.table({"qid": ["q"], "question": ["def return rare class fn"]})
    for method in ("taat", "bmw"):
        assert (
            QueryExecutor(dm, k=12, method=method)(q).to_pylist()
            == QueryExecutor(dab, k=12, method=method)(q).to_pylist()
        )


def _docstore_rows(index_dir):
    d = pads.dataset(os.path.join(index_dir, "docstore"))
    return sorted(d.to_table().to_pylist(), key=lambda r: r["docid"])


def _cross_writer_inputs(tmp_path):
    import ray.data

    tbl = corpus_mod.synth_corpus_table(60, seed=5)
    x, a, b = tbl.slice(0, 20), tbl.slice(20, 20), tbl.slice(40, 20)
    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    build_index(ray.data.from_arrow(a), da, docid_strategy="hash64")
    build_index(ray.data.from_arrow(b), db, docid_strategy="hash64")
    return (lambda: ray.data.from_arrow(x)), da, db


def test_build_resume_refuses_merge_state_in_same_dir(ray_session, tmp_path):
    """Build X into D, merge [A, B] into the same D, then a kill after the
    merge's docstore phase: the build's resume must not trust any docstore
    record — the docstore on disk is the merge's. Build and merge sign
    the shared docstore checkpoint with different scopes, so the resume
    refuses loudly (it used to build segments from the merge's docstore
    with X's stats and write a complete manifest)."""
    import shutil

    x, da, db = _cross_writer_inputs(tmp_path)
    d = str(tmp_path / "d")
    build_index(x(), d, docid_strategy="hash64")
    merge_indexes([da, db], d)
    for f in ("manifest.json", "stats.json"):
        os.remove(os.path.join(d, f))
    shutil.rmtree(os.path.join(d, "segments"))
    with pytest.raises(ValueError, match="resume=True"):
        build_index(x(), d, docid_strategy="hash64", resume=True)


def test_merge_recomputes_after_build_in_same_dir(ray_session, tmp_path):
    """Merge [A, B] into D, build X into D, merge again: no kill is needed
    for the second merge to find a docstore record, but it is the build's,
    so the merge recomputes its docstore and equals a fresh merge (it used
    to resume over X's docstore while its stats said N=40)."""
    import json

    x, da, db = _cross_writer_inputs(tmp_path)
    d, fresh = str(tmp_path / "d"), str(tmp_path / "fresh")
    merge_indexes([da, db], d)
    build_index(x(), d, docid_strategy="hash64")
    stats = merge_indexes([da, db], d)
    assert stats == merge_indexes([da, db], fresh)
    assert _docstore_rows(d) == _docstore_rows(fresh)
    assert _segment_rows(d) == _segment_rows(fresh)
    with open(os.path.join(d, "manifest.json")) as f:
        assert json.load(f)["resume"] == {
            "docstore": "rebuilt: signature changed"
        }


def test_merge_resume_skips_complete_output(ray_session, tmp_path):
    """A complete out_dir signed by the same merge is returned as is, the
    way build_index skips a complete index: no output file is rewritten.
    resume=False rewrites it."""
    _, da, db = _cross_writer_inputs(tmp_path)
    d = str(tmp_path / "d")
    stats = merge_indexes([da, db], d)

    def mtimes():
        return {
            os.path.join(r, f): os.stat(os.path.join(r, f)).st_mtime_ns
            for r, _, fs in os.walk(d) for f in fs
        }

    before = mtimes()
    assert merge_with_decision([da, db], d) == (stats, "resumed")
    assert mtimes() == before
    assert merge_indexes([da, db], d, resume=False) == stats
    assert mtimes() != before
