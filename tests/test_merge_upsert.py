"""Upsert-merge properties (incremental refresh M3 extension):
``merge(base, build(delta), mode="upsert", delete_ext_ids=...)`` ==
``build(latest corpus)`` byte-for-byte for unsalted builds — adds,
updates (same ext_id → same docid, new content) and tombstones in one
pass. Also gates the merged docstore's ranged part-<lo>-<hi> layout,
which DocJoin range pruning and doc_join_copartitioned require."""

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from conftest import REPO_ROOT
from dpr_ray import corpus as corpus_mod
from dpr_ray.index import segments as seg
from dpr_ray.index.build import build_index
from dpr_ray.index.merge import merge_indexes


def _segment_rows(index_dir):
    d = pads.dataset(os.path.join(index_dir, "segments"), partitioning="hive")
    return sorted(
        d.to_table().to_pylist(), key=lambda r: (r["term"], r["slice_id"])
    )


def _docstore_rows(index_dir):
    d = pads.dataset(os.path.join(index_dir, "docstore"), partitioning="hive")
    t = d.to_table().sort_by("docid")
    return t.to_pylist()


def _ext_ids(tbl):
    return [
        f"{r}/{p}"
        for r, p in zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist())
    ]


def _adds_table(n):
    return pa.table(
        {
            "repo": pa.array(["neworg/newproj"] * n, pa.string()),
            "path": pa.array([f"src/new_{i}.py" for i in range(n)], pa.string()),
            "commit": pa.array(["deadbeef"] * n, pa.string()),
            "lang": pa.array(["py"] * n, pa.string()),
            "content": pa.array(
                [f"def added import freshadd{i} return value" for i in range(n)],
                pa.large_string(),
            ),
        }
    )


def test_upsert_merge_equals_rebuild(ray_session, tmp_path):
    import ray.data

    from dpr_ray.query.executor import QueryExecutor

    base = corpus_mod.synth_corpus_table(120, seed=31)
    # updates: rows 0..29 get NEW content under the SAME ext_id (same docid)
    upd = base.slice(0, 30)
    upd = upd.set_column(
        upd.schema.get_field_index("content"),
        "content",
        pa.array(
            [
                c + f" updatedtok{i} freshterm"
                for i, c in enumerate(upd["content"].to_pylist())
            ],
            pa.large_string(),
        ),
    )
    adds = _adds_table(20)
    delta = pa.concat_tables([upd, adds])
    dels = _ext_ids(base.slice(30, 10))  # rows 30..39 tombstoned
    latest = pa.concat_tables([base.slice(40), upd, adds])

    dbase, ddelta, dlatest, dm = (
        str(tmp_path / x) for x in ["base", "delta", "latest", "m"]
    )
    build_index(ray.data.from_arrow(base).repartition(3), dbase,
                docid_strategy="hash64")
    build_index(ray.data.from_arrow(delta).repartition(2), ddelta,
                docid_strategy="hash64")
    build_index(ray.data.from_arrow(latest).repartition(4), dlatest,
                docid_strategy="hash64")
    stats_m = merge_indexes([dbase, ddelta], dm, mode="upsert",
                            delete_ext_ids=dels)

    stats_l = seg.read_stats(dlatest)
    for k in ("N", "sum_dl", "avgdl", "max_docid", "postings"):
        assert stats_m[k] == stats_l[k], k
    assert stats_m["N"] == 130  # 120 - 10 deleted + 20 added
    assert stats_m["tombstones"] == 10

    # segments byte-for-byte vs the from-scratch rebuild
    rm, rl = _segment_rows(dm), _segment_rows(dlatest)
    assert len(rm) == len(rl)
    for x, y in zip(rm, rl):
        assert x == y, x["term"]

    # docstore rows identical (modified content won, deletions gone)
    doc_m, doc_l = _docstore_rows(dm), _docstore_rows(dlatest)
    assert doc_m == doc_l
    ext_m = {r["ext_id"] for r in doc_m}
    assert not (set(dels) & ext_m)
    assert "neworg/newproj/src/new_0.py" in ext_m

    # queries identical across all three executor methods; an updated
    # term is findable, a deleted doc's rare token is not
    qb = pa.table(
        {
            "qid": ["q0", "q1", "q2"],
            "question": [
                "def return import value",
                "updatedtok5 freshterm",
                "rare tok 35",  # doc 35 was deleted
            ],
        }
    )
    for method in ("taat", "maxscore", "bmw"):
        out_m = QueryExecutor(dm, k=10, method=method)(qb).to_pylist()
        out_l = QueryExecutor(dlatest, k=10, method=method)(qb).to_pylist()
        assert out_m == out_l, method
    terms_m = {r["term"] for r in rm}
    assert "35" not in terms_m  # the deleted doc's unique token vanished
    assert "freshterm" in terms_m


def test_merge_leaves_data_context_unchanged(ray_session, tmp_path):
    """merge_indexes runs its docstore and segments executions with
    per-operator reservation off on a private DataContext (util.full_width):
    the global context and the caller's corpus Dataset keep the setting."""
    import ray.data
    from ray.data import DataContext

    before = DataContext.get_current().op_resource_reservation_enabled
    assert before  # Ray's default; the check below would be vacuous if off
    base = corpus_mod.synth_corpus_table(40, seed=13)
    corpus_ds = ray.data.from_arrow(base).repartition(2)
    dbase, ddelta, dm = (str(tmp_path / x) for x in ["base", "delta", "m"])
    build_index(corpus_ds, dbase, docid_strategy="hash64")
    build_index(ray.data.from_arrow(_adds_table(5)), ddelta,
                docid_strategy="hash64")
    stats = merge_indexes([dbase, ddelta], dm, mode="upsert",
                          delete_ext_ids=_ext_ids(base.slice(0, 3)))
    assert stats["N"] == 42
    assert DataContext.get_current().op_resource_reservation_enabled == before
    assert corpus_ds.context.op_resource_reservation_enabled == before


def test_upsert_delete_only(ray_session, tmp_path):
    import ray.data

    base = corpus_mod.synth_corpus_table(60, seed=13)
    dels = _ext_ids(base.slice(0, 15))
    keep_tbl = base.slice(15)
    dbase, dkeep, dm = (str(tmp_path / x) for x in ["base", "keep", "m"])
    build_index(ray.data.from_arrow(base).repartition(2), dbase,
                docid_strategy="hash64")
    build_index(ray.data.from_arrow(keep_tbl).repartition(2), dkeep,
                docid_strategy="hash64")
    stats_m = merge_indexes([dbase], dm, mode="upsert", delete_ext_ids=dels)
    assert stats_m["N"] == 45
    rm, rk = _segment_rows(dm), _segment_rows(dkeep)
    assert rm == rk
    assert _docstore_rows(dm) == _docstore_rows(dkeep)


def test_merged_docstore_is_ranged_and_copartition_joinable(
    ray_session, tmp_path
):
    """Both merge modes must emit the part-<lo>-<hi>.parquet docstore
    layout (disjoint mode previously wrote Ray-default filenames, which
    broke doc_join_copartitioned on merged indexes)."""
    import ray.data

    from dpr_ray.query.executor import doc_join_copartitioned

    tbl = corpus_mod.synth_corpus_table(50, seed=5)
    a, b = tbl.slice(0, 30), tbl.slice(30)
    da, db, dm = (str(tmp_path / x) for x in ["a", "b", "m"])
    build_index(ray.data.from_arrow(a).repartition(2), da,
                docid_strategy="hash64")
    build_index(ray.data.from_arrow(b).repartition(2), db,
                docid_strategy="hash64")
    merge_indexes([da, db], dm)
    names = [
        f for f in os.listdir(os.path.join(dm, "docstore"))
        if f.endswith(".parquet")
    ]
    assert names and all(
        re.fullmatch(r"part-\d{20}-\d{20}\.parquet", f) for f in names
    ), names
    # the ranged layout actually serves a co-partitioned join
    doc = _docstore_rows(dm)
    want = [doc[3], doc[17], doc[41]]
    res = doc_join_copartitioned(
        ray.data.from_arrow(
            pa.table(
                {
                    "qid": pa.array(["q"] * 3, pa.string()),
                    "docid": pa.array(
                        [r["docid"] for r in want], pa.uint64()
                    ),
                }
            )
        ),
        dm,
        columns=["ext_id", "content"],
    ).to_pandas().sort_values("docid").reset_index(drop=True)
    assert list(res["ext_id"]) == [
        r["ext_id"] for r in sorted(want, key=lambda r: r["docid"])
    ]
    assert list(res["content"]) == [
        r["content"] for r in sorted(want, key=lambda r: r["docid"])
    ]


def test_upsert_delete_docids_provided_strategy(ray_session, tmp_path):
    """delete_docids tombstones raw ids — the path for corpora built with
    docid_strategy="provided" (where ext_id hashing doesn't apply)."""
    import ray.data

    base = corpus_mod.synth_corpus_table(40, seed=17)
    base = base.append_column(
        "docid", pa.array(np.arange(40, dtype=np.uint64), pa.uint64())
    )
    keep_tbl = base.slice(10)  # docids 0..9 deleted
    dbase, dkeep, dm = (str(tmp_path / x) for x in ["base", "keep", "m"])
    build_index(ray.data.from_arrow(base).repartition(2), dbase,
                docid_strategy="provided")
    build_index(ray.data.from_arrow(keep_tbl).repartition(2), dkeep,
                docid_strategy="provided")
    stats_m = merge_indexes(
        [dbase], dm, mode="upsert",
        delete_docids=np.arange(10, dtype=np.uint64),
    )
    assert stats_m["N"] == 30 and stats_m["tombstones"] == 10
    assert _segment_rows(dm) == _segment_rows(dkeep)
    assert _docstore_rows(dm) == _docstore_rows(dkeep)


def test_upsert_delete_beats_update(ray_session, tmp_path):
    """A doc both UPDATED in the delta and TOMBSTONED must be gone: the
    tombstone wins over every rank, including the newest delta."""
    import ray.data

    base = corpus_mod.synth_corpus_table(40, seed=19)
    upd = base.slice(0, 12)
    upd = upd.set_column(
        upd.schema.get_field_index("content"), "content",
        pa.array([c + " revised" for c in upd["content"].to_pylist()],
                 pa.large_string()),
    )
    # tombstone 4 of the 12 UPDATED docs plus 4 untouched ones
    dels = _ext_ids(base.slice(0, 4)) + _ext_ids(base.slice(20, 4))
    latest = pa.concat_tables([base.slice(24), base.slice(12, 8), upd.slice(4)])
    dbase, ddelta, dlatest, dm = (
        str(tmp_path / x) for x in ["base", "delta", "latest", "m"]
    )
    build_index(ray.data.from_arrow(base).repartition(2), dbase,
                docid_strategy="hash64")
    build_index(ray.data.from_arrow(upd).repartition(1), ddelta,
                docid_strategy="hash64")
    build_index(ray.data.from_arrow(latest).repartition(2), dlatest,
                docid_strategy="hash64")
    stats_m = merge_indexes([dbase, ddelta], dm, mode="upsert",
                            delete_ext_ids=dels)
    assert stats_m["N"] == 32
    assert _segment_rows(dm) == _segment_rows(dlatest)
    assert _docstore_rows(dm) == _docstore_rows(dlatest)


def test_upsert_merge_random_mixes(ray_session, tmp_path):
    """Randomized add/update/delete mixes (seeded, 4 draws): upsert merge
    byte-equals the rebuild of the latest corpus, including empty-delta
    and delete-overlapping-update draws."""
    import ray.data

    rng = np.random.default_rng(5)
    for trial in range(4):
        n = int(rng.integers(20, 70))
        base = corpus_mod.synth_corpus_table(n, seed=100 + trial)
        n_upd = int(rng.integers(0, n // 2 + 1))
        n_add = int(rng.integers(0, 12))
        n_del = int(rng.integers(0, n // 3 + 1))
        upd_idx = rng.choice(n, n_upd, replace=False) if n_upd else []
        del_idx = rng.choice(n, n_del, replace=False) if n_del else []
        upd_rows = base.take(pa.array(sorted(upd_idx), pa.int64()))
        if upd_rows.num_rows:
            upd_rows = upd_rows.set_column(
                upd_rows.schema.get_field_index("content"), "content",
                pa.array([f"{c} rev{trial}" for c in
                          upd_rows["content"].to_pylist()],
                         pa.large_string()),
            )
        adds = _adds_table(n_add) if n_add else None
        delta_parts = [t for t in (upd_rows, adds)
                       if t is not None and t.num_rows]
        dels = _ext_ids(base.take(pa.array(sorted(del_idx), pa.int64())))
        del_set = set(del_idx)
        upd_set = set(upd_idx)
        keep_base = [i for i in range(n)
                     if i not in del_set and i not in upd_set]
        latest_parts = [base.take(pa.array(keep_base, pa.int64()))]
        if upd_rows.num_rows:
            keep_upd = [j for j, i in enumerate(sorted(upd_idx))
                        if i not in del_set]
            latest_parts.append(upd_rows.take(pa.array(keep_upd, pa.int64())))
        if adds is not None and adds.num_rows:
            latest_parts.append(adds)
        latest = pa.concat_tables(latest_parts)
        d = str(tmp_path / f"t{trial}")
        os.makedirs(d)
        build_index(ray.data.from_arrow(base).repartition(2),
                    f"{d}/base", docid_strategy="hash64")
        dirs = [f"{d}/base"]
        if delta_parts:
            build_index(
                ray.data.from_arrow(pa.concat_tables(delta_parts))
                .repartition(1),
                f"{d}/delta", docid_strategy="hash64",
            )
            dirs.append(f"{d}/delta")
        build_index(ray.data.from_arrow(latest).repartition(2),
                    f"{d}/latest", docid_strategy="hash64")
        stats_m = merge_indexes(dirs, f"{d}/m", mode="upsert",
                                delete_ext_ids=dels)
        assert stats_m["N"] == latest.num_rows, trial
        assert _segment_rows(f"{d}/m") == _segment_rows(f"{d}/latest"), trial
        assert _docstore_rows(f"{d}/m") == _docstore_rows(f"{d}/latest"), trial


def test_chained_upserts_equal_rebuild(ray_session, tmp_path):
    """The tiered-refresh claim: v1+d1→v2, then v2+d2→v3 — a MERGED index
    as the base of the next merge — still byte-equals rebuilding the
    final corpus. (Slice ids/stats must round-trip through merge.)"""
    import ray.data

    base = corpus_mod.synth_corpus_table(70, seed=47)
    # day 1: update 0..14, add 5, delete 60..64
    d1_upd = base.slice(0, 15)
    d1_upd = d1_upd.set_column(
        d1_upd.schema.get_field_index("content"), "content",
        pa.array([c + " day1" for c in d1_upd["content"].to_pylist()],
                 pa.large_string()),
    )
    d1 = pa.concat_tables([d1_upd, _adds_table(5)])
    d1_dels = _ext_ids(base.slice(60, 5))
    # day 2: re-update 5..9 (already updated day 1) + one day-1 add,
    # delete 10..11 (day-1-updated docs) and one day-1 add
    d2_upd = d1.slice(5, 5)
    d2_upd = d2_upd.set_column(
        d2_upd.schema.get_field_index("content"), "content",
        pa.array([c + " day2" for c in d2_upd["content"].to_pylist()],
                 pa.large_string()),
    )
    d2 = pa.concat_tables([d2_upd, d1.slice(15, 1)])  # re-adds new_0 as-is
    d2_dels = _ext_ids(d1_upd.slice(10, 2)) + ["neworg/newproj/src/new_1.py"]

    # final corpus, assembled by replaying the log
    final = {}
    for t in (base, d1, d2):
        for r in t.to_pylist():
            final[f"{r['repo']}/{r['path']}"] = r
    for e in d1_dels + d2_dels:
        final.pop(e, None)
    latest = pa.Table.from_pylist(
        list(final.values()), schema=base.schema
    )

    D = {k: str(tmp_path / k) for k in
         ("v1", "d1", "v2", "d2", "v3", "latest")}
    build_index(ray.data.from_arrow(base).repartition(2), D["v1"],
                docid_strategy="hash64")
    build_index(ray.data.from_arrow(d1).repartition(2), D["d1"],
                docid_strategy="hash64")
    build_index(ray.data.from_arrow(d2).repartition(1), D["d2"],
                docid_strategy="hash64")
    build_index(ray.data.from_arrow(latest).repartition(3), D["latest"],
                docid_strategy="hash64")
    merge_indexes([D["v1"], D["d1"]], D["v2"], mode="upsert",
                  delete_ext_ids=d1_dels)
    merge_indexes([D["v2"], D["d2"]], D["v3"], mode="upsert",
                  delete_ext_ids=d2_dels)
    assert _segment_rows(D["v3"]) == _segment_rows(D["latest"])
    assert _docstore_rows(D["v3"]) == _docstore_rows(D["latest"])


def test_merge_docstore_phase_resume(ray_session, tmp_path):
    """A merge killed during the segments shuffle must resume without
    repaying the docstore sort+rewrite: marker present + same inputs →
    docstore parts untouched (mtime-stable), output byte-identical.
    Changed inputs (different tombstones) → marker invalid → recompute."""
    import json

    import ray.data

    base = corpus_mod.synth_corpus_table(60, seed=3)
    delta = _adds_table(10)
    dbase, ddelta, dm = (str(tmp_path / x) for x in ["base", "delta", "m"])
    build_index(ray.data.from_arrow(base).repartition(2), dbase,
                docid_strategy="hash64")
    build_index(ray.data.from_arrow(delta).repartition(1), ddelta,
                docid_strategy="hash64")
    dels = _ext_ids(base.slice(0, 5))
    merge_indexes([dbase, ddelta], dm, mode="upsert", delete_ext_ids=dels)
    ref_seg = _segment_rows(dm)
    ref_doc = _docstore_rows(dm)
    store = os.path.join(dm, "docstore")
    mtimes = {f: os.path.getmtime(os.path.join(store, f))
              for f in os.listdir(store)}
    # simulate a kill after the docstore phase: segments gone, marker kept
    import shutil

    shutil.rmtree(os.path.join(dm, "segments"))
    os.remove(os.path.join(dm, "manifest.json"))
    merge_indexes([dbase, ddelta], dm, mode="upsert", delete_ext_ids=dels)
    assert {f: os.path.getmtime(os.path.join(store, f))
            for f in os.listdir(store)} == mtimes  # phase skipped
    with open(os.path.join(dm, "manifest.json")) as f:
        assert json.load(f)["timings"]["docstore_resumed"] is True
    assert _segment_rows(dm) == ref_seg
    assert _docstore_rows(dm) == ref_doc
    # different tombstones → signature mismatch → docstore recomputed
    merge_indexes([dbase, ddelta], dm, mode="upsert",
                  delete_ext_ids=dels[:3])
    with open(os.path.join(dm, "manifest.json")) as f:
        assert json.load(f)["timings"]["docstore_resumed"] is False
    assert len(_docstore_rows(dm)) == 67  # 60 - 3 deleted + 10 added


def test_merge_resumes_on_truncated_marker(ray_session, tmp_path):
    """merge_docstore_done.json truncated by a kill mid-write (pre-atomic
    artifact) must read as ABSENT: the docstore phase reruns (no
    JSONDecodeError, no stale resume) and the merge converges."""
    import json

    import ray.data

    base = corpus_mod.synth_corpus_table(40, seed=5)
    delta = _adds_table(6)
    dbase, ddelta, dm = (str(tmp_path / x) for x in ["base", "delta", "m"])
    build_index(ray.data.from_arrow(base).repartition(2), dbase,
                docid_strategy="hash64")
    build_index(ray.data.from_arrow(delta).repartition(1), ddelta,
                docid_strategy="hash64")
    merge_indexes([dbase, ddelta], dm, mode="upsert")
    ref_seg = _segment_rows(dm)
    ref_doc = _docstore_rows(dm)
    with open(os.path.join(dm, "merge_docstore_done.json"), "w") as f:
        f.write('{"signature": "abc", "doc_st')  # truncated dump
    os.remove(os.path.join(dm, "manifest.json"))
    merge_indexes([dbase, ddelta], dm, mode="upsert")
    with open(os.path.join(dm, "manifest.json")) as f:
        assert json.load(f)["timings"]["docstore_resumed"] is False
    assert _segment_rows(dm) == ref_seg
    assert _docstore_rows(dm) == ref_doc


def test_doc_join_on_fully_deleted_index_and_missing_docids(
    ray_session, tmp_path
):
    """A fully-deleted upsert merge leaves a schema-only empty.parquet
    docstore: the co-partitioned join must handle it (empty results →
    empty; non-empty → loud error, not a filename-parse crash). And a
    result docid absent from ANY docstore must raise, not silently take
    a neighboring document's content — both join paths."""
    import ray.data

    from dpr_ray.query.executor import DocJoin, doc_join_copartitioned

    base = corpus_mod.synth_corpus_table(20, seed=61)
    dbase, dm = str(tmp_path / "b"), str(tmp_path / "m")
    build_index(ray.data.from_arrow(base).repartition(2), dbase,
                docid_strategy="hash64")
    merge_indexes([dbase], dm, mode="upsert",
                  delete_ext_ids=_ext_ids(base))  # delete EVERYTHING
    empty_rs = ray.data.from_arrow(pa.table(
        {"qid": pa.array([], pa.string()),
         "docid": pa.array([], pa.uint64())}))
    joined_empty = doc_join_copartitioned(empty_rs, dm)
    assert joined_empty.count() == 0
    # schema contract: the empty join must still append the typed doc
    # columns, exactly like DocJoin's empty-batch path — downstream
    # select_columns/writes must see one schema regardless of join mode
    assert set(joined_empty.schema().names) == {
        "qid", "docid", "ext_id", "title", "content"
    }
    one_rs = ray.data.from_arrow(pa.table(
        {"qid": ["q"], "docid": pa.array([123], pa.uint64())}))
    with pytest.raises(ValueError, match="empty"):
        doc_join_copartitioned(one_rs, dm)
    # missing docid against a NORMAL docstore: both paths raise
    bogus = ray.data.from_arrow(pa.table(
        {"qid": ["q"], "docid": pa.array([42], pa.uint64())}))
    with pytest.raises((ValueError, Exception)):
        doc_join_copartitioned(bogus, dbase).materialize()
    import ray.exceptions

    with pytest.raises(Exception):
        bogus.map_batches(
            DocJoin, fn_constructor_args=(dbase,), batch_format="pyarrow",
            concurrency=1,
        ).materialize()


def test_merge_mismatched_num_tbuckets(ray_session, tmp_path):
    """Inputs built with DIFFERENT num_tbuckets: the precomputed tbucket
    columns disagree (crc32(term) % n), so the remerge must recompute a
    uniform bucketing before the groupby — otherwise one term splits into
    two groups with colliding slice_ids and BMW's searchsorted over
    block_last breaks. The merged result must byte-equal a rebuild at the
    merge's num_tbuckets, in BOTH modes."""
    import ray.data

    from dpr_ray.query.executor import QueryExecutor

    tbl = corpus_mod.synth_corpus_table(80, seed=71)
    a, b = tbl.slice(0, 50), tbl.slice(50)
    da, db, dm, dlatest = (
        str(tmp_path / x) for x in ["a", "b", "m", "latest"]
    )
    build_index(ray.data.from_arrow(a).repartition(2), da,
                docid_strategy="hash64", num_tbuckets=16)
    build_index(ray.data.from_arrow(b).repartition(2), db,
                docid_strategy="hash64", num_tbuckets=7)
    build_index(ray.data.from_arrow(tbl).repartition(3), dlatest,
                docid_strategy="hash64", num_tbuckets=16)
    merge_indexes([da, db], dm)  # disjoint; target tbuckets = base's 16
    assert _segment_rows(dm) == _segment_rows(dlatest)
    assert _docstore_rows(dm) == _docstore_rows(dlatest)
    qb = pa.table({"qid": ["q0"], "question": ["def return import value"]})
    for method in ("taat", "maxscore", "bmw"):
        assert (
            QueryExecutor(dm, k=10, method=method)(qb).to_pylist()
            == QueryExecutor(dlatest, k=10, method=method)(qb).to_pylist()
        ), method
    # upsert across mismatched bucketing too (update 5 docs of `a` via a
    # delta built at yet another num_tbuckets)
    upd = a.slice(0, 5)
    upd = upd.set_column(
        upd.schema.get_field_index("content"), "content",
        pa.array([c + " rebkt" for c in upd["content"].to_pylist()],
                 pa.large_string()),
    )
    ddelta, dm2, dl2 = (str(tmp_path / x) for x in ["delta", "m2", "l2"])
    build_index(ray.data.from_arrow(upd).repartition(1), ddelta,
                docid_strategy="hash64", num_tbuckets=5)
    build_index(
        ray.data.from_arrow(pa.concat_tables([a.slice(5), upd]))
        .repartition(2),
        dl2, docid_strategy="hash64", num_tbuckets=16,
    )
    merge_indexes([da, ddelta], dm2, mode="upsert")
    assert _segment_rows(dm2) == _segment_rows(dl2)
    assert _docstore_rows(dm2) == _docstore_rows(dl2)


def test_write_docstore_ranged_zero_blocks(ray_session, tmp_path):
    """Dataset.aggregate returns None on a zero-row/zero-block dataset —
    the ranged writer must return zero stats, not TypeError."""
    import ray.data

    from dpr_ray.index.merge import _write_docstore_ranged

    schema = pa.schema(
        [("docid", pa.uint64()), ("doclen", pa.int64()),
         ("ext_id", pa.string())]
    )
    out = str(tmp_path / "ds")
    os.makedirs(out)
    empty = ray.data.from_arrow(schema.empty_table())
    assert _write_docstore_ranged(empty, out, "upsert") == {
        "rows": 0, "sum_dl": 0, "max_docid": 0,
    }


def test_merge_job_signature_deletes_flag(tmp_path):
    """The resume signature must distinguish --deletes-are-docids: the
    same deletes file means different tombstones under the flag."""
    import sys

    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    try:
        from merge_job import _signature
    finally:
        sys.path.pop(0)
    d = str(tmp_path / "i")
    os.makedirs(d)
    with open(os.path.join(d, "stats.json"), "w") as f:
        f.write("{}")
    s_ext = _signature([d], "upsert", ["123"], False)
    s_doc = _signature([d], "upsert", ["123"], True)
    assert s_ext != s_doc
    assert _signature([d], "upsert", ["123"], True) == s_doc


def test_merge_docstore_signature_content_fingerprint(
    ray_session, tmp_path
):
    """An input rebuilt in place with identical stats but different text
    must invalidate the docstore-phase resume marker (the signature now
    fingerprints docstore part files, not just stats.json)."""
    import ray.data

    base = corpus_mod.synth_corpus_table(30, seed=83)
    dbase, dm = str(tmp_path / "b"), str(tmp_path / "m")
    build_index(ray.data.from_arrow(base).repartition(2), dbase,
                docid_strategy="hash64")
    merge_indexes([dbase], dm, mode="upsert",
                  delete_ext_ids=_ext_ids(base.slice(0, 2)))
    store = os.path.join(dbase, "docstore")
    part = sorted(f for f in os.listdir(store) if f.endswith(".parquet"))[0]
    # touch one input docstore part (content change proxy: mtime bump)
    p = os.path.join(store, part)
    os.utime(p, (os.path.getatime(p), os.path.getmtime(p) + 10))
    merge_indexes([dbase], dm, mode="upsert",
                  delete_ext_ids=_ext_ids(base.slice(0, 2)))
    import json

    with open(os.path.join(dm, "manifest.json")) as f:
        assert json.load(f)["timings"]["docstore_resumed"] is False


def test_upsert_mode_validation(ray_session, tmp_path):
    import ray.data

    tbl = corpus_mod.synth_corpus_table(10, seed=3)
    d = str(tmp_path / "i")
    build_index(ray.data.from_arrow(tbl).repartition(1), d,
                docid_strategy="hash64")
    with pytest.raises(ValueError, match="delete_ext_ids"):
        merge_indexes([d], str(tmp_path / "o"), delete_ext_ids=["x/y"])
    with pytest.raises(ValueError, match="mode"):
        merge_indexes([d], str(tmp_path / "o2"), mode="bogus")


def test_upsert_merge_mixed_block_sizes(ray_session, tmp_path):
    """Inputs built with DIFFERENT block_size (3 vs 11) merged at a third
    (5): remerge fully decodes input blobs and re-encodes at the merge's
    block_size, so the result must byte-equal a from-scratch rebuild of
    the latest corpus at block_size=5 — and answer identically across all
    three methods. Pins the re-blocking contract the num_tbuckets
    mismatch test pins for term bucketing."""
    import ray.data

    from dpr_ray.query.executor import QueryExecutor

    base = corpus_mod.synth_corpus_table(80, seed=17)
    upd = base.slice(0, 15)
    upd = upd.set_column(
        upd.schema.get_field_index("content"), "content",
        pa.array([c + " mixedbs freshterm" for c in upd["content"].to_pylist()],
                 pa.large_string()),
    )
    adds = _adds_table(10)
    delta = pa.concat_tables([upd, adds])
    dels = _ext_ids(base.slice(70, 5))
    latest = pa.concat_tables([base.slice(15, 55), base.slice(75), upd, adds])

    dbase, ddelta, dlatest, dm = (
        str(tmp_path / x) for x in ["base", "delta", "latest", "m"]
    )
    build_index(ray.data.from_arrow(base).repartition(2), dbase,
                docid_strategy="hash64", block_size=3)
    build_index(ray.data.from_arrow(delta).repartition(2), ddelta,
                docid_strategy="hash64", block_size=11)
    build_index(ray.data.from_arrow(latest).repartition(3), dlatest,
                docid_strategy="hash64", block_size=5)
    merge_indexes([dbase, ddelta], dm, mode="upsert", delete_ext_ids=dels,
                  block_size=5)

    rm, rl = _segment_rows(dm), _segment_rows(dlatest)
    assert len(rm) == len(rl)
    for x, y in zip(rm, rl):
        assert x == y, x["term"]
    assert _docstore_rows(dm) == _docstore_rows(dlatest)

    qb = pa.table(
        {
            "qid": ["q0", "q1"],
            "question": ["def return import value", "mixedbs freshterm"],
        }
    )
    for method in ("taat", "maxscore", "bmw"):
        out_m = QueryExecutor(dm, k=10, method=method)(qb).to_pylist()
        out_l = QueryExecutor(dlatest, k=10, method=method)(qb).to_pylist()
        assert out_m == out_l, method


def test_disjoint_merge_rejects_colliding_docids(ray_session, tmp_path):
    """mode='disjoint' documents that docids must be disjoint across inputs
    but used to trust the caller: a collision silently double-counted
    postings. The ranged docstore writer now rejects the adjacent duplicate
    loudly; the same inputs merge fine under mode='upsert'."""
    import pytest
    import ray.data

    base = corpus_mod.synth_corpus_table(12, seed=3)
    a = base.slice(0, 8).append_column(
        "docid", pa.array(np.arange(8, dtype=np.uint64), pa.uint64())
    )
    # input b overlaps input a at docid 7
    b = base.slice(8, 4).append_column(
        "docid", pa.array(np.arange(7, 11, dtype=np.uint64), pa.uint64())
    )
    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    build_index(ray.data.from_arrow(a).repartition(1), da,
                docid_strategy="provided")
    build_index(ray.data.from_arrow(b).repartition(1), db,
                docid_strategy="provided")
    with pytest.raises(Exception, match="duplicate docid 7"):
        merge_indexes([da, db], str(tmp_path / "bad"), mode="disjoint",
                      resume=False)
    stats = merge_indexes([da, db], str(tmp_path / "ok"), mode="upsert",
                          resume=False)
    assert stats["N"] == 11  # newest-wins arbitration collapses docid 7


def test_fully_deleted_merge_serves_empty(ray_session, tmp_path):
    """An upsert merge whose tombstones delete EVERY doc used to leave a
    segments dir with no parquet files — every subsequent hive read died
    with 'No match for FieldRef.Name(tbucket)'. The merged index must
    carry a canonical-schema empty segment and serve zero rows through
    every method and through search_pipeline."""
    import ray.data

    from dpr_ray.query.executor import QueryExecutor, search_pipeline

    base = corpus_mod.synth_corpus_table(6, seed=5)
    dels = [
        f"{r}/{p}"
        for r, p in zip(base["repo"].to_pylist(), base["path"].to_pylist())
    ]
    dbase, dm = str(tmp_path / "base"), str(tmp_path / "m")
    build_index(ray.data.from_arrow(base).repartition(2), dbase,
                docid_strategy="hash64", block_size=4)
    stats = merge_indexes([dbase], dm, mode="upsert", delete_ext_ids=dels)
    assert stats["N"] == 0 and stats["postings"] == 0
    qb = pa.table({"qid": ["q"], "question": ["def return value"]})
    for method in ("taat", "maxscore", "bmw"):
        assert QueryExecutor(dm, k=5, method=method)(qb).to_pylist() == []
    res = search_pipeline(
        ray.data.from_arrow(qb), dm, k=5, method="bmw", concurrency=(1, 2)
    ).to_pandas()
    assert len(res) == 0


def test_merge_with_empty_base_index(ray_session, tmp_path):
    """Bootstrap shape: the first refresh cycle merges a (schema-only)
    EMPTY base index with a real delta — both modes must produce an index
    identical in content to the delta alone."""
    import ray.data

    from dpr_ray.query.executor import QueryExecutor

    base = corpus_mod.synth_corpus_table(0, seed=1)
    delta = corpus_mod.synth_corpus_table(8, seed=2)
    dbase, ddelta = str(tmp_path / "base"), str(tmp_path / "delta")
    build_index(ray.data.from_arrow(base), dbase,
                docid_strategy="hash64", block_size=4)
    build_index(ray.data.from_arrow(delta).repartition(2), ddelta,
                docid_strategy="hash64", block_size=4)
    qb = pa.table({"qid": ["q"], "question": ["def return value"]})
    want = QueryExecutor(ddelta, k=5, method="taat")(qb).to_pylist()
    assert want  # the probe question must actually hit
    for mode in ("disjoint", "upsert"):
        dm = str(tmp_path / f"m_{mode}")
        stats = merge_indexes([dbase, ddelta], dm, mode=mode, resume=False)
        assert stats["N"] == 8, (mode, stats)
        for method in ("taat", "bmw"):
            got = QueryExecutor(dm, k=5, method=method)(qb).to_pylist()
            assert got == want, (mode, method)


def test_merge_zero_inputs_refuses(ray_session, tmp_path):
    """Zero inputs used to die with an opaque IndexError reading
    stats_list[0]; refuse loudly and point at the empty-base path."""
    import pytest

    with pytest.raises(ValueError, match="at least one input"):
        merge_indexes([], str(tmp_path / "m"))


def test_merge_identities(ray_session, tmp_path):
    """Identity edges of the merge surface: a single-input disjoint merge,
    an upsert whose delete id matches nothing, and a self-upsert merge
    ([a, a], newest-wins collapsing every docid to one copy) must all
    serve bitwise-identically to the input index."""
    import ray.data

    from dpr_ray.query.executor import QueryExecutor

    tbl = corpus_mod.synth_corpus_table(25, seed=7)
    a = str(tmp_path / "a")
    build_index(ray.data.from_arrow(tbl), a, docid_strategy="hash64")
    qb = pa.table({"qid": ["q"], "question": ["def return import value"]})
    base = QueryExecutor(a, k=8)(qb).to_pylist()
    assert base
    cases = [
        ("m1", dict(mode="disjoint")),
        ("m2", dict(mode="upsert", delete_ext_ids=["not/present/x"])),
    ]
    for name, kw in cases:
        m = str(tmp_path / name)
        merge_indexes([a], m, **kw)
        assert QueryExecutor(m, k=8)(qb).to_pylist() == base, name
    m3 = str(tmp_path / "m3")
    merge_indexes([a, a], m3, mode="upsert")
    assert QueryExecutor(m3, k=8)(qb).to_pylist() == base


def test_merge_signature_framing(tmp_path):
    """Delete lists are length-framed in BOTH resume signatures: unframed
    concatenation made ['repo/ab','c'] and ['repo/a','bc'] hash equal —
    a resumed merge would reuse a stale docstore whose tombstone set (and
    avgdl) differ from the segments phase's."""
    from dpr_ray.config import BM25Params
    from dpr_ray.index.merge import _merge_signature

    s1 = _merge_signature(
        [], [], "upsert", ["repo/ab", "c"], None, BM25Params(), 16, 128
    )
    s2 = _merge_signature(
        [], [], "upsert", ["repo/a", "bc"], None, BM25Params(), 16, 128
    )
    assert s1 != s2
    import sys

    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    try:
        from merge_job import _signature
    finally:
        sys.path.pop(0)
    d = str(tmp_path / "i")
    os.makedirs(d)
    with open(os.path.join(d, "stats.json"), "w") as f:
        f.write("{}")
    assert _signature([d], "upsert", ["ab", "c"], False) != _signature(
        [d], "upsert", ["a", "bc"], False
    )


def test_failed_remerge_invalidates_completeness(
    ray_session, tmp_path, monkeypatch
):
    """A re-merge into a previously COMPLETE out_dir that dies during the
    segments phase must not leave the old stats.json/manifest.json
    claiming completeness over wiped segments — merge_indexes removes
    both before mutating outputs (the build_index discipline)."""
    import ray.data

    from dpr_ray.index import manifest as man
    from dpr_ray.index import segments as segmod

    base = corpus_mod.synth_corpus_table(30, seed=21)
    dbase, dm = str(tmp_path / "b"), str(tmp_path / "m")
    build_index(ray.data.from_arrow(base).repartition(2), dbase,
                docid_strategy="hash64")
    merge_indexes([dbase], dm, mode="upsert",
                  delete_ext_ids=_ext_ids(base.slice(0, 2)))
    assert man.is_complete(dm)
    assert os.path.exists(os.path.join(dm, "stats.json"))

    def boom(rows):
        raise RuntimeError("injected segments-phase failure")

    monkeypatch.setattr(segmod, "rows_to_table", boom)
    with pytest.raises(Exception):
        merge_indexes([dbase], dm, mode="upsert",
                      delete_ext_ids=_ext_ids(base.slice(0, 5)))
    # no stale completeness claims survive the failed rewrite
    assert not man.is_complete(dm)
    assert not os.path.exists(os.path.join(dm, "stats.json"))
    monkeypatch.undo()
    # and the re-run converges cleanly
    merge_indexes([dbase], dm, mode="upsert",
                  delete_ext_ids=_ext_ids(base.slice(0, 5)))
    assert man.is_complete(dm)


def test_build_resume_refuses_merged_dir(ray_session, tmp_path):
    """A merge output's manifest carries sentinel corpus_fp/resume_sig:
    build_index(resume=True) pointed at it must refuse loudly instead of
    silently returning the merged stats for an unrelated corpus (None
    fp/sig would skip both resume guards)."""
    import ray.data

    base = corpus_mod.synth_corpus_table(25, seed=31)
    dbase, dm = str(tmp_path / "b"), str(tmp_path / "m")
    build_index(ray.data.from_arrow(base).repartition(2), dbase,
                docid_strategy="hash64")
    merge_indexes([dbase], dm, mode="upsert",
                  delete_ext_ids=_ext_ids(base.slice(0, 3)))
    with pytest.raises(ValueError, match="resume=True"):
        build_index(ray.data.from_arrow(base), dm,
                    docid_strategy="hash64", resume=True)


def test_disjoint_merge_refuses_missing_max_docid(ray_session, tmp_path):
    """An input whose stats.json lacks max_docid must fail the merge
    loudly: fabricating 0 would defeat the executor's doc_shards
    refuse-when-absent guard and mis-flip dense mode. The refusal must
    also be NON-destructive: it validates before any out_dir mutation, so
    a previously complete merge output stays complete and servable."""
    import json

    import ray.data

    from dpr_ray.index import manifest as man
    from dpr_ray.query.executor import QueryExecutor

    a = corpus_mod.synth_corpus_table(20, seed=41)
    b = _adds_table(5)
    da, db, dm = (str(tmp_path / x) for x in ["a", "b", "m"])
    build_index(ray.data.from_arrow(a).repartition(1), da,
                docid_strategy="hash64")
    build_index(ray.data.from_arrow(b).repartition(1), db,
                docid_strategy="hash64")
    # a COMPLETE merge output first — the later refusal must not brick it
    merge_indexes([da, db], dm, mode="disjoint")
    assert man.is_complete(dm)
    qb = pa.table({"qid": ["q0"], "question": [a["content"][0].as_py()]})
    before = QueryExecutor(dm, k=5)(qb).to_pylist()
    sp = os.path.join(db, "stats.json")
    with open(sp) as f:
        st = json.load(f)
    st.pop("max_docid")
    with open(sp, "w") as f:
        json.dump(st, f)
    with pytest.raises(ValueError, match="max_docid"):
        merge_indexes([da, db], dm, mode="disjoint", resume=False)
    assert man.is_complete(dm), "refusal must not invalidate out_dir"
    assert QueryExecutor(dm, k=5)(qb).to_pylist() == before


def test_merge_job_bootstrap_missing_base(tmp_path):
    """First refresh cycle: --base-index points at a dir with no index
    yet. merge_job must merge the delta ALONE (the missing-base path
    merge_indexes' zero-input error message promises) instead of dying
    with a raw FileNotFoundError reading <base>/stats.json — and a later
    run with the base present must re-merge (signature covers the input
    dir list). Subprocess from an off-path cwd (the shipping drive). The
    delta is pandas-written, so its files carry schema metadata: the run
    must read it without Ray's "Failed to hash the schemas" log line."""
    import json as _json
    import subprocess
    import sys

    delta = corpus_mod.synth_corpus_table(12, seed=9).to_pandas()
    dpath = str(tmp_path / "delta")
    os.makedirs(dpath)
    for i in range(4):
        delta.iloc[i * 3:(i + 1) * 3].to_parquet(f"{dpath}/part{i}.parquet")
    out_index = str(tmp_path / "out")
    cmd = [
        sys.executable, os.path.join(REPO_ROOT, "tools", "merge_job.py"),
        "--base-index", str(tmp_path / "no_such_base"),
        "--delta-corpus", dpath,
        "--out-index", out_index,
        "--num-cpus", "2",
    ]
    env = dict(os.environ, RAY_ADDRESS="local")
    r = subprocess.run(cmd, cwd=str(tmp_path), capture_output=True,
                       text=True, timeout=300, env=env)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "Failed to hash the schemas" not in r.stdout + r.stderr
    rep = _json.loads(r.stdout.strip().splitlines()[-1])
    assert rep["base"].startswith("missing")
    assert rep["stats"]["N"] == 12
    assert seg.read_stats(out_index)["N"] == 12
    # no delta and no base: loud, not a FileNotFoundError
    r2 = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "merge_job.py"),
         "--base-index", str(tmp_path / "no_such_base"),
         "--delta-index", str(tmp_path / "also_missing"),
         "--out-index", str(tmp_path / "out2"), "--num-cpus", "2"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=300,
        env=env,
    )
    assert r2.returncode != 0
    combined = r2.stdout + r2.stderr
    assert "stats.json" in combined or "nothing to merge" in combined


def test_merge_refuses_in_place_and_preserves_input(ray_session, tmp_path):
    """out_dir aliasing an input must refuse BEFORE any mutation: the
    merge wipes out_dir's manifest/stats/segments/docstore up front, so
    an in-place 'compact' attempt destroyed the only copy of the base
    index and then failed reading it."""
    import ray.data

    from dpr_ray.index import manifest as man
    from dpr_ray.query.executor import QueryExecutor

    base = corpus_mod.synth_corpus_table(25, seed=19)
    d = str(tmp_path / "b")
    build_index(ray.data.from_arrow(base).repartition(2), d,
                docid_strategy="hash64")
    qb = pa.table({"qid": ["q"], "question": [base["content"][0].as_py()]})
    before = QueryExecutor(d, k=5)(qb).to_pylist()
    with pytest.raises(ValueError, match="aliases input"):
        merge_indexes([d], d, mode="upsert",
                      delete_ext_ids=_ext_ids(base.slice(0, 2)))
    # a relative-path alias of the same dir must also refuse
    rel = os.path.relpath(d)
    with pytest.raises(ValueError, match="aliases input"):
        merge_indexes([d], rel, mode="upsert",
                      delete_ext_ids=_ext_ids(base.slice(0, 2)))
    assert man.is_complete(d)
    assert QueryExecutor(d, k=5)(qb).to_pylist() == before


def test_executor_rejects_unknown_method_and_join_mode(
    ray_session, tmp_path
):
    """Typos must be loud: an unknown method silently fell through to the
    sparse BMW cursor path (rank-correct, so a 'maxscore' benchmark
    measured WAND with no error); an unknown doc_join_mode silently used
    the probe path the caller opted out of. search_pipeline refuses an
    unknown method at call time, before it builds any Dataset (it used
    to surface only from an actor constructor during execution)."""
    import ray.data

    from dpr_ray.query.executor import QueryExecutor, search_pipeline

    tbl = corpus_mod.synth_corpus_table(10, seed=23)
    d = str(tmp_path / "i")
    build_index(ray.data.from_arrow(tbl), d, docid_strategy="hash64")
    with pytest.raises(ValueError, match="unknown method"):
        QueryExecutor(d, method="MaxScore")
    qb = ray.data.from_arrow(
        pa.table({"qid": ["q"], "question": ["def"]})
    )
    with pytest.raises(ValueError, match="doc_join_mode"):
        search_pipeline(qb, d, with_docs=True, doc_join_mode="co-partition")
    with pytest.raises(ValueError, match="unknown method"):
        search_pipeline(qb, d, method="MaxScore")


def _merge_groups(index_dirs, with_rank):
    """merge's shuffle input, made in-process: every input's segment rows
    (tagged with the input's rank for upsert), grouped by tbucket."""
    parts = []
    for rank, d in enumerate(index_dirs):
        t = pads.dataset(os.path.join(d, "segments"), partitioning="hive").to_table()
        if with_rank:
            t = t.append_column(
                "src_rank", pa.array(np.full(t.num_rows, rank, np.int64))
            )
        parts.append(t)
    allt = pa.concat_tables(parts)
    tb = allt["tbucket"].to_numpy()
    return [allt.filter(pa.array(tb == b)) for b in np.unique(tb)]


@pytest.mark.parametrize("block_size,max_pps", [(4, 8), (16, 1_000_000)])
def test_encode_bucket_matches_merge_reference(ray_session, tmp_path,
                                               block_size, max_pps):
    """decode_blocks → keep-mask → encode_bucket writes the same segment
    table, byte for byte, as the merge rewrite it replaced
    (tests/codec_reference.py): disjoint groups, and upsert groups with
    updates and tombstones."""
    import ray.data

    from codec_reference import assert_tables_identical, ref_remerge_bucket
    from dpr_ray.config import BM25Params
    from dpr_ray.index.merge import _build_shadow, _keep_mask

    base = corpus_mod.synth_corpus_table(120, seed=33)
    upd = base.slice(0, 25)
    upd = upd.set_column(
        upd.schema.get_field_index("content"), "content",
        pa.array([c + " updtok" for c in upd["content"].to_pylist()],
                 pa.large_string()),
    )
    dbase, ddelta, dadds = (str(tmp_path / x) for x in ("b", "d", "a"))
    for tbl, d in ((base, dbase), (pa.concat_tables([upd, _adds_table(15)]),
                                   ddelta), (_adds_table(30), dadds)):
        build_index(ray.data.from_arrow(tbl).repartition(2), d,
                    docid_strategy="hash64", block_size=block_size)
    dels = _ext_ids(base.slice(40, 12))
    params = BM25Params()
    avgdl = 29.5
    n_upsert_dropped = 0
    for dirs, upsert in (([dbase, dadds], False), ([dbase, ddelta], True)):
        shadow = None
        if upsert:
            shadow = _build_shadow(dirs, [seg.read_stats(d) for d in dirs],
                                   dels)
        for group in _merge_groups(dirs, upsert):
            docids, tfs, dls, rows, _ = seg.decode_blocks(group)
            if upsert:
                rk = group["src_rank"].to_numpy()[rows]
                m = _keep_mask(docids, rk, *shadow)
                n_upsert_dropped += int((~m).sum())
                docids, tfs, dls, rows = docids[m], tfs[m], dls[m], rows[m]
            got = seg.encode_bucket(
                group["term"].to_pylist(), rows, docids, tfs, dls, avgdl,
                params, 4, block_size, max_pps,
            )
            assert_tables_identical(got, ref_remerge_bucket(
                group, shadow, avgdl, params, 4, block_size, max_pps,
            ))
    assert n_upsert_dropped > 0


def test_decode_blocks_matches_decode_rows_upserted(ray_session, tmp_path):
    """decode_blocks equals the row-dict reader decode_rows term by term
    on an upsert-merged index with tombstones, whole and through a
    docid-range block mask."""
    import ray.data

    from codec_reference import check_decode_blocks

    base = corpus_mod.synth_corpus_table(150, seed=34)
    upd = base.slice(0, 20)
    upd = upd.set_column(
        upd.schema.get_field_index("content"), "content",
        pa.array([c + " updtok" for c in upd["content"].to_pylist()],
                 pa.large_string()),
    )
    dbase, ddelta, dm = (str(tmp_path / x) for x in ("b", "d", "m"))
    build_index(ray.data.from_arrow(base).repartition(3), dbase,
                docid_strategy="hash64", block_size=4)
    build_index(ray.data.from_arrow(upd).repartition(1), ddelta,
                docid_strategy="hash64", block_size=4)
    merge_indexes([dbase, ddelta], dm, mode="upsert",
                  delete_ext_ids=_ext_ids(base.slice(50, 10)),
                  max_postings_per_slice=8)
    total = seg.read_stats(dm)["postings"]
    assert check_decode_blocks(dm) == total
    assert 0 < check_decode_blocks(dm, (1 << 62, 3 << 62)) < total
