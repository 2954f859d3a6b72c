"""Query-time tombstones (the Lucene live-docs pattern): banned docids
vanish from every executor method's results — dense + sparse TAAT,
MaxScore, both BMW variants — BITWISE-equal to the brute-force oracle's
full ranking with the banned docs removed. Collection stats (df, N,
avgdl) intentionally keep index-time values until an upsert merge, like
Lucene deletes; the oracle here shares them by scoring the FULL corpus
and then dropping banned docs."""

import os

import numpy as np
import pyarrow as pa
import pytest

from dpr_ray import corpus as corpus_mod
from dpr_ray.config import BM25Params
from dpr_ray.index.build import build_index
from dpr_ray.query.executor import QueryExecutor
from dpr_ray.query.oracle import BruteForceBM25

from bm25_oracle import oracle_topk as _oracle_topk_banned  # noqa: E402

QUESTIONS = [
    "def return import class",
    "rare tok 7 value",
    "answer 3 if else while",
    "no such tokens here xyzzy",
]


def _run(index_dir, method, banned, k=10):
    qb = pa.table(
        {
            "qid": [f"q{i}" for i in range(len(QUESTIONS))],
            "question": QUESTIONS,
        }
    )
    ex = QueryExecutor(index_dir, k=k, method=method, banned_docids=banned)
    out = ex(qb)
    got: dict[str, list] = {q: [] for q in QUESTIONS}
    for r in out.to_pylist():
        got[r["question"]].append((r["docid"], r["score"]))
    return got


@pytest.mark.parametrize("strategy", ["hash64", "provided"])
def test_tombstones_match_oracle_all_methods(ray_session, tmp_path, strategy):
    import ray.data

    n = 80
    tbl = corpus_mod.synth_corpus_table(n, seed=23)
    if strategy == "provided":
        # dense 0..n-1 ids: exercises dense TAAT/MaxScore + dense BMW
        tbl = tbl.append_column(
            "docid", pa.array(np.arange(n, dtype=np.uint64), pa.uint64())
        )
    idx = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(tbl).repartition(3), idx,
        docid_strategy=strategy, block_size=8,
    )
    if strategy == "provided":
        docids = np.arange(n, dtype=np.uint64)
    else:
        from dpr_ray.stages.featurize import docid_from_ext_id

        docids = np.array(
            [
                docid_from_ext_id(f"{r}/{p}")
                for r, p in zip(
                    tbl["repo"].to_pylist(), tbl["path"].to_pylist()
                )
            ],
            np.uint64,
        )
    oracle = BruteForceBM25(docids, tbl["content"].to_pylist(), BM25Params())

    # ban docs that actually occupy top ranks (forces rank shifts), plus
    # one id that isn't in the corpus at all (must be a no-op)
    top_unbanned = _oracle_topk_banned(oracle, QUESTIONS[0], 5, [])
    banned = np.unique(
        np.array(
            [d for d, _ in top_unbanned[:3]]
            + [int(docids[7]), int(docids[11]), 12345],
            np.uint64,
        )
    )
    for method in ("taat", "maxscore", "bmw"):
        got = _run(idx, method, banned)
        for q in QUESTIONS:
            want = _oracle_topk_banned(oracle, q, 10, banned)
            assert got[q] == want, (method, q)
        # no banned docid anywhere in any result
        flat = {d for rs in got.values() for d, _ in rs}
        assert not (flat & set(banned.tolist()))

    # empty tombstone set == plain executor, bitwise
    for method in ("taat", "bmw"):
        assert _run(idx, method, np.empty(0, np.uint64)) == _run(
            idx, method, None
        )


@pytest.fixture(scope="module")
def tomb_index(ray_session, tmp_path_factory):
    import ray.data

    from dpr_ray.stages.featurize import docid_from_ext_id

    n = 60
    tbl = corpus_mod.synth_corpus_table(n, seed=53)
    idx = str(tmp_path_factory.mktemp("tombprop"))
    build_index(ray.data.from_arrow(tbl).repartition(2), idx,
                docid_strategy="hash64", block_size=8)
    docids = np.array(
        [
            docid_from_ext_id(f"{r}/{p}")
            for r, p in zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist())
        ],
        np.uint64,
    )
    oracle = BruteForceBM25(docids, tbl["content"].to_pylist(), BM25Params())
    return idx, docids, oracle


def test_tombstone_property_sweep(tomb_index):
    """Randomized banned sets × methods × k vs the oracle (seeded numpy
    sweep — one shared index, 36 draws incl. ban-everything and k=1)."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    idx, docids, oracle = tomb_index

    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        banned_idx=st.lists(st.integers(0, 59), max_size=60),
        qsel=st.integers(0, len(QUESTIONS) - 1),
        method=st.sampled_from(["taat", "maxscore", "bmw"]),
        k=st.integers(1, 15),
    )
    def inner(banned_idx, qsel, method, k):
        banned = (
            np.unique(docids[banned_idx])
            if banned_idx
            else np.empty(0, np.uint64)
        )
        q = QUESTIONS[qsel]
        ex = QueryExecutor(idx, k=k, method=method, banned_docids=banned)
        out = ex(pa.table({"qid": ["q"], "question": [q]})).to_pylist()
        got = [(r["docid"], r["score"]) for r in out]
        assert got == _oracle_topk_banned(oracle, q, k, banned), (
            method, k, len(banned),
        )

    inner()
    # the everything-banned edge deterministically
    for method in ("taat", "maxscore", "bmw"):
        ex = QueryExecutor(idx, k=10, method=method, banned_docids=docids)
        out = ex(pa.table({"qid": ["q"], "question": [QUESTIONS[0]]}))
        assert out.num_rows == 0, method


def test_tombstones_with_doc_shards(ray_session, tmp_path):
    """Tombstones compose with doc-sharded execution: the banned filter
    runs before the shard's docid-range mask, so a 2-shard pipeline with
    bans equals the unsharded banned pipeline bitwise."""
    import ray.data

    from dpr_ray.query.executor import search_pipeline
    from dpr_ray.stages.featurize import docid_from_ext_id

    n = 70
    tbl = corpus_mod.synth_corpus_table(n, seed=29)
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(tbl).repartition(2), idx,
                docid_strategy="hash64")
    docids = np.array(
        [
            docid_from_ext_id(f"{r}/{p}")
            for r, p in zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist())
        ],
        np.uint64,
    )
    banned = np.sort(docids[::7])  # every 7th doc, spread across shards
    qb = pa.table(
        {"qid": ["a", "b"], "question": [QUESTIONS[0], QUESTIONS[2]]}
    )

    def run(**kw):
        df = search_pipeline(
            ray.data.from_arrow(qb), idx, k=12, banned_docids=banned, **kw,
        ).to_pandas()
        return df.sort_values(["qid", "rank"]).reset_index(drop=True)[
            ["qid", "rank", "docid", "score"]
        ]

    plain = run()
    sharded = run(doc_shards=2)
    assert plain.equals(sharded)
    assert not set(plain["docid"]) & set(banned.tolist())


def test_tombstones_through_search_pipeline(ray_session, tmp_path):
    import ray.data

    from dpr_ray.query.executor import search_pipeline
    from dpr_ray.stages.featurize import docid_from_ext_id

    n = 60
    tbl = corpus_mod.synth_corpus_table(n, seed=41)
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(tbl).repartition(2), idx,
                docid_strategy="hash64")
    docids = [
        docid_from_ext_id(f"{r}/{p}")
        for r, p in zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist())
    ]
    oracle = BruteForceBM25(docids, tbl["content"].to_pylist(), BM25Params())
    banned = [d for d, _ in _oracle_topk_banned(oracle, QUESTIONS[0], 3, [])]
    qds = ray.data.from_arrow(
        pa.table({"qid": ["a"], "question": [QUESTIONS[0]]})
    )
    res = search_pipeline(
        qds, idx, k=8, banned_docids=banned
    ).to_pandas()
    want = _oracle_topk_banned(oracle, QUESTIONS[0], 8, banned)
    got = list(zip(res["docid"].tolist(), res["score"].tolist()))
    assert got == want
