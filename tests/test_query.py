"""Query conformance: TAAT and block-max WAND must be rank- AND
score-identical (bitwise float64) to the brute-force oracle (SURVEY §5)."""

import numpy as np
import pytest

from dpr_ray import corpus as corpus_mod
from dpr_ray.config import BM25Params
from dpr_ray.index.build import build_index
from dpr_ray.query import executor as qe
from dpr_ray.query.executor import search_pipeline
from dpr_ray.query.oracle import BruteForceBM25

N_DOCS = 150

QUERIES = [
    "def return",                      # head terms, many ties
    "rare_tok_3",                      # singleton term
    "answer_5 def",                    # mixed selectivity
    "rare_tok_1 rare_tok_2 rare_tok_3",  # disjoint singletons
    "zzz_not_in_corpus",               # df = 0
    "def def def",                     # duplicate query terms collapse
    "café",                            # unicode NFD
    "’quote’",                         # punctuation tokens
    "import class struct impl fn",     # many terms
    "",                                # empty query
]


@pytest.fixture(scope="module")
def setup(ray_session, tmp_path_factory):
    import ray.data

    tbl = corpus_mod.synth_corpus_table(N_DOCS, seed=3)
    index_dir = str(tmp_path_factory.mktemp("qidx"))
    build_index(
        ray.data.from_arrow(tbl).repartition(4), index_dir,
        docid_strategy="hash64", group_budget=40, sample_mod=2, block_size=16,
    )
    from dpr_ray.stages.featurize import docid_from_ext_id

    ext = [f"{r}/{p}" for r, p in zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist())]
    oracle = BruteForceBM25(
        [docid_from_ext_id(e) for e in ext], tbl["content"].to_pylist(), BM25Params()
    )
    return index_dir, oracle


@pytest.mark.parametrize("method", ["taat", "bmw"])
def test_rank_and_score_identical(setup, method):
    index_dir, oracle = setup
    ex = qe.QueryExecutor(index_dir, k=25, method=method)
    import pyarrow as pa

    batch = pa.table(
        {
            "qid": pa.array([f"q{i}" for i in range(len(QUERIES))]),
            "question": pa.array(QUERIES),
        }
    )
    res = ex(batch).to_pylist()
    by_qid = {}
    for r in res:
        by_qid.setdefault(r["qid"], []).append(r)
    for i, q in enumerate(QUERIES):
        expected = oracle.top_k(q, 25)
        got = sorted(by_qid.get(f"q{i}", []), key=lambda r: r["rank"])
        assert len(got) == len(expected), (method, q)
        for rank, (r, (edoc, escore)) in enumerate(zip(got, expected), start=1):
            assert r["rank"] == rank
            assert r["docid"] == edoc, (method, q, rank)
            assert r["score"] == escore, (method, q, rank)  # bitwise


def test_small_k_pruning(setup):
    """k=3 exercises real WAND pruning (θ rises fast)."""
    index_dir, oracle = setup
    import pyarrow as pa

    for method in ["taat", "bmw"]:
        ex = qe.QueryExecutor(index_dir, k=3, method=method)
        batch = pa.table({"qid": pa.array(["a"]), "question": pa.array(["def import class"])})
        got = ex(batch).to_pylist()
        expected = oracle.top_k("def import class", 3)
        assert [(r["docid"], r["score"]) for r in got] == [
            (d, s) for d, s in expected
        ], method


def test_search_pipeline_with_docs(setup):
    index_dir, oracle = setup
    import ray.data

    qds = ray.data.from_items(
        [{"qid": "q0", "question": "rare_tok_7"}, {"qid": "q1", "question": "def"}]
    )
    res = qe.search_pipeline(
        qds, index_dir, k=5, with_docs=True, doc_columns=["ext_id", "title", "content"]
    ).take_all()
    from dpr_ray.stages.featurize import docid_from_ext_id

    assert res
    for r in res:
        # join invariant: the attached doc really is the scored doc
        assert docid_from_ext_id(r["ext_id"]) == r["docid"]
        assert r["title"] == r["ext_id"] and r["content"]
    # note: "rare_tok_7" tokenizes to [rare, _, tok, _, 7] under the DPR
    # analyzer (underscore splits) — ranks match the oracle:
    got0 = [r["docid"] for r in sorted(
        (r for r in res if r["qid"] == "q0"), key=lambda r: r["rank"])]
    assert got0 == [d for d, _s in oracle.top_k("rare_tok_7", 5)]


@pytest.mark.parametrize("setup_name,method", [
    ("setup_dense", "maxscore"), ("setup", "bmw"),
])
def test_search_pipeline_with_docs_repartitioned_finishes(
    setup_name, method, request, ray_session
):
    """with_docs=True over a repartitioned query set at the session's 4
    CPUs: the query pool's minimum must leave CPUs for the repartition
    shuffle and the DocJoin pool of the same execution. A (3, 3) query
    pool held 3 of the 4 and the call never finished."""
    import pyarrow as pa
    import ray.data
    from collections import Counter

    from dpr_ray import analyzer
    from test_curation import _take_all_within

    index_dir, oracle = request.getfixturevalue(setup_name)
    qs = [q for q in QUERIES if q] * 4
    qds = ray.data.from_arrow(
        pa.table({"qid": [f"q{i}" for i in range(len(qs))], "question": qs})
    ).repartition(8)
    rows = _take_all_within(search_pipeline(
        qds, index_dir, k=10, method=method, with_docs=True,
        doc_columns=["content"],
    ))
    got: dict[str, list] = {}
    for r in sorted(rows, key=lambda r: (r["qid"], r["rank"])):
        got.setdefault(r["qid"], []).append((r["docid"], r["score"]))
        # the joined document is the scored one
        at = int(np.searchsorted(oracle.docids, np.uint64(r["docid"])))
        assert Counter(analyzer.tokenize(r["content"])) == oracle.counters[at]
    for i, q in enumerate(qs):
        assert got.get(f"q{i}", []) == oracle.top_k(q, 10), (method, q)


def test_doc_join_copartitioned_matches_probe(setup):
    """The range-co-partitioned doc join must produce IDENTICAL joined
    content to the per-batch probe DocJoin, on hash64 docids (near 2^63 —
    the uint64 searchsorted/tag edge) with multi-query result sets."""
    index_dir, _oracle = setup
    import pandas as pd
    import ray.data

    qds = ray.data.from_items(
        [
            {"qid": "q0", "question": "def return"},
            {"qid": "q1", "question": "rare_tok_3"},
            {"qid": "q2", "question": "import class struct impl fn"},
        ]
    )
    cols = ["ext_id", "title", "content"]
    probe = (
        qe.search_pipeline(
            qds, index_dir, k=20, with_docs=True, doc_columns=cols
        )
        .to_pandas()
        .sort_values(["qid", "rank"], ignore_index=True)
    )
    qds2 = ray.data.from_items(
        [
            {"qid": "q0", "question": "def return"},
            {"qid": "q1", "question": "rare_tok_3"},
            {"qid": "q2", "question": "import class struct impl fn"},
        ]
    )
    copart = (
        qe.search_pipeline(
            qds2, index_dir, k=20, with_docs=True, doc_columns=cols,
            doc_join_mode="copartition",
        )
        .to_pandas()
        .sort_values(["qid", "rank"], ignore_index=True)
    )
    pd.testing.assert_frame_equal(probe, copart)
    assert len(probe) > 0 and set(cols) <= set(probe.columns)


@pytest.mark.skipif(
    not __import__("os").environ.get("DPR_RAY_SLOW"),
    reason="10k-doc conformance: run with DPR_RAY_SLOW=1",
)
def test_rank_identical_at_10k_docs(ray_session, tmp_path_factory):
    """FIXTURES.md correctness scale: 10k docs, rank- and score-identical
    to the brute-force oracle for both methods on a mixed query set."""
    import ray.data

    tbl = corpus_mod.synth_corpus_table(10_000, seed=77)
    index_dir = str(tmp_path_factory.mktemp("qidx10k"))
    build_index(
        ray.data.from_arrow(tbl).repartition(8), index_dir,
        docid_strategy="hash64", group_budget=2000, sample_mod=4,
    )
    from dpr_ray.stages.featurize import docid_from_ext_id

    ext = [f"{r}/{p}" for r, p in zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist())]
    oracle = BruteForceBM25(
        [docid_from_ext_id(e) for e in ext], tbl["content"].to_pylist(), BM25Params()
    )
    queries = ["def return", "rare class", "answer_12", "import fn struct impl",
               "café", "the a an", "tok 9999"]
    import pyarrow as pa

    batch = pa.table(
        {"qid": [f"q{i}" for i in range(len(queries))], "question": queries}
    )
    for method in ["taat", "bmw"]:
        res = qe.QueryExecutor(index_dir, k=50, method=method)(batch).to_pylist()
        by_qid = {}
        for r in res:
            by_qid.setdefault(r["qid"], []).append(r)
        for i, q in enumerate(queries):
            expected = oracle.top_k(q, 50)
            got = sorted(by_qid.get(f"q{i}", []), key=lambda r: r["rank"])
            assert [(r["docid"], r["score"]) for r in got] == expected, (method, q)


def test_maxscore_exact_vs_oracle(ray_session, tmp_path):
    """MaxScore pruned scoring must stay bitwise-identical to the oracle,
    including on mixed-selectivity queries where pruning actually fires
    (dense docid space so the pruned path is eligible)."""
    import pyarrow as pa
    import ray.data

    tbl = corpus_mod.synth_corpus_table(400, seed=55)
    tbl = tbl.append_column(
        "docid", pa.array(range(400), pa.uint64())
    )
    index_dir = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(tbl).repartition(4), index_dir,
        docid_strategy="provided",
    )
    oracle = BruteForceBM25(
        list(range(400)), tbl["content"].to_pylist(), BM25Params()
    )
    ex = qe.QueryExecutor(index_dir, k=10, method="maxscore")
    assert ex.store.dense_size > 0  # pruned path actually eligible
    queries = [
        "def",                              # single term
        "def return import class self",     # all-head
        "answer_3 def return",              # rare df 8 < k + head
        "café def return",                  # rare df 13 ≥ k + head (MaxScore)
        "rare def for while if int void",   # mixed many terms
        "zzz_missing def",
        "",
    ]
    batch = pa.table(
        {"qid": [f"m{i}" for i in range(len(queries))], "question": queries}
    )
    res = ex(batch).to_pylist()
    by_qid = {}
    for r in res:
        by_qid.setdefault(r["qid"], []).append(r)
    for i, q in enumerate(queries):
        expected = oracle.top_k(q, 10)
        got = sorted(by_qid.get(f"m{i}", []), key=lambda r: r["rank"])
        assert [(r["docid"], r["score"]) for r in got] == expected, q
    # the selective rounds must actually run: "answer_3" (df 8 < k) cannot
    # set θ alone, so its query is planned onto TAAT; "café" (df 13) can
    for q, route in [("answer_3 def return", "taat"),
                     ("café def return", "maxscore")]:
        ex1 = qe.QueryExecutor(index_dir, k=10, method="maxscore")
        ex1(pa.table({"qid": ["r"], "question": [q]}))
        assert ex1.routes == {route: 1}, q


def _df_entries(dfs):
    return [(np.arange(df, dtype=np.int64), np.ones(df), 1.0) for df in dfs]


@pytest.mark.parametrize("dfs,k,route", [
    ((1, 770, 770), 10, "taat"),        # rare df < k: need takes a head list
    ((7700, 2, 7700, 7700), 10, "taat"),  # unsorted input
    ((10, 770, 770), 10, "maxscore"),   # df_rare ≥ k sets θ in round one
    ((3, 9, 770, 770), 10, "maxscore"),  # two rare terms reach k together
    ((700, 770, 800), 10, "impact"),    # head-only
    ((5,), 10, "impact"),               # single term
    ((1, 2, 900), 1000, "taat"),        # k > Σdf: need = Σdf
    ((1, 770, 770), 1, "maxscore"),     # k = 1: the df-1 term sets θ
    ((50, 5000, 5000), 100, "taat"),
    ((50, 60, 5000, 5000), 100, "maxscore"),
])
def test_plan_route_unit(dfs, k, route):
    assert qe.plan_route(_df_entries(dfs), k) == route


PLANNED = ["rare_tok_3 def return", "café def return", "def return import",
           "café", ""]


@pytest.mark.parametrize("mode", ["plain", "deferred", "banned", "ranged"])
def test_planned_route_bitwise(setup_dense, monkeypatch, mode):
    """method="maxscore" serves plan_route's choice; it must equal forced
    TAAT and the oracle bitwise, also through the deferred batched TAAT,
    with tombstones and in a docid_range store. "rare_tok_3" tokenizes to
    a df-3 term ("3") below k=5, so its query is planned onto TAAT."""
    import pyarrow as pa
    from bm25_oracle import oracle_topk

    index_dir, oracle = setup_dense
    kw, banned, rng = {}, [], None
    if mode == "deferred":
        monkeypatch.setenv("DPR_BATCH_MIN_ACCUM_MB", "0")
    elif mode == "banned":
        banned = kw["banned_docids"] = np.arange(0, N_DOCS, 9, dtype=np.uint64)
    elif mode == "ranged":
        rng = kw["docid_range"] = (20, 110)
    batch = pa.table({"qid": [f"p{i}" for i in range(len(PLANNED))],
                      "question": PLANNED})
    ex = qe.QueryExecutor(index_dir, k=5, method="maxscore", result_cache=0,
                          **kw)
    got = ex(batch).to_pylist()
    assert got == qe.QueryExecutor(index_dir, k=5, method="taat",
                                   result_cache=0, **kw)(batch).to_pylist()
    by_q: dict[str, list] = {q: [] for q in PLANNED}
    for r in got:
        by_q[r["question"]].append((r["docid"], r["score"]))
    for q in PLANNED:
        assert by_q[q] == oracle_topk(oracle, q, 5, banned, rng), (mode, q)
    if mode == "plain":
        assert ex.routes == {"taat": 1, "maxscore": 2, "impact": 2}
    assert ex.routes["taat"] >= 1
    if mode == "deferred":
        assert ex.store.multi_group_size() >= 2
        # planned TAAT defers; so may an impact expansion that bails
        assert ex.routes["deferred"] >= ex.routes["taat"]
    # a repeat is answered from the result cache and counted as such
    ex.routes.clear()
    ex._rcache_max = 100
    ex(batch)
    ex(batch)
    assert ex.routes["result_cache"] == len(PLANNED)


@pytest.fixture(scope="module")
def setup_dense(ray_session, tmp_path_factory):
    """Same corpus with PROVIDED dense docids — exercises the dense
    accumulator paths (taat/maxscore/pruned-bmw) instead of the sparse
    fallbacks."""
    import pyarrow as pa
    import ray.data

    tbl = corpus_mod.synth_corpus_table(N_DOCS, seed=3)
    tbl = tbl.append_column(
        "docid", pa.array(np.arange(N_DOCS, dtype=np.uint64), pa.uint64())
    )
    index_dir = str(tmp_path_factory.mktemp("qidx_dense"))
    build_index(
        ray.data.from_arrow(tbl).repartition(4), index_dir,
        docid_strategy="provided", group_budget=40, sample_mod=2, block_size=16,
    )
    oracle = BruteForceBM25(
        list(range(N_DOCS)), tbl["content"].to_pylist(), BM25Params()
    )
    return index_dir, oracle


@pytest.mark.parametrize("method", ["taat", "maxscore", "bmw"])
def test_dense_paths_bitwise_identical(setup_dense, method):
    """pruned_topk_dense (bmw on dense ids) and maxscore must be bitwise
    float64-equal to the oracle, including at tiny block_size where block
    pruning actually skips ranges."""
    index_dir, oracle = setup_dense
    ex = qe.QueryExecutor(index_dir, k=25, method=method)
    import pyarrow as pa

    batch = pa.table(
        {
            "qid": pa.array([f"q{i}" for i in range(len(QUERIES))]),
            "question": pa.array(QUERIES),
        }
    )
    assert ex.store.dense_size > 0  # the dense path is actually in play
    res = ex(batch).to_pylist()
    by_qid = {}
    for r in res:
        by_qid.setdefault(r["qid"], []).append(r)
    for i, q in enumerate(QUERIES):
        expected = oracle.top_k(q, 25)
        got = sorted(by_qid.get(f"q{i}", []), key=lambda r: r["rank"])
        assert len(got) == len(expected), (method, q)
        for rank, (r, (edoc, escore)) in enumerate(zip(got, expected), start=1):
            assert r["rank"] == rank
            assert r["docid"] == edoc, (method, q, rank)
            assert r["score"] == escore, (method, q, rank)  # bitwise


@pytest.mark.parametrize("setup_name", ["setup_dense", "setup"])
def test_doc_sharded_identical(setup_name, request, ray_session):
    """doc_shards=3 must emit the identical (bitwise) per-qid result set:
    per-shard block-filtered decode + (-score, docid) k-way merge, on both
    dense (provided) and sparse (hash64) docid spaces."""
    import ray.data

    index_dir, _oracle = request.getfixturevalue(setup_name)
    from dpr_ray.query.executor import search_pipeline

    rows = [{"qid": f"q{i}", "question": q} for i, q in enumerate(QUERIES)]

    def run(shards):
        qds = ray.data.from_items(rows).repartition(2)
        df = search_pipeline(
            qds, index_dir, k=7, doc_shards=shards
        ).to_pandas()
        return df.sort_values(["qid", "rank"]).reset_index(drop=True)[
            ["qid", "rank", "docid", "score"]
        ]

    a, b = run(None), run(3)
    assert a.equals(b)


def _mk_head_entries(seed, n_docs, dfs, tie_level=None):
    """Synthetic head-term (docids, contrib, ub) entries; optionally snap
    contributions to a coarse grid so exact k-boundary ties occur."""
    entries = []
    rng = np.random.default_rng(seed)
    dl = rng.integers(20, 2000, size=n_docs).astype(np.float64)
    for i, df in enumerate(dfs):
        r = np.random.default_rng(seed * 100 + i)
        d = np.sort(r.choice(n_docs, size=df, replace=False)).astype(np.int64)
        c = (1.0 + 0.2 * i) / (1.0 + 0.4 * dl[d] / dl.mean())
        if tie_level:
            c = np.ceil(c * tie_level) / tie_level  # many exact ties
        entries.append((d, c, float(c.max())))
    return entries


@pytest.mark.parametrize("tie_level", [None, 8])
def test_impact_expand_bitwise_vs_taat(tie_level):
    """Impact-ordered head-only expansion must equal plain dense TAAT
    bitwise — docids AND float64 scores — including under heavy exact
    ties at the k-boundary (the (-score, docid) total-order contract),
    across sizes that exercise both early-stop and full-exhaustion."""
    for seed, n_docs, dfs, k in [
        (3, 5000, [3000, 2500, 2000], 10),
        (4, 5000, [4999, 4998], 25),
        (5, 300, [200, 150, 120, 100], 50),
        (6, 64, [60, 50], 64),  # k >= union: exhaustion path
    ]:
        entries = _mk_head_entries(seed, n_docs, dfs, tie_level)
        buf = np.zeros(n_docs, np.float64)
        ids = np.arange(n_docs, dtype=np.uint64)
        want = qe.taat_topk_dense([(e[0], e[1]) for e in entries], k, buf, ids)
        perms = [np.lexsort((e[0], -e[1])).astype(np.int32) for e in entries]
        got = qe._impact_expand(entries, k, buf, ids, perms)
        assert np.array_equal(
            np.asarray(want[0], np.uint64), np.asarray(got[0], np.uint64)
        ), (seed, tie_level)
        assert np.array_equal(want[1], got[1]), (seed, tie_level)  # bitwise
        # dense posmap fast path must be bitwise-identical too
        posmaps = []
        for e in entries:
            pm = np.full(n_docs, -1, np.int32)
            pm[e[0]] = np.arange(len(e[0]), dtype=np.int32)
            posmaps.append(pm)
        gotp = qe._impact_expand(entries, k, buf, ids, perms, posmaps)
        assert np.array_equal(
            np.asarray(want[0], np.uint64), np.asarray(gotp[0], np.uint64)
        ), (seed, tie_level)
        assert np.array_equal(want[1], gotp[1]), (seed, tie_level)
        # flat contributions: must fall back, still exact
        flat = [(e[0], np.full(len(e[0]), 0.25), 0.25) for e in entries]
        wantf = qe.taat_topk_dense([(e[0], e[1]) for e in flat], k, buf, ids)
        permsf = [np.lexsort((e[0], -e[1])).astype(np.int32) for e in flat]
        gotf = qe._impact_expand(flat, k, buf, ids, permsf)
        assert np.array_equal(
            np.asarray(wantf[0], np.uint64), np.asarray(gotf[0], np.uint64)
        )
        assert np.array_equal(wantf[1], gotf[1])


def test_executor_head_only_uses_impact_cache(setup_dense):
    """A head-only multi-term maxscore query must populate the per-term
    impact cache (proving the impact path ran) and emit output identical
    to the taat executor."""
    index_dir, _oracle = setup_dense
    import pyarrow as pa

    # head-only: the corpus generator's highest-df terms
    q = "the of and"
    batch = pa.table({"qid": pa.array(["h1"]), "question": pa.array([q])})
    ex_m = qe.QueryExecutor(index_dir, k=25, method="maxscore")
    ex_t = qe.QueryExecutor(index_dir, k=25, method="taat")
    rm = ex_m(batch).to_pylist()
    rt = ex_t(batch).to_pylist()
    assert rm == rt
    present = [t for t in ("the", "of", "and") if ex_m.store.scored(t) is not None]
    if len(present) >= 2:  # head-only bail engaged → perms were built
        assert len(ex_m.store._impact) >= 1


def test_batched_taat_bitwise_vs_unbatched(setup_dense, monkeypatch):
    """The term-major batched TAAT (taat_topk_dense_multi via the deferred
    pool) must be bitwise-identical to the per-query dense path
    (DPR_BATCH_ACCUM_MB=0 disables batching), for both taat and maxscore,
    on a batch with heavy term sharing and duplicate term-sets."""
    index_dir, _oracle = setup_dense
    import pyarrow as pa

    qs = QUERIES + QUERIES[:3] + ["def return class", "def return class"]
    batch = pa.table(
        {
            "qid": pa.array([f"b{i}" for i in range(len(qs))]),
            "question": pa.array(qs),
        }
    )
    monkeypatch.setenv("DPR_BATCH_MIN_ACCUM_MB", "0")  # tiny test corpus
    for method in ("taat", "maxscore"):
        monkeypatch.setenv("DPR_BATCH_ACCUM_MB", "0")
        plain = qe.QueryExecutor(
            index_dir, k=25, method=method, result_cache=0
        )(batch).to_pylist()
        monkeypatch.delenv("DPR_BATCH_ACCUM_MB")
        ex = qe.QueryExecutor(index_dir, k=25, method=method, result_cache=0)
        assert ex.store.multi_group_size() >= 2
        batched = ex(batch).to_pylist()
        assert batched == plain, method
        if method == "taat":
            # the deferred pool must actually have been exercised
            assert ex.store._multi_buf is not None


def test_taat_topk_dense_multi_unit(ray_session):
    """Direct unit check: grouped accumulation == per-query accumulation
    on synthetic entries with shared terms."""
    rng = np.random.default_rng(11)
    n = 500
    buf = np.zeros(n, np.float64)
    ids = np.arange(n, dtype=np.uint64)
    terms = {}
    for name in "abcdef":
        d = np.sort(
            rng.choice(n, size=int(rng.integers(20, 300)), replace=False)
        ).astype(np.int64)
        c = rng.random(len(d)) * 3
        terms[name] = (d, c)
    queries = [["a", "b", "c"], ["b", "d"], ["a", "c", "e", "f"], ["d", "f"]]
    want = [
        qe.taat_topk_dense([terms[t] for t in q], 10, buf, ids)
        for q in queries
    ]
    bufs = np.zeros((len(queries), n), np.float64)
    got = qe.taat_topk_dense_multi(
        [[(t, terms[t]) for t in q] for q in queries], 10, bufs, ids
    )
    for w, g in zip(want, got):
        assert np.array_equal(w[0], g[0])
        assert np.array_equal(w[1], g[1])  # bitwise
    assert not bufs.any()  # reset after extraction


@pytest.mark.parametrize("method", ["taat", "maxscore", "bmw"])
def test_degenerate_query_inputs(setup, method):
    """Degenerate inputs must be consistent across all three methods:
    a zero-row query batch and k=0 return 0 rows with the canonical
    schema (BMW's theta() used to index heap[0] of an empty heap at
    k=0), an empty docid window returns 0 rows, and k > N returns
    every positive-scoring doc in oracle order."""
    import pyarrow as pa

    index_dir, oracle = setup
    q = "def return import value"
    qb = pa.table({"qid": ["a"], "question": [q]})
    empty = pa.table(
        {"qid": pa.array([], pa.string()), "question": pa.array([], pa.string())}
    )
    out0 = qe.QueryExecutor(index_dir, k=5, method=method)(empty)
    assert out0.num_rows == 0
    assert out0.schema.names == ["qid", "question", "rank", "docid", "score"]
    assert qe.QueryExecutor(index_dir, k=0, method=method)(qb).num_rows == 0
    lo = int(oracle.docids[len(oracle.docids) // 2])
    assert qe.QueryExecutor(
        index_dir, k=5, method=method, docid_range=(lo, lo)
    )(qb).num_rows == 0
    big = qe.QueryExecutor(index_dir, k=10 * N_DOCS, method=method)(qb)
    want = oracle.top_k(q, 10 * N_DOCS)
    got = [(int(r["docid"]), float(r["score"])) for r in big.to_pylist()]
    assert got == want
    # reversed range: loud ValueError at construction, not an opaque numpy
    # "negative dimensions" error deep in the decode path
    with pytest.raises(ValueError, match="docid_range"):
        qe.QueryExecutor(index_dir, k=5, method=method, docid_range=(lo, 5))


@pytest.mark.parametrize("method", ["taat", "maxscore", "bmw"])
def test_degenerate_query_inputs_dense(setup_dense, method):
    """The same degenerate contract on a DENSE (provided-ordinal) index —
    the dense np.partition paths sized kth as len(x) - k, which indexed
    one past the end at k=0 (the original k=0 guard only covered the
    sparse bmw_topk fallback, and the sparse fixture above never reaches
    the dense twins). Also pins the boundary windows the validation
    admits: [0, 0) and [2^64, 2^64) serve 0 rows on every method."""
    import pyarrow as pa

    index_dir, oracle = setup_dense
    q = "def return import value"
    qb = pa.table({"qid": ["a"], "question": [q]})
    ex = qe.QueryExecutor(index_dir, k=0, method=method)
    assert ex.store.dense_size > 0  # the dense path is actually in play
    out = ex(qb)
    assert out.num_rows == 0
    assert out.schema.names == ["qid", "question", "rank", "docid", "score"]
    for window in [(0, 0), (1 << 64, 1 << 64)]:
        assert qe.QueryExecutor(
            index_dir, k=5, method=method, docid_range=window
        )(qb).num_rows == 0


def test_doc_shards_past_corpus_size(ray_session, tmp_path):
    """search_pipeline with doc_shards > max_docid + 1 hands some shards
    empty [lo, lo) windows (a 3-doc corpus at doc_shards=4 computes edges
    [0, 0, 1, 2, 3], giving shard 0 the window [0, 0)) — the merged top-k
    must equal the unsharded result exactly, with no duplicated docids."""
    import pyarrow as pa
    import ray.data

    tbl = corpus_mod.synth_corpus_table(3, seed=11)
    tbl = tbl.append_column("docid", pa.array(range(3), pa.uint64()))
    index_dir = str(tmp_path / "idx3")
    build_index(
        ray.data.from_arrow(tbl).repartition(2), index_dir,
        docid_strategy="provided", group_budget=4, sample_mod=1,
    )
    oracle = BruteForceBM25(
        list(range(3)), tbl["content"].to_pylist(), BM25Params()
    )
    q = "def return import class"
    qds = ray.data.from_arrow(pa.table({"qid": ["a"], "question": [q]}))
    res = (
        qe.search_pipeline(qds, index_dir, k=3, method="taat", doc_shards=4)
        .to_pandas()
        .sort_values("rank")
    )
    assert res["docid"].is_unique
    got = [(int(d), float(s)) for d, s in zip(res["docid"], res["score"])]
    assert got == oracle.top_k(q, 3)


def test_search_pipeline_sharded_validation(setup, ray_session, tmp_path):
    """A stats.json missing max_docid must refuse sharding (defaulting to
    0 made every shard a near-empty window — silent wrong results)."""
    import json
    import os
    import shutil

    import pyarrow as pa
    import pytest as _pytest
    import ray.data

    index_dir, _oracle = setup
    qds = ray.data.from_arrow(
        pa.table({"qid": ["a"], "question": ["def return"]})
    )
    d2 = str(tmp_path / "no_maxdocid")
    shutil.copytree(index_dir, d2)
    with open(os.path.join(d2, "stats.json")) as f:
        st = json.load(f)
    st.pop("max_docid")
    with open(os.path.join(d2, "stats.json"), "w") as f:
        json.dump(st, f)
    with _pytest.raises(ValueError, match="max_docid"):
        qe.search_pipeline(qds, d2, doc_shards=2)


def _actor_ids() -> set:
    """Every actor of the session, alive or dead. ``ray.util.state``
    reads through the dashboard, which the test session leaves off; the
    GCS actor table it would read is queried directly."""
    from ray._private import state

    return set(state.actors())


def test_serving_starts_no_actor(setup, tmp_path):
    """search_pipeline(with_docs=True) and retrieve_and_evaluate serve as
    stateless tasks: the query, doc-join and has_answer stages start no
    actor (an actor pool spawned one per call and stage)."""
    import pyarrow as pa
    import ray.data

    from dpr_ray import pipelines

    index_dir, _oracle = setup
    ray.data.range(1).materialize()  # Ray Data's own session actors
    before = _actor_ids()
    qs = [q for q in QUERIES if q]
    qids = [f"q{i}" for i in range(len(qs))]
    rows = search_pipeline(
        ray.data.from_arrow(pa.table({"qid": qids, "question": qs})),
        index_dir, k=5, with_docs=True,
    ).take_all()
    res, metrics = pipelines.retrieve_and_evaluate(
        pa.table({"qid": qids, "question": qs, "answers": [["def"]] * len(qs)}),
        index_dir, k=5, out_json=str(tmp_path / "results.json"),
    )
    assert rows and res.count() == len(rows)
    assert metrics["top_k_hits"][-1] > 0
    assert _actor_ids() == before


def test_one_query_splits_into_no_empty_block(setup):
    """One query at the session's 4 CPUs: the in-memory table's row
    count caps the split, so no empty query block reaches the executor
    tasks and Ray Data logs no schema-divergence line (one per empty,
    schema-less block), and the rows equal the oracle's."""
    import logging

    import pyarrow as pa
    import ray.data

    index_dir, oracle = setup
    lines: list[str] = []

    class Collect(logging.Handler):
        def emit(self, record):
            lines.append(record.getMessage())

    log = logging.getLogger("ray.data._internal.execution.streaming_executor_state")
    handler = Collect(logging.WARNING)
    log.addHandler(handler)
    try:
        rows = search_pipeline(
            ray.data.from_arrow(pa.table({"qid": ["q0"], "question": ["def"]})),
            index_dir, k=5,
        ).take_all()
    finally:
        log.removeHandler(handler)
    assert not [m for m in lines if "different schema" in m], lines
    got = [(r["docid"], r["score"]) for r in sorted(rows, key=lambda r: r["rank"])]
    assert got == oracle.top_k("def", 5)


@pytest.mark.parametrize("setup_name,method", [
    ("setup_dense", "maxscore"), ("setup", "taat"), ("setup", "bmw"),
])
def test_sharded_and_banned_tasks_match_in_process(
    setup_name, method, request
):
    """The doc_shards=2 and banned_docids task paths return exactly the
    rows of one in-process QueryExecutor over the same queries."""
    import pyarrow as pa
    import ray.data

    index_dir, oracle = request.getfixturevalue(setup_name)
    qs = [q for q in QUERIES if q]
    tbl = pa.table({"qid": [f"q{i}" for i in range(len(qs))], "question": qs})
    banned = [d for q in ("def return", "rare_tok_3")
              for d, _ in oracle.top_k(q, 2)]
    cols = ["qid", "rank", "docid", "score"]

    def sort(df):
        return df.sort_values(["qid", "rank"], ignore_index=True)[cols]

    for kw in ({"doc_shards": 2}, {"banned_docids": banned}):
        got = search_pipeline(
            ray.data.from_arrow(tbl), index_dir, k=8, method=method, **kw
        ).to_pandas()
        want = qe.QueryExecutor(
            index_dir, k=8, method=method,
            banned_docids=kw.get("banned_docids"),
        )(tbl).to_pandas()
        assert len(want) > 0
        assert sort(got).equals(sort(want)), (method, kw)
