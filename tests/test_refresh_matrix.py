"""Adversarial sweep over the FULL refresh-serving lattice: an index
produced by an upsert merge (updates + adds + merge-time tombstones) is
then served under every query-time dimension at once — banned_docids ×
method × k × result-cache × duplicate queries (hypothesis), and
doc_shards × method × bans (deterministic combos) — each draw
compared bitwise to the brute-force oracle over the latest corpus minus
the banned docs. Extends the pairwise gates in tests/test_tombstones.py
and tests/test_merge_upsert.py to the combination lattice (round-4
VERDICT next-round item #6)."""

import numpy as np
import pyarrow as pa
import pytest

from dpr_ray import corpus as corpus_mod
from dpr_ray.config import BM25Params
from dpr_ray.index.build import build_index
from dpr_ray.index.merge import merge_indexes
from dpr_ray.query.executor import QueryExecutor
from dpr_ray.query.oracle import BruteForceBM25

QUESTIONS = [
    "def return import value",
    "freshrev added",
    "key class while",
    "no such tokens xyzzy",
]


from bm25_oracle import oracle_topk as _oracle_topk_banned  # noqa: E402


@pytest.fixture(scope="module")
def refresh_index(ray_session, tmp_path_factory):
    """One refreshed index shared by every draw: base(50) upsert-merged
    with 10 updates + 5 adds and 5 merge-time tombstones."""
    import ray.data

    from dpr_ray.stages.featurize import docid_from_ext_id

    base = corpus_mod.synth_corpus_table(50, seed=91)
    upd = base.slice(0, 10)
    upd = upd.set_column(
        upd.schema.get_field_index("content"), "content",
        pa.array([c + " freshrev" for c in upd["content"].to_pylist()],
                 pa.large_string()),
    )
    adds = pa.table(
        {
            "repo": pa.array(["neworg/np"] * 5, pa.string()),
            "path": pa.array([f"a/{i}.py" for i in range(5)], pa.string()),
            "commit": pa.array(["beef"] * 5, pa.string()),
            "lang": pa.array(["py"] * 5, pa.string()),
            "content": pa.array(
                [f"freshrev added doc {i} return value" for i in range(5)],
                pa.large_string(),
            ),
        }
    )
    delta = pa.concat_tables([upd, adds])
    dels = [
        f"{r}/{p}"
        for r, p in zip(
            base.slice(40, 5)["repo"].to_pylist(),
            base.slice(40, 5)["path"].to_pylist(),
        )
    ]
    latest = pa.concat_tables([base.slice(10, 30), base.slice(45), upd, adds])

    root = tmp_path_factory.mktemp("refreshmx")
    dbase, ddelta, dm = (str(root / x) for x in ["base", "delta", "m"])
    build_index(ray.data.from_arrow(base).repartition(2), dbase,
                docid_strategy="hash64", block_size=8)
    build_index(ray.data.from_arrow(delta).repartition(1), ddelta,
                docid_strategy="hash64", block_size=8)
    merge_indexes([dbase, ddelta], dm, mode="upsert", delete_ext_ids=dels,
                  block_size=8)
    docids = np.array(
        [
            docid_from_ext_id(f"{r}/{p}")
            for r, p in zip(
                latest["repo"].to_pylist(), latest["path"].to_pylist()
            )
        ],
        np.uint64,
    )
    oracle = BruteForceBM25(docids, latest["content"].to_pylist(), BM25Params())
    return dm, docids, oracle


def test_refresh_matrix_hypothesis(refresh_index):
    """banned × method × k × result-cache × duplicated-queries on the
    merged index, every draw vs oracle-minus-banned; each executor runs
    its batch TWICE so the second pass is served from the result cache
    (when enabled) and must stay bitwise identical under bans."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    dm, docids, oracle = refresh_index

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        banned_idx=st.lists(st.integers(0, 199), max_size=30),
        method=st.sampled_from(["taat", "maxscore", "bmw"]),
        k=st.integers(1, 12),
        rcache=st.booleans(),
        dup=st.booleans(),
    )
    def inner(banned_idx, method, k, rcache, dup):
        banned = (
            np.unique(docids[np.asarray(banned_idx) % len(docids)])
            if banned_idx
            else np.empty(0, np.uint64)
        )
        qs = QUESTIONS * 2 if dup else QUESTIONS
        qb = pa.table(
            {"qid": [f"q{i}" for i in range(len(qs))], "question": qs}
        )
        ex = QueryExecutor(
            dm, k=k, method=method, banned_docids=banned,
            result_cache=100_000 if rcache else 0,
        )
        for _pass in range(2):  # second pass hits the result cache
            out = ex(qb).to_pylist()
            got: dict[str, list] = {q: [] for q in qs}
            for r in out:
                got[r["question"]].append((r["docid"], r["score"]))
            for q in set(qs):
                want = _oracle_topk_banned(oracle, q, k, banned)
                if dup:
                    want = want * 2  # grouped per question over dup qids
                    got_q = sorted(got[q])
                    want = sorted(want)
                else:
                    got_q = got[q]
                assert got_q == want, (method, k, rcache, dup, _pass, q)

    inner()


def test_refresh_pipeline_warm_shards_banned(refresh_index):
    """search_pipeline over the merged index: doc_shards × method with a
    rank-shifting banned set — shard range mask + tombstone decode filter
    composed, vs oracle."""
    import ray.data

    from dpr_ray.query.executor import search_pipeline

    dm, docids, oracle = refresh_index
    banned = np.unique(
        np.concatenate(
            [
                np.array(
                    [d for d, _ in _oracle_topk_banned(oracle, q, 2, [])],
                    np.uint64,
                )
                for q in QUESTIONS[:3]
            ]
        )
    )
    qb = pa.table(
        {
            "qid": [f"q{i}" for i in range(len(QUESTIONS))],
            "question": QUESTIONS,
        }
    )
    for shards in (None, 2):
        for method in ("taat", "bmw"):
            res = search_pipeline(
                ray.data.from_arrow(qb), dm, k=8, method=method,
                doc_shards=shards, banned_docids=banned,
            ).to_pandas().sort_values(["qid", "rank"])
            got: dict[str, list] = {q: [] for q in QUESTIONS}
            for _, r in res.iterrows():
                got[r["question"]].append(
                    (int(r["docid"]), float(r["score"]))
                )
            for q in QUESTIONS:
                want = _oracle_topk_banned(oracle, q, 8, banned)
                assert got[q] == want, (shards, method, q)


def test_refresh_shard_rcache_banned(refresh_index):
    """docid_range × result-cache × method × bans at the QueryExecutor
    level on the merged index: range-sharded executors each keep their own
    result LRU and run the batch TWICE (second pass served from the cache),
    shard results merged with the exact (-score, docid) top-k — vs
    oracle-minus-banned. Covers the cache-key/docid-range interaction the
    round-5 lattice left out (the cache key is (terms, k) with the range
    fixed per instance; a stale cross-shard hit would surface here)."""
    from dpr_ray.index import segments as seg

    dm, docids, oracle = refresh_index
    k = 6
    banned = np.unique(
        np.concatenate(
            [
                np.array(
                    [d for d, _ in _oracle_topk_banned(oracle, q, 1, [])],
                    np.uint64,
                )
                for q in QUESTIONS[:2]
            ]
        )
    )
    span = int(seg.read_stats(dm).get("max_docid", 0)) + 1
    qb = pa.table(
        {
            "qid": [f"q{i}" for i in range(len(QUESTIONS))],
            "question": QUESTIONS,
        }
    )
    for method in ("taat", "maxscore", "bmw"):
        for nshards in (2, 3):
            edges = [span * s // nshards for s in range(nshards + 1)]
            exs = [
                QueryExecutor(
                    dm, k=k, method=method,
                    docid_range=(edges[s], edges[s + 1]),
                    banned_docids=banned, result_cache=1000,
                )
                for s in range(nshards)
            ]
            for _pass in range(2):  # pass 2 = per-shard result-cache hits
                per_q: dict[str, list] = {q: [] for q in QUESTIONS}
                for ex in exs:
                    for r in ex(qb).to_pylist():
                        per_q[r["question"]].append(
                            (r["docid"], r["score"])
                        )
                for q in QUESTIONS:
                    cand = per_q[q]
                    d = np.array([c[0] for c in cand], np.uint64)
                    s_ = np.array([c[1] for c in cand], np.float64)
                    order = np.lexsort((d, -s_))[:k]
                    got = [(int(d[i]), float(s_[i])) for i in order]
                    want = _oracle_topk_banned(oracle, q, k, banned)
                    assert got == want, (method, nshards, _pass, q)


def test_refresh_window_rcache_banned(refresh_index):
    """NARROW docid_range windows (span < 2^23 → the dense-accumulator
    decode path, which the wide shards above never take in a hash64
    docid space) × result-cache × method × bans on the merged index,
    two passes each. The dense path rebases docids to buffer-local
    offsets at decode time and keeps the rebased entry in the scored
    LRU — a pass-2 cache hit must reproduce the same rebased scatter,
    and the result LRU must serve the window's results bitwise."""
    dm, docids, oracle = refresh_index
    k = 5
    banned = np.unique(
        np.concatenate(
            [
                np.array(
                    [d for d, _ in _oracle_topk_banned(oracle, q, 1, [])],
                    np.uint64,
                )
                for q in QUESTIONS[:2]
            ]
        )
    )
    qb = pa.table(
        {
            "qid": [f"q{i}" for i in range(len(QUESTIONS))],
            "question": QUESTIONS,
        }
    )
    anchors = np.sort(docids)[[0, len(docids) // 2, len(docids) - 1]]
    for method in ("taat", "maxscore", "bmw"):
        for anchor in anchors:
            lo = max(0, int(anchor) - 2048)
            hi = min(1 << 64, int(anchor) + 2049)
            ex = QueryExecutor(
                dm, k=k, method=method, docid_range=(lo, hi),
                banned_docids=banned, result_cache=1000,
            )
            for _pass in range(2):  # pass 2 = result-cache hits
                per_q: dict[str, list] = {q: [] for q in QUESTIONS}
                for r in ex(qb).to_pylist():
                    per_q[r["question"]].append((r["docid"], r["score"]))
                for q in QUESTIONS:
                    want = _oracle_topk_banned(
                        oracle, q, k, banned, rng=(lo, hi)
                    )
                    assert per_q[q] == want, (
                        method, int(anchor), _pass, q,
                    )


@pytest.fixture(scope="module")
def big_refresh_index(ray_session, tmp_path_factory):
    """A larger merged index (1500 base + 120 updates + 80 adds, 60
    tombstones) built with block_size=4 so hot posting lists span MANY
    blocks — real BMW block traversal across shard-range edges (the
    round-5 docid_range bug class lived exactly there)."""
    import ray.data

    from dpr_ray.stages.featurize import docid_from_ext_id

    base = corpus_mod.synth_corpus_table(1500, seed=7)
    upd = base.slice(0, 120)
    upd = upd.set_column(
        upd.schema.get_field_index("content"), "content",
        pa.array([c + " freshrev" for c in upd["content"].to_pylist()],
                 pa.large_string()),
    )
    adds = pa.table(
        {
            "repo": pa.array(["neworg/np"] * 80, pa.string()),
            "path": pa.array([f"b/{i}.py" for i in range(80)], pa.string()),
            "commit": pa.array(["beef"] * 80, pa.string()),
            "lang": pa.array(["py"] * 80, pa.string()),
            "content": pa.array(
                [
                    f"freshrev added doc {i} return value while class"
                    for i in range(80)
                ],
                pa.large_string(),
            ),
        }
    )
    delta = pa.concat_tables([upd, adds])
    dels = [
        f"{r}/{p}"
        for r, p in zip(
            base.slice(1400, 60)["repo"].to_pylist(),
            base.slice(1400, 60)["path"].to_pylist(),
        )
    ]
    latest = pa.concat_tables(
        [base.slice(120, 1280), base.slice(1460), upd, adds]
    )

    root = tmp_path_factory.mktemp("refreshbig")
    dbase, ddelta, dm = (str(root / x) for x in ["base", "delta", "m"])
    build_index(ray.data.from_arrow(base).repartition(4), dbase,
                docid_strategy="hash64", block_size=4)
    build_index(ray.data.from_arrow(delta).repartition(2), ddelta,
                docid_strategy="hash64", block_size=4)
    merge_indexes([dbase, ddelta], dm, mode="upsert", delete_ext_ids=dels,
                  block_size=4)
    docids = np.array(
        [
            docid_from_ext_id(f"{r}/{p}")
            for r, p in zip(
                latest["repo"].to_pylist(), latest["path"].to_pylist()
            )
        ],
        np.uint64,
    )
    oracle = BruteForceBM25(docids, latest["content"].to_pylist(), BM25Params())
    return dm, docids, oracle


def test_merged_doc_shards_scale(big_refresh_index):
    """search_pipeline doc_shards over the LARGE merged index — shard
    edges fall mid-posting-list for every hot term, so each shard's BMW
    must fast-forward into and break out of its range correctly; composed
    with bans. Prior doc_shards gates ran on ≤60-doc corpora where most
    terms fit one block."""
    import ray.data

    from dpr_ray.query.executor import search_pipeline

    dm, docids, oracle = big_refresh_index
    banned = np.unique(
        np.concatenate(
            [
                np.array(
                    [d for d, _ in _oracle_topk_banned(oracle, q, 3, [])],
                    np.uint64,
                )
                for q in QUESTIONS
            ]
        )
    )
    qb = pa.table(
        {
            "qid": [f"q{i}" for i in range(len(QUESTIONS))],
            "question": QUESTIONS,
        }
    )
    for method in ("taat", "bmw"):
        for shards in (3, 4):
            res = search_pipeline(
                ray.data.from_arrow(qb), dm, k=10, method=method,
                doc_shards=shards, banned_docids=banned,
            ).to_pandas().sort_values(["qid", "rank"])
            got: dict[str, list] = {q: [] for q in QUESTIONS}
            for _, r in res.iterrows():
                got[r["question"]].append((int(r["docid"]), float(r["score"])))
            for q in QUESTIONS:
                want = _oracle_topk_banned(oracle, q, 10, banned)
                assert got[q] == want, (method, shards, q)


def test_refresh_starved_caches(refresh_index, monkeypatch):
    """Cache-starvation cell: DPR_CACHE_POSTINGS=1 forces the SegmentStore
    to evict and re-fetch/re-decode terms WITHIN every batch (the eviction
    loops in scored/impact/posmap never fired in the default-budget
    lattice). The same budget keeps at most one term
    bucket resident, so buckets are evicted and re-read within a batch.
    Re-decoded entries must reproduce the banned/range filtering bitwise
    — composed with bans × method × docid_range over two passes."""
    from dpr_ray import analyzer
    from dpr_ray.index import segments as seg

    dm, docids, oracle = refresh_index
    monkeypatch.setenv("DPR_CACHE_POSTINGS", "1")
    k = 5
    banned = np.unique(
        np.concatenate(
            [
                np.array(
                    [d for d, _ in _oracle_topk_banned(oracle, q, 1, [])],
                    np.uint64,
                )
                for q in QUESTIONS[:2]
            ]
        )
    )
    span = int(seg.read_stats(dm).get("max_docid", 0)) + 1
    qb = pa.table(
        {
            "qid": [f"q{i}" for i in range(len(QUESTIONS))],
            "question": QUESTIONS,
        }
    )
    n_tb = int(seg.read_stats(dm)["num_tbuckets"])
    touched = {
        seg.term_bucket(t, n_tb) for q in QUESTIONS
        for t in analyzer.tokenize(q)
    }
    for method in ("taat", "maxscore", "bmw"):
        # unsharded: starved caches, whole-corpus
        ex = QueryExecutor(
            dm, k=k, method=method, banned_docids=banned,
            result_cache=0,
        )
        for _pass in range(2):
            got: dict[str, list] = {q: [] for q in QUESTIONS}
            for r in ex(qb).to_pylist():
                got[r["question"]].append((r["docid"], r["score"]))
            for q in QUESTIONS:
                want = _oracle_topk_banned(oracle, q, k, banned)
                assert got[q] == want, ("flat", method, _pass, q)
            assert len(ex.store._buckets) <= 1, ("flat", method, _pass)
        # more bucket reads than distinct buckets: evicted buckets were
        # read again
        assert ex.store.bucket_reads > len(touched) > 1, method
        # sharded: starved caches inside each range
        edges = [span * s // 2 for s in range(3)]
        exs = [
            QueryExecutor(
                dm, k=k, method=method,
                docid_range=(edges[s], edges[s + 1]),
                banned_docids=banned, result_cache=0,
            )
            for s in range(2)
        ]
        per_q: dict[str, list] = {q: [] for q in QUESTIONS}
        for ex in exs:
            for r in ex(qb).to_pylist():
                per_q[r["question"]].append((r["docid"], r["score"]))
            assert len(ex.store._buckets) <= 1, ("sharded", method)
            assert ex.store.bucket_reads > len(touched), ("sharded", method)
        for q in QUESTIONS:
            d = np.array([c[0] for c in per_q[q]], np.uint64)
            s_ = np.array([c[1] for c in per_q[q]], np.float64)
            order = np.lexsort((d, -s_))[:k]
            got_q = [(int(d[i]), float(s_[i])) for i in order]
            assert got_q == _oracle_topk_banned(oracle, q, k, banned), (
                "sharded", method, q,
            )


def test_refresh_warm_evicted_redecode(refresh_index, monkeypatch):
    """starved-cache × bans, two cold passes: under a DPR_CACHE_POSTINGS=1
    budget, pass 1's later terms evict the entries its earlier terms
    decoded, so pass 2 RE-DECODES those formerly-warm terms cold through
    the banned filter. Both passes must equal the oracle minus the
    banned docs bitwise."""
    dm, docids, oracle = refresh_index
    monkeypatch.setenv("DPR_CACHE_POSTINGS", "1")
    k = 5
    banned = np.unique(
        np.concatenate(
            [
                np.array(
                    [d for d, _ in _oracle_topk_banned(oracle, q, 1, [])],
                    np.uint64,
                )
                for q in QUESTIONS[:2]
            ]
        )
    )
    qb = pa.table(
        {
            "qid": [f"q{i}" for i in range(len(QUESTIONS))],
            "question": QUESTIONS,
        }
    )
    for method in ("taat", "maxscore", "bmw"):
        ex = QueryExecutor(
            dm, k=k, method=method, banned_docids=banned, result_cache=0,
        )
        for _pass in range(2):
            got: dict[str, list] = {q: [] for q in QUESTIONS}
            for r in ex(qb).to_pylist():
                got[r["question"]].append((r["docid"], r["score"]))
            if _pass == 0 and method != "bmw":
                # budget 1 keeps only the last scored entry, so pass 2
                # re-decodes every other term cold. (Sparse BMW never
                # touches the scored LRU: it cursors over the term's
                # segment table.)
                assert len(ex.store._scored) == 1
            for q in QUESTIONS:
                want = _oracle_topk_banned(oracle, q, k, banned)
                assert got[q] == want, (method, _pass, q)
