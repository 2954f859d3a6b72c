"""End-to-end build→query property sweep over ADVERSARIAL corpora.

Hypothesis generates corpora from a unicode-hostile token pool (NFC/NFD
twins that must merge into one term, CJK runs, curly apostrophes,
punctuation tokens, empty documents → dl=0, a high-tf repeat → multi-byte
varints, whole-corpus duplication → exact score ties across block edges),
builds a REAL on-disk index at a randomized block_size — optionally as an
upsert merge of two half-corpus indexes, with drawn merge-time tombstones
(possibly deleting EVERY doc) — and serves drawn banned_docids through all
three methods, each compared BITWISE to the brute-force oracle over the
surviving corpus minus the banned set. A drawn ``provided`` mode swaps
hash64 docids for pathologically spaced provided ids (a cluster at 0..4,
then jumps to 2^31 / 2^63 / 2^64-1 — 1-byte and 10-byte varint deltas in
the same posting list, full-uint64 block bounds), with tombstones via
delete_docids (the provided-id path) instead of delete_ext_ids.

The analyzer's unicode semantics are unit-tested in test_analyzer.py; this
closes the loop over everything downstream of tokenize — featurize → salted
groupby → delta+varint codec → block-max bounds → TAAT/MaxScore/BMW — where
a dl=0 document, a tf≈200 posting, or a tie straddling a block boundary
could diverge without any unit test noticing. Reference analog: the exact
search contract of faiss_indexers.py:107-112 under arbitrary passage text.
"""

import shutil
import tempfile

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpr_ray.config import BM25Params
from dpr_ray.index.build import build_index
from dpr_ray.index.merge import merge_indexes
from dpr_ray.query.executor import QueryExecutor
from dpr_ray.query.oracle import BruteForceBM25
from dpr_ray.stages.featurize import docid_from_ext_id


from bm25_oracle import oracle_topk as _topk_banned  # noqa: E402

# NFC "café" and NFD "café" must normalize to the SAME term (shared
# df, merged posting list); "…" and "’" tokenize as single-char punctuation
# tokens; "東京" is one CJK-run token; "" yields a dl=0 document.
POOL = [
    "def", "return", "café", "café", "naïve", "東京", "don’t",
    "x9y", "…", "a", "value7",
]

docs_strategy = st.lists(
    st.lists(st.sampled_from(POOL), min_size=0, max_size=12),
    min_size=1,
    max_size=10,
)

# provided-id mode: first docs get a dense cluster (deltas of 1), later docs
# huge jumps (10-byte varint deltas, block bounds at the uint64 extremes);
# 20 unique values covers the max corpus (10 docs × dup)
EXTREME_IDS = [
    0, 1, 2, 3, 4, 12345, (1 << 31) - 1, 1 << 31, (1 << 31) + 1,
    1 << 40, (1 << 48) + 7, (1 << 63) - 2, (1 << 63) - 1, 1 << 63,
    (1 << 63) + 1, (1 << 63) + 5, (1 << 64) - 4, (1 << 64) - 3,
    (1 << 64) - 2, (1 << 64) - 1,
]


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    docs=docs_strategy,
    hot=st.integers(0, 200),  # extra repeats of POOL[0] in doc 0: tf stress
    dup=st.booleans(),  # duplicate every doc under a new path: exact ties
    merged=st.booleans(),  # serve from an upsert merge of two half-indexes
    block_size=st.integers(1, 5),
    half_bs=st.tuples(st.integers(1, 5), st.integers(1, 5)),  # per-half bs
    k=st.integers(1, 8),
    qterms=st.lists(
        st.sampled_from(POOL + ["xyzzy"]), min_size=1, max_size=10
    ),
    del_idx=st.lists(st.integers(0, 99), max_size=3),  # merge tombstones
    ban_idx=st.lists(st.integers(0, 199), max_size=3),  # query-time bans
    provided=st.booleans(),  # extreme provided docids vs hash64
    nshards=st.integers(1, 3),  # docid_range-sharded serving
    win_idx=st.integers(0, 199),  # narrow dense-mode window anchor doc
    win_w=st.integers(1, 4096),  # window half-width (span < 2^23 → dense)
)
def test_e2e_adversarial_corpus(
    ray_session, docs, hot, dup, merged, block_size, half_bs, k, qterms,
    del_idx, ban_idx, provided, nshards, win_idx, win_w,
):
    import ray.data

    texts = [" ".join(d) for d in docs]
    texts[0] = " ".join([texts[0]] + [POOL[0]] * hot)
    if dup:
        texts = texts + texts
    n = len(texts)
    ids = EXTREME_IDS[:n] if provided else None

    def table_for(lo, hi):
        t = pa.table(
            {
                "repo": pa.array(["org/r"] * (hi - lo), pa.string()),
                "path": pa.array(
                    [f"f/{i}.py" for i in range(lo, hi)], pa.string()
                ),
                "commit": pa.array(["c"] * (hi - lo), pa.string()),
                "lang": pa.array(["py"] * (hi - lo), pa.string()),
                "content": pa.array(texts[lo:hi], pa.large_string()),
            }
        )
        if provided:
            t = t.append_column(
                "docid",
                pa.array(np.array(ids[lo:hi], np.uint64), pa.uint64()),
            )
        return t

    strategy = "provided" if provided else "hash64"
    is_merged = merged and n >= 2
    # merge-time tombstones (merged path only; may delete EVERY doc) —
    # by ext_id for hash64 corpora, by raw docid for provided ones
    del_ids = sorted({i % n for i in del_idx}) if is_merged else []
    del_kwargs: dict = {}
    if provided:
        del_kwargs["delete_docids"] = np.array(
            [ids[i] for i in del_ids], np.uint64
        )
    else:
        del_kwargs["delete_ext_ids"] = [f"org/r/f/{i}.py" for i in del_ids]
    keep = [i for i in range(n) if i not in set(del_ids)]
    docids = np.array(
        [
            ids[i] if provided else docid_from_ext_id(f"org/r/f/{i}.py")
            for i in keep
        ],
        np.uint64,
    )
    oracle = BruteForceBM25(docids, [texts[i] for i in keep], BM25Params())
    banned = (
        np.unique(docids[np.asarray(ban_idx) % len(keep)])
        if (ban_idx and keep)
        else np.empty(0, np.uint64)
    )
    q = " ".join(qterms)
    want = _topk_banned(oracle, q, k, banned)

    root = tempfile.mkdtemp(prefix="e2eprop", dir="/tmp")
    try:
        if is_merged:
            serve_dir = f"{root}/m"
            half = n // 2
            # halves built at independent block sizes: the merge must
            # re-block both to its own block_size (mixed-bs merge under
            # adversarial text, not just the deterministic 3/11→5 pin)
            build_index(
                ray.data.from_arrow(table_for(0, half)).repartition(2),
                f"{root}/h0", docid_strategy=strategy, block_size=half_bs[0],
            )
            build_index(
                ray.data.from_arrow(table_for(half, n)).repartition(1),
                f"{root}/h1", docid_strategy=strategy, block_size=half_bs[1],
            )
            merge_indexes(
                [f"{root}/h0", f"{root}/h1"], serve_dir, mode="upsert",
                block_size=block_size, **del_kwargs,
            )
        else:
            serve_dir = f"{root}/a"
            build_index(
                ray.data.from_arrow(table_for(0, n)).repartition(2),
                serve_dir, docid_strategy=strategy, block_size=block_size,
            )
        qb = pa.table({"qid": ["q0"], "question": [q]})
        for method in ("taat", "maxscore", "bmw"):
            ex = QueryExecutor(
                serve_dir, k=k, method=method, banned_docids=banned
            )
            got = [(r["docid"], r["score"]) for r in ex(qb).to_pylist()]
            assert got == want, (
                method, is_merged, provided, block_size, k, q, del_ids,
                banned,
            )
            if nshards > 1:
                # range-sharded serving over the FULL uint64 span (hash64
                # corpora just leave the high shards empty); per-shard
                # top-k merged with the exact (-score, docid) order
                span = 1 << 64
                edges = [span * s // nshards for s in range(nshards + 1)]
                cand: list[tuple[int, float]] = []
                for s in range(nshards):
                    exs = QueryExecutor(
                        serve_dir, k=k, method=method,
                        docid_range=(edges[s], edges[s + 1]),
                        banned_docids=banned,
                    )
                    cand += [
                        (r["docid"], r["score"])
                        for r in exs(qb).to_pylist()
                    ]
                da = np.array([c[0] for c in cand], np.uint64)
                sa = np.array([c[1] for c in cand], np.float64)
                order = np.lexsort((da, -sa))[:k]
                got_sh = [(int(da[i]), float(sa[i])) for i in order]
                assert got_sh == want, (
                    "sharded", method, nshards, provided, block_size, k, q,
                )
            if keep:
                # NARROW window around a drawn surviving docid: span
                # < 2^23 flips the executor into dense-accumulator mode
                # (the full-span shards above never do), and a provided-id
                # corpus puts the window's lo above 2^63 — the rebase-
                # before-cast crash class, composed with bans
                anchor = int(docids[win_idx % len(docids)])
                lo_w = max(0, anchor - win_w)
                hi_w = min(1 << 64, anchor + win_w + 1)
                exw = QueryExecutor(
                    serve_dir, k=k, method=method,
                    docid_range=(lo_w, hi_w), banned_docids=banned,
                )
                got_w = [
                    (r["docid"], r["score"]) for r in exw(qb).to_pylist()
                ]
                # oracle top-k restricted to the window is NOT just a
                # filter of the global top-k — recompute over the window
                want_w = _topk_banned(oracle, q, k, banned, rng=(lo_w, hi_w))
                assert got_w == want_w, (
                    "window", method, lo_w, hi_w, provided, k, q,
                )
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_e2e_degenerate_corpus(ray_session, tmp_path):
    """Deterministic pin of the edges hypothesis only sometimes draws:
    every document tokenizes to ZERO tokens (dl=0 everywhere, avgdl=0 —
    the BM25 denominator's dl/avgdl ratio is never evaluated because no
    posting exists), the build must still produce a servable index, and a
    zero-term (empty / whitespace-only) question must return empty on a
    normal index rather than tripping any method's term loop."""
    import ray.data

    def corpus(contents):
        n = len(contents)
        return pa.table(
            {
                "repo": pa.array(["org/r"] * n, pa.string()),
                "path": pa.array([f"g/{i}.py" for i in range(n)], pa.string()),
                "commit": pa.array(["c"] * n, pa.string()),
                "lang": pa.array(["py"] * n, pa.string()),
                "content": pa.array(contents, pa.large_string()),
            }
        )

    d_empty = str(tmp_path / "empty")
    stats = build_index(
        ray.data.from_arrow(corpus(["", "   ", " \t\n"])).repartition(2),
        d_empty, docid_strategy="hash64", block_size=4,
    )
    assert stats["avgdl"] == 0.0
    qb = pa.table({"qid": ["q0"], "question": ["def return"]})
    qb_blank = pa.table(
        {"qid": ["q0", "q1"], "question": ["", " \t "]}
    )
    d_norm = str(tmp_path / "norm")
    build_index(
        ray.data.from_arrow(corpus(["def return value", "return a"]))
        .repartition(1),
        d_norm, docid_strategy="hash64", block_size=4,
    )
    for method in ("taat", "maxscore", "bmw"):
        assert QueryExecutor(d_empty, k=5, method=method)(qb).to_pylist() == []
        assert (
            QueryExecutor(d_norm, k=5, method=method)(qb_blank).to_pylist()
            == []
        )


def test_null_question_serves_empty(ray_session, tmp_path):
    """A parquet NULL question must yield zero result rows for that qid
    while the other questions in the same batch stay bitwise-exact — both
    at the QueryExecutor level and through search_pipeline."""
    import ray.data

    from dpr_ray.query.executor import search_pipeline

    texts = ["def return value", "return a"]
    tbl = pa.table(
        {
            "repo": pa.array(["org/r"] * 2, pa.string()),
            "path": pa.array(["f/0.py", "f/1.py"], pa.string()),
            "commit": pa.array(["c"] * 2, pa.string()),
            "lang": pa.array(["py"] * 2, pa.string()),
            "content": pa.array(texts, pa.large_string()),
        }
    )
    d = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(tbl).repartition(1), d,
                docid_strategy="hash64", block_size=4)
    docids = np.array(
        [docid_from_ext_id(f"org/r/f/{i}.py") for i in range(2)], np.uint64
    )
    oracle = BruteForceBM25(docids, texts, BM25Params())
    want = oracle.top_k("def return", 5)
    qb = pa.table(
        {
            "qid": ["q0", "q1", "q2"],
            "question": pa.array(["def return", None, None], pa.string()),
        }
    )
    for method in ("taat", "maxscore", "bmw"):
        out = QueryExecutor(d, k=5, method=method)(qb).to_pylist()
        assert [(r["docid"], r["score"]) for r in out] == want
        assert {r["qid"] for r in out} == {"q0"}
    res = search_pipeline(
        ray.data.from_arrow(qb), d, k=5, method="bmw",
    ).to_pandas().sort_values("rank")
    assert set(res["qid"]) == {"q0"}
    assert list(zip(res["docid"].astype("uint64"), res["score"])) == want


def test_build_rejects_null_corpus_rows(ray_session, tmp_path):
    """Null content/repo/path at build time is corpus corruption, not
    data: the per-row sha256-equality invariant has no value for a null
    document, so featurize must fail LOUDLY naming the column — not die
    as an AttributeError in hashlib."""
    import ray.data

    for col in ("content", "path"):
        tbl = pa.table(
            {
                "repo": pa.array(["org/r"] * 2, pa.string()),
                "path": pa.array(
                    ["f/0.py", None if col == "path" else "f/1.py"],
                    pa.string(),
                ),
                "commit": pa.array(["c"] * 2, pa.string()),
                "lang": pa.array(["py"] * 2, pa.string()),
                "content": pa.array(
                    ["def a", None if col == "content" else "def b"],
                    pa.large_string(),
                ),
            }
        )
        with pytest.raises(Exception, match=col):
            build_index(
                ray.data.from_arrow(tbl).repartition(1),
                str(tmp_path / f"idx_{col}"),
                docid_strategy="hash64", block_size=4,
            )


def test_dense_window_rebase_at_uint64_boundary(ray_session, tmp_path):
    """Deterministic pin of two uint64-edge bugs hypothesis found:

    1. The docstore stats pass aggregated max_docid through Ray's Max over
       a uint64 column — the reduce rebuilds values through Python ints as
       int64 and OVERFLOWED at max_docid = 2^64-1 (now order-preserving-
       encoded int64 partials).
    2. Dense-window serving rebased buffer-local ids with
       `docids + np.uint64(lo)`: dense fast paths return int64 ids, and
       int64 + uint64 scalar stays int64 for lo < 2^63 — the absolute
       docid WRAPPED to -2^63 exactly when the window straddles 2^63
       (and collapsed to float64, merging adjacent docids, for
       lo >= 2^63)."""
    import ray.data

    from bm25_oracle import oracle_topk

    ids = [
        3, (1 << 63) - 2, (1 << 63) - 1, 1 << 63, (1 << 63) + 1,
        (1 << 64) - 2, (1 << 64) - 1,
    ]
    texts = ["def def def", "x", "def", "def def", "x", "def", "def x"]
    n = len(ids)
    tbl = pa.table(
        {
            "repo": ["org/r"] * n,
            "path": [f"f/{i}.py" for i in range(n)],
            "commit": ["c"] * n,
            "lang": ["py"] * n,
            "content": pa.array(texts, pa.large_string()),
            "docid": pa.array(np.array(ids, np.uint64), pa.uint64()),
        }
    )
    d = str(tmp_path / "idx")
    stats = build_index(
        ray.data.from_arrow(tbl).repartition(2), d,
        docid_strategy="provided", block_size=1,
    )
    assert int(stats["max_docid"]) == (1 << 64) - 1  # bug 1
    oracle = BruteForceBM25(np.array(ids, np.uint64), texts, BM25Params())
    qb = pa.table({"qid": ["q0"], "question": ["def"]})
    none_banned = np.empty(0, np.uint64)
    # windows: lo < 2^63 with hits at/above 2^63 (the int64-wrap case),
    # lo >= 2^63 (the float64-collapse case), and the top of the space
    windows = [
        ((1 << 63) - 2136, (1 << 63) + 2138),
        (1 << 63, (1 << 63) + 3),
        ((1 << 64) - 5, 1 << 64),
    ]
    for lo_w, hi_w in windows:
        want = oracle_topk(oracle, "def", 5, none_banned, rng=(lo_w, hi_w))
        assert want, (hex(lo_w), hex(hi_w))  # every window holds a hit
        for method in ("taat", "maxscore", "bmw"):
            ex = QueryExecutor(
                d, k=5, method=method, docid_range=(lo_w, hi_w)
            )
            got = [(r["docid"], r["score"]) for r in ex(qb).to_pylist()]
            assert got == want, (method, hex(lo_w), hex(hi_w), got, want)
