"""search_pipeline's per-process SegmentStore: a worker keeps one store
per index identity and docid range across tasks and calls. Every test
here fails on a memo that keys on less than that identity, or that keeps
a store its task left half-scored."""

import shutil
import sys

import numpy as np
import pyarrow as pa
import pytest

from dpr_ray import corpus as corpus_mod
from dpr_ray.config import BM25Params
from dpr_ray.index.build import build_index
from dpr_ray.query import executor as qe
from dpr_ray.query.executor import search_pipeline
from dpr_ray.query.oracle import BruteForceBM25

N_DOCS = 160
K = 6
# 16 queries: four blocks at 4 CPUs, so every worker serves each call
QUERIES = [
    "def return", "rare_tok_3 def", "answer_5 def return", "import class",
    "struct impl fn", "rare_tok_17 rare_tok_40", "answer_2", "return",
    "def def import", "fn answer_11", "class rare_tok_90 struct", "impl",
    "café def", "answer_7 import return", "rare_tok_150 fn", "struct",
]


def _build(tbl: pa.Table, index_dir: str, strategy: str) -> None:
    import ray.data

    build_index(
        ray.data.from_arrow(tbl).repartition(4), index_dir,
        docid_strategy=strategy, group_budget=40, sample_mod=2,
        block_size=16,
    )


def _dense_corpus(seed: int) -> pa.Table:
    tbl = corpus_mod.synth_corpus_table(N_DOCS, seed=seed)
    return tbl.append_column(
        "docid", pa.array(np.arange(N_DOCS, dtype=np.uint64), pa.uint64())
    )


def _oracle(tbl: pa.Table) -> BruteForceBM25:
    return BruteForceBM25(
        list(range(N_DOCS)), tbl["content"].to_pylist(), BM25Params()
    )


def _queries() -> pa.Table:
    return pa.table({
        "qid": [f"q{i:02d}" for i in range(len(QUERIES))],
        "question": QUERIES,
    })


def _rows(tbl) -> list:
    """(qid, rank, docid, score) rows in (qid, rank) order."""
    if not isinstance(tbl, pa.Table):
        tbl = pa.Table.from_pylist(tbl)
    return sorted(zip(*(tbl[c].to_pylist()
                        for c in ("qid", "rank", "docid", "score"))))


def _serve(index_dir: str, **kw) -> list:
    import ray.data

    return _rows(search_pipeline(
        ray.data.from_arrow(_queries()), index_dir, k=K, **kw
    ).take_all())


def _in_process(index_dir: str, **kw) -> list:
    return _rows(qe.QueryExecutor(index_dir, k=K, **kw)(_queries()))


def _oracle_rows(oracle: BruteForceBM25) -> list:
    tbl = _queries()
    return sorted(
        (qid, rank, d, s)
        for qid, q in zip(tbl["qid"].to_pylist(), QUERIES)
        for rank, (d, s) in enumerate(oracle.top_k(q, K), start=1)
    )


@pytest.fixture(scope="module")
def dense(ray_session, tmp_path_factory):
    tbl = _dense_corpus(3)
    index_dir = str(tmp_path_factory.mktemp("shared_dense"))
    _build(tbl, index_dir, "provided")
    return index_dir, _oracle(tbl)


@pytest.fixture(scope="module")
def sparse(ray_session, tmp_path_factory):
    index_dir = str(tmp_path_factory.mktemp("shared_sparse"))
    _build(corpus_mod.synth_corpus_table(N_DOCS, seed=3), index_dir,
           "hash64")
    return index_dir


@pytest.fixture
def fresh_memo(monkeypatch):
    """This process's store memo, emptied for the test and restored
    after it."""
    monkeypatch.delitem(sys.modules, qe._STORE_MEMO, raising=False)
    return qe._store_memo()


def test_rebuild_at_same_path_serves_new_index(ray_session, tmp_path):
    """An index rebuilt from another corpus at the same path between two
    calls in one session: the second call returns the new oracle's
    rows, not the first index's."""
    index_dir = str(tmp_path / "idx")
    first, second = _dense_corpus(3), _dense_corpus(11)
    _build(first, index_dir, "provided")
    assert _serve(index_dir, method="taat") == _oracle_rows(_oracle(first))
    shutil.rmtree(index_dir)
    _build(second, index_dir, "provided")
    want = _oracle_rows(_oracle(second))
    assert want != _oracle_rows(_oracle(first))
    assert _serve(index_dir, method="taat") == want


@pytest.mark.parametrize("method", ["taat", "maxscore", "bmw"])
def test_banned_change_between_calls(dense, method):
    """A banned_docids change between calls on one index is honored:
    each call equals an in-process executor with that call's bans."""
    index_dir, oracle = dense
    top = [d for q in ("def return", "answer_5 def return", "struct")
           for d, _ in oracle.top_k(q, 2)]
    for banned in (top[:3], top[3:], None, top):
        got = _serve(index_dir, method=method, banned_docids=banned)
        assert got == _in_process(index_dir, method=method,
                                  banned_docids=banned), banned
    assert _serve(index_dir, method=method) == _oracle_rows(oracle)


@pytest.mark.parametrize("method", ["taat", "bmw"])
def test_sharded_then_unsharded_bitwise_equal(dense, sparse, method):
    """A doc_shards=2 call followed by an unsharded one on the same index
    gives bitwise-equal rows: shard stores are kept under their own
    docid ranges and never serve the unsharded call."""
    for index_dir in (dense[0], sparse):
        sharded = _serve(index_dir, method=method, doc_shards=2)
        whole = _serve(index_dir, method=method)
        assert sharded == whole == _in_process(index_dir, method=method)


def test_raising_task_evicts_its_store(dense, fresh_memo, monkeypatch):
    """A serving task that raises after scoring into the dense
    accumulator evicts its store (the buffer it leaves is half-scored),
    and the next call on the same process equals the oracle."""
    index_dir, oracle = dense
    task = qe.SharedStoreQueryExecutor(
        index_dir, K, "taat", qe._index_identity(index_dir, None)
    )
    assert _rows(task(_queries())) == _oracle_rows(oracle)
    store = fresh_memo.stores[None]

    def fail(*a, **kw):
        raise RuntimeError("extraction failed")

    monkeypatch.setattr(qe, "_dense_topk_extract", fail)
    with pytest.raises(RuntimeError, match="extraction failed"):
        task(_queries())
    assert store._dense_buf.any()  # what a kept store would carry on
    assert fresh_memo.stores == {}
    monkeypatch.undo()
    assert _rows(task(_queries())) == _oracle_rows(oracle)
    assert fresh_memo.stores[None] is not store


def test_in_process_executors_do_not_share_a_store(dense, fresh_memo):
    index_dir, _ = dense
    qe.SharedStoreQueryExecutor(
        index_dir, K, "taat", qe._index_identity(index_dir, None)
    )(_queries())
    a, b = qe.QueryExecutor(index_dir), qe.QueryExecutor(index_dir)
    assert a.store is not b.store
    assert fresh_memo.stores[None] not in (a.store, b.store)


def test_task_keeps_one_identity(dense, sparse, fresh_memo):
    """A worker keeps one identity's stores, one per docid range, and
    drops them all when a task brings another index."""
    index_dir = dense[0]
    ident = qe._index_identity(index_dir, None)
    for rng in (None, (0, 80), (80, 160)):
        qe.SharedStoreQueryExecutor(
            index_dir, K, "taat", ident, docid_range=rng
        )(_queries())
    assert set(fresh_memo.stores) == {None, (0, 80), (80, 160)}
    store = fresh_memo.stores[None]
    qe.SharedStoreQueryExecutor(index_dir, K, "taat", ident)(_queries())
    assert fresh_memo.stores[None] is store  # reused, not rebuilt
    qe.SharedStoreQueryExecutor(
        sparse, K, "taat", qe._index_identity(sparse, None)
    )(_queries())
    assert set(fresh_memo.stores) == {None}
    assert fresh_memo.stores[None] is not store


@pytest.mark.parametrize("method", ["taat", "maxscore", "bmw"])
def test_consecutive_calls_equal_in_process(dense, sparse, method):
    """Two consecutive calls, the second on warm worker stores, return
    rows bitwise equal to a fresh in-process executor's."""
    for index_dir in (dense[0], sparse):
        want = _in_process(index_dir, method=method)
        assert _serve(index_dir, method=method) == want
        assert _serve(index_dir, method=method) == want
