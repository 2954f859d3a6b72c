"""SegmentStore posting fetch: each term bucket is read once (one
partition-pruned scan) and every later miss in it is a ``take`` from the
resident Arrow table. Checked here against the per-miss filtered Parquet
scan it replaced (kept below as the reference), for bucket residency
under the default and a starved ``DPR_CACHE_POSTINGS`` budget, and for
ranged / tombstoned stores decoding from resident buckets — every query
result bitwise equal to the brute-force oracle."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pytest

from bm25_oracle import oracle_topk
from dpr_ray import analyzer
from dpr_ray import corpus as corpus_mod
from dpr_ray.config import BM25Params
from dpr_ray.index import segments as seg
from dpr_ray.index.build import build_index
from dpr_ray.index.merge import merge_indexes
from dpr_ray.query.executor import QueryExecutor, SegmentStore
from dpr_ray.query.oracle import BruteForceBM25
from dpr_ray.stages.featurize import docid_from_ext_id

# absent terms: they hash to every bucket at 4 and 16 buckets, 56 of 64
ABSENT = [f"zz_absent_{i}" for i in range(64)]


def _scan_fetch(store: SegmentStore, terms: list[str]) -> dict:
    """Reference: the per-miss fetch before bucket residency — one
    filtered dataset scan (tbucket ∈ … & term ∈ …) per call."""
    buckets = sorted({seg.term_bucket(t, store.num_tbuckets) for t in terms})
    filt = pc.field("tbucket").isin(buckets) & pc.field("term").isin(terms)
    rows_by_term: dict[str, list[dict]] = {}
    for r in store._ds.to_table(filter=filt).to_pylist():
        rows_by_term.setdefault(r["term"], []).append(r)
    out = {}
    for t in terms:
        rows = rows_by_term.get(t)
        if rows is not None:
            rows.sort(key=lambda r: r["slice_id"])
        out[t] = rows
    return out


def _index_terms(index_dir: str) -> list[str]:
    ds = pads.dataset(os.path.join(index_dir, "segments"), partitioning="hive")
    return sorted(set(ds.to_table(columns=["term"])["term"].to_pylist()))


def _assert_same(got: dict, ref: dict, terms: list[str]) -> None:
    assert set(got) == set(terms)
    for t in terms:
        if ref[t] is None:
            assert got[t] is None, t
            continue
        rows = got[t].to_pylist()
        assert rows == ref[t], t
        # same dict keys (tbucket included) in the same order
        assert [list(r) for r in rows] == [list(r) for r in ref[t]], t


def _check_fetch_equivalence(index_dir: str) -> int:
    """Every index term plus absent ones, fetched (a) in one call with
    duplicates, (b) per bucket, several terms at a time with a duplicate
    and an absent term, (c) term by term, twice, so second lookups come
    from the resident bucket. Returns the term count."""
    terms = _index_terms(index_dir)
    probe = terms + ABSENT
    ref = _scan_fetch(SegmentStore(index_dir), probe)
    assert sum(v is not None for v in ref.values()) == len(terms)

    store = SegmentStore(index_dir)
    _assert_same(store.fetch(probe + probe[::7]), ref, probe)
    # the whole probe again: served from the resident buckets
    _assert_same(store.fetch(probe), ref, probe)

    store = SegmentStore(index_dir)
    by_bucket: dict[int, list[str]] = {}
    for t in probe:
        by_bucket.setdefault(seg.term_bucket(t, store.num_tbuckets), []).append(t)
    for ts in by_bucket.values():
        call = ts + ts[:1] + ["zz_absent_x"]
        got = store.fetch(call)
        _assert_same(got, {**ref, "zz_absent_x": None}, list(dict.fromkeys(call)))

    store = SegmentStore(index_dir)
    for _pass in range(2):
        for t in probe:
            _assert_same(store.fetch([t, t]), ref, [t])
    assert store.bucket_reads == len(store._buckets) <= store.num_tbuckets
    return len(terms)


def _slices_per_term(index_dir: str) -> int:
    ds = pads.dataset(os.path.join(index_dir, "segments"), partitioning="hive")
    terms = ds.to_table(columns=["term"])["term"].to_pylist()
    return max((terms.count(t) for t in set(terms)), default=0)


def _files_per_bucket(index_dir: str) -> int:
    seg_dir = os.path.join(index_dir, "segments")
    return max(
        sum(f.endswith(".parquet") for f in os.listdir(os.path.join(seg_dir, d)))
        for d in os.listdir(seg_dir)
    )


def test_fetch_matches_scan_multi_file_buckets(ray_session, tmp_path):
    """Many input blocks + the per-bucket salted write: a bucket holds
    several files, and salted head terms several rows."""
    import ray.data

    tbl = corpus_mod.synth_corpus_table(300, seed=5)
    d = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(tbl).repartition(8), d, docid_strategy="hash64",
        num_tbuckets=4, group_budget=20, sample_mod=1, partition_resume=True,
    )
    assert _files_per_bucket(d) > 1
    assert _check_fetch_equivalence(d) > 100


def test_fetch_matches_scan_multi_slice_terms(ray_session, tmp_path):
    """max_postings_per_slice=8: head terms split into many slices, whose
    order by slice_id must survive the take — also from a copy whose
    files hold every term's slices in reverse order."""
    import shutil

    import pyarrow.parquet as pq
    import ray.data

    tbl = corpus_mod.synth_corpus_table(200, seed=6)
    d = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(tbl).repartition(4), d, docid_strategy="hash64",
        block_size=4, max_postings_per_slice=8,
    )
    assert _slices_per_term(d) > 8
    n_terms = _check_fetch_equivalence(d)
    assert n_terms > 100

    rev = str(tmp_path / "rev")
    shutil.copytree(d, rev)
    for r, _, fs in os.walk(os.path.join(rev, "segments")):
        for f in fs:
            t = pq.read_table(os.path.join(r, f))
            pq.write_table(t.take(np.arange(t.num_rows)[::-1]),
                           os.path.join(r, f))
    assert _check_fetch_equivalence(rev) == n_terms


def test_fetch_matches_scan_merged_and_empty(ray_session, tmp_path):
    """An upsert-merged index with merge-time tombstones; the fully
    deleted merge, whose only segment file is tbucket=0/empty.parquet
    (every other bucket has no files); and a 3-doc index over 64 buckets,
    most of them without files."""
    import ray.data

    base = corpus_mod.synth_corpus_table(60, seed=7)
    upd = base.slice(0, 10)
    upd = upd.set_column(
        upd.schema.get_field_index("content"), "content",
        pa.array([c + " freshrev" for c in upd["content"].to_pylist()],
                 pa.large_string()),
    )
    ext = [f"{r}/{p}" for r, p in zip(base["repo"].to_pylist(),
                                       base["path"].to_pylist())]
    dbase, ddelta, dm, dnone = (str(tmp_path / x) for x in "bdme")
    build_index(ray.data.from_arrow(base).repartition(2), dbase,
                docid_strategy="hash64", block_size=8)
    build_index(ray.data.from_arrow(upd).repartition(1), ddelta,
                docid_strategy="hash64", block_size=8)
    merge_indexes([dbase, ddelta], dm, mode="upsert",
                  delete_ext_ids=ext[40:45], block_size=8)
    assert _check_fetch_equivalence(dm) > 50

    merge_indexes([dbase], dnone, mode="upsert", delete_ext_ids=ext)
    seg_dir = os.path.join(dnone, "segments")
    assert [
        os.path.relpath(os.path.join(r, f), seg_dir)
        for r, _, fs in os.walk(seg_dir) for f in fs
    ] == [os.path.join("tbucket=0", "empty.parquet")]
    assert _check_fetch_equivalence(dnone) == 0

    dsmall = str(tmp_path / "s")
    build_index(ray.data.from_arrow(base.slice(0, 3)).repartition(1), dsmall,
                docid_strategy="hash64", num_tbuckets=64)
    assert len(os.listdir(os.path.join(dsmall, "segments"))) < 64
    assert _check_fetch_equivalence(dsmall) > 0


@pytest.fixture(scope="module")
def serve_index(ray_session, tmp_path_factory):
    import ray.data

    tbl = corpus_mod.synth_corpus_table(200, seed=8)
    d = str(tmp_path_factory.mktemp("serve"))
    build_index(ray.data.from_arrow(tbl).repartition(4), d,
                docid_strategy="hash64", block_size=8)
    ext = [f"{r}/{p}" for r, p in zip(tbl["repo"].to_pylist(),
                                       tbl["path"].to_pylist())]
    oracle = BruteForceBM25(
        [docid_from_ext_id(e) for e in ext], tbl["content"].to_pylist(),
        BM25Params(),
    )
    rng = np.random.default_rng(8)
    vocab = sorted({t for c in tbl["content"].to_pylist()[:40]
                    for t in analyzer.tokenize(c)})
    # serve_distinct-like: one rare id plus 1–3 other index terms
    queries = [
        " ".join([f"rare_tok_{i}"]
                 + list(rng.choice(vocab, int(rng.integers(1, 4)))))
        for i in range(200)
    ]
    return d, oracle, queries


def _serial_loop(ex, oracle, queries, k, after_each=None):
    for i, q in enumerate(queries):
        got = ex(pa.table({"qid": [f"q{i}"], "question": [q]})).to_pylist()
        assert [(r["docid"], r["score"]) for r in got] == oracle_topk(
            oracle, q, k, []
        ), q
        if after_each is not None:
            after_each()


@pytest.mark.parametrize("method", ["taat", "bmw"])
def test_serial_loop_reads_each_bucket_once(serve_index, method):
    d, oracle, queries = serve_index
    ex = QueryExecutor(d, k=10, method=method, result_cache=0)
    _serial_loop(ex, oracle, queries, 10)
    st = ex.store
    # no eviction at the default budget: every scan made a new resident
    # bucket, so no bucket was read twice
    assert 1 < st.bucket_reads == len(st._buckets) <= st.num_tbuckets


@pytest.mark.parametrize("method", ["taat", "bmw"])
def test_serial_loop_starved_budget_one_bucket(serve_index, monkeypatch,
                                               method):
    """DPR_CACHE_POSTINGS=1 degrades to one resident bucket (the one
    just read), never to an error or a wrong result."""
    d, oracle, queries = serve_index
    monkeypatch.setenv("DPR_CACHE_POSTINGS", "1")
    ex = QueryExecutor(d, k=10, method=method, result_cache=0)
    st = ex.store

    def one_resident():
        assert len(st._buckets) <= 1

    _serial_loop(ex, oracle, queries, 10, one_resident)
    assert st.bucket_reads > st.num_tbuckets  # buckets were evicted and re-read


@pytest.fixture(scope="module", params=["provided", "hash64"])
def ranged_index(request, ray_session, tmp_path_factory):
    import ray.data

    n = 150
    tbl = corpus_mod.synth_corpus_table(n, seed=9)
    if request.param == "provided":
        tbl = tbl.append_column(
            "docid", pa.array(np.arange(n, dtype=np.uint64), pa.uint64())
        )
        docids = np.arange(n, dtype=np.uint64)
    else:
        docids = np.array(
            [docid_from_ext_id(f"{r}/{p}") for r, p in
             zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist())],
            np.uint64,
        )
    d = str(tmp_path_factory.mktemp("ranged"))
    build_index(ray.data.from_arrow(tbl).repartition(3), d,
                docid_strategy=request.param, block_size=8)
    oracle = BruteForceBM25(docids, tbl["content"].to_pylist(), BM25Params())
    return d, docids, oracle


@pytest.mark.parametrize("method", ["taat", "maxscore", "bmw"])
def test_ranged_banned_store_from_resident_buckets(ranged_index, method):
    """docid_range windowing and tombstone filtering stay in scored(): a
    ranged, tombstoned store that re-decodes every term from its resident
    bucket tables (per-term caches dropped, no new bucket scan) must equal
    its first pass and the oracle bitwise."""
    d, docids, oracle = ranged_index
    qs = ["def return import", "answer_5 def", "rare_tok_7 class",
          "while struct fn", "café", "zzz_missing def"]
    batch = pa.table({"qid": [f"q{i}" for i in range(len(qs))],
                      "question": qs})
    srt = np.sort(docids)
    banned = srt[::9]
    for rng in [(int(srt[20]), int(srt[110])), (0, int(srt[-1]) + 1)]:
        ex = QueryExecutor(d, k=7, method=method, docid_range=rng,
                           banned_docids=banned, result_cache=0)
        first = ex(batch).to_pylist()
        st = ex.store
        reads = st.bucket_reads
        assert reads == len(st._buckets) > 0
        for c in (st._scored, st._impact, st._posmap):
            c.clear()
        st._scored_total = st._impact_total = st._posmap_total = 0
        second = ex(batch).to_pylist()
        assert st.bucket_reads == reads
        assert second == first, (method, rng)
        got: dict[str, list] = {q: [] for q in qs}
        for r in second:
            got[r["question"]].append((r["docid"], r["score"]))
        for q in qs:
            assert got[q] == oracle_topk(oracle, q, 7, banned, rng), (
                method, rng, q,
            )
