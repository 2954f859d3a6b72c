"""Robustness: wide rows (≥1 MB content — FIXTURES F1 length outliers),
KILT match mode, golden results JSON (F5) vs the brute-force oracle."""

import json

import numpy as np
import pyarrow as pa

from dpr_ray.eval import qa


def test_has_answer_kilt():
    assert qa.has_answer_kilt(["The Cat!"], "a big cat sat down")
    assert qa.has_answer_kilt(["big cat"], "one big, cat")  # punct stripped
    assert not qa.has_answer_kilt(["dog"], "a big cat")
    assert not qa.has_answer_kilt([""], "anything")


def test_wide_rows_build_and_query(ray_session, tmp_path):
    """A 1 MB document flows through featurize → postings → query → doc
    join without splitting errors, and scores exactly per the oracle."""
    import ray.data

    from dpr_ray.config import BM25Params
    from dpr_ray.index.build import build_index
    from dpr_ray.query.executor import search_pipeline
    from dpr_ray.query.oracle import BruteForceBM25
    from dpr_ray.stages.featurize import docid_from_ext_id

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(500)]
    big = " ".join(rng.choice(vocab, size=230_000)) + " needle_xyz"
    assert len(big) >= 1_000_000
    docs = [big, "needle_xyz small doc", "w1 w2 w3 unrelated"]
    tbl = pa.table(
        {
            "repo": ["r/a", "r/b", "r/c"],
            "path": ["big.txt", "small.txt", "other.txt"],
            "commit": ["0" * 40] * 3,
            "lang": ["txt"] * 3,
            "content": pa.array(docs, pa.large_string()),
        }
    )
    idx = str(tmp_path / "idx")
    stats = build_index(ray.data.from_arrow(tbl), idx, docid_strategy="hash64")
    assert stats["N"] == 3 and stats["sum_dl"] > 150_000
    qds = ray.data.from_items([{"qid": "q", "question": "needle_xyz"}])
    res = search_pipeline(qds, idx, k=3, with_docs=True).to_pandas()
    assert len(res) == 2  # both needle docs
    ext = [f"{r}/{p}" for r, p in zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist())]
    oracle = BruteForceBM25([docid_from_ext_id(e) for e in ext], docs, BM25Params())
    expected = oracle.top_k("needle_xyz", 3)
    got = list(zip(res.sort_values("rank")["docid"], res.sort_values("rank")["score"]))
    assert [(int(d), s) for d, s in got] == expected


def test_golden_results_json(ray_session, tmp_path):
    """save_results output must match an oracle-constructed golden file
    byte-for-byte (F5: stringified 6-decimal scores, score-desc ctxs)."""
    import ray.data

    from dpr_ray import corpus as corpus_mod
    from dpr_ray.config import BM25Params
    from dpr_ray.index.build import build_index
    from dpr_ray.pipelines import retrieve_and_evaluate
    from dpr_ray.query.oracle import BruteForceBM25
    from dpr_ray.stages.featurize import docid_from_ext_id

    tbl = corpus_mod.synth_corpus_table(40, seed=29)
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(tbl), idx, docid_strategy="hash64")
    queries = pa.table(
        {
            "qid": pa.array(["g0", "g1"]),
            "question": pa.array(["answer_5 class", "def struct"]),
            "answers": pa.array([["answer_5"], ["zzz"]], pa.list_(pa.string())),
        }
    )
    out_json = str(tmp_path / "results.json")
    retrieve_and_evaluate(queries, idx, k=5, out_json=out_json)

    # golden: construct the same structure from the oracle
    ext = [f"{r}/{p}" for r, p in zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist())]
    docids = [docid_from_ext_id(e) for e in ext]
    by_id = {d: (e, c) for d, e, c in zip(docids, ext, tbl["content"].to_pylist())}
    oracle = BruteForceBM25(docids, tbl["content"].to_pylist(), BM25Params())
    golden = []
    for qid, question, answers in [
        ("g0", "answer_5 class", ["answer_5"]),
        ("g1", "def struct", ["zzz"]),
    ]:
        ctxs = []
        for d, s in oracle.top_k(question, 5):
            e, c = by_id[d]
            ctxs.append(
                {
                    "id": e,
                    "title": e,
                    "text": c,
                    "score": f"{s:.6f}",
                    "has_answer": qa.has_answer_string(answers, c),
                }
            )
        golden.append({"question": question, "answers": answers, "ctxs": ctxs})
    golden.sort(key=lambda r: r["question"])
    assert json.load(open(out_json)) == golden


def test_empty_corpus_build_and_query(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data

    from dpr_ray.index.build import build_index
    from dpr_ray.query.executor import QueryExecutor

    empty = pa.table(
        {
            "repo": pa.array([], pa.string()),
            "path": pa.array([], pa.string()),
            "commit": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
            "content": pa.array([], pa.large_string()),
        }
    )
    idx = str(tmp_path / "empty")
    stats = build_index(ray.data.from_arrow(empty), idx, docid_strategy="hash64")
    assert stats["N"] == 0 and stats["postings"] == 0
    out = QueryExecutor(idx, k=5)(
        pa.table({"qid": ["q"], "question": ["anything at all"]})
    )
    assert out.num_rows == 0


def test_dedup_ids_on_duplicate_ext_ids(ray_session, tmp_path):
    """Same (repo, path) at two commits → dedup_ids keeps exactly one row
    (the greatest (commit, sha)) and the index scores only that version."""
    import pyarrow as pa
    import ray.data

    from dpr_ray.index.build import build_index
    from dpr_ray.query.executor import QueryExecutor

    tbl = pa.table(
        {
            "repo": ["r/x", "r/x", "r/y"],
            "path": ["f.py", "f.py", "g.py"],
            "commit": ["a" * 40, "b" * 40, "c" * 40],
            "lang": ["py"] * 3,
            "content": pa.array(
                ["old version tokone", "new version toktwo", "other tokthree"],
                pa.large_string(),
            ),
        }
    )
    idx = str(tmp_path / "idx")
    stats = build_index(
        ray.data.from_arrow(tbl), idx, docid_strategy="hash64", dedup_ids=True
    )
    assert stats["N"] == 2  # duplicate (repo, path) collapsed
    ex = QueryExecutor(idx, k=5)
    # the kept row is the greater commit ("b"*40) → "toktwo" hits, "tokone" doesn't
    assert ex(pa.table({"qid": ["q"], "question": ["toktwo"]})).num_rows == 1
    assert ex(pa.table({"qid": ["q"], "question": ["tokone"]})).num_rows == 0


def test_duplicate_docids_fail_loudly(ray_session, tmp_path):
    """A provided-id corpus with a colliding docid (or the same ext_id
    ingested twice without dedup_ids=True) would silently double-count
    postings at query time: the docid-sorted DocstoreWriter must catch the
    adjacent duplicate and fail naming the id; a NULL provided docid must
    fail in Featurize naming the column; and the driver-side part-range
    overlap check must catch duplicates the sort split across blocks."""
    import pytest
    import ray.data

    from dpr_ray.index.build import _check_docstore_ranges, build_index

    def corpus(docids):
        n = len(docids)
        return pa.table(
            {
                "docid": pa.array(docids, pa.uint64()),
                "repo": pa.array(["r/x"] * n, pa.string()),
                "path": pa.array([f"f{i}.py" for i in range(n)], pa.string()),
                "commit": pa.array(["c" * 40] * n, pa.string()),
                "lang": pa.array(["py"] * n, pa.string()),
                "content": pa.array(
                    [f"tok{i} shared" for i in range(n)], pa.large_string()
                ),
            }
        )

    with pytest.raises(Exception, match="duplicate docid 7"):
        build_index(
            ray.data.from_arrow(corpus([3, 7, 7, 9])).repartition(1),
            str(tmp_path / "dup"), docid_strategy="provided",
        )
    # same ext_id twice under hash64 → same docid, same loud failure
    tbl = corpus([1, 2])
    tbl = tbl.set_column(
        tbl.schema.get_field_index("path"), "path",
        pa.array(["same.py", "same.py"], pa.string()),
    ).drop_columns(["docid"])
    with pytest.raises(Exception, match="duplicate docid"):
        build_index(
            ray.data.from_arrow(tbl).repartition(1),
            str(tmp_path / "dup2"), docid_strategy="hash64",
        )
    # null provided docid → Featurize names the column
    null_tbl = pa.table(
        {
            "docid": pa.array([1, None], pa.uint64()),
            "repo": pa.array(["r/x"] * 2, pa.string()),
            "path": pa.array(["a.py", "b.py"], pa.string()),
            "commit": pa.array(["c" * 40] * 2, pa.string()),
            "lang": pa.array(["py"] * 2, pa.string()),
            "content": pa.array(["tok a", "tok b"], pa.large_string()),
        }
    )
    with pytest.raises(Exception, match="docid"):
        build_index(
            ray.data.from_arrow(null_tbl).repartition(1),
            str(tmp_path / "nulldoc"), docid_strategy="provided",
        )
    # boundary-straddling duplicate: unit-test the range check directly
    # (the executor rarely splits equal keys across blocks at test scale)
    d = tmp_path / "ranges"
    d.mkdir()
    for lo, hi in [(0, 5), (5, 9)]:  # hi of part 1 == lo of part 2
        (d / f"part-{lo:020d}-{hi:020d}.parquet").touch()
    with pytest.raises(ValueError, match="overlap"):
        _check_docstore_ranges(str(d))
    # distinct strictly-increasing ranges pass
    d2 = tmp_path / "ranges_ok"
    d2.mkdir()
    for lo, hi in [(0, 5), (6, 9)]:
        (d2 / f"part-{lo:020d}-{hi:020d}.parquet").touch()
    _check_docstore_ranges(str(d2))
    # the sub-case range order can't see: two singleton blocks of the SAME
    # duplicated docid write the same filename (the second overwrites the
    # first) — one file on disk for two written blocks. The writer folds a
    # blocks count into its partials; the count mismatch must fail loudly.
    with pytest.raises(ValueError, match="2 part files"):
        _check_docstore_ranges(str(d2), expected_parts=3)
    _check_docstore_ranges(str(d2), expected_parts=2)


def test_corpus_fingerprint_mtime_ns(ray_session, tmp_path):
    """corpus_fingerprint must hash mtime at NANOSECOND granularity: a
    corpus file regenerated with identical byte size within the same
    second used to produce an identical fingerprint, letting resume=True
    silently serve the OLD corpus. A read_parquet_clean corpus (a map
    stage over the read) fingerprints as its files do."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from dpr_ray.index.build import corpus_fingerprint
    from dpr_ray.util import read_parquet_clean

    p = tmp_path / "c.parquet"
    pq.write_table(
        pa.table({"content": pa.array(["def a"], pa.large_string())}), str(p)
    )
    ds = ray.data.read_parquet(str(p))
    fp1 = corpus_fingerprint(ds)
    assert fp1 is not None
    assert corpus_fingerprint(read_parquet_clean(str(p))) == fp1
    st = os.stat(p)
    # +1 ns: same integer second, same size — only ns granularity sees it
    os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
    fp2 = corpus_fingerprint(ds)
    assert fp1 != fp2


def test_corpus_fingerprint_length_framing(monkeypatch):
    """The path entry must be length-framed: a stat-able path 'a' with sig
    '1:2' and a single unstat-able path literally named 'a:1:2' used to
    feed identical bytes to the hash — two distinct corpora, one
    fingerprint, so resume=True could silently serve the wrong one."""
    from dpr_ray.index import build as build_mod
    from dpr_ray.index.build import corpus_fingerprint

    class _FakeDS:
        def __init__(self, files):
            self._files = files

        def input_files(self):
            return self._files

    sigs = {"a": "1:2", "a:1:2": None}
    monkeypatch.setattr(
        build_mod, "_stat_sigs", lambda paths: [sigs[p] for p in paths]
    )
    fp_statable = corpus_fingerprint(_FakeDS(["a"]))
    fp_colliding_name = corpus_fingerprint(_FakeDS(["a:1:2"]))
    assert fp_statable is not None and fp_colliding_name is not None
    assert fp_statable != fp_colliding_name


def test_extreme_provided_docids(ray_session, tmp_path):
    """Provided docids may use the FULL uint64 space (hash64 ids are 63-bit,
    a provided-id corpus isn't): docid 2^64-1 used to overflow the int64
    stats partial at build time, and a full-span docid_range shard has
    hi = 2^64 which overflowed np.uint64 in the scored-decode range mask.
    Build, all three methods, 2-shard range serving, and an upsert merge
    updating the extreme doc must all stay bitwise-exact vs the oracle."""
    import ray.data

    from dpr_ray.config import BM25Params
    from dpr_ray.index.build import build_index
    from dpr_ray.index.merge import merge_indexes
    from dpr_ray.query import scorer
    from dpr_ray.query.executor import QueryExecutor
    from dpr_ray.query.oracle import BruteForceBM25

    ids = np.array([0, 1, (1 << 63) + 5, (1 << 64) - 1], np.uint64)

    def corpus(texts, ids_):
        n = len(texts)
        return pa.table(
            {
                "docid": pa.array(ids_, pa.uint64()),
                "repo": pa.array(["org/r"] * n, pa.string()),
                "path": pa.array([f"f/{i}.py" for i in range(n)], pa.string()),
                "commit": pa.array(["c" * 40] * n, pa.string()),
                "lang": pa.array(["py"] * n, pa.string()),
                "content": pa.array(texts, pa.large_string()),
            }
        )

    texts = [f"def fn{i} return value" for i in range(len(ids))]
    d = str(tmp_path / "idx")
    stats = build_index(
        ray.data.from_arrow(corpus(texts, ids)).repartition(2), d,
        docid_strategy="provided", sample_mod=1, group_budget=2, block_size=2,
    )
    assert stats["max_docid"] == (1 << 64) - 1
    oracle = BruteForceBM25(ids, texts, BM25Params())
    q = "def return value fn1"
    want = oracle.top_k(q, 4)
    qb = pa.table({"qid": ["q"], "question": [q]})
    for method in ("taat", "maxscore", "bmw"):
        got = [
            (r["docid"], r["score"])
            for r in QueryExecutor(d, k=4, method=method)(qb).to_pylist()
        ]
        assert got == want, method
        # 2-shard range serving across the full 2^64 span (hi of the last
        # shard is 2^64 itself)
        cand = []
        for lo, hi in [(0, 1 << 63), (1 << 63, 1 << 64)]:
            ex = QueryExecutor(d, k=4, method=method, docid_range=(lo, hi))
            cand += [(r["docid"], r["score"]) for r in ex(qb).to_pylist()]
        da = np.array([c[0] for c in cand], np.uint64)
        sa = np.array([c[1] for c in cand], np.float64)
        order = np.lexsort((da, -sa))[:4]
        assert [(int(da[i]), float(sa[i])) for i in order] == want, method
        # NARROW shards over the upper half: span < 2^23 flips the executor
        # into dense-accumulator mode, whose buffer-local rebase used to
        # astype(int64) BEFORE subtracting lo — an int64 wrap that raised
        # UFuncTypeError for any lo >= 2^63 (the full-span shards above
        # never take the dense path)
        scores = oracle.score_all(q)
        for lo, hi in [
            (1 << 63, (1 << 63) + 1000),
            ((1 << 64) - 4096, 1 << 64),
            (2, 1002),  # low-id narrow shard for symmetry
        ]:
            exn = QueryExecutor(d, k=4, method=method, docid_range=(lo, hi))
            got_n = [(r["docid"], r["score"]) for r in exn(qb).to_pylist()]
            in_rng = (ids >= np.uint64(lo)) & (ids <= np.uint64(hi - 1))
            sub = scores[in_rng]
            nz = np.flatnonzero(sub > 0.0)
            sub_ids = ids[in_rng]
            order_n = scorer.topk_order(sub[nz], sub_ids[nz], 4)
            want_n = [
                (int(sub_ids[nz][i]), float(sub[nz][i])) for i in order_n
            ]
            assert got_n == want_n, (method, lo, hi)
    # upsert merge updating the extreme doc
    new_texts = ["def fnX updated return"]
    ddelta, dm = str(tmp_path / "delta"), str(tmp_path / "m")
    build_index(
        ray.data.from_arrow(corpus(new_texts, ids[-1:])).repartition(1),
        ddelta, docid_strategy="provided", sample_mod=1, block_size=2,
    )
    merge_indexes([d, ddelta], dm, mode="upsert", block_size=2)
    latest = texts[:-1] + new_texts
    oracle2 = BruteForceBM25(ids, latest, BM25Params())
    want2 = oracle2.top_k("updated fn0", 4)
    qb2 = pa.table({"qid": ["q"], "question": ["updated fn0"]})
    for method in ("taat", "maxscore", "bmw"):
        got = [
            (r["docid"], r["score"])
            for r in QueryExecutor(dm, k=4, method=method)(qb2).to_pylist()
        ]
        assert got == want2, method
    # numpy-TYPED range bounds (the natural product of `docids.max()+1`
    # arithmetic) must behave exactly like python ints: pre-fix the raw
    # tuple was stored after validation, and scored()'s `hi - 1` promoted
    # np.uint64 to float64 (NumPy 1.26), silently rounding bounds near
    # 2^64 to the nearest multiple of 2048 (or overflowing the uint64
    # cast back). The executor now stores the int-cast bounds.
    for method in ("taat", "maxscore", "bmw"):
        for lo, hi in [
            ((1 << 64) - 4001, (1 << 64) - 1),  # hi-1 not float64-exact
            (1 << 63, (1 << 63) + 1000),
            (0, 1 << 64),
        ]:
            ex_i = QueryExecutor(dm, k=4, method=method,
                                 docid_range=(lo, hi))
            ex_np = QueryExecutor(
                dm, k=4, method=method,
                docid_range=(np.uint64(lo), np.uint64(hi))
                if hi < (1 << 64) else (np.uint64(lo), hi),
            )
            assert ex_i(qb2).to_pylist() == ex_np(qb2).to_pylist(), (
                method, lo, hi,
            )


def test_dedup_ids_refuses_distinct_doc_collision(ray_session, tmp_path):
    """dedup_ids collapses duplicates of the SAME document; two DISTINCT
    ext_ids sharing one docid are a hash collision (or colliding provided
    ids) between different documents — collapsing would silently drop a
    real document, so the dedup group must fail loudly instead."""
    import pytest
    import ray.data

    from dpr_ray.index.build import build_index

    tbl = pa.table(
        {
            "docid": pa.array([7, 7, 9], pa.uint64()),
            "repo": ["r/a", "r/b", "r/c"],
            "path": ["f1.py", "f2.py", "f3.py"],
            "commit": ["0" * 40, "1" * 40, "2" * 40],
            "lang": ["py"] * 3,
            "content": pa.array(
                ["def alpha", "def beta", "def gamma"], pa.large_string()
            ),
        }
    )
    with pytest.raises(Exception, match="DISTINCT documents"):
        build_index(
            ray.data.from_arrow(tbl).repartition(1),
            str(tmp_path / "idx"), docid_strategy="provided", dedup_ids=True,
        )


def test_stat_sig_uri_paths(tmp_path):
    """corpus_fingerprint's per-file stat must also see URI paths (s3://,
    file://, ...) via pyarrow.fs — os.stat alone silently degraded remote
    corpora to path-list identity, letting resume serve a corpus
    regenerated in place. file:// is the locally-testable proxy."""
    import os

    from dpr_ray.index.build import _stat_sig

    p = tmp_path / "x.bin"
    p.write_bytes(b"abc")
    st = os.stat(p)
    assert _stat_sig(str(p)) == f"{st.st_size}:{st.st_mtime_ns}"
    uri_sig = _stat_sig("file://" + str(p))
    assert uri_sig is not None and uri_sig.startswith("3:")
    assert _stat_sig("file://" + str(tmp_path / "missing.bin")) is None


def test_stat_sigs_batched_matches_per_path(tmp_path):
    """_stat_sigs batches remote (URI) paths through ONE filesystem +
    get_file_info list call — per-path from_uri added up to 2^16
    sequential filesystem constructions and metadata RPCs of driver
    latency at every build start on an object-store corpus. The batched
    result must equal the per-path route exactly, including missing
    files (None) and mixed local/URI inputs."""
    from dpr_ray.index.build import _stat_sig, _stat_sigs

    local, uris = [], []
    for i in range(5):
        p = tmp_path / f"f{i}.bin"
        p.write_bytes(b"x" * (i + 1))
        local.append(str(p))
        uris.append("file://" + str(p))
    mixed = (
        local[:2]
        + uris[2:]
        + ["file://" + str(tmp_path / "missing.bin")]
        + [str(tmp_path / "also_missing.bin") ]
    )
    got = _stat_sigs(mixed)
    assert got == [_stat_sig(p) for p in mixed]
    assert got[-1] is None and got[-2] is None
    assert all(s is not None for s in got[:-2])


def test_index_cache_key_tracks_input_fingerprint(ray_session, tmp_path):
    """ensure_index's /tmp cache key folds in the documents.parquet
    (size, mtime_ns) fingerprint: keyed on path alone, a regenerated
    input at the same path silently served the OLD corpus's index."""
    import shutil
    import time as _time

    import pyarrow as pa
    import pyarrow.parquet as pq

    from dpr_ray import entrypoints as ep

    sf = tmp_path / "sf"
    sf.mkdir()
    p = str(sf / "documents.parquet")
    src = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    pq.write_table(src.slice(0, 20), p)
    d1 = ep.ensure_index(str(sf))
    n1 = seg_read_stats(d1)["N"]
    assert n1 == 20
    _time.sleep(0.01)  # ensure a distinct mtime_ns
    pq.write_table(src.slice(0, 35), p)  # regenerated in place
    d2 = ep.ensure_index(str(sf))
    assert d2 != d1, "cache key ignored the changed input file"
    assert seg_read_stats(d2)["N"] == 35
    for d in (d1, d2):
        shutil.rmtree(d, ignore_errors=True)


def test_postings_dump_ids_exact_or_refused(ray_session, tmp_path):
    """q_postings decodes a provided-id index at docid 2^63-1 exactly and
    refuses 2^63 (an int64 docid column cannot hold it) instead of
    wrapping it to a negative docid."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from dpr_ray import entrypoints as ep

    top = 2**63 - 1
    for big, sub in ((top, "ok"), (2**63, "over")):
        sf = tmp_path / sub
        sf.mkdir()
        pq.write_table(pa.table({
            "doc_id": pa.array([7, big], pa.uint64()),
            "text": ["alpha beta", "beta gamma"],
            "lang": ["en", "en"],
            "source": ["s", "s"],
        }), str(sf / "documents.parquet"))
        idx = ep.ensure_index(str(sf))
        try:
            if big == top:
                got = ep.q_postings(str(sf)).to_pandas()
                assert sorted(zip(got["term"], got["docid"], got["tf"])) == [
                    ("alpha", 7, 1), ("beta", 7, 1), ("beta", top, 1),
                    ("gamma", top, 1),
                ]
            else:
                with pytest.raises(Exception, match="outside int64"):
                    ep.q_postings(str(sf)).materialize()
        finally:
            shutil.rmtree(idx, ignore_errors=True)


def seg_read_stats(index_dir):
    from dpr_ray.index.segments import read_stats

    return read_stats(index_dir)


def test_chunk_docid_packing_guard(ray_session, tmp_path):
    """A document with more than 64 chunks must fail LOUDLY: the
    parent*64+seq packing (mirrored by the chunked SQL oracle) would
    otherwise collide its chunk ids into the next parent's docid space
    (duplicate provided docids, wrong parent attribution)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest as _pytest

    from dpr_ray import entrypoints as ep

    sf = tmp_path / "sf"
    sf.mkdir()
    long_text = " ".join(f"w{i}" for i in range(65 * ep.CHUNK_WORDS))
    pq.write_table(
        pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array([long_text], pa.string())}),
        str(sf / "documents.parquet"),
    )
    with _pytest.raises(Exception, match="64"):
        ep._chunk_corpus_ds(str(sf)).count()


def test_registry_create_errors_are_named():
    import pytest as _pytest

    from dpr_ray import registry

    with _pytest.raises(KeyError, match="no 'name' key"):
        registry.create("analyzer", {"k1": 0.9})
