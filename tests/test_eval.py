"""Eval surface: has_answer semantics, top_k_hits metric conformance
(FIXTURES.md F8), sources, end-to-end retrieve_and_evaluate."""

import json

import pyarrow as pa
import pytest

from dpr_ray.eval import qa


def test_normalize_answer_reference_order():
    # lower → strip punct → articles → squeeze (qa_validation.py:218-232)
    assert qa.normalize_answer("The  Cat!") == "cat"
    assert qa.normalize_answer("a.b") == "ab"  # punct gone BEFORE article pass
    assert qa.normalize_answer("An apple") == "apple"
    # the punctuation strip equals the reference's per-char filter
    import random
    import string

    import regex

    rng = random.Random(3)
    for _ in range(2000):
        s = "".join(rng.choices(string.printable + "éß’“", k=rng.randint(0, 20)))
        want = "".join(ch for ch in s.lower() if ch not in string.punctuation)
        want = " ".join(regex.sub(r"\b(a|an|the)\b", " ", want).split())
        assert qa.normalize_answer(s) == want, s


def test_exact_match():
    assert qa.exact_match_score("The Cat", "cat!")
    assert not qa.exact_match_score("a cat", "a dog")


def test_has_answer_string_token_subsequence():
    assert qa.has_answer_string(["big cat"], "one big cat sat")
    assert not qa.has_answer_string(["big sat"], "one big cat sat")
    # uncased + NFD
    assert qa.has_answer_string(["CAFÉ"], "best café here")
    # punctuation tokens must align
    assert qa.has_answer_string(["it's"], "so it's done")
    assert not qa.has_answer_string([""], "anything")


def test_has_answer_regex():
    assert qa.has_answer_regex([r"ca[tf]é?"], "the café")
    assert not qa.has_answer_regex([r"^xyz$"], "abc")
    assert not qa.has_answer_regex([r"(unclosed"], "anything (unclosed here")


def test_top_k_hits_vectors(ray_session):
    """F8: hand-built hit matrices with known cumulative outputs."""
    import ray.data

    rows = []
    # q0: first hit at rank 2; q1: no hits; q2: hit at rank 1 (also rank 3)
    hits = {"q0": [False, True, False], "q1": [False] * 3, "q2": [True, False, True]}
    for qid, flags in hits.items():
        for r, h in enumerate(flags, start=1):
            rows.append({"qid": qid, "rank": r, "has_answer": h})
    ds = ray.data.from_items(rows)
    m = qa.top_k_hits(ds, n_queries=3, k=3)
    assert m["top_k_hits"] == [1, 2, 2]
    assert m["top_k_accuracy"] == [1 / 3, 2 / 3, 2 / 3]


def test_sources_roundtrip(tmp_path):
    from dpr_ray.sources import qa_sources as src

    csv_p = tmp_path / "qa.tsv"
    csv_p.write_text('who is x\t["a", "b c"]\nwhat’s y\t["z"]\n')
    t = src.read_qa_csv(str(csv_p))
    assert t.num_rows == 2
    assert t["answers"][0].as_py() == ["a", "b c"]
    assert t["question"][1].as_py() == "what's y"  # normalize_question

    jl = tmp_path / "qa.jsonl"
    jl.write_text(
        json.dumps({"id": "7", "question": "q1", "answers": ["x"]})
        + "\n"
        + json.dumps({"question": "q2", "answers": []})
        + "\n"
    )
    t2 = src.read_qa_jsonl(str(jl))
    assert t2["qid"].to_pylist() == ["7", "q1"]

    kl = tmp_path / "kilt.jsonl"
    kl.write_text(
        json.dumps({"id": "k1", "input": "kq", "output": [{"answer": "a1"}, {"provenance": []}]})
        + "\n"
    )
    t3 = src.read_kilt_jsonl(str(kl))
    assert t3["answers"][0].as_py() == ["a1"]

    ctx = tmp_path / "ctx.tsv"
    ctx.write_text('id\ttext\ttitle\n1\t"hello world"\tT1\n2\tplain\tT2\n')
    c = src.read_ctx_tsv(str(ctx), id_prefix="wiki:")
    assert c.num_rows == 2
    assert c["content"][0].as_py() == "hello world"  # quotes stripped
    assert c["repo"][0].as_py() == "wiki"


@pytest.mark.parametrize("match", ["string", "regex"])
def test_retrieve_and_evaluate_end_to_end(ray_session, tmp_path, match):
    import ray.data

    from dpr_ray import corpus as corpus_mod
    from dpr_ray.index.build import build_index
    from dpr_ray.pipelines import retrieve_and_evaluate

    tbl = corpus_mod.synth_corpus_table(90, seed=5)
    index_dir = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(tbl).repartition(3), index_dir, docid_strategy="hash64"
    )
    # planted: docs with i % 3 == 0 contain "answer_{i%17}"
    queries = pa.table(
        {
            "qid": pa.array(["q0", "q1"]),
            "question": pa.array(["answer_0", "no_such_term_xq"]),
            "answers": pa.array(
                [["answer_0"], ["nothing matches this"]], pa.list_(pa.string())
            ),
        }
    )
    out_json = str(tmp_path / "results.json")
    res, metrics = retrieve_and_evaluate(
        queries, index_dir, k=10, match=match, out_json=out_json
    )
    assert metrics["n_queries"] == 2
    # q0's planted answer must be found at rank 1 (its docs contain the term)
    assert metrics["top_k_hits"][0] >= 1
    data = json.load(open(out_json))
    # q1 may retrieve nothing: a question without result rows has no entry
    assert len(data) == 1 or len(data) == 2
    q0 = [d for d in data if d["question"] == "answer_0"][0]
    assert q0["ctxs"][0]["has_answer"] is True
    scores = [float(c["score"]) for c in q0["ctxs"]]
    assert scores == sorted(scores, reverse=True)


# ------------------------------------------------ per-batch distinct match --

PER_ROW = {
    "string": qa.has_answer_string,
    "regex": qa.has_answer_regex,
    "kilt": qa.has_answer_kilt,
}
SHARED = "the big cat sat on the café mat"
OTHER = "a dog barked at the CAT near the door"
# answers per mode: a regex-only pattern, a bad pattern and answers that
# tokenize (or normalize) to nothing ride along in every mode
MATCH_ANSWERS = {
    "qa": ["big cat", r"ca[tf]é"],
    "qb": ["dog", "(unclosed"],
    "qc": ["CAFÉ mat"],
    "qd": ["", "   "],
    "qe": ["door"],
}


def _match_batches():
    """Batches whose texts repeat under several qids; qe's rows carry
    different texts; one row has a null content; one batch has no rows;
    one content column comes in two chunks."""
    rows = [
        ("qa", SHARED), ("qb", SHARED), ("qc", SHARED), ("qd", SHARED),
        ("qa", OTHER), ("qb", OTHER), ("qe", SHARED), ("qe", OTHER),
        ("qe", None), ("qzz", OTHER), ("qa", SHARED),
    ]

    def table(rs):
        return pa.table({
            "qid": pa.array([q for q, _ in rs], pa.string()),
            "content": pa.array([t for _, t in rs], pa.large_string()),
        })

    return [
        table(rows),
        table([]),
        pa.concat_tables([table(rows[:5]), table(rows[5:])]),
    ]


@pytest.mark.parametrize("match", ["string", "regex", "kilt"])
def test_attach_has_answer_matches_per_row_loop(ray_session, match):
    """The per-batch distinct-text match gives the flags of a per-row
    has_answer_* loop over the same rows."""
    import ray

    attach = qa.AttachHasAnswer(ray.put(MATCH_ANSWERS), match=match)
    for batch in _match_batches():
        got = attach(batch)
        assert got.schema.field("has_answer").type == pa.bool_()
        want = [
            PER_ROW[match](MATCH_ANSWERS.get(q, []), t)
            for q, t in zip(batch["qid"].to_pylist(), batch["content"].to_pylist())
        ]
        assert got["has_answer"].to_pylist() == want
        assert got.drop(["has_answer"]).equals(batch)
    flags = attach(_match_batches()[0])["has_answer"].to_pylist()
    # a null text matches nothing in every mode
    assert flags[8] is False
    # answers that tokenize to nothing never match in string mode; the
    # empty regex pattern and KILT's normalized-away "   " match anything
    assert flags[3] is (match != "string")
    # repeated texts still match per qid: qa hits SHARED, qb does not
    assert flags[0] is True and flags[1] is False and flags[10] is True


@pytest.mark.parametrize("match", ["string", "regex"])
@pytest.mark.parametrize("prepend_title", [True, False])
def test_attach_has_answer_from_meta_matches_per_row_loop(
    ray_session, match, prepend_title
):
    import ray

    from dpr_ray.eval.meta import AttachHasAnswerFromMeta, attach_meta

    titles = ["Big", "Big", "Door", None, "", "Big", "Door"]
    texts = [SHARED, SHARED, OTHER, OTHER, SHARED, OTHER, OTHER]
    qids = ["qa", "qb", "qe", "qe", "qd", "qa", "qzz"]
    for n in (len(qids), 0):
        batch = attach_meta(pa.table({
            "qid": pa.array(qids[:n], pa.string()),
            "title": pa.array(titles[:n], pa.string()),
            "content": pa.array(texts[:n], pa.string()),
        }))
        attach = AttachHasAnswerFromMeta(
            ray.put(MATCH_ANSWERS), match=match, prepend_title=prepend_title
        )
        want = [
            PER_ROW[match](
                MATCH_ANSWERS.get(q, []),
                f"{ti} . {te}" if prepend_title and ti else te,
            )
            for q, ti, te in zip(qids[:n], titles[:n], texts[:n])
        ]
        assert attach(batch)["has_answer"].to_pylist() == want



# ---------------------------------------------- string-mode pre-test fuzz --

# Σ/ς/σ and the other characters whose case mapping is not one code point
# to one (İ, ß/ẞ, ﬁ, the Kelvin sign, ǅ), combining marks, CJK, apostrophes
# and punctuation
_FUZZ_ALPHABET = (
    ["Σ", "ς", "σ", "Ο", "Δ", "ο", "δ", "\u0301", "\u0308", "\u0345",
     "İ", "i", "I", "ß", "ẞ", "ss", "ﬁ", "fi", "K", "k", "\u212a", "ǅ", "ǆ",
     "Ǆ", "中", "文", "'", "’", ".", "-", "!", "é", "e", "a", "A"]
    + [" "] * 6
)


def _fuzz_text(rng, n):
    return "".join(rng.choices(_FUZZ_ALPHABET, k=n))


def _fuzz_answer(rng, texts):
    # half the answers are slices of a text (so that many rows match), with
    # a case change sometimes; the rest are drawn from the alphabet
    if texts and rng.random() < 0.5:
        t = rng.choice(texts)
        i = rng.randrange(len(t) + 1)
        a = t[i:i + rng.randint(0, 8)]
        return a.upper() if rng.random() < 0.3 else a
    return _fuzz_text(rng, rng.randint(0, 6))


def test_match_batch_string_pretest_equals_per_row():
    """Seeded fuzz: the folded-substring pre-test never drops a row that
    has_answer_string matches, on texts and answers built from characters
    whose lowercase depends on context or is not one code point."""
    import random

    rng = random.Random(18)
    rows = hits = 0
    for _ in range(600):
        texts = [_fuzz_text(rng, rng.randint(0, 24)) for _ in range(rng.randint(1, 6))]
        answers = {
            f"q{j}": [_fuzz_answer(rng, texts) for _ in range(rng.randint(0, 3))]
            for j in range(rng.randint(1, 4))
        }
        qids = [rng.choice(list(answers) + ["q_none"]) for _ in range(rng.randint(0, 40))]
        codes = [None if rng.random() < 0.05 else rng.randrange(len(texts)) for _ in qids]
        got = qa.match_batch("string", answers, qids, codes, texts).to_pylist()
        want = [c is not None and qa.has_answer_string(answers.get(q, []), texts[c])
                for q, c in zip(qids, codes)]
        assert got == want, (answers, qids, codes, texts)
        rows += len(want)
        hits += sum(want)
    # the fuzz exercises both outcomes
    assert rows > 5000 and 0.05 < hits / rows < 0.95


def test_match_batch_string_pretest_from_meta_equals_per_row(ray_session):
    import random

    import ray

    from dpr_ray.eval.meta import AttachHasAnswerFromMeta, attach_meta

    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(0, 30)
        pool = [_fuzz_text(rng, rng.randint(1, 20)) for _ in range(4)]
        texts = [rng.choice(pool) for _ in range(n)]
        titles = [rng.choice([None, "", "Σ", "ΟΔΟΣ", _fuzz_text(rng, 4)]) for _ in range(n)]
        answers = {f"q{j}": [_fuzz_answer(rng, pool) for _ in range(2)] for j in range(3)}
        qids = [rng.choice(list(answers)) for _ in range(n)]
        batch = attach_meta(pa.table({
            "qid": pa.array(qids, pa.string()),
            "title": pa.array(titles, pa.string()),
            "content": pa.array(texts, pa.string()),
        }))
        for prepend in (True, False):
            attach = AttachHasAnswerFromMeta(ray.put(answers), match="string",
                                             prepend_title=prepend)
            want = [
                qa.has_answer_string(answers[q], f"{ti} . {te}" if prepend and ti else te)
                for q, ti, te in zip(qids, titles, texts)
            ]
            assert attach(batch)["has_answer"].to_pylist() == want


def test_match_batch_string_final_sigma():
    """"ΟΔΟΣ'A" tokenizes to οδος (the token ends the word: final ς) but
    lowercases whole to οδοσ'a (an apostrophe and a letter follow the Σ):
    a plain lowercase-substring pre-test would drop this match."""
    from dpr_ray import analyzer

    text, answer = "ΟΔΟΣ'A", "οδος"
    assert analyzer.tokenize(text)[0] == "οδος" and "οδος" not in text.lower()
    assert not all(t in text.lower() for t in analyzer.tokenize(answer))
    assert qa.has_answer_string([answer], text)
    assert qa.match_batch("string", {"q": [answer]}, ["q"], [0], [text]).to_pylist() == [True]


# ------------------------------------------------ save_results byte identity --

_RESULT_SCHEMA = pa.schema([
    ("qid", pa.string()), ("question", pa.string()), ("rank", pa.int64()),
    ("docid", pa.int64()), ("score", pa.float64()), ("ext_id", pa.string()),
    ("title", pa.string()), ("content", pa.string()), ("has_answer", pa.bool_()),
])


def _result_block(rows, schema=_RESULT_SCHEMA):
    cols = list(zip(*rows)) if rows else [[] for _ in schema]
    return pa.table([pa.array(list(c), f.type) for c, f in zip(cols, schema)],
                    schema=schema)


def _assert_save_results_identical(tmp_path, blocks, answers):
    import ray
    import ray.data
    from results_reference import ref_save_results

    ds = ray.data.from_arrow(blocks).materialize()
    assert ds.num_blocks() == len(blocks)
    ref = ray.put(answers)
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    assert qa.save_results(ds, str(got), ref) == ref_save_results(ds, str(want), ref)
    assert got.read_bytes() == want.read_bytes()
    return json.loads(got.read_bytes())


_ODD_TEXT = 'naïve "quoted" \\ back\\slash \x00\x01\x1f\t\n tab\u2028line\u2029 😀 中文 ΟΔΟΣ'


def test_save_results_bytes_match_reference_writer(ray_session, tmp_path):
    """The column encoder writes the bytes of the dict-fold + json.dump
    writer on escapes, null titles, equal and out-of-order ranks, a qid
    spanning two blocks, qids sharing one question, a question with no
    rows and an empty answers list."""
    b1 = _result_block([
        ("q2", "shared ?", 3, 7, 1.25, "e7", None, _ODD_TEXT, True),
        ("q1", _ODD_TEXT, 2, 8, 2.0000005, "é/8", "T\"8", "plain", False),
        ("q2", "shared ?", 1, 9, 3.5, "e9", "", _ODD_TEXT, False),
        ("q3", "shared ?", 1, 9, 3.5, "e9", "", _ODD_TEXT, None),
        ("q1", _ODD_TEXT, 2, 10, 2.0, "e10", "t", "other", True),
    ])
    b2 = _result_block([
        ("q2", "shared ?", 2, 11, -0.0, "e11", "\u2028", "x", False),
        ("q1", _ODD_TEXT, 1, 12, 1e-7, "e12", None, "plain", True),
        ("q0", "alone", 1, 7, 123456.789, "e7", None, _ODD_TEXT, False),
    ])
    answers = {
        "q1": ["ans", 'with "quote"', "\u2028", "中"],
        "q2": [],
        "q3": ["x"],
        "q_no_rows": ["never written"],
    }
    data = _assert_save_results_identical(tmp_path, [b1, b2], answers)
    assert [e["question"] for e in data] == ["alone", _ODD_TEXT, "shared ?", "shared ?"]
    assert [c["id"] for c in data[1]["ctxs"]] == ["e12", "é/8", "e10"]
    assert [c["id"] for c in data[2]["ctxs"]] == ["e9", "e11", "e7"]
    # q0 has no answers entry at all
    assert data[0]["answers"] == [] and data[2]["answers"] == []
    # one block, the qid's rows in one block, and every row in the first
    _assert_save_results_identical(tmp_path, [pa.concat_tables([b1, b2])], answers)
    _assert_save_results_identical(tmp_path, [b2, b1], answers)


def test_save_results_bytes_int_ext_id_and_empty(ray_session, tmp_path):
    schema = _RESULT_SCHEMA.set(
        _RESULT_SCHEMA.get_field_index("ext_id"), pa.field("ext_id", pa.int64())
    )
    rows = [
        ("q1", "int ids", 2, 1, 0.5, 2**62, "t", "x", False),
        ("q1", "int ids", 1, 2, 0.75, -3, None, "y", True),
        ("q2", "null id", 1, 3, 0.25, None, "t", "z", True),
    ]
    data = _assert_save_results_identical(
        tmp_path, [_result_block(rows, schema)], {"q1": ["y"]}
    )
    assert [c["id"] for c in data[0]["ctxs"]] == [-3, 2**62]
    assert data[1]["ctxs"][0]["id"] is None
    # an empty result is "[]"
    assert _assert_save_results_identical(tmp_path, [_result_block([])], {"q1": ["y"]}) == []
    assert (tmp_path / "got.json").read_bytes() == b"[]"


def test_top_k_hits_qid_split_across_blocks(ray_session):
    """One qid's rows span two blocks with its best hit in the second: the
    per-block partials must be min-combined on the driver. Hits past k
    and zero-hit qids count nothing."""
    import ray.data

    rows = [
        # block 1
        {"qid": "qs", "rank": 1, "has_answer": False},
        {"qid": "qs", "rank": 3, "has_answer": True},
        {"qid": "q1", "rank": 1, "has_answer": True},
        {"qid": "qfar", "rank": 1, "has_answer": False},
        # block 2
        {"qid": "qs", "rank": 2, "has_answer": True},
        {"qid": "qfar", "rank": 5, "has_answer": True},
        {"qid": "qnone", "rank": 1, "has_answer": False},
        {"qid": "qnone", "rank": 2, "has_answer": False},
    ]
    ds = ray.data.from_items(rows, override_num_blocks=2).materialize()
    blocks = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert [b.num_rows for b in blocks] == [4, 4]
    assert {"qid": "qs", "rank": 2, "has_answer": True} in blocks[1].to_pylist()
    m = qa.top_k_hits(ds, n_queries=4, k=3)
    assert m["top_k_hits"] == [1, 2, 2]
    assert m["top_k_accuracy"] == [1 / 4, 2 / 4, 2 / 4]


def test_save_results_bytes_match_oracle_golden(ray_session, tmp_path, monkeypatch):
    """save_results writes the oracle-built golden byte for byte: qids
    sharing one question text are ordered by qid, a question that
    retrieves nothing has no entry, and neither top_k_hits nor
    save_results runs a groupby, a sort or a second execution over the
    materialized result."""
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
    cases = [
        ("z9", "answer_5 class", ["answer_5"]),
        ("a1", "answer_5 class", ["zzz", "class"]),
        ("m5", "answer_5 class", []),
        ("b2", "def struct", ["struct"]),
        ("n0", "zzqqxx", ["anything"]),
    ]
    queries = pa.table({
        "qid": pa.array([c[0] for c in cases]),
        "question": pa.array([c[1] for c in cases]),
        "answers": pa.array([c[2] for c in cases], pa.list_(pa.string())),
    })

    out_json = tmp_path / "results.json"
    res, metrics = retrieve_and_evaluate(queries, idx, k=5, out_json=str(out_json))

    ext = [f"{r}/{p}" for r, p in zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist())]
    docids = [docid_from_ext_id(e) for e in ext]
    by_id = {d: (e, c) for d, e, c in zip(docids, ext, tbl["content"].to_pylist())}
    oracle = BruteForceBM25(docids, tbl["content"].to_pylist(), BM25Params())
    golden = []
    for qid, question, answers in sorted(cases, key=lambda c: (c[1], c[0])):
        ctxs = []
        for d, s in oracle.top_k(question, 5):
            e, c = by_id[d]
            ctxs.append({
                "id": e, "title": e, "text": c, "score": f"{s:.6f}",
                "has_answer": qa.has_answer_string(answers, c),
            })
        if ctxs:
            golden.append({"question": question, "answers": answers, "ctxs": ctxs})
    assert [g["question"] for g in golden] == ["answer_5 class"] * 3 + ["def struct"]
    assert [g["answers"] for g in golden][:3] == [["zzz", "class"], [], ["answer_5"]]
    assert any(c["has_answer"] for g in golden for c in g["ctxs"])
    golden_path = tmp_path / "golden.json"
    with open(golden_path, "w") as f:
        json.dump(golden, f, indent=1)
    assert out_json.read_bytes() == golden_path.read_bytes()

    # the eval tail runs no shuffle: the same metrics and bytes again with
    # Dataset.groupby/sort disabled
    import ray
    import ray.data.dataset as dataset_mod

    def no_shuffle(*a, **kw):
        raise AssertionError("groupby/sort after retrieval")

    monkeypatch.setattr(dataset_mod.Dataset, "groupby", no_shuffle)
    monkeypatch.setattr(dataset_mod.Dataset, "sort", no_shuffle)

    # nor a second execution over the materialized result
    def no_execution(*a, **kw):
        raise AssertionError("map_batches/select_columns after materialize")

    monkeypatch.setattr(dataset_mod.Dataset, "map_batches", no_execution)
    monkeypatch.setattr(dataset_mod.Dataset, "select_columns", no_execution)
    assert qa.top_k_hits(res, n_queries=len(cases), k=5) == metrics
    again = tmp_path / "again.json"
    answers_ref = ray.put({c[0]: c[2] for c in cases})
    assert qa.save_results(res, str(again), answers_ref) == len(golden)
    assert again.read_bytes() == golden_path.read_bytes()


def test_retrieval_memos_follow_regenerated_corpus(ray_session, tmp_path):
    """The per-process retrieval memos are keyed on the fingerprinted
    index dir: a documents.parquet regenerated at the same path must not
    be served the old corpus's frames."""
    import pyarrow.parquet as pq

    from dpr_ray import entrypoints as ep

    sf = tmp_path / "sf"
    sf.mkdir()

    def write(docs: dict):
        pq.write_table(
            pa.table({
                "doc_id": pa.array(list(docs), pa.int64()),
                "text": list(docs.values()),
                "lang": ["en"] * len(docs),
                "source": ["src0"] * len(docs),
            }),
            str(sf / "documents.parquet"),
        )

    write({1: "key value table", 2: "fast merge sort", 3: "vector hash"})
    assert set(ep._bm25_results(str(sf))["docid"]) == {1, 2, 3}
    assert set(ep._qa_eval_df(str(sf))["docid"]) == {1, 2, 3}
    write({7: "a key value table row", 8: "vector hash vector", 9: "slow scan"})
    assert set(ep._bm25_results(str(sf))["docid"]) == {7, 8, 9}
    fresh = ep._qa_eval_df(str(sf))
    assert set(fresh["docid"]) == {7, 8, 9}
    assert fresh[fresh["qid"] == "q0"]["has_answer"].tolist() == [True]
