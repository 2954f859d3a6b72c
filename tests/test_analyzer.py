"""Analyzer conformance vs the reference SimpleTokenizer semantics
(dpr/utils/tokenizers.py:157-199 + qa_validation.py:235-236 NFD)."""

import unicodedata

from dpr_ray import analyzer


def test_basic_words():
    assert analyzer.tokenize("Hello world") == ["hello", "world"]


def test_punctuation_is_single_char_tokens():
    # NON_WS catches each non-space, non-control char individually
    assert analyzer.tokenize("a,b.c") == ["a", ",", "b", ".", "c"]
    assert analyzer.tokenize("foo(bar)") == ["foo", "(", "bar", ")"]


def test_numbers_and_alnum_runs():
    assert analyzer.tokenize("x86_64 v2.0") == ["x86", "_", "64", "v2", ".", "0"]


def test_nfd_composed_vs_decomposed_agree():
    composed = "café"            # é as single codepoint
    decomposed = "café"          # e + combining acute
    assert analyzer.tokenize(composed) == analyzer.tokenize(decomposed)
    # \p{M} keeps the combining mark inside the token
    assert analyzer.tokenize(composed) == [unicodedata.normalize("NFD", "café").lower()]


def test_apostrophe_variants():
    # curly apostrophe is a token of its own (NON_WS), like ASCII '
    assert analyzer.tokenize("it’s") == ["it", "’", "s"]
    assert analyzer.tokenize("it's") == ["it", "'", "s"]


def test_whitespace_and_controls_dropped():
    assert analyzer.tokenize("a\tb\nc d") == ["a", "b", "c", "d"]


def test_cjk_run_is_one_token():
    # CJK ideographs are \p{L}: a run with no separators is a single token,
    # matching the reference regex semantics
    assert analyzer.tokenize("中文 test") == ["中文", "test"]


def test_empty_and_space_only():
    assert analyzer.tokenize("") == []
    assert analyzer.tokenize("   \n\t ") == []


def test_batch_matches_scalar():
    texts = ["Hello, World!", "café café", "", "a b  c"]
    assert analyzer.tokenize_batch(texts) == [analyzer.tokenize(t) for t in texts]


def test_doc_lengths():
    dls = analyzer.doc_lengths(["a b c", "", "x, y"])
    assert list(dls) == [3, 0, 3]


def test_term_counts():
    c = analyzer.term_counts("the cat the hat")
    assert c["the"] == 2 and c["cat"] == 1 and c["hat"] == 1


def test_is_subsequence():
    hay = ["to", "be", "or", "not", "to", "be"]
    assert analyzer.is_subsequence(["or", "not"], hay)
    assert analyzer.is_subsequence(["to", "be"], hay)
    assert not analyzer.is_subsequence(["be", "not"], hay)
    assert not analyzer.is_subsequence([], hay)
    assert not analyzer.is_subsequence(["to"] * 7, hay)
    # every window against the reference's plain loop, near-misses included
    import random

    rng = random.Random(7)
    for _ in range(3000):
        hay = rng.choices("abc", k=rng.randint(0, 9))
        needle = rng.choices("abc", k=rng.randint(1, 4))
        want = any(
            hay[i : i + len(needle)] == needle
            for i in range(len(hay) - len(needle) + 1)
        )
        assert analyzer.is_subsequence(needle, hay) == want, (needle, hay)


def test_space_token_counts_duckdb_parity():
    """_space_token_counts must equal DuckDB's
    len(regexp_split_to_array(text, ' ')) on DIVERGENT inputs (double
    spaces, tabs, punctuation, empties) — the pack_bins/token_count/
    quantiles oracles count this way, so engine↔oracle agreement must not
    depend on the fixture being single-space text."""
    import duckdb
    import pyarrow as pa

    from dpr_ray.entrypoints import _space_token_counts

    cases = [
        "", " ", "  ", "a", "a b", "a  b", " a b ", "a\tb", "a\nb",
        "a, b.c", "hello  world  ", " nbsp stays", "tab\t space mix",
        "trailing ", " leading", "a   b   c",
    ]
    got = _space_token_counts(pa.array(cases, pa.string())).to_pylist()
    con = duckdb.connect()
    want = [
        con.sql(
            "SELECT len(regexp_split_to_array(?, ' '))", params=[c]
        ).fetchone()[0]
        for c in cases
    ]
    assert got == want


def test_none_text_yields_no_tokens():
    """None (a parquet null) tokenizes to zero tokens in every variant —
    SQL null-text semantics; a null question must not kill a serving
    actor (end-to-end gate in test_e2e_property.py)."""
    assert analyzer.tokenize(None) == []
    assert analyzer.tokenize_cased(None) == []
    assert analyzer.tokenize_batch(["a b", None, ""]) == [["a", "b"], [], []]
