"""The analyzer contract: DPR SimpleTokenizer-compatible tokenization.

Reproduces, bit-for-bit, the tokenization the reference uses both for its
Lucene-style BM25 comparisons and for answer-match validation:

- token pattern ``([\\p{L}\\p{N}\\p{M}]+)|([^\\p{Z}\\p{C}])`` with
  IGNORECASE | UNICODE | MULTILINE — reference
  ``dpr/utils/tokenizers.py:157-199`` (``SimpleTokenizer``).
- match-time unicode NFD normalization — reference
  ``dpr/data/qa_validation.py:235-236`` (``_normalize``).
- uncased matching: ``Tokens.words(uncased=True)`` lowercases —
  reference ``dpr/utils/tokenizers.py:57-58``.

Index terms and has_answer validation MUST share this exact pipeline
(NFD → regex tokenize → lowercase) so that a planted answer term and the
indexed term agree on every unicode edge case (combining marks, composed
vs decomposed accents, CJK, punctuation-as-token).

The compiled pattern is module-level state: compiled once per worker
process at import, not per batch.
"""

from __future__ import annotations

import unicodedata
from collections import Counter

import numpy as np
import regex

# Exact reference regexes: dpr/utils/tokenizers.py:158-159.
ALPHA_NUM = r"[\p{L}\p{N}\p{M}]+"
NON_WS = r"[^\p{Z}\p{C}]"

_PATTERN = regex.compile(
    "(%s)|(%s)" % (ALPHA_NUM, NON_WS),
    flags=regex.IGNORECASE + regex.UNICODE + regex.MULTILINE,
)


def nfd(text: str) -> str:
    """Unicode NFD normalization (reference qa_validation.py:235-236)."""
    return unicodedata.normalize("NFD", text)


def tokenize(text: str | None) -> list[str]:
    """NFD-normalize then tokenize; lowercase (uncased) token texts.

    ``None`` yields zero tokens (SQL null-text semantics): a null question
    in a parquet query log must return no results, not kill the serving
    task deep in ``unicodedata.normalize``. The index build still REJECTS
    null content loudly (``stages/featurize.py`` — a null document has no
    sha256, so silently indexing it would hide corpus corruption)."""
    if text is None:
        return []
    return [m.group().lower() for m in _PATTERN.finditer(nfd(text))]


def tokenize_cased(text: str | None) -> list[str]:
    """Tokenize without lowercasing (reference ``Tokens.words(uncased=False)``)."""
    if text is None:
        return []
    return [m.group() for m in _PATTERN.finditer(nfd(text))]


def tokenize_batch(texts) -> list[list[str]]:
    """Tokenize a batch (any iterable of str | None; None → no tokens).
    Python loop over rows is unavoidable for a regex tokenizer, but the
    regex engine itself is C-speed; this is called from inside
    ``map_batches`` so the loop stays off the driver.
    """
    fi = _PATTERN.finditer
    norm = unicodedata.normalize
    return [
        [] if t is None else [m.group().lower() for m in fi(norm("NFD", t))]
        for t in texts
    ]


def term_counts(text: str) -> Counter:
    """Exact per-document term frequencies under the analyzer."""
    return Counter(tokenize(text))


def doc_lengths(texts) -> np.ndarray:
    """Token count per document (the BM25 ``dl``). Counts matches directly
    — the count equals ``len(tokenize(t))`` (same pattern; lowercasing
    never changes the match count) without materializing or lowercasing
    any token strings, which the hot featurize path would only discard."""
    fi = _PATTERN.finditer
    norm = unicodedata.normalize
    return np.fromiter(
        (
            0 if t is None else sum(1 for _ in fi(norm("NFD", t)))
            for t in texts
        ),
        dtype=np.int64,
        count=len(texts),
    )


def is_subsequence(needle: list[str], haystack: list[str]) -> bool:
    """Contiguous token-subsequence containment, the reference's string-mode
    answer match (``dpr/data/qa_validation.py:175-193``): answer tokens must
    appear consecutively in the passage tokens.

    Deliberate divergence (test-pinned in test_analyzer): a ZERO-token
    needle returns False here, whereas the reference's range loop would
    vacuously match it — an all-whitespace "answer" counting every passage
    as a hit is an upstream data bug worth surfacing, not a match."""
    n, h = len(needle), len(haystack)
    if n == 0 or n > h:
        return False
    first, i, stop = needle[0], 0, h - n + 1
    # list.index scans for the first token at C speed; only its
    # occurrences pay a slice compare
    try:
        while True:
            i = haystack.index(first, i, stop)
            if haystack[i : i + n] == needle:
                return True
            i += 1
    except ValueError:
        return False
