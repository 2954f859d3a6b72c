"""DPR evaluation surface: answer matching, top-k-hits, ranked results.

Reproduces the reference's validation semantics exactly:

- ``has_answer`` string mode — NFD + SimpleTokenizer both sides, uncased
  contiguous token-subsequence containment (``dpr/data/qa_validation.py:175-193``).
- ``has_answer`` regex mode — ``regex.search`` with IGNORECASE|UNICODE|
  MULTILINE over the NFD text; a bad pattern matches nothing
  (``qa_validation.py:195-210``).
- ``normalize_answer`` — lower, strip punctuation, drop articles, squeeze
  whitespace (``qa_validation.py:218-232``); ``exact_match_score`` equality
  (``qa_validation.py:214-215``).
- ``top_k_hits`` — per query the FIRST hit rank; cumulative counts
  ``top_k_hits[best_hit:] += 1``; accuracy = counts / n_queries
  (``qa_validation.py:72-79``, ``dense_retriever.py:301-315``).
- ``save_results`` — per-question dict with ranked ``ctxs`` (id/title/text/
  score-as-string/has_answer), score-desc (``dense_retriever.py:337-379``),
  the bytes of ``json.dump(entries, f, indent=1)``.

The per-rank validation runs as a ``map_batches`` stage over the result
Dataset (the reference forks a 16-worker multiprocessing pool with the whole
passage dict copied into each fork — ``qa_validation.py:56-68``; here docs
arrive via the DocJoin stage and answers via a ray.put broadcast).
``match_batch`` prepares each DISTINCT text (keyed on its value) and each
qid's answers once per batch; in string mode a text is tokenized only when
one of its rows' answers passes a substring pre-test, which most of a
top-k never does. Nothing after retrieval shuffles or starts a second
execution: ``top_k_hits`` reduces the result's blocks on the driver, and
``save_results`` encodes each block's columns once (each distinct
id/title/text escaped once) and writes the file entry by entry.
"""

from __future__ import annotations

import json
import string
import unicodedata
from operator import itemgetter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import regex as re

from .. import analyzer


def normalize_question(q: str) -> str:
    """Reference ``dpr/utils/data_utils.py:63-65``."""
    return q.replace("’", "'")


_DROP_PUNCT = str.maketrans("", "", string.punctuation)


def normalize_answer(s: str) -> str:
    # reference order (qa_validation.py:218-232): lower → strip punctuation
    # → remove articles → squeeze whitespace
    s = s.lower().translate(_DROP_PUNCT)
    s = re.sub(r"\b(a|an|the)\b", " ", s)
    return " ".join(s.split())


def exact_match_score(prediction: str, ground_truth: str) -> bool:
    return normalize_answer(prediction) == normalize_answer(ground_truth)


def normalize_kilt(s: str) -> str:
    """Reference ``qa_validation.py:298-314`` (same pipeline as
    normalize_answer: lower → strip punctuation → drop articles → squeeze)."""
    return normalize_answer(s)


def _regex_answers(answers: list[str]) -> list:
    # the PATTERN is NFD-normalized too (qa_validation.py:197-198 runs
    # _normalize(single_answer) before regex_match): a composed 'café'
    # pattern would never match the decomposed text
    pats = []
    for a in answers:
        try:
            pats.append(re.compile(unicodedata.normalize("NFD", a),
                                   flags=re.IGNORECASE + re.UNICODE + re.MULTILINE))
        except Exception:
            # any compile failure matches nothing (regex_match catches
            # BaseException; re.error alone missed e.g. TypeError/
            # RecursionError from pathological patterns)
            continue
    return pats


# match mode → (prepare one qid's answers, prepare one text, match the two).
# kilt (qa_validation.py:288-294): normalized substring containment; the
# empty-answer filter runs BEFORE normalizing, as in the reference.
_MODES = {
    "string": (
        lambda answers: [t for t in map(analyzer.tokenize, answers) if t],
        analyzer.tokenize,
        lambda ans, toks: any(analyzer.is_subsequence(a, toks) for a in ans),
    ),
    "regex": (
        _regex_answers,
        analyzer.nfd,
        lambda pats, text: any(p.search(text) is not None for p in pats),
    ),
    "kilt": (
        lambda answers: [normalize_kilt(a) for a in answers if a],
        normalize_kilt,
        lambda ans, text: any(a in text for a in ans),
    ),
}


def _per_row(match: str):
    def has_answer(answers: list[str], text: str | None) -> bool:
        prep_answers, prep_text, hit = _MODES[match]
        # a null text (a docid the join could not find) matches nothing
        return text is not None and hit(prep_answers(answers), prep_text(text))

    return has_answer


has_answer_string = _per_row("string")
has_answer_regex = _per_row("regex")
has_answer_kilt = _per_row("kilt")


def _fold(s: str) -> str:
    """Caseless form for the string-mode pre-test. ``str.lower`` maps each
    character on its own except capital sigma (σ, or final ς by its
    neighbours); with ς folded to σ the fold of a substring is a substring
    of the fold of the whole, and folding is idempotent, so a token of a
    text folds to a substring of the folded text. A plain
    ``tok in text.lower()`` is not sound: "ΟΔΟΣ'A" tokenizes to ``οδος``
    but lowercases to ``οδοσ'a``."""
    return s.lower().replace("ς", "σ")


def _match_strings(answers: dict, qids: list, codes: list,
                   texts: list) -> list:
    # an answer can match only if each of its tokens is a substring of the
    # folded NFD text; a text is folded on first use and tokenized only
    # when some answer passes that test, each at most once per batch
    folded: list = [None] * len(texts)
    tokens: list = [None] * len(texts)
    by_qid: dict = {}
    flags = []
    for qid, code in zip(qids, codes):
        hit = False
        if code is not None:
            ans = by_qid.get(qid)
            if ans is None:
                ans = by_qid[qid] = [
                    (t, {_fold(x) for x in t})
                    for t in map(analyzer.tokenize, answers.get(qid, [])) if t
                ]
            if ans:
                hay = folded[code]
                if hay is None:
                    hay = folded[code] = _fold(analyzer.nfd(texts[code]))
                for needle, keys in ans:
                    if all(key in hay for key in keys):
                        toks = tokens[code]
                        if toks is None:
                            toks = tokens[code] = analyzer.tokenize(texts[code])
                        if analyzer.is_subsequence(needle, toks):
                            hit = True
                            break
        flags.append(hit)
    return flags


def match_batch(match: str, answers: dict, qids: list, codes: list,
                texts: list) -> pa.Array:
    """has_answer per row: row i's text is ``texts[codes[i]]`` (the batch's
    distinct non-null texts), or null when ``codes[i]`` is None. Each
    distinct text and each qid's answers are prepared once per batch; in
    string mode a text is tokenized only if some answer of its rows has
    every token in its folded NFD form (``_fold``), and then only once."""
    if match == "string":
        return pa.array(_match_strings(answers, qids, codes, texts), pa.bool_())
    prep_answers, prep_text, hit = _MODES[match]
    prepared = [prep_text(t) for t in texts]
    by_qid: dict = {}
    flags = []
    for qid, code in zip(qids, codes):
        if code is not None and qid not in by_qid:
            by_qid[qid] = prep_answers(answers.get(qid, []))
        flags.append(code is not None and hit(by_qid[qid], prepared[code]))
    return pa.array(flags, pa.bool_())


class AttachHasAnswer:
    """Result rows (qid, ..., content) → + has_answer. Served as a task
    per block (``util.map_per_block``), so it fuses with the query and
    doc-join tasks before it.

    ``answers_ref`` is a ray.put of {qid: [answer, ...]} — broadcast once,
    fetched once per block in __init__, never re-shipped per batch."""

    def __init__(self, answers_ref, match: str = "string"):
        self.answers = ray.get(answers_ref) if answers_ref is not None else {}
        self.match = match

    def __call__(self, batch: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(batch["content"].combine_chunks())
        flags = match_batch(
            self.match, self.answers, batch["qid"].to_pylist(),
            enc.indices.to_pylist(), enc.dictionary.to_pylist(),
        )
        return batch.append_column("has_answer", flags)


def top_k_hits(results_ds, n_queries: int, k: int):
    """Cumulative hits@1..k over a result Dataset that carries (qid, rank,
    has_answer). Reduced on the driver block by block, with no second
    execution over a materialized result: each block's hit rows group to
    one best (minimum) rank per qid, the driver keeps the min per qid (a
    qid's rows may span blocks), then histograms and cumsums."""
    best: dict = {}
    for b in results_ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        hit = b.select(["qid", "rank"]).filter(pc.fill_null(b["has_answer"], False))
        g = hit.group_by("qid").aggregate([("rank", "min")])
        for qid, r in zip(g["qid"].to_pylist(), g["rank_min"].to_pylist()):
            best[qid] = min(r, best.get(qid, r))
    ranks = np.fromiter(best.values(), dtype=np.int64, count=len(best))
    ranks = ranks[(ranks > 0) & (ranks <= k)]  # 1-based; past k is no hit
    cum = np.cumsum(np.bincount(ranks - 1, minlength=k))
    return {
        "n_queries": n_queries,
        "top_k_hits": cum.tolist(),
        "top_k_accuracy": (cum / max(1, n_queries)).tolist(),
    }


# json.dump's string encoder under ensure_ascii (the C one where built)
_escape = json.encoder.encode_basestring_ascii

# one ctx of json.dump(entries, f, indent=1): a dict at indent level 3
_CTX = ('{\n    "id": %s,\n    "title": %s,\n    "text": %s,\n'
        '    "score": "%.6f",\n    "has_answer": %s\n   }')


def _json(value, level: int) -> str:
    """``value`` as json.dump(..., indent=1) writes it at indent ``level``."""
    if isinstance(value, str):
        return _escape(value)
    return json.dumps(value, indent=1).replace("\n", "\n" + " " * level)


def _json_column(col, level: int) -> list:
    """Each row of ``col`` JSON-encoded, each distinct value encoded once."""
    enc = pc.dictionary_encode(col.combine_chunks())
    vals = [_json(v, level) for v in enc.dictionary.to_pylist()]
    vals.append("null")
    return list(map(vals.__getitem__,
                    pc.fill_null(enc.indices, len(vals) - 1).to_pylist()))


def save_results(results_ds, out_path: str, answers_ref=None) -> int:
    """Write the reference-shaped results JSON (``dense_retriever.py:356-369``;
    FIXTURES.md F5): per question with result rows {question, answers, ctxs:
    [{id, title, text, score (6-decimal string), has_answer}]}, ctxs in rank
    order (a stable sort: equal ranks keep their row order), entries sorted
    by (question, qid). The bytes are those of
    ``json.dump(entries, f, indent=1)``: each block's id, title and text
    columns are dictionary-encoded and every distinct value escaped once,
    each row fills a fixed ctx template, and the file is written entry by
    entry. Iterates the result's blocks on the driver, with no second
    execution over a materialized result."""
    answers = ray.get(answers_ref) if answers_ref is not None else {}
    by_qid: dict = {}
    for b in results_ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        hits = ["true" if h else "false" for h in b["has_answer"].to_pylist()]
        rows = zip(b["qid"].to_pylist(), b["question"].to_pylist(),
                   b["rank"].to_pylist(), _json_column(b["ext_id"], 4),
                   _json_column(b["title"], 4), _json_column(b["content"], 4),
                   b["score"].to_pylist(), hits)
        for qid, question, rank, ext_id, title, text, score, hit in rows:
            ctx = _CTX % (ext_id, title, text, score, hit)
            by_qid.setdefault(qid, (question, []))[1].append((rank, ctx))
    entries = sorted(by_qid.items(), key=lambda e: (e[1][0], e[0]))
    with open(out_path, "w") as f:
        for i, (qid, (question, ctxs)) in enumerate(entries):
            ctxs.sort(key=itemgetter(0))
            f.write("%s\n {\n  \"question\": %s,\n  \"answers\": %s,\n"
                    "  \"ctxs\": [\n   " % ("," if i else "[", _json(question, 2),
                                           _json(answers.get(qid, []), 2)))
            f.write(",\n   ".join(c for _, c in ctxs))
            f.write("\n  ]\n }")
        f.write("\n]" if entries else "[]")
    return len(entries)
