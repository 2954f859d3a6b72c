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
  score-as-string/has_answer), score-desc (``dense_retriever.py:337-379``).

The per-rank validation runs as a ``map_batches`` stage over the result
Dataset (the reference forks a 16-worker multiprocessing pool with the whole
passage dict copied into each fork — ``qa_validation.py:56-68``; here docs
arrive via the DocJoin stage and answers via a ray.put broadcast).
``match_batch`` prepares each DISTINCT text (keyed on its value) and each
qid's answers once per batch. Nothing after retrieval shuffles: per-block
partials of ``top_k_hits`` and the rows of ``save_results`` fold on the driver.
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


def match_batch(match: str, answers: dict, qids: list, codes: list,
                texts: list) -> pa.Array:
    """has_answer per row: row i's text is ``texts[codes[i]]`` (the batch's
    distinct non-null texts), or null when ``codes[i]`` is None. Each
    distinct text and each qid's answers are prepared once per batch."""
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
    has_answer). Partial + final with no shuffle: each block maps to one
    (qid, best_hit) row per qid with a hit in it; the driver keeps the min
    per qid (a qid's rows may span blocks), then histograms and cumsums."""

    def best_hits(batch: pa.Table) -> pa.Table:
        hit = batch.filter(pc.fill_null(batch["has_answer"], False))
        g = hit.group_by("qid").aggregate([("rank", "min")])
        return pa.table({"qid": g["qid"], "best_hit": g["rank_min"]})

    best: dict = {}
    parts = results_ds.select_columns(["qid", "rank", "has_answer"]).map_batches(
        best_hits, batch_format="pyarrow"
    )
    for b in parts.iter_batches(batch_format="pyarrow"):
        for qid, r in zip(b["qid"].to_pylist(), b["best_hit"].to_pylist()):
            best[qid] = min(r, best.get(qid, r))
    ranks = np.fromiter(best.values(), dtype=np.int64, count=len(best))
    ranks = ranks[(ranks > 0) & (ranks <= k)]  # 1-based; past k is no hit
    cum = np.cumsum(np.bincount(ranks - 1, minlength=k))
    return {
        "n_queries": n_queries,
        "top_k_hits": cum.tolist(),
        "top_k_accuracy": (cum / max(1, n_queries)).tolist(),
    }


def save_results(results_ds, out_path: str, answers_ref=None) -> int:
    """Write the reference-shaped results JSON (``dense_retriever.py:356-369``;
    FIXTURES.md F5): per question with result rows {question, answers, ctxs:
    [{id, title, text, score (6-decimal string), has_answer}]}, ctxs in rank
    order, entries sorted by (question, qid); rows fold per qid on the driver."""
    answers = ray.get(answers_ref) if answers_ref is not None else {}
    cols = ["qid", "question", "rank", "ext_id", "title", "content", "score", "has_answer"]
    by_qid: dict = {}
    for b in results_ds.iter_batches(batch_format="pyarrow"):
        rows = zip(*(b[c].to_pylist() for c in cols))
        for qid, question, rank, ext_id, title, text, score, hit in rows:
            ctx = {"id": ext_id, "title": title, "text": text,
                   "score": f"{score:.6f}", "has_answer": bool(hit)}
            by_qid.setdefault(qid, (question, []))[1].append((rank, ctx))
    out = []
    for qid, (question, ctxs) in sorted(by_qid.items(), key=lambda e: (e[1][0], e[0])):
        out.append({"question": question, "answers": answers.get(qid, []),
                    "ctxs": [c for _, c in sorted(ctxs, key=itemgetter(0))]})
    with open(out_path, "w") as f:
        json.dump(out, f, indent=1)
    return len(out)
