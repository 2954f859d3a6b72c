"""Seeded input generators for the benchmark workloads.

Every input is a pure function of ``(seed, sizes)``: the same seed gives
byte-identical tables (``digest``), another seed gives different ones.
The engine receives only these tables; nothing is read from outside the
benchmark's checkout.

Corpus shape: ``documents``-style texts (words drawn from a 30-term head
vocabulary, 12-89 words per doc) replicated ``replicas`` times with dense
distinct docids, and two per-doc rare identifiers (``id<docid>`` and
``sym<docid % 9973>``) so the vocabulary grows with the corpus.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

HEAD_VOCAB = [
    "key", "agg", "row", "scan", "slow", "fast", "table", "value", "part",
    "hash", "merge", "batch", "spark", "line", "sort", "window",
    "customer", "query", "big", "stream", "group", "column", "join",
    "small", "filter", "data", "vector", "order", "the", "a",
]
LANGS = ["en", "zh", "fr", "es", "de"]
SYM_MOD = 9973
LICENCE_HEADER = (
    "Licensed under the Apache License Version 2.0 you may not use this "
    "file except in compliance with the License you may obtain a copy"
)


@dataclass(frozen=True)
class Sizes:
    base_docs: int = 5000       # distinct texts before replication
    replicas: int = 2           # corpus = base_docs * replicas docs
    update_frac: float = 0.05   # delta: share of docs rewritten
    delete_frac: float = 0.01   # delta: share of docs tombstoned
    serve_queries: int = 4000   # all-distinct query log
    batch_queries: int = 1000   # queries per search_pipeline batch
    qa_sources: int = 300       # docs with a planted answer
    qa_questions: int = 200     # Zipf-drawn questions per eval call
    qa_serial: int = 4000       # Zipf-drawn questions for the serial loop
    qa_zipf_s: float = 1.1
    curate_docs: int = 1500

    def scaled(self, f: float) -> "Sizes":
        """Every count multiplied by ``f`` (at least a handful each)."""
        def s(n: int, lo: int) -> int:
            return max(lo, int(n * f))

        return Sizes(
            base_docs=s(self.base_docs, 200), replicas=self.replicas,
            update_frac=self.update_frac, delete_frac=self.delete_frac,
            serve_queries=s(self.serve_queries, 60),
            batch_queries=s(self.batch_queries, 40),
            qa_sources=s(self.qa_sources, 20),
            qa_questions=s(self.qa_questions, 30),
            qa_serial=s(self.qa_serial, 60),
            qa_zipf_s=self.qa_zipf_s, curate_docs=s(self.curate_docs, 60),
        )


def _words(rng: np.random.Generator, lo: int, hi: int) -> str:
    return " ".join(rng.choice(HEAD_VOCAB, size=int(rng.integers(lo, hi))))


def corpus_table(docids, contents) -> pa.Table:
    """input_hint-shaped corpus rows with provided dense docids."""
    d = np.asarray(docids, dtype=np.uint64)
    return pa.table({
        "repo": pa.array([f"src{int(x) % 20}" for x in d]),
        "path": pa.array([f"doc/{int(x)}.txt" for x in d]),
        "commit": pa.array([f"{int(x):040d}" for x in d]),
        "lang": pa.array([LANGS[int(x) % len(LANGS)] for x in d]),
        "content": pa.array(contents, pa.large_string()),
        "docid": pa.array(d, pa.uint64()),
    })


def base_corpus(seed: int, sz: Sizes) -> pa.Table:
    """``base_docs`` texts replicated ``replicas`` times; replica r of text
    i is docid ``r * base_docs + i`` with its own rare identifiers."""
    rng = np.random.default_rng([seed, 1])
    texts = [_words(rng, 12, 90) for _ in range(sz.base_docs)]
    docids, contents = [], []
    for r in range(sz.replicas):
        for i, t in enumerate(texts):
            d = r * sz.base_docs + i
            docids.append(d)
            contents.append(f"{t} id{d} sym{d % SYM_MOD}")
    return corpus_table(docids, contents)


def refresh_delta(seed: int, base: pa.Table, sz: Sizes):
    """(delta corpus, tombstoned docids, latest corpus).

    The delta rewrites ``update_frac`` of the docs under their old docids;
    ``delete_frac`` of the remaining docs are tombstoned. ``latest`` is
    what a rebuild from scratch would index."""
    rng = np.random.default_rng([seed, 2])
    n = base.num_rows
    ids = base["docid"].to_numpy()
    upd = np.sort(rng.choice(n, size=max(1, int(n * sz.update_frac)),
                             replace=False))
    rest = np.setdiff1d(np.arange(n), upd)
    dele = np.sort(rng.choice(rest, size=max(1, int(n * sz.delete_frac)),
                              replace=False))
    new_texts = [
        f"{_words(rng, 12, 90)} id{int(ids[i])} sym{int(ids[i]) % SYM_MOD} "
        f"rev{seed % 97}"
        for i in upd
    ]
    delta = corpus_table(ids[upd], new_texts)
    contents = base["content"].to_pylist()
    for i, t in zip(upd.tolist(), new_texts):
        contents[i] = t
    keep = np.ones(n, bool)
    keep[dele] = False
    latest = corpus_table(
        ids[keep], [c for c, k in zip(contents, keep) if k]
    )
    return delta, ids[dele].astype(np.uint64), latest


def distinct_queries(seed: int, sz: Sizes, n_docs: int) -> pa.Table:
    """All-distinct query log: one rare identifier (``sym``/``id``) plus
    1-4 head terms; no two queries share a term set."""
    rng = np.random.default_rng([seed, 3])
    seen: set[tuple] = set()
    qs: list[str] = []
    while len(qs) < sz.serve_queries:
        head = sorted(set(rng.choice(HEAD_VOCAB, size=int(rng.integers(1, 5)))))
        if rng.random() < 0.5:
            rare = f"sym{int(rng.integers(0, min(n_docs, SYM_MOD)))}"
        else:
            rare = f"id{int(rng.integers(0, n_docs))}"
        key = (rare, *head)
        if key in seen:
            continue
        seen.add(key)
        qs.append(" ".join([rare, *rng.permutation(head)]))
    return pa.table({
        "qid": pa.array([f"q{i}" for i in range(len(qs))]),
        "question": pa.array(qs),
    })


def qa_inputs(seed: int, base: pa.Table, sz: Sizes):
    """(corpus with planted answers, eval questions, serial-loop questions).

    ``qa_sources`` docs get a planted two-token answer ``ans<j> <word>``.
    Questions name four words of their source doc plus its ``sym`` id and
    are drawn Zipf(s)-distributed over the sources, so the log repeats."""
    rng = np.random.default_rng([seed, 4])
    n = base.num_rows
    src = rng.choice(n, size=sz.qa_sources, replace=False)
    contents = base["content"].to_pylist()
    ids = base["docid"].to_numpy()
    templates = []
    for j, i in enumerate(src.tolist()):
        answer = f"ans{j} {HEAD_VOCAB[j % len(HEAD_VOCAB)]}"
        contents[i] = f"{contents[i]} {answer}"
        words = contents[i].split()[:-4]
        pick = rng.choice(len(words), size=min(4, len(words)), replace=False)
        q = " ".join([words[p] for p in sorted(pick)]
                     + [f"sym{int(ids[i]) % SYM_MOD}"])
        templates.append((q, answer))
    corpus = corpus_table(ids, contents)
    w = 1.0 / np.arange(1, sz.qa_sources + 1) ** sz.qa_zipf_s

    def log(prefix: str, n: int) -> pa.Table:
        draws = rng.choice(sz.qa_sources, size=n, p=w / w.sum())
        return pa.table({
            "qid": pa.array([f"{prefix}{i}" for i in range(n)]),
            "question": pa.array([templates[t][0] for t in draws]),
            "answers": pa.array([[templates[t][1]] for t in draws],
                                pa.list_(pa.string())),
        })

    return corpus, log("e", sz.qa_questions), log("s", sz.qa_serial)


def header_corpus(seed: int, sz: Sizes) -> pa.Table:
    """Curation corpus: every doc starts with the same licence header, so
    one span (and each header term) occurs in every document."""
    rng = np.random.default_rng([seed, 5])
    return pa.table({
        "docid": pa.array(np.arange(sz.curate_docs), pa.int64()),
        "content": pa.array([
            f"{LICENCE_HEADER} {_words(rng, 12, 90)} tag{int(rng.integers(0, 10**6))}"
            for _ in range(sz.curate_docs)
        ]),
    })


def digest(*tables: pa.Table) -> str:
    """sha256 over the tables' Arrow IPC bytes: equal iff byte-identical."""
    h = hashlib.sha256()
    for t in tables:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t)
        h.update(sink.getvalue().to_pybytes())
    return h.hexdigest()


def workload_inputs(workload: str, seed: int, sz: Sizes) -> dict:
    """Every generated input one workload consumes."""
    if workload == "curate_hotkey":
        return {"corpus": header_corpus(seed, sz)}
    base = base_corpus(seed, sz)
    if workload == "index_refresh":
        delta, deletes, latest = refresh_delta(seed, base, sz)
        return {"corpus": base, "delta": delta, "deletes": deletes,
                "latest": latest}
    if workload == "serve_distinct":
        return {"corpus": base,
                "queries": distinct_queries(seed, sz, base.num_rows)}
    if workload == "qa_eval":
        corpus, questions, serial = qa_inputs(seed, base, sz)
        return {"corpus": corpus, "questions": questions, "serial": serial}
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(inputs: dict) -> str:
    tables = [
        v if isinstance(v, pa.Table) else pa.table({"v": pa.array(v)})
        for _, v in sorted(inputs.items())
    ]
    return digest(*tables)
