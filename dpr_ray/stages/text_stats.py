"""Text-analysis stages for training-data pipelines: token counting, quality
scoring, language-ID heuristic, document fingerprinting. All are stateless
``map_batches`` transforms over Arrow batches; the analyzer regex is
compiled once per worker at module import.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .. import analyzer
from .._shipping import ensure_shippable
from ..util import (
    map_per_block,
    map_sorted_groups,
    poly_mod31,
    round_half_away,
    run_starts,
    to_i6,
    token_hash31_impl,
)
from .dedup import _span_hashes

logger = logging.getLogger("dpr_ray.text_stats")

STOPWORDS = frozenset(
    ("the", "a", "an", "of", "to", "in", "and", "is", "it", "on", "for")
)

# tiny deterministic stopword profiles for the language-ID heuristic
_LANG_PROFILES = {
    "en": frozenset(("the", "a", "of", "and", "to", "in", "is", "it", "for", "on")),
    "de": frozenset(("der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit")),
    "fr": frozenset(("le", "la", "les", "et", "est", "un", "une", "de", "pour")),
    "es": frozenset(("el", "la", "los", "y", "es", "un", "una", "de", "que", "para")),
}


class TextQuality:
    """(id_col, text_col) → per-doc quality features. Mirrors the quality
    heuristics large-scale corpus pipelines use (length/stopword/distinct
    ratios); columns rounded to 6 decimals so the DuckDB oracle can
    reproduce them bit-for-bit."""

    def __init__(self, id_col: str = "docid", text_col: str = "content"):
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        token_lists = analyzer.tokenize_batch(batch[self.text_col].to_pylist())
        cols = quality_columns(token_lists)
        return pa.table({"docid": batch[self.id_col], **cols})


def quality_columns(token_lists: list[list[str]]) -> dict:
    """TextQuality's feature columns from PRE-TOKENIZED docs — shared with
    curation's fused QualityLang stage so the corpus is tokenized once
    per pass, not once per feature family."""
    n_tokens = np.array([len(t) for t in token_lists], dtype=np.int64)
    n_distinct = np.array([len(set(t)) for t in token_lists], dtype=np.int64)
    stop = np.array(
        [sum(1 for w in t if w in STOPWORDS) for t in token_lists], dtype=np.int64
    )
    char_len = np.array(
        [sum(len(w) for w in t) for t in token_lists], dtype=np.int64
    )
    nt = np.maximum(n_tokens, 1).astype(np.float64)
    return {
        "n_tokens": pa.array(n_tokens, pa.int64()),
        "n_distinct": pa.array(n_distinct, pa.int64()),
        "distinct_ratio": pa.array(
            round_half_away(n_distinct / nt), pa.float64()
        ),
        "stopword_ratio": pa.array(round_half_away(stop / nt), pa.float64()),
        "mean_token_len": pa.array(
            round_half_away(char_len / nt), pa.float64()
        ),
        "quality_score": pa.array(
            round_half_away((n_distinct / nt) * (1.0 - stop / nt)),
            pa.float64(),
        ),
    }


class LangId:
    """Deterministic stopword-profile language ID (n-gram-free heuristic):
    argmax over per-language stopword hit counts; ties / no hits → 'und'."""

    def __init__(self, id_col: str = "docid", text_col: str = "content"):
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        token_lists = analyzer.tokenize_batch(batch[self.text_col].to_pylist())
        return pa.table(
            {
                "docid": batch[self.id_col],
                "lang_pred": pa.array(langid_preds(token_lists), pa.string()),
            }
        )


def langid_preds(token_lists: list[list[str]]) -> list[str]:
    """LangId predictions from PRE-TOKENIZED docs (see quality_columns)."""
    preds = []
    for toks in token_lists:
        tokset = set(toks)
        scores = sorted(
            ((len(tokset & prof), lang) for lang, prof in _LANG_PROFILES.items()),
            key=lambda x: (-x[0], x[1]),
        )
        if scores[0][0] == 0 or (
            len(scores) > 1 and scores[0][0] == scores[1][0]
        ):
            preds.append("und")
        else:
            preds.append(scores[0][1])
    return preds


_FP_BASE = 137  # doc-level Horner base (token-level uses 131)


def token_fingerprint(tokens: list[str]) -> int:
    """Order-sensitive polynomial rolling hash over the token stream
    (document fingerprint): Horner base-137 over per-token 31-bit rolling
    hashes, mod 2^31-1. Deterministic across processes AND reproducible by
    the DuckDB oracle via nested list_reduce (see FINGERPRINT_SQL)."""
    ths = np.fromiter(
        (token_hash31_impl(t) for t in tokens),
        dtype=np.uint64,
        count=len(tokens),
    )
    return int(poly_mod31(ths, np.array([0, len(ths)]), _FP_BASE)[0])


class Fingerprint:
    """(docid, content) → order-sensitive rolling-hash fingerprint.
    Vectorized: one poly_mod31 pass over the whole batch's concatenated
    token-hash stream (per-doc offsets), no per-doc Python Horner loop."""

    def __init__(self, id_col: str = "docid", text_col: str = "content"):
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        # per-task dict memo (an lru_cache wrapper would not ship by value)
        memo: dict[str, int] = {}

        def h31(t: str) -> int:
            v = memo.get(t)
            if v is None:
                v = memo[t] = token_hash31_impl(t)
            return v

        token_lists = analyzer.tokenize_batch(batch[self.text_col].to_pylist())
        offs = np.zeros(len(token_lists) + 1, dtype=np.int64)
        np.cumsum([len(t) for t in token_lists], out=offs[1:])
        ths = np.fromiter(
            (h31(t) for toks in token_lists for t in toks),
            dtype=np.uint64,
            count=int(offs[-1]),
        )
        fps = poly_mod31(ths, offs, _FP_BASE).astype(np.int64)
        return pa.table(
            {
                "docid": batch[self.id_col],
                "fingerprint": pa.array(fps, pa.int64()),
            }
        )


class RepetitionStats:
    """Gopher-style within-document repetition signals (the quality rules
    that catch machine-generated / boilerplate text): per doc,

    - ``top2_frac`` — fraction of 2-gram positions covered by the single
      most frequent 2-gram (Rae et al. 2021 §A1.1 "fraction in most
      common n-gram"),
    - ``dup3_frac`` — fraction of 3-gram positions whose 3-gram occurs
      more than once in the doc ("fraction in duplicate n-grams").

    Both are DEFINED over the same 31-bit rolling span hashes the
    dup_spans family uses (``dedup._span_hashes``), so the DuckDB oracle
    replays them exactly — an intra-doc hash collision, if one ever
    occurred, would affect both sides identically. Map-only, stateless."""

    def __init__(self, id_col: str = "docid", text_col: str = "content"):
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        memo: dict[str, int] = {}
        top2, dup3 = [], []
        for toks in analyzer.tokenize_batch(batch[self.text_col].to_pylist()):
            h2 = _span_hashes(toks, 2, memo)
            if len(h2):
                _, c2 = np.unique(h2, return_counts=True)
                top2.append(float(round_half_away(c2.max() / len(h2))))
            else:
                top2.append(0.0)
            h3 = _span_hashes(toks, 3, memo)
            if len(h3):
                _, c3 = np.unique(h3, return_counts=True)
                dup3.append(
                    float(round_half_away(c3[c3 > 1].sum() / len(h3)))
                )
            else:
                dup3.append(0.0)
        return pa.table(
            {
                "docid": batch[self.id_col],
                "top2_frac": pa.array(top2, pa.float64()),
                "dup3_frac": pa.array(dup3, pa.float64()),
            }
        )


def tfidf_topk(ds, id_col: str = "docid", text_col: str = "content",
               k: int = 5):
    """Per-document TF-IDF keyword extraction — the top-``k`` terms of
    each doc by ``tf · ln(N / df)`` (the sparse-retrieval / tagging
    feature every corpus pipeline derives next to the quality scores):
    → Dataset ``(docid, term, tf, df, rank, tfidf_i6)``, rank 1..k per
    doc under the (score desc, term asc) total order, docs ascending.

    Tokens follow the oracle whitespace convention (literal single-space
    split — one row per distinct (doc, term)). Scale shape: the canonical
    two-shuffle — per-batch tf rows (map-side combine), ONE sort(term)
    attaches df (each term's postings live in one block; no separate df
    table, no broadcast of an unbounded vocabulary), ONE sort(docid) takes
    the local top-k. Both finishers are block-level (``map_sorted_groups``,
    no Python call per term or doc): df is ``dictionary_encode`` +
    ``bincount``; top-k lexsorts by (docid, score desc, term asc) and keeps
    each doc's first ``k`` rows. Scores are round9-snapped so the oracle's
    sequential ln/products rank identically (the BM25 discipline)."""
    ensure_shippable()
    from collections import Counter

    n_docs = ds.count()

    def tf_rows(batch: pa.Table) -> pa.Table:
        docs: list[int] = []
        terms: list[str] = []
        tfs: list[int] = []
        for d, t in zip(
            batch[id_col].to_pylist(), batch[text_col].to_pylist()
        ):
            c = Counter(t.split(" "))
            docs.extend([d] * len(c))
            terms.extend(c.keys())
            tfs.extend(c.values())
        return pa.table(
            {
                "docid": pa.array(docs, pa.int64()),
                "term": pa.array(terms, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
            }
        )

    def attach_df(block: pa.Table) -> pa.Table:
        # one row per (doc, term): a term's row count is its df
        term = block["term"].combine_chunks()
        idx = pc.dictionary_encode(term).indices.to_numpy()
        return block.append_column(
            "df", pa.array(np.bincount(idx)[idx], pa.int64())
        )

    def topk(block: pa.Table) -> pa.Table:
        docid = block["docid"].to_numpy()
        tf = block["tf"].to_numpy().astype(np.float64)
        df = block["df"].to_numpy().astype(np.float64)
        score9 = round_half_away(tf * np.log(n_docs / df), 9)
        # Arrow orders strings by UTF-8 bytes = code points = python str
        term_rank = pc.rank(block["term"], tiebreaker="dense").to_numpy()
        order = np.lexsort((term_rank, -score9, docid))
        starts = run_starts(docid[order])
        rank = np.arange(1, len(order) + 1) - np.repeat(
            starts, np.diff(starts, append=len(order))
        )
        top = rank <= k
        keep = order[top]
        return pa.table(
            {
                "docid": block["docid"].take(keep),
                "term": block["term"].take(keep),
                "tf": block["tf"].take(keep),
                "df": block["df"].take(keep),
                "rank": pa.array(rank[top], pa.int64()),
                "tfidf_i6": pa.array(to_i6(score9[keep]), pa.int64()),
            }
        )

    df_rows = map_sorted_groups(
        ds.map_batches(tf_rows, batch_format="pyarrow"), "term", attach_df
    )
    return map_sorted_groups(df_rows, "docid", topk)


def _partial_term_counts(ds, text_col: str):
    """Corpus term frequencies: per-batch Counter (map-side combine) →
    sort(term) → block-level sum. One output row per distinct term, each
    term in exactly one block (the post-condition `_collect_lm` relies on)."""
    from collections import Counter

    def partial_counts(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for toks in analyzer.tokenize_batch(batch[text_col].to_pylist()):
            c.update(toks)
        return pa.table(
            {
                "term": pa.array(list(c.keys()), pa.string()),
                "cnt": pa.array(list(c.values()), pa.int64()),
            }
        )

    def sum_block(block: pa.Table) -> pa.Table:
        term = block["term"].combine_chunks()
        starts = run_starts(pc.dictionary_encode(term).indices.to_numpy())
        cnt = block["cnt"].to_numpy()
        return pa.table(
            {
                "term": term.take(starts),
                "cnt": pa.array(np.add.reduceat(cnt, starts), pa.int64()),
            }
        )

    return map_sorted_groups(
        ds.map_batches(partial_counts, batch_format="pyarrow"), "term", sum_block
    )


def _collect_lm(summed, vocab_cap: int | None):
    """Distributed-capped LM collection → ``(cf dict, total, vocab,
    pulled_rows)``. The driver never sees the full vocabulary: each block
    keeps only its local top-``vocab_cap`` by (cnt desc, term) — correct
    because after the groupby a term lives in exactly one block — plus one
    null-term sentinel row carrying the block's FULL (vocab, total), so V
    and the Laplace denominator still count the uncapped LM. A one-block
    reduce then trims the candidate union to the global top-V, and the
    driver pulls at most ``vocab_cap + 1`` rows. Uncapped (vocab_cap is
    None — the small-corpus mode whose contract IS the full LM) pulls the
    vocab directly, skipping two stages of dispatch."""
    if vocab_cap is None:
        rows = summed.take_all()
        cf = {r["term"]: r["cnt"] for r in rows}
        return cf, sum(cf.values()), len(cf), len(rows)

    def local_top(batch: pa.Table) -> pa.Table:
        cnt = batch["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        terms = batch["term"].to_pylist()
        blk_v, blk_tot = len(terms), int(cnt.sum())
        if vocab_cap is not None and len(terms) > vocab_cap:
            keep = np.lexsort((np.asarray(terms, dtype=object), -cnt))
            keep = np.sort(keep[:vocab_cap])
            terms = [terms[i] for i in keep]
            cnt = cnt[keep]
        n = len(terms)
        return pa.table(
            {
                "term": pa.array(list(terms) + [None], pa.string()),
                "cnt": pa.array(
                    np.concatenate([cnt, [0]]).astype(np.int64), pa.int64()
                ),
                "blk_vocab": pa.array([0] * n + [blk_v], pa.int64()),
                "blk_total": pa.array([0] * n + [blk_tot], pa.int64()),
            }
        )

    def final_top(batch: pa.Table) -> pa.Table:
        terms = batch["term"].to_pylist()
        cnt = batch["cnt"].to_numpy(zero_copy_only=False)
        sentinel = np.array([t is None for t in terms], dtype=bool)
        vocab = int(batch["blk_vocab"].to_numpy(zero_copy_only=False).sum())
        total = int(batch["blk_total"].to_numpy(zero_copy_only=False).sum())
        idx = np.nonzero(~sentinel)[0]
        if vocab_cap is not None and len(idx) > vocab_cap:
            t_arr = np.asarray([terms[i] for i in idx], dtype=object)
            order = np.lexsort((t_arr, -cnt[idx]))
            idx = idx[order[:vocab_cap]]
        n = len(idx)
        if vocab > n:
            logger.info(
                "unigram_logprob: vocab_cap=%s dropped %d tail terms "
                "(scored as unseen)", vocab_cap, vocab - n,
            )
        return pa.table(
            {
                "term": pa.array([terms[i] for i in idx] + [None], pa.string()),
                "cnt": pa.array(
                    np.concatenate([cnt[idx], [0]]).astype(np.int64),
                    pa.int64(),
                ),
                "blk_vocab": pa.array([0] * n + [vocab], pa.int64()),
                "blk_total": pa.array([0] * n + [total], pa.int64()),
            }
        )

    rows = (
        summed.map_batches(local_top, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final_top, batch_format="pyarrow", batch_size=None)
        .take_all()
    )
    cf = {r["term"]: r["cnt"] for r in rows if r["term"] is not None}
    total = sum(r["blk_total"] for r in rows)
    vocab = sum(r["blk_vocab"] for r in rows)
    return cf, total, vocab, len(rows)


def unigram_logprob(
    ds,
    id_col: str = "docid",
    text_col: str = "content",
    vocab_cap: int | None = None,
):
    """Self-corpus unigram-LM negative log-likelihood per doc — the
    perplexity-proxy quality signal corpus pipelines run next to the
    heuristic rules (a doc whose tokens are improbable under the corpus'
    own unigram distribution is boilerplate, code soup, or another
    language): → Dataset ``(docid, n_tokens, nll)`` with
    ``nll = -mean ln p(t)``, Laplace-smoothed
    ``p(t) = (cf_t + 1) / (total + V)``.

    Two passes. Pass 1 builds the LM: per-batch partial term counts
    (map-side combine — the shuffle moves one row per distinct term per
    batch, not per token) → groupby(term) sum → driver collect +
    broadcast via ``ray.put``. Pass 2 is MAP-ONLY scoring against the
    broadcast table. At 100-TB scale the vocabulary is the knob:
    ``vocab_cap`` keeps the top-V terms by (cf desc, term) — the
    heavy-hitters set — and scores tail terms with the unseen-term
    probability ``1 / (total + V)``; V always counts the FULL vocabulary
    so capped and uncapped models agree on the kept terms. The cap is
    applied DISTRIBUTED (``_collect_lm``): per-block top-V after the
    groupby (each term lives in exactly one block, so block-local top-V
    is a correct candidate superset) → one-block reduce → the driver
    pulls at most V+1 rows, never the full vocabulary."""
    ensure_shippable()

    cf, total, vocab, _pulled = _collect_lm(
        _partial_term_counts(ds, text_col), vocab_cap
    )
    ref = ray.put(cf)

    class Score:
        def __init__(self):
            self.cf = ray.get(ref)
            self.denom = float(total + vocab)

        def __call__(self, batch: pa.Table) -> pa.Table:
            nll, ntok = [], []
            for toks in analyzer.tokenize_batch(batch[text_col].to_pylist()):
                ntok.append(len(toks))
                if not toks:
                    nll.append(0.0)
                    continue
                cf = self.cf
                ps = np.fromiter(
                    ((cf.get(t, 0) + 1.0) for t in toks),
                    dtype=np.float64,
                    count=len(toks),
                )
                nll.append(
                    float(round_half_away(-np.log(ps / self.denom).mean()))
                )
            return pa.table(
                {
                    "docid": batch[id_col],
                    "n_tokens": pa.array(ntok, pa.int64()),
                    "nll": pa.array(nll, pa.float64()),
                }
            )

    return map_per_block(ds, Score, {})
