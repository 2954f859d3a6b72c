"""Driver contract implementation: queries() callables + matching DuckDB
oracle SQL over the registered testdata views (documents / embeddings /
events). Imported by ``__ray_entry__.py``.

Float policy: every float the driver hashes is emitted as an ``*_i6``
integer column, round(x * 1e6), on BOTH sides — integer compare, no float
hashing ambiguity. Rankings are computed on the i6 value with a docid
tie-break so the Ray and SQL sides share a total order even when two
documents' scores differ only by float-summation noise (< 1e-15).

The embedded BM25 query set lives here so the Ray path, the SQL VALUES
lists, the flagship entry() and bench.py all share one definition.

Oracle text contract: the SQL oracles tokenize document text with a
literal single-space split (``regexp_split_to_array(text, ' ')``), so
they mirror the engine exactly over the input_hint corpus shape —
non-empty docs of non-empty, single-space-separated, analyzer-normal
(lowercase ASCII alnum) tokens, which the driver's testdata guarantees.
Structurally extreme text INSIDE that contract (empty-adjacent docs,
10k-char tokens, 500x-repeated tokens, 2000-distinct-token docs) is
sweep-verified green across all 57 entries (tests/test_oracle_edge.py,
DPR_RAY_SLOW). Outside the contract (unicode, empty tokens, divergent
whitespace) the space-split oracle and the reference analyzer disagree
BY CONSTRUCTION; engine exactness on arbitrary text is gated instead by
the bitwise brute-force-oracle sweeps (tests/test_e2e_property.py,
tests/test_refresh_matrix.py). All SQL fragments stay total on
out-of-contract text (no crashes) — see the ``_ROLL131`` empty-token
note.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from . import analyzer
from .corpus import CORPUS_SQL, corpus_from_documents
from .index import manifest as man
from .index.build import build_index
from .index import segments as seg

ENGINE_VERSION = "v5"  # v5: length-framed corpus fingerprint (cached
# manifests record corpus_fp; the framing change would otherwise make
# resume against a pre-change /tmp cache refuse loudly — key them apart)
K1, B = 0.9, 0.4

# (qid, question, answers) — vocabulary of the documents tables
BM25_QUERIES = [
    ("q0", "key value table", ["value table"]),
    ("q1", "fast merge sort", ["merge"]),
    ("q2", "spark stream join window", ["window group"]),
    ("q3", "the a", ["the"]),
    ("q4", "vector hash", ["vector"]),
    ("q5", "customer order line", ["customer"]),
    ("q6", "slow scan", ["slow scan filter", "slow scan"]),
    ("q7", "missingword", ["key"]),
]
TOP_K = 10
HIT_KS = [1, 5, 10]

_STOPLIST = ("the", "a", "an", "of", "to", "in", "and", "is", "it", "on", "for")


from ._shipping import ensure_shippable
from .util import auto_pool, read_parquet_clean
from .util import to_i6 as _i6  # SQL ROUND (half-away) semantics

# Register every dpr_ray module for by-value pickling as soon as the driver
# contract is imported: queries like q_postings ship closures BEFORE any
# pipeline entry point runs (the driver may call them first), and an
# unregistered closure pickles its dpr_ray references by name — which
# off-path workers cannot import.
ensure_shippable()


# ------------------------------------------------------------ index cache --


def _cache_key(sf_dir: str) -> str:
    """Cache key for the /tmp index of one sf dir: abspath PLUS the
    documents.parquet (size, mtime_ns) fingerprint — keyed on path alone,
    a regenerated testdata file at the same path silently served the OLD
    corpus's index (the unsigned-cache variant of the marker-staleness
    class the resume markers are signed against). A changed input now
    lands on a fresh cache dir and rebuilds."""
    ident = os.path.abspath(sf_dir)
    try:
        st = os.stat(os.path.join(sf_dir, "documents.parquet"))
        ident += f"|{st.st_size}|{st.st_mtime_ns}"
    except OSError:
        ident += "|nostat"
    return hashlib.md5(ident.encode()).hexdigest()[:10]


def ensure_index(sf_dir: str) -> str:
    """Build (once) the BM25 index for a testdata sf dir; reuse across
    queries via the manifest's completeness flag (the resume path)."""
    ensure_shippable()
    index_dir = f"/tmp/dpr_ray_cache/{ENGINE_VERSION}_{_cache_key(sf_dir)}"
    if man.is_complete(index_dir):
        return index_dir
    os.makedirs("/tmp/dpr_ray_cache", exist_ok=True)
    build_index(
        corpus_from_documents(sf_dir),
        index_dir,
        docid_strategy="provided",
    )
    return index_dir


# --------------------------------------------------------------- docstore --

TOK_SQL = "SELECT doc_id, unnest(regexp_split_to_array(text, ' ')) AS term FROM documents"
TF_SQL = f"SELECT doc_id, term, count(*) AS tf FROM ({TOK_SQL}) GROUP BY doc_id, term"
DL_SQL = f"SELECT doc_id, count(*) AS dl FROM ({TOK_SQL}) GROUP BY doc_id"


def q_docstore(sf_dir: str):
    index_dir = ensure_index(sf_dir)
    ds = ray.data.read_parquet(
        os.path.join(index_dir, "docstore"),
        columns=["docid", "ext_id", "repo", "path", "commit", "lang",
                 "title", "doclen", "sha256"],
    )
    return ds.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("docid"), "docid", t["docid"].cast(pa.int64())
        ),
        batch_format="pyarrow",
    )


DOCSTORE_SQL = """
WITH c AS ({corpus})
SELECT docid, repo || '/' || path AS ext_id, repo, path, "commit", lang,
       repo || '/' || path AS title,
       len(regexp_split_to_array(content, ' ')) AS doclen,
       sha256(content) AS sha256
FROM c
""".format(corpus=CORPUS_SQL)


# ------------------------------------------------------------ corpus stats --


def q_corpus_stats(sf_dir: str):
    index_dir = ensure_index(sf_dir)
    s = seg.read_stats(index_dir)
    return pd.DataFrame(
        {
            "n_docs": pd.array([s["N"]], dtype="int64"),
            "sum_dl": pd.array([s["sum_dl"]], dtype="int64"),
            "avgdl_i6": pd.array([int(_i6([s["avgdl"]])[0])], dtype="int64"),
        }
    )


CORPUS_STATS_SQL = f"""
SELECT count(*) AS n_docs,
       CAST(COALESCE(sum(dl), 0) AS BIGINT) AS sum_dl,
       CAST(COALESCE(ROUND(avg(dl * 1.0) * 1000000), 0) AS BIGINT) AS avgdl_i6
FROM ({DL_SQL})
"""
# COALESCE: over a ZERO-ROW corpus sum/avg are NULL (→ pandas float64 NaN,
# a dtype mismatch against the engine's typed zeros); the engine's
# convention for an empty corpus is sum_dl = 0, avgdl = 0.


# -------------------------------------------------------------- term stats --


def q_term_stats(sf_dir: str):
    from ray.data.aggregate import Sum

    index_dir = ensure_index(sf_dir)
    ds = ray.data.read_parquet(
        os.path.join(index_dir, "segments"), columns=["term", "df", "cf"]
    )
    return ds.groupby("term").aggregate(
        Sum("df", alias_name="df"), Sum("cf", alias_name="cf")
    )


TERM_STATS_SQL = f"""
SELECT term, count(*) AS df, CAST(sum(tf) AS BIGINT) AS cf
FROM ({TF_SQL}) GROUP BY term
"""


# ---------------------------------------------------------------- postings --


def q_postings(sf_dir: str):
    index_dir = ensure_index(sf_dir)
    ds = ray.data.read_parquet(os.path.join(index_dir, "segments"))
    # capture the FUNCTION, not the `seg` module: a module object in a
    # closure pickles as import-by-name, which off-path workers can't do
    decode_blocks = seg.decode_blocks

    def decode(batch: pa.Table) -> pa.Table:
        """Vectorized postings dump through the segment codec: one
        concatenated decode per stream for the whole batch, terms
        re-attached by each posting's row."""
        docids, tfs, _, rows, _ = decode_blocks(batch)
        return pa.table(
            {
                "term": batch["term"].take(pa.array(rows, pa.int64())),
                "docid": pa.array(docids.astype(np.int64), pa.int64()),
                "tf": pa.array(tfs.astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(decode, batch_format="pyarrow")


POSTINGS_SQL = f"SELECT term, doc_id AS docid, tf FROM ({TF_SQL})"


# --------------------------------------------------------------- bm25 topk --


def _query_values_sql() -> str:
    rows = []
    for qid, question, _ans in BM25_QUERIES:
        for t in sorted(set(analyzer.tokenize(question))):
            rows.append(f"('{qid}', '{t}')")
    return ", ".join(rows)


def _answer_values_sql() -> str:
    rows = []
    for qid, _question, answers in BM25_QUERIES:
        for a in answers:
            rows.append(f"('{qid}', '{a}')")
    return ", ".join(rows)


_BM25_CORE_SQL = f"""
tok AS ({TOK_SQL}),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok GROUP BY doc_id, term),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id),
st AS (SELECT count(*)::DOUBLE AS n, avg(dl) AS avgdl FROM dl),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
q(qid, term) AS (VALUES {{qvalues}}),
sc AS (
  SELECT q.qid, tf.doc_id,
         sum( ln(1 + (st.n - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * (1 + {K1})
              / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / st.avgdl)) ) AS score
  FROM q JOIN df USING (term) JOIN tf USING (term)
       JOIN dl ON tf.doc_id = dl.doc_id CROSS JOIN st
  GROUP BY q.qid, tf.doc_id
),
ranked AS (
  SELECT qid, doc_id AS docid,
         CAST(ROUND(score * 1000000) AS BIGINT) AS score_i6,
         row_number() OVER (
           PARTITION BY qid
           ORDER BY CAST(ROUND(score * 1000000) AS BIGINT) DESC, doc_id
         ) AS rank
  FROM sc
)
"""


def _typed_empty(**dtypes) -> pd.DataFrame:
    """Schema-typed zero-row frame. Empty Datasets drop their schema
    through ``to_pandas``, so every entry that can serve zero rows builds
    its empty result explicitly — with the dtype spec AT the call site,
    because the specs intentionally differ (``docid`` stays uint64 on the
    raw serving surface but is int64 in driver-hashed frames, matching the
    oracle's BIGINT)."""
    return pd.DataFrame({c: pd.Series([], dtype=d) for c, d in dtypes.items()})


def _i6_snap_rank(res: pd.DataFrame, id_col: str, depth: int) -> tuple[pd.DataFrame, bool]:
    """Snap exact scores to i6, re-rank by (score_i6 desc, id). Returns
    (ranked df, boundary_safe): unsafe iff some query was truncated at
    ``depth`` AND its TOP_K-th snapped score ties the deepest fetched one —
    an unfetched doc could then round to the boundary value and, with a
    smaller id, displace the SQL oracle's top-K (which ranks ALL docs)."""
    res = res.sort_values(["qid", "score_i6", id_col], ascending=[True, False, True])
    res["rank"] = res.groupby("qid").cumcount() + 1
    safe = True
    for _qid, grp in res.groupby("qid"):
        if len(grp) >= depth and len(grp) > TOP_K:
            kth = grp["score_i6"].iloc[TOP_K - 1]
            if kth <= grp["score_i6"].iloc[-1]:
                safe = False
                break
    return res, safe


def _i6_ranked_fetch(index_dir: str, method: str = "taat") -> pd.DataFrame | None:
    """Engine top-k reranked by (score_i6 desc, docid) — the shared
    Ray/SQL total order (exact-scored, then i6-snapped). Fetch depth
    doubles until the K-th i6 value is strictly above the deepest fetched
    one (i6 ties at the boundary would otherwise admit unfetched
    smaller-docid rows in the oracle's total order); an exhausted loop is
    a LOUD error like every other parity guard here, never a silently
    boundary-unsafe frame. Returns None on empty retrieval (callers own
    their typed-empty schemas). Shared by the doc index (_bm25_results)
    and the chunk index (_chunked_results) — the loops used to be
    near-verbatim copies that had to be fixed in lockstep."""
    from .query.executor import search_pipeline

    depth = TOP_K + 10
    for _attempt in range(4):
        qds = ray.data.from_items(
            [{"qid": qid, "question": q} for qid, q, _a in BM25_QUERIES]
        )
        res = search_pipeline(qds, index_dir, k=depth, method=method).to_pandas()
        if res.empty:
            return None
        res["docid"] = res["docid"].astype("int64")
        res["score_i6"] = _i6(res["score"])
        res, safe = _i6_snap_rank(res, "docid", depth)
        if safe:
            res = res[res["rank"] <= TOP_K].reset_index(drop=True)
            res["rank"] = res["rank"].astype("int64")
            return res
        depth *= 4
    raise AssertionError(
        f"i6 tie at the fetch boundary persists at depth {depth} under "
        f"{index_dir} — the engine/oracle total orders cannot be compared"
    )


# per-process memo: _bm25_results/_qa_eval_df feed ~6 driver entries each
# (bm25_topk, qa_eval, hits_at_k, reader_*); without the memo every entry
# re-paid a full retrieval execution (seconds of fixed dispatch each, the
# measured CLAUDE.md lesson). Same pattern/lifetime as _ngram_pairs_memo;
# bench.py clears all three between repetitions so per-leg timings stay
# honest. Keyed on the index dir, not the sf path: ensure_index's dir
# embeds the documents.parquet fingerprint, so a corpus regenerated at the
# same path misses the memo instead of serving the old corpus's frame.
_bm25_results_memo: dict[tuple[str, str], pd.DataFrame] = {}
_qa_eval_memo: dict[str, pd.DataFrame] = {}


def _bm25_results(sf_dir: str, method: str = "taat") -> pd.DataFrame:
    index_dir = ensure_index(sf_dir)
    memo_key = (index_dir, method)
    hit = _bm25_results_memo.get(memo_key)
    if hit is not None:
        return hit
    res = _i6_ranked_fetch(index_dir, method)
    if res is None:
        # "score" included: q_bm25_topk's three-method bitwise compare
        # reads it even on empty results
        res = _typed_empty(
            qid=str, docid="int64", rank="int64",
            score_i6="int64", score="float64",
        )
    _bm25_results_memo[memo_key] = res
    return res


def q_bm25_topk(sf_dir: str):
    """Driver entry runs ALL THREE executor methods — TAAT, MaxScore and
    block-max WAND — and asserts they are bitwise-identical (same docids in
    the same order with equal float64 scores) before returning the shared
    result. This keeps the pruned query paths (the code most likely to
    drift under executor changes) inside a driver-checked entry, not just
    behind the pytest gate in tests/test_query.py."""
    base = _bm25_results(sf_dir, method="taat")
    for method in ("maxscore", "bmw"):
        alt = _bm25_results(sf_dir, method=method)
        same = (
            len(base) == len(alt)
            and (base["qid"].to_numpy() == alt["qid"].to_numpy()).all()
            and (base["docid"].to_numpy() == alt["docid"].to_numpy()).all()
            and (base["score"].to_numpy() == alt["score"].to_numpy()).all()
        )
        if not same:
            raise AssertionError(
                f"executor method {method!r} diverged from TAAT "
                "(bitwise top-k mismatch)"
            )
    _assert_banned_serving(sf_dir)
    return base[["qid", "docid", "rank", "score_i6"]]


def _assert_banned_serving(sf_dir: str) -> None:
    """In-query gate on the query-time tombstone path (``banned_docids``,
    the Lucene live-docs analog — live-docs filtering semantics of
    ``reference/dpr/indexer/faiss_indexers.py:107-112``'s exact-search
    contract): ban each query's rank-1 docid, re-run ALL THREE executor
    methods with the ban set, and assert each is bitwise-identical to the
    unbanned deeper fetch minus the banned docids. The decode filter
    (executor.py ``SegmentStore.scored``, and ``bmw_topk``'s heap guard on
    sparse ids) is the code most likely to drift under executor changes;
    this keeps it inside a checked query entry rather than only behind
    tests/test_tombstones.py."""
    from .query.executor import search_pipeline

    index_dir = ensure_index(sf_dir)

    def _run(k: int, method: str, banned=None) -> pd.DataFrame:
        qds = ray.data.from_items(
            [{"qid": qid, "question": q} for qid, q, _a in BM25_QUERIES]
        )
        res = search_pipeline(
            qds, index_dir, k=k, method=method, banned_docids=banned
        ).to_pandas()
        if res.empty:
            # raw serving surface: docid stays uint64
            return _typed_empty(
                qid=str, question=str, rank="int64",
                docid="uint64", score="float64",
            )
        return res.sort_values(["qid", "rank"]).reset_index(drop=True)

    deep = _run(TOP_K + len(BM25_QUERIES), "taat")
    if deep.empty:
        return
    banned = np.unique(
        deep.loc[deep["rank"] == 1, "docid"].to_numpy().astype(np.uint64)
    )
    expected = deep[~deep["docid"].isin(banned)].copy()
    expected = expected.groupby("qid", sort=True).head(TOP_K)
    expected["rank"] = expected.groupby("qid").cumcount() + 1
    expected = expected.reset_index(drop=True)
    for method in ("taat", "maxscore", "bmw"):
        got = _run(TOP_K, method, banned=banned)
        same = (
            len(got) == len(expected)
            and (got["qid"].to_numpy() == expected["qid"].to_numpy()).all()
            and (got["docid"].to_numpy() == expected["docid"].to_numpy()).all()
            and (got["rank"].to_numpy() == expected["rank"].to_numpy()).all()
            and (got["score"].to_numpy() == expected["score"].to_numpy()).all()
        )
        if not same:
            raise AssertionError(
                f"banned_docids serving diverged for method {method!r}: "
                "tombstone decode-filter is not exact vs unbanned-minus-banned"
            )


def q_bm25_topk_bmw(sf_dir: str):
    """Same results via the block-max WAND executor (the scale path must be
    rank-identical to TAAT and to the SQL oracle)."""
    return _bm25_results(sf_dir, method="bmw")[
        ["qid", "docid", "rank", "score_i6"]
    ]


def q_bm25_topk_maxscore(sf_dir: str):
    """Same results via the MaxScore-pruned executor."""
    return _bm25_results(sf_dir, method="maxscore")[
        ["qid", "docid", "rank", "score_i6"]
    ]


BM25_TOPK_SQL = (
    "WITH " + _BM25_CORE_SQL.format(qvalues=_query_values_sql())
    + f"SELECT qid, docid, rank, score_i6 FROM ranked WHERE rank <= {TOP_K}"
)


# ----------------------------------------------------------------- qa eval --


def _qa_eval_df(sf_dir: str) -> pd.DataFrame:
    """Top-k results + has_answer via the distributed stages (DocJoin
    batch-pruned parquet probe + AttachHasAnswer), never materializing the
    docstore on the driver. The result set itself is query-scale (tiny).

    Runs the doc join through BOTH shapes — the per-batch probe
    (``DocJoin``) and the dbucket-co-partitioned merge
    (``doc_join_copartitioned``, the bulk-result scale path) — and asserts
    identical joined content, so the driver row checks both paths."""
    from .eval.qa import AttachHasAnswer
    from .query.executor import DocJoin, doc_join_copartitioned

    index_dir = ensure_index(sf_dir)
    hit = _qa_eval_memo.get(index_dir)
    if hit is not None:
        return hit
    res = _bm25_results(sf_dir)
    if res.empty:
        # zero-row corpus retrieves nothing
        return _typed_empty(
            qid=str, rank="int64", docid="int64", has_answer=bool,
        )
    ans_ref = ray.put({qid: a for qid, _q, a in BM25_QUERIES})
    joined = ray.data.from_pandas(res[["qid", "rank", "docid"]]).map_batches(
        DocJoin,
        fn_constructor_kwargs={"index_dir": index_dir, "columns": ["content"]},
        batch_format="pyarrow",
        concurrency=1,
    )
    alt = (
        doc_join_copartitioned(
            ray.data.from_pandas(res[["qid", "rank", "docid"]]),
            index_dir,
            columns=["content"],
        )
        .to_pandas()
        .sort_values(["qid", "rank"], ignore_index=True)
    )
    ds = joined.map_batches(
        AttachHasAnswer,
        fn_constructor_kwargs={"answers_ref": ans_ref, "match": "string"},
        batch_format="pyarrow",
        concurrency=1,
    )
    out = ds.to_pandas()
    probe = out.sort_values(["qid", "rank"], ignore_index=True)
    same = (
        len(alt) == len(probe)
        and (alt["qid"].to_numpy() == probe["qid"].to_numpy()).all()
        and (alt["docid"].to_numpy().astype("uint64")
             == probe["docid"].to_numpy().astype("uint64")).all()
        and (alt["content"].to_numpy() == probe["content"].to_numpy()).all()
    )
    if not same:
        raise AssertionError(
            "co-partitioned doc join diverged from per-batch probe"
        )
    _qa_eval_memo[index_dir] = out
    return out


def q_qa_eval(sf_dir: str):
    m = _qa_eval_df(sf_dir)
    return m[["qid", "rank", "docid", "has_answer"]]


QA_EVAL_SQL = (
    "WITH " + _BM25_CORE_SQL.format(qvalues=_query_values_sql())
    + f""",
ans(qid, answer) AS (VALUES {_answer_values_sql()}),
hits AS (
  SELECT r.qid, r.rank, r.docid,
         bool_or((' ' || d.text || ' ') LIKE ('% ' || a.answer || ' %')) AS has_answer
  FROM ranked r JOIN documents d ON r.docid = d.doc_id
       JOIN ans a ON a.qid = r.qid
  WHERE r.rank <= {TOP_K}
  GROUP BY r.qid, r.rank, r.docid
)
SELECT qid, rank, docid, has_answer FROM hits
"""
)


def q_hits_at_k(sf_dir: str):
    m = _qa_eval_df(sf_dir)
    best = (
        m[m["has_answer"]].groupby("qid")["rank"].min()
        if m["has_answer"].any()
        else pd.Series(dtype="int64")
    )
    return pd.DataFrame(
        {
            "k": pd.array(HIT_KS, dtype="int64"),
            "n_hits": pd.array(
                [int((best <= k).sum()) for k in HIT_KS], dtype="int64"
            ),
        }
    )


HITS_AT_K_SQL = (
    "WITH " + _BM25_CORE_SQL.format(qvalues=_query_values_sql())
    + f""",
ans(qid, answer) AS (VALUES {_answer_values_sql()}),
hits AS (
  SELECT r.qid, r.rank,
         bool_or((' ' || d.text || ' ') LIKE ('% ' || a.answer || ' %')) AS hit
  FROM ranked r JOIN documents d ON r.docid = d.doc_id
       JOIN ans a ON a.qid = r.qid
  WHERE r.rank <= {TOP_K}
  GROUP BY r.qid, r.rank
),
best AS (SELECT qid, min(rank) FILTER (WHERE hit) AS bh FROM hits GROUP BY qid),
ks(k) AS (VALUES {", ".join(f"({k})" for k in HIT_KS)})
SELECT CAST(ks.k AS BIGINT) AS k,
       count(*) FILTER (WHERE best.bh IS NOT NULL AND best.bh <= ks.k) AS n_hits
FROM ks LEFT JOIN best ON TRUE GROUP BY ks.k
"""
# LEFT JOIN ON TRUE, not CROSS JOIN: on a corpus where retrieval returns
# ZERO rows `best` is empty and a cross join would emit 0 rows, while the
# engine always emits one row per k with n_hits=0 — the left join keeps
# the k rows (NULL bh counts 0 under the FILTER) and is row-identical to
# the cross join whenever `best` is non-empty.
)


# SQL-expressible rolling hashes (dpr_ray.util.token_hash31 / poly_mod31):
# token/shingle hash = Horner base-131 over code points mod 2^31-1, written
# in DuckDB as list_reduce(list_prepend(0, codepoints), ...). Every hash in
# the minhash/simhash/fingerprint pipelines reduces to this, so those
# queries get FULL value oracles (not rows-only checks).
_ROLL131 = (
    "list_reduce(list_prepend(CAST(0 AS BIGINT), "
    "list_transform(string_split({s}, ''), c -> greatest(unicode(c), 0))), "
    "(a,c) -> (a*131+c) % 2147483647)"
)
_ROLL137 = (
    "list_reduce(list_prepend(CAST(0 AS BIGINT), "
    "list_transform(string_split({s}, ''), c -> greatest(unicode(c), 0))), "
    "(a,c) -> (a*137+c) % 2147483647)"
)
# greatest(..., 0): DuckDB unicode('') is -1, so an EMPTY token (out-of-
# contract text: double/leading spaces, empty docs) would fold a negative
# into the Horner state and crash the later `<< 31` with "cannot
# left-shift negative number". The python side folds an empty token to 0
# (no characters to fold); string_split('', '') yields [''] on the SQL
# side, and greatest maps it to the same 0 — keeping both hashes total
# and equal on every token.


# ------------------------------------------------------------ dedup family --


def _docs_ds(sf_dir: str):
    return read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )


def q_dedup_exact(sf_dir: str):
    from .stages.dedup import exact_dedup

    return exact_dedup(_docs_ds(sf_dir), id_col="doc_id", text_col="text")


DEDUP_EXACT_SQL = """
SELECT sha256(text) AS content_sha, min(doc_id) AS docid_keep,
       count(*) AS n_dups
FROM documents GROUP BY text
"""

NGRAM_THRESHOLD = 0.05

# The computed pair set is shared by ngram_jaccard, dedup_clusters and
# curation (same lineage, deterministic). The OUTPUT is tiny (near-dup
# pairs, not the corpus) while the compute is the costliest secondary op,
# so memoize the materialized table per sf_dir within the driver process.
_ngram_pairs_memo: dict[str, pa.Table] = {}


def _ngram_pairs(sf_dir: str):
    tbl = _ngram_pairs_memo.get(sf_dir)
    if tbl is None:
        from .stages.dedup import ngram_jaccard_pairs

        ds = ngram_jaccard_pairs(
            _docs_ds(sf_dir), id_col="doc_id", text_col="text",
            k=3, threshold=NGRAM_THRESHOLD,
        )
        tbl = pa.Table.from_pylist(
            ds.take_all(),
            schema=pa.schema(
                [
                    ("docid_a", pa.int64()),
                    ("docid_b", pa.int64()),
                    ("jaccard", pa.float64()),
                ]
            ),
        )
        _ngram_pairs_memo[sf_dir] = tbl
    return ray.data.from_arrow(tbl)


def q_ngram_jaccard(sf_dir: str):
    pairs = _ngram_pairs(sf_dir)

    return pairs.map_batches(_pairs_to_i6, batch_format="pyarrow")


def _pairs_to_i6(batch: pa.Table) -> pa.Table:
    """(docid_a, docid_b, jaccard) → driver-hashed (docid_a, docid_b,
    jac_i6) — shared by ngram_jaccard / ngram_jaccard_hashed / minhash_lsh
    (the same transform was copy-pasted in all three)."""
    return pa.table(
        {
            "docid_a": batch["docid_a"],
            "docid_b": batch["docid_b"],
            "jac_i6": pa.array(
                _i6(batch["jaccard"].to_numpy(zero_copy_only=False)),
                pa.int64(),
            ),
        }
    )


NGRAM_JACCARD_SQL = f"""
WITH t AS (SELECT doc_id, regexp_split_to_array(text, ' ') AS a FROM documents),
s AS (
  SELECT doc_id,
         unnest(list_distinct(list_transform(
           range(1, greatest(len(a) - 1, 1)),
           i -> a[i] || ' ' || a[i+1] || ' ' || a[i+2]))) AS shingle
  FROM t WHERE len(a) >= 3
  UNION ALL
  SELECT doc_id, array_to_string(a, ' ') AS shingle FROM t WHERE len(a) < 3
),
sz AS (SELECT doc_id, count(*) AS n FROM s GROUP BY doc_id),
pr AS (
  SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS inter
  FROM s a JOIN s b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY da, db
)
SELECT da AS docid_a, db AS docid_b,
       CAST(ROUND(inter * 1000000.0 / (sa.n + sb.n - inter)) AS BIGINT) AS jac_i6
FROM pr JOIN sz sa ON pr.da = sa.doc_id JOIN sz sb ON pr.db = sb.doc_id
WHERE CAST(ROUND(inter * 1000000.0 / (sa.n + sb.n - inter)) AS BIGINT)
      >= {int(NGRAM_THRESHOLD * 1e6)}
"""


def q_ngram_jaccard_hashed(sf_dir: str):
    """String-free (62-bit hashed-shingle) Jaccard pairs — the 100-TB
    shuffle variant (stages/dedup.py:ngram_jaccard_pairs_hashed): same
    pair set as ngram_jaccard absent a 62-bit collision (P ≈ S²/2^63),
    but the exchange carries int64 keys instead of shingle strings."""
    from .stages.dedup import ngram_jaccard_pairs_hashed

    pairs = ngram_jaccard_pairs_hashed(
        _docs_ds(sf_dir), id_col="doc_id", text_col="text",
        k=3, threshold=NGRAM_THRESHOLD,
    )

    return pairs.map_batches(_pairs_to_i6, batch_format="pyarrow")


def _make_ngram_hashed_sql() -> str:
    tok_hash = _ROLL131.format(s="tok")
    thr = int(NGRAM_THRESHOLD * 1e6)

    def fold(base: int, arr: str) -> str:
        return (
            f"list_reduce(list_prepend(CAST(0 AS BIGINT), "
            f"list_transform({arr}, tok -> {tok_hash})), "
            f"(h, v) -> (h * {base} + v) % 2147483647)"
        )

    return f"""
WITH t AS (SELECT doc_id, regexp_split_to_array(text, ' ') AS a FROM documents),
w AS (
  SELECT doc_id,
         ({fold(137, 'a[u.p : u.p + 2]')})
         | (({fold(139, 'a[u.p : u.p + 2]')}) << 31) AS shash
  FROM t, LATERAL unnest(range(1, len(a) - 1)) AS u(p)
  WHERE len(a) >= 3
  UNION ALL
  SELECT doc_id, ({fold(137, 'a')}) | (({fold(139, 'a')}) << 31) AS shash
  FROM t WHERE len(a) < 3
),
x AS (
  SELECT DISTINCT doc_id, shash FROM w
),
sz AS (SELECT doc_id, count(*) AS n FROM x GROUP BY doc_id),
pr AS (
  SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS inter
  FROM x a JOIN x b ON a.shash = b.shash AND a.doc_id < b.doc_id
  GROUP BY da, db
)
SELECT da AS docid_a, db AS docid_b,
       CAST(ROUND(inter * 1000000.0 / (sa.n + sb.n - inter)) AS BIGINT) AS jac_i6
FROM pr JOIN sz sa ON pr.da = sa.doc_id JOIN sz sb ON pr.db = sb.doc_id
WHERE CAST(ROUND(inter * 1000000.0 / (sa.n + sb.n - inter)) AS BIGINT) >= {thr}
"""


NGRAM_HASHED_SQL = _make_ngram_hashed_sql()


DUP_SPAN_WINDOW = 8


def q_dup_spans(sf_dir: str):
    """Window-level duplication (substring contamination check): rolling
    8-token span fingerprints appearing in ≥2 distinct docs
    (stages/dedup.py:duplicate_spans)."""
    from .stages.dedup import duplicate_spans

    return duplicate_spans(
        _docs_ds(sf_dir), id_col="doc_id", text_col="text",
        window=DUP_SPAN_WINDOW,
    )



def _whash_sql(w: int) -> str:
    """The (doc_id, whash) window-fingerprint CTE body shared by the
    dup-spans / decontamination / repetition oracles: Horner base-137
    fold over per-token base-131 hashes for every w-token window."""
    tok_hash = _ROLL131.format(s="tok")
    return f"""
  SELECT doc_id,
         list_reduce(
           list_prepend(CAST(0 AS BIGINT),
             list_transform(a[u.p : u.p + {w - 1}], tok -> {tok_hash})),
           (h, v) -> (h * 137 + v) % 2147483647) AS whash
  FROM t, LATERAL unnest(range(1, len(a) - {w} + 2)) AS u(p)
  WHERE len(a) >= {w}"""


def _make_dup_spans_sql() -> str:
    return f"""
WITH t AS (SELECT doc_id, regexp_split_to_array(text, ' ') AS a FROM documents),
w AS ({_whash_sql(DUP_SPAN_WINDOW)}
)
SELECT whash, count(DISTINCT doc_id) AS n_docs, count(*) AS n_occ
FROM w GROUP BY whash HAVING count(DISTINCT doc_id) >= 2
"""


DUP_SPANS_SQL = _make_dup_spans_sql()


def q_decontam(sf_dir: str):
    """Cross-set decontamination (benchmark-leakage check): docs with
    doc_id % 20 == 0 play the EVAL set; every other doc is scanned for
    8-token spans whose fingerprint appears anywhere in the eval set —
    broadcast hash set + map-only corpus pass
    (stages/dedup.py:decontaminate)."""
    from .stages.dedup import decontaminate

    def _part(test: bool):
        def split(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            mask = (ids % 20 == 0) if test else (ids % 20 != 0)
            return batch.filter(pa.array(mask))

        return split

    docs = _docs_ds(sf_dir)
    test = docs.map_batches(_part(True), batch_format="pyarrow")
    corpus = docs.map_batches(_part(False), batch_format="pyarrow")
    return decontaminate(
        corpus, test, id_col="doc_id", text_col="text",
        window=DUP_SPAN_WINDOW,
    )


def _make_decontam_sql() -> str:
    w = DUP_SPAN_WINDOW
    return f"""
WITH t AS (SELECT doc_id, regexp_split_to_array(text, ' ') AS a FROM documents),
w AS ({_whash_sql(w)}
),
test AS (SELECT DISTINCT whash FROM w WHERE doc_id % 20 = 0),
hits AS (
  SELECT w.doc_id, count(*) AS n_hits
  FROM w JOIN test USING (whash)
  WHERE w.doc_id % 20 <> 0
  GROUP BY w.doc_id
)
SELECT t.doc_id AS docid,
       greatest(len(a) - {w - 1}, 0) AS n_spans,
       coalesce(h.n_hits, 0) AS n_hits,
       CAST(CASE WHEN coalesce(h.n_hits, 0) > 0 THEN 1 ELSE 0 END AS BIGINT)
         AS contaminated
FROM t LEFT JOIN hits h ON t.doc_id = h.doc_id
WHERE t.doc_id % 20 <> 0
"""


DECONTAM_SQL = _make_decontam_sql()


def q_repetition(sf_dir: str):
    """Gopher-style within-doc repetition signals (top-2gram coverage,
    duplicate-3gram fraction) — stages/text_stats.py:RepetitionStats."""
    from .stages.text_stats import RepetitionStats

    out = _docs_ds(sf_dir).map_batches(
        RepetitionStats(id_col="doc_id", text_col="text"),
        batch_format="pyarrow",
    )

    def to_i6(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "docid": batch["docid"],
                "top2_i6": pa.array(
                    _i6(batch["top2_frac"].to_numpy(zero_copy_only=False)),
                    pa.int64(),
                ),
                "dup3_i6": pa.array(
                    _i6(batch["dup3_frac"].to_numpy(zero_copy_only=False)),
                    pa.int64(),
                ),
            }
        )

    return out.map_batches(to_i6, batch_format="pyarrow")


def _make_repetition_sql() -> str:
    return f"""
WITH t AS (SELECT doc_id, regexp_split_to_array(text, ' ') AS a FROM documents),
w2 AS ({_whash_sql(2)}),
w3 AS ({_whash_sql(3)}),
c2 AS (SELECT doc_id, whash, count(*) AS c FROM w2 GROUP BY 1, 2),
a2 AS (SELECT doc_id, max(c) AS mx, sum(c) AS tot FROM c2 GROUP BY doc_id),
c3 AS (SELECT doc_id, whash, count(*) AS c FROM w3 GROUP BY 1, 2),
a3 AS (SELECT doc_id, sum(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup,
              sum(c) AS tot
       FROM c3 GROUP BY doc_id)
SELECT t.doc_id AS docid,
       CAST(coalesce(ROUND(a2.mx * 1000000.0 / a2.tot), 0) AS BIGINT) AS top2_i6,
       CAST(coalesce(ROUND(a3.dup * 1000000.0 / a3.tot), 0) AS BIGINT) AS dup3_i6
FROM t
LEFT JOIN a2 ON t.doc_id = a2.doc_id
LEFT JOIN a3 ON t.doc_id = a3.doc_id
"""


REPETITION_SQL = _make_repetition_sql()


def q_unigram_nll(sf_dir: str):
    """Self-corpus unigram-LM perplexity proxy: per-doc mean negative log
    likelihood under the corpus' own Laplace-smoothed unigram
    distribution (stages/text_stats.py:unigram_logprob)."""
    from .stages.text_stats import unigram_logprob

    out = unigram_logprob(_docs_ds(sf_dir), id_col="doc_id", text_col="text")

    def to_i6(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "docid": batch["docid"],
                "n_tokens": batch["n_tokens"],
                "nll_i6": pa.array(
                    _i6(batch["nll"].to_numpy(zero_copy_only=False)), pa.int64()
                ),
            }
        )

    return out.map_batches(to_i6, batch_format="pyarrow")


UNIGRAM_NLL_SQL = f"""
WITH tok AS ({TOK_SQL}),
cf AS (SELECT term, count(*) AS c FROM tok GROUP BY term),
tot AS (SELECT sum(c) AS total, count(*) AS v FROM cf),
per AS (
  SELECT doc_id, count(*) AS n_tokens,
         -avg(ln((cf.c + 1.0) / (tot.total + tot.v))) AS nll
  FROM tok JOIN cf USING (term) CROSS JOIN tot
  GROUP BY doc_id
)
SELECT d.doc_id AS docid,
       coalesce(per.n_tokens, 0) AS n_tokens,
       CAST(coalesce(ROUND(per.nll * 1000000), 0) AS BIGINT) AS nll_i6
FROM documents d LEFT JOIN per ON d.doc_id = per.doc_id
"""


def q_dedup_clusters(sf_dir: str):
    """Near-dup canonicalization: ngram-Jaccard pair graph → distributed
    connected components (min-label propagation, stages/components.py) →
    (docid, cluster_id, is_canonical) for EVERY doc (singletons included)."""
    from .stages.components import dedup_clusters

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    return dedup_clusters(docs, _ngram_pairs(sf_dir), id_col="doc_id")


# Transitive closure of the (undirected) qualifying-pair graph: each node
# starts labeled with itself; labels flow one hop per recursion step; the
# UNION dedup terminates the fixpoint. min(label) per node = the smallest
# reachable docid — exactly the engine's min-label-propagation invariant.
DEDUP_CLUSTERS_SQL = f"""
WITH RECURSIVE
t AS (SELECT doc_id, regexp_split_to_array(text, ' ') AS a FROM documents),
s AS (
  SELECT doc_id,
         unnest(list_distinct(list_transform(
           range(1, greatest(len(a) - 1, 1)),
           i -> a[i] || ' ' || a[i+1] || ' ' || a[i+2]))) AS shingle
  FROM t WHERE len(a) >= 3
  UNION ALL
  SELECT doc_id, array_to_string(a, ' ') AS shingle FROM t WHERE len(a) < 3
),
sz AS (SELECT doc_id, count(*) AS n FROM s GROUP BY doc_id),
pr AS (
  SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS inter
  FROM s a JOIN s b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY da, db
),
pairs AS (
  SELECT da, db
  FROM pr JOIN sz sa ON pr.da = sa.doc_id JOIN sz sb ON pr.db = sb.doc_id
  WHERE CAST(ROUND(inter * 1000000.0 / (sa.n + sb.n - inter)) AS BIGINT)
        >= {int(NGRAM_THRESHOLD * 1e6)}
),
e AS (SELECT da AS u, db AS v FROM pairs
      UNION ALL SELECT db, da FROM pairs),
reach(node, label) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT e.v, r.label FROM e JOIN reach r ON e.u = r.node
)
SELECT node AS docid, min(label) AS cluster_id,
       -- CASE literals are INTEGER; engine emits int64 (driver-hash dtype)
       CAST(CASE WHEN min(label) = node THEN 1 ELSE 0 END AS BIGINT)
         AS is_canonical
FROM reach GROUP BY node
"""



# distinct k=3 shingles per doc over space-split text (mirrors ngram SQL)
_SHINGLE_SQL = """
t AS (SELECT doc_id, regexp_split_to_array(text, ' ') AS a FROM documents),
s AS (
  SELECT doc_id,
         unnest(list_distinct(list_transform(
           range(1, greatest(len(a) - 1, 1)),
           i -> a[i] || ' ' || a[i+1] || ' ' || a[i+2]))) AS shingle
  FROM t WHERE len(a) >= 3
  UNION ALL
  SELECT doc_id, array_to_string(a, ' ') AS shingle FROM t WHERE len(a) < 3
)
"""


def _minhash_perm_values() -> str:
    """The engine's seeded MinHash coefficients as SQL VALUES rows."""
    from .stages.dedup import MinHasher

    h = MinHasher(num_perm=64, seed=1337)
    return ", ".join(
        f"({i}, {int(a)}, {int(b)})"
        for i, (a, b) in enumerate(zip(h.a[:, 0], h.b[:, 0]))
    )


def _make_minhash_sql() -> str:
    thr = int(NGRAM_THRESHOLD * 1e6)
    xh = _ROLL131.format(s="shingle")
    return f"""
WITH {_SHINGLE_SQL.strip()},
sz AS (SELECT doc_id, count(*) AS n FROM s GROUP BY doc_id),
x AS (SELECT doc_id, shingle, {xh} AS xh FROM s),
perm(i, a, b) AS (VALUES {_minhash_perm_values()}),
sig AS (
  SELECT x.doc_id, perm.i, min((perm.a * x.xh + perm.b) % 2147483647) AS v
  FROM x CROSS JOIN perm GROUP BY 1, 2
),
band AS (
  SELECT doc_id, i // 4 AS band, list(v ORDER BY i) AS bv
  FROM sig GROUP BY doc_id, i // 4
),
cand AS (
  SELECT DISTINCT a.doc_id AS da, b.doc_id AS db
  FROM band a JOIN band b
    ON a.band = b.band AND a.bv = b.bv AND a.doc_id < b.doc_id
),
inter AS (
  SELECT c.da, c.db, count(*) AS i
  FROM cand c JOIN s sa ON sa.doc_id = c.da
       JOIN s sb ON sb.doc_id = c.db AND sb.shingle = sa.shingle
  GROUP BY 1, 2
),
j AS (
  SELECT c.da, c.db,
         CAST(ROUND(COALESCE(i.i, 0) * 1000000.0
              / (sza.n + szb.n - COALESCE(i.i, 0))) AS BIGINT) AS jac_i6
  FROM cand c
  LEFT JOIN inter i ON i.da = c.da AND i.db = c.db
  JOIN sz sza ON sza.doc_id = c.da
  JOIN sz szb ON szb.doc_id = c.db
)
SELECT da AS docid_a, db AS docid_b, jac_i6 FROM j WHERE jac_i6 >= {thr}
"""


MINHASH_LSH_SQL = _make_minhash_sql()


def q_minhash_lsh(sf_dir: str):
    from .stages.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(
        _docs_ds(sf_dir), id_col="doc_id", text_col="text",
        k=3, threshold=NGRAM_THRESHOLD,
        source_parquet=f"{sf_dir}/documents.parquet",
    )

    return pairs.map_batches(_pairs_to_i6, batch_format="pyarrow")


def q_simhash(sf_dir: str):
    from .stages.dedup import simhash_fingerprints

    return simhash_fingerprints(_docs_ds(sf_dir), id_col="doc_id", text_col="text")


def _make_simhash_sql() -> str:
    h131 = _ROLL131.format(s="term")
    h137 = _ROLL137.format(s="term")
    return f"""
WITH tf AS ({TF_SQL}),
h AS (
  SELECT term,
         CASE WHEN term = '' THEN 0
              ELSE {h131} + {h137} * 2147483648 END AS h62
  FROM (SELECT DISTINCT term FROM tf)
),
bits AS (
  SELECT tf.doc_id, b.b,
         sum(CASE WHEN (h.h62 >> b.b) & 1 = 1 THEN tf.tf ELSE -tf.tf END) AS acc
  FROM tf JOIN h USING (term)
  CROSS JOIN (SELECT unnest(range(0, 62)) AS b) b
  GROUP BY 1, 2
),
sh AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN acc > 0
                       THEN (CAST(1 AS BIGINT) << b) ELSE 0 END) AS BIGINT) AS v
  FROM bits GROUP BY doc_id
)
SELECT doc_id AS docid, v >> 1 AS simhash,
       v & 65535 AS b0, (v >> 16) & 65535 AS b1,
       (v >> 32) & 65535 AS b2, (v >> 48) & 65535 AS b3
FROM sh
"""


SIMHASH_SQL = _make_simhash_sql()


# ------------------------------------------------------------- text stats --


def q_text_quality(sf_dir: str):
    from .stages.text_stats import TextQuality

    out = _docs_ds(sf_dir).map_batches(
        TextQuality(id_col="doc_id", text_col="text"), batch_format="pyarrow"
    )

    def to_i6(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "docid": batch["docid"],
                "n_tokens": batch["n_tokens"],
                "n_distinct": batch["n_distinct"],
                "distinct_i6": pa.array(
                    _i6(batch["distinct_ratio"].to_numpy(zero_copy_only=False)),
                    pa.int64(),
                ),
                "stopword_i6": pa.array(
                    _i6(batch["stopword_ratio"].to_numpy(zero_copy_only=False)),
                    pa.int64(),
                ),
                "mean_len_i6": pa.array(
                    _i6(batch["mean_token_len"].to_numpy(zero_copy_only=False)),
                    pa.int64(),
                ),
                "quality_i6": pa.array(
                    _i6(batch["quality_score"].to_numpy(zero_copy_only=False)),
                    pa.int64(),
                ),
            }
        )

    return out.map_batches(to_i6, batch_format="pyarrow")


TEXT_QUALITY_SQL = f"""
WITH tok AS ({TOK_SQL}),
per AS (
  SELECT doc_id, count(*) AS n_tokens, count(DISTINCT term) AS n_distinct,
         sum(CASE WHEN term IN {_STOPLIST!r} THEN 1 ELSE 0 END) AS stop,
         sum(len(term)) AS chars
  FROM tok GROUP BY doc_id
)
SELECT doc_id AS docid, n_tokens, n_distinct,
  CAST(ROUND(n_distinct * 1000000.0 / n_tokens) AS BIGINT) AS distinct_i6,
  CAST(ROUND(stop * 1000000.0 / n_tokens) AS BIGINT) AS stopword_i6,
  CAST(ROUND(chars * 1000000.0 / n_tokens) AS BIGINT) AS mean_len_i6,
  CAST(ROUND((n_distinct * 1.0 / n_tokens) * (1 - stop * 1.0 / n_tokens)
             * 1000000) AS BIGINT) AS quality_i6
FROM per
"""


def _space_token_counts(col) -> pa.Array:
    """Token count under the oracle whitespace convention —
    ``len(regexp_split_to_array(text, ' '))``: literal single-space split,
    empty pieces kept (so ``"a  b"`` counts 3, ``""`` counts 1). One Arrow
    kernel, bit-equal to DuckDB on divergent inputs (double spaces, tabs,
    punctuation, empties) — parity-tested in tests/test_analyzer.py.
    Used by every query whose oracle counts with regexp_split_to_array
    (token_count / quantiles / pack_bins) so engine↔oracle agreement never
    depends on the fixture being single-space text."""
    import pyarrow.compute as pc

    return pc.list_value_length(pc.split_pattern(col, " ")).cast(pa.int64())


# BPE-ish pre-tokenizer pieces (letter runs / digit runs / punct runs —
# the GPT-2 pre-split shape without its lookahead, so the SAME pattern is
# valid in both python re and DuckDB's RE2; branches are disjoint char
# classes, so leftmost-first vs leftmost-longest cannot diverge).
# Whitespace is an EXPLICIT char class, never \s: python's \s is Unicode
# (matches \x1c-\x1f, NBSP,  ...) while RE2's is [\t\n\f\r ] — the
# same pattern string would count pieces differently on such chars.
BPE_PATTERN = r"[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9\t\n\x0b\f\r ]+"
_BPE_RE = re.compile(BPE_PATTERN)


def q_token_count(sf_dir: str):
    """Whitespace/analyzer token count + BPE-ish piece count per doc (the
    two budgets a training pipeline tracks: words for quality rules,
    tokenizer pieces for context-window packing)."""

    def count_tokens(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n_bpe = [len(_BPE_RE.findall(t)) for t in texts]
        return pa.table(
            {
                "docid": batch["doc_id"],
                "n_tokens": _space_token_counts(batch["text"]),
                "n_bpe": pa.array(n_bpe, pa.int64()),
            }
        )

    return _docs_ds(sf_dir).map_batches(count_tokens, batch_format="pyarrow")


TOKEN_COUNT_SQL = (
    "SELECT doc_id AS docid, len(regexp_split_to_array(text, ' ')) AS n_tokens, "
    f"len(regexp_extract_all(text, '{BPE_PATTERN}')) AS n_bpe "
    "FROM documents"
)


TFIDF_K = 5


def q_tfidf_topk(sf_dir: str):
    """Per-doc TF-IDF keyword extraction (stages/text_stats.py:
    tfidf_topk): top-{TFIDF_K} terms by tf·ln(N/df), two-shuffle shape
    (groupby(term) attaches df, groupby(doc) takes the local top-k)."""
    from .stages.text_stats import tfidf_topk

    return tfidf_topk(
        _docs_ds(sf_dir), id_col="doc_id", text_col="text", k=TFIDF_K
    )


TFIDF_TOPK_SQL = f"""
WITH tf AS ({TF_SQL}),
dfs AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
n AS (SELECT count(*) AS n FROM documents),
s AS (SELECT tf.doc_id, tf.term, tf.tf, dfs.df,
             ROUND(tf.tf * ln(n.n / dfs.df), 9) AS score9
      FROM tf JOIN dfs USING (term) CROSS JOIN n),
r AS (SELECT doc_id, term, tf, df, score9,
             row_number() OVER (PARTITION BY doc_id
               ORDER BY score9 DESC, term) AS rank
      FROM s)
SELECT doc_id AS docid, term, tf, df, CAST(rank AS BIGINT) AS rank,
       CAST(ROUND(score9 * 1000000) AS BIGINT) AS tfidf_i6
FROM r WHERE rank <= {TFIDF_K}
"""


def q_quantiles(sf_dir: str):
    """Exact token-count quantiles via the distributed value-histogram
    (stages/sketch.py:exact_quantiles) — no sort, no per-row shuffle."""
    from .stages.sketch import exact_quantiles

    def count_tokens(batch: pa.Table) -> pa.Table:
        return pa.table({"n_tokens": _space_token_counts(batch["text"])})

    counts = _docs_ds(sf_dir).map_batches(count_tokens, batch_format="pyarrow")
    return exact_quantiles(counts, "n_tokens")


SAMPLE_RATES_I6 = {"en": 500_000}
SAMPLE_DEFAULT_I6 = 200_000


def q_sample_corpus(sf_dir: str):
    """Deterministic stratified downsample by language (hash-gated
    Bernoulli, stages/sampling.py) — map-only, resume-stable."""
    from .stages.sampling import stratified_sample

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    out = stratified_sample(
        docs, key_col="doc_id", strata_col="lang",
        rates_i6=SAMPLE_RATES_I6, default_rate_i6=SAMPLE_DEFAULT_I6,
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"docid": batch["doc_id"], "lang": batch["lang"]})

    return out.map_batches(rename, batch_format="pyarrow")


SAMPLE_CORPUS_SQL = f"""
SELECT doc_id AS docid, lang
FROM documents
WHERE ({_ROLL131.format(s="'s:' || CAST(doc_id AS VARCHAR)")}
       * 2654435761) % 2147483647 % 1000000 <
      CASE lang WHEN 'en' THEN {SAMPLE_RATES_I6["en"]}
                ELSE {SAMPLE_DEFAULT_I6} END
"""

SAMPLE_FIXED_N = 100


def q_sample_fixed(sf_dir: str):
    """Exactly-N deterministic uniform sample (hash-priority global top-N,
    stages/sampling.py:fixed_size_sample) — partition/order/rerun-stable."""
    from .stages.sampling import fixed_size_sample

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    out = fixed_size_sample(docs, key_col="doc_id", n=SAMPLE_FIXED_N)

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"docid": batch["key"], "rank": batch["rank"]})

    return out.map_batches(rename, batch_format="pyarrow")


SAMPLE_FIXED_SQL = f"""
SELECT docid, rank FROM (
  SELECT doc_id AS docid,
         row_number() OVER (
           ORDER BY ({_ROLL131.format(s="'s:' || CAST(doc_id AS VARCHAR)")}
                     * 2654435761) % 2147483647 ASC, doc_id ASC) AS rank
  FROM documents
) WHERE rank <= {SAMPLE_FIXED_N}
"""


GROUPED_TOPK_K = 3


def q_grouped_topk(sf_dir: str):
    """Best-K docs per language by quality score — per-block partial top-k
    then one groupby finisher (stages/sampling.py:grouped_topk)."""
    from .stages.sampling import grouped_topk
    from .stages.text_stats import TextQuality

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    tq = TextQuality(id_col="doc_id", text_col="text")

    def features(batch: pa.Table) -> pa.Table:
        q = tq(batch)
        return pa.table(
            {
                "lang": batch["lang"],
                "docid": q["docid"],
                "quality_i6": pa.array(
                    _i6(q["quality_score"].to_numpy(zero_copy_only=False)),
                    pa.int64(),
                ),
            }
        )

    feats = docs.map_batches(features, batch_format="pyarrow")
    return grouped_topk(
        feats, group_col="lang", value_col="quality_i6", id_col="docid",
        k=GROUPED_TOPK_K,
    )


GROUPED_TOPK_SQL = f"""
WITH q AS (SELECT * FROM ({TEXT_QUALITY_SQL})),
d AS (SELECT doc_id, lang FROM documents),
r AS (SELECT d.lang, q.docid, q.quality_i6,
             row_number() OVER (PARTITION BY d.lang
               ORDER BY q.quality_i6 DESC, q.docid) AS rank
      FROM q JOIN d ON q.docid = d.doc_id)
SELECT lang, docid, quality_i6, rank FROM r WHERE rank <= {GROUPED_TOPK_K}
"""


PACK_BUDGET = 512


def q_pack_bins(sf_dir: str):
    """Token-budget packing via the distributed two-pass prefix sum
    (stages/scan.py): global doc offsets in doc_id order, cut into
    fixed-budget context windows."""
    from .stages.scan import pack_bins

    def count_tokens(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": _space_token_counts(batch["text"]),
            }
        )

    counts = _docs_ds(sf_dir).map_batches(count_tokens, batch_format="pyarrow")
    out = pack_bins(counts, "doc_id", "n_tokens", budget=PACK_BUDGET)

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "docid": batch["key"],
                "n_tokens": batch["value"],
                "tok_offset": batch["offset"],
                "bin_id": batch["bin_id"],
            }
        )

    return out.map_batches(rename, batch_format="pyarrow")


PACK_BINS_SQL = f"""
WITH c AS (SELECT doc_id, len(regexp_split_to_array(text, ' ')) AS v
           FROM documents),
o AS (SELECT doc_id, v,
             COALESCE(sum(v) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS toff
      FROM c)
SELECT doc_id AS docid, v AS n_tokens,
       -- windowed sum() is HUGEINT in DuckDB; the engine emits int64, and
       -- the driver's hash is dtype-sensitive — cast BOTH derived columns
       CAST(toff AS BIGINT) AS tok_offset,
       CAST(toff // {PACK_BUDGET} AS BIGINT) AS bin_id
FROM o
"""


def q_pack_fragments(sf_dir: str):
    """Sequence packing with boundary splitting (stages/scan.py:
    pack_fragments): docs concatenated in doc_id order, cut into exact
    {PACK_BUDGET}-token windows, one fragment row per (doc, window)
    incidence with doc-relative [tok_start, tok_end)."""
    from .stages.scan import pack_fragments

    def count_tokens(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": _space_token_counts(batch["text"]),
            }
        )

    counts = _docs_ds(sf_dir).map_batches(count_tokens, batch_format="pyarrow")
    out = pack_fragments(counts, "doc_id", "n_tokens", budget=PACK_BUDGET)

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["docid", "bin_id", "tok_start", "tok_end", "frag_len"]
        )

    return out.map_batches(rename, batch_format="pyarrow")


PACK_FRAGMENTS_SQL = f"""
WITH c AS (SELECT doc_id, len(regexp_split_to_array(text, ' ')) AS v
           FROM documents),
o AS (SELECT doc_id, v,
             CAST(COALESCE(sum(v) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
               AS BIGINT) AS toff
      FROM c),
f AS (SELECT doc_id, v, toff,
             unnest(generate_series(toff // {PACK_BUDGET},
                                    (toff + v - 1) // {PACK_BUDGET})) AS bin_id
      FROM o WHERE v > 0)
SELECT doc_id AS docid, CAST(bin_id AS BIGINT) AS bin_id,
       CAST(greatest(toff, bin_id * {PACK_BUDGET}) - toff AS BIGINT)
         AS tok_start,
       CAST(least(toff + v, (bin_id + 1) * {PACK_BUDGET}) - toff AS BIGINT)
         AS tok_end,
       CAST(least(toff + v, (bin_id + 1) * {PACK_BUDGET})
            - greatest(toff, bin_id * {PACK_BUDGET}) AS BIGINT) AS frag_len
FROM f
"""


# rank r(p) = ((n-1) * p_i6) // 1e6 — integer arithmetic on both sides
QUANTILES_SQL = """
WITH c AS (SELECT len(regexp_split_to_array(text, ' ')) AS v FROM documents),
o AS (SELECT v, row_number() OVER (ORDER BY v) - 1 AS r FROM c),
n AS (SELECT count(*) AS cnt FROM c),
ks(p_i6) AS (VALUES (250000), (500000), (750000), (900000), (990000))
SELECT CAST(ks.p_i6 AS BIGINT) AS p_i6, o.v AS value
FROM ks CROSS JOIN n JOIN o ON o.r = (n.cnt - 1) * ks.p_i6 // 1000000
"""


APPROX_Q_RATE_I6 = 200_000  # 20% deterministic sample


def q_approx_quantiles(sf_dir: str):
    """Approximate quantiles of a CONTINUOUS column (events.value) — the
    scale path where the exact distinct-value histogram is unbounded:
    exact integer-rank quantiles of a deterministic hash-gated sample
    (stages/sketch.py:approx_quantiles; DKW error bound documented)."""
    from .stages.sketch import approx_quantiles

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    return approx_quantiles(
        ev, "value", "event_id", rate_i6=APPROX_Q_RATE_I6,
    )


APPROX_QUANTILES_SQL = f"""
WITH s AS (
  SELECT CAST(ROUND(value * 1000000) AS BIGINT) AS v
  FROM events
  WHERE ({_ROLL131.format(s="'q:' || CAST(event_id AS VARCHAR)")}
         * 2654435761) % 2147483647 % 1000000 < {APPROX_Q_RATE_I6}
),
o AS (SELECT v, row_number() OVER (ORDER BY v) - 1 AS r FROM s),
n AS (SELECT count(*) AS cnt FROM s),
ks(p_i6) AS (VALUES (250000), (500000), (750000), (900000), (990000))
SELECT CAST(ks.p_i6 AS BIGINT) AS p_i6, o.v AS value
FROM ks CROSS JOIN n JOIN o ON o.r = (n.cnt - 1) * ks.p_i6 // 1000000
"""


def q_langid(sf_dir: str):
    from .stages.text_stats import LangId

    return _docs_ds(sf_dir).map_batches(
        LangId(id_col="doc_id", text_col="text"), batch_format="pyarrow"
    )


def _make_langid_sql() -> str:
    from .stages.text_stats import _LANG_PROFILES

    prof = ", ".join(
        f"('{lang}', '{w}')"
        for lang in sorted(_LANG_PROFILES)
        for w in sorted(_LANG_PROFILES[lang])
    )
    return f"""
WITH dt AS (SELECT DISTINCT doc_id, term FROM ({TOK_SQL})),
prof(lang, term) AS (VALUES {prof}),
hit AS (
  SELECT dt.doc_id, prof.lang, count(*) AS n
  FROM dt JOIN prof ON dt.term = prof.term GROUP BY 1, 2
),
fl AS (
  SELECT d.doc_id, l.lang, COALESCE(h.n, 0) AS n
  FROM (SELECT doc_id FROM documents) d
  CROSS JOIN (SELECT DISTINCT lang FROM prof) l
  LEFT JOIN hit h ON h.doc_id = d.doc_id AND h.lang = l.lang
),
r AS (
  SELECT doc_id, lang, n,
         row_number() OVER (PARTITION BY doc_id ORDER BY n DESC, lang) AS rk
  FROM fl
)
SELECT r1.doc_id AS docid,
       CASE WHEN r1.n = 0 OR r1.n = r2.n THEN 'und' ELSE r1.lang END AS lang_pred
FROM r r1 JOIN r r2 ON r1.doc_id = r2.doc_id AND r1.rk = 1 AND r2.rk = 2
"""


LANGID_SQL = _make_langid_sql()


def q_fingerprint(sf_dir: str):
    from .stages.text_stats import Fingerprint

    return _docs_ds(sf_dir).map_batches(
        Fingerprint(id_col="doc_id", text_col="text"), batch_format="pyarrow"
    )


FINGERPRINT_SQL = f"""
SELECT doc_id AS docid,
  list_reduce(list_prepend(CAST(0 AS BIGINT),
    list_transform(regexp_split_to_array(text, ' '),
      t -> {_ROLL131.format(s="t")})),
    (a,h) -> (a*137+h) % 2147483647) AS fingerprint
FROM documents
"""


# ---------------------------------------------------------------- chunking --

CHUNK_WORDS = 40


def q_chunk_corpus(sf_dir: str):
    from .stages.chunking import chunk_documents

    return chunk_documents(
        _docs_ds(sf_dir), max_words=CHUNK_WORDS, id_col="doc_id", text_col="text"
    )


CHUNK_CORPUS_SQL = f"""
WITH t AS (SELECT doc_id, regexp_split_to_array(text, ' ') AS a FROM documents),
e AS (SELECT doc_id, a,
             unnest(range(0, CAST(ceil(len(a) / {CHUNK_WORDS}.0) AS INT))) AS s
      FROM t)
SELECT doc_id AS docid, s AS chunk_seq,
       array_to_string(a[s*{CHUNK_WORDS}+1 : (s+1)*{CHUNK_WORDS}], ' ') AS chunk_text,
       len(a[s*{CHUNK_WORDS}+1 : (s+1)*{CHUNK_WORDS}]) AS n_words
FROM e
"""


# ----------------------------------------------- chunked retrieval (A2) ----
# Composed pipeline: chunk files → index the CHUNKS → retrieve → aggregate
# hits at the parent-document level (the reference's table-chunk semantics,
# qa_validation.py:249-282: a hit on any chunk counts for the parent).


def _chunk_corpus_ds(sf_dir: str):
    from .stages.chunking import chunk_documents

    chunks = chunk_documents(
        _docs_ds(sf_dir), max_words=CHUNK_WORDS, id_col="doc_id", text_col="text"
    )

    def to_corpus(batch: pa.Table) -> pa.Table:
        parent = batch["docid"].to_numpy(zero_copy_only=False)
        seq = batch["chunk_seq"].to_numpy(zero_copy_only=False)
        if len(seq) and int(seq.max()) >= 64:
            # the *64 packing (mirrored by _CHUNKED_CORE_SQL) holds 64
            # chunks per doc; past it, chunk ids silently COLLIDE with
            # the next parent's id space (duplicate provided docids,
            # wrong parent attribution) — refuse loudly instead
            raise ValueError(
                f"document {int(parent[int(seq.argmax())])} has "
                f"{int(seq.max()) + 1} chunks — the chunk-docid packing "
                "(parent*64+seq) holds at most 64 per doc"
            )
        cid = parent * 64 + seq
        return pa.table(
            {
                "repo": pa.array(["chunks"] * len(cid)),
                "path": pa.array([f"{p}/{s}" for p, s in zip(parent, seq)]),
                "commit": pa.array(["0" * 40] * len(cid)),
                "lang": pa.array(["txt"] * len(cid)),
                "content": pa.array(
                    batch["chunk_text"].to_pylist(), pa.large_string()
                ),
                "docid": pa.array(cid, pa.uint64()),
            }
        )

    return chunks.map_batches(to_corpus, batch_format="pyarrow")


def ensure_chunk_index(sf_dir: str) -> str:
    # fingerprinted key (see _cache_key): stale-input staleness guard
    index_dir = (
        f"/tmp/dpr_ray_cache/{ENGINE_VERSION}_chunks_{_cache_key(sf_dir)}"
    )
    if not man.is_complete(index_dir):
        os.makedirs("/tmp/dpr_ray_cache", exist_ok=True)
        build_index(_chunk_corpus_ds(sf_dir), index_dir, docid_strategy="provided")
    return index_dir


def _chunked_results(sf_dir: str) -> pd.DataFrame:
    res = _i6_ranked_fetch(ensure_chunk_index(sf_dir))
    if res is None:
        # typed (not bare []-lists, which land as float64): the oracle
        # side is BIGINT and the driver's hash is dtype-sensitive
        return _typed_empty(
            qid=str, chunk_docid="int64", parent_docid="int64",
            rank="int64", score_i6="int64",
        )
    res = res.rename(columns={"docid": "chunk_docid"})
    res["parent_docid"] = res["chunk_docid"] // 64
    return res


def q_chunked_bm25(sf_dir: str):
    return _chunked_results(sf_dir)[
        ["qid", "chunk_docid", "parent_docid", "rank", "score_i6"]
    ]


_CHUNKED_CORE_SQL = f"""
t AS (SELECT doc_id, regexp_split_to_array(text, ' ') AS a FROM documents),
e AS (SELECT doc_id, a,
             unnest(range(0, CAST(ceil(len(a) / {CHUNK_WORDS}.0) AS INT))) AS s
      FROM t),
c AS (SELECT doc_id * 64 + s AS docid, doc_id AS parent,
             a[s*{CHUNK_WORDS}+1 : (s+1)*{CHUNK_WORDS}] AS toks
      FROM e),
tok AS (SELECT docid, unnest(toks) AS term FROM c),
tf AS (SELECT docid, term, count(*)::DOUBLE AS tf FROM tok GROUP BY docid, term),
dl AS (SELECT docid, count(*)::DOUBLE AS dl FROM tok GROUP BY docid),
st AS (SELECT count(*)::DOUBLE AS n, avg(dl) AS avgdl FROM dl),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
q(qid, term) AS (VALUES {{qvalues}}),
sc AS (
  SELECT q.qid, tf.docid,
         sum( ln(1 + (st.n - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * (1 + {K1})
              / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / st.avgdl)) ) AS score
  FROM q JOIN df USING (term) JOIN tf USING (term)
       JOIN dl ON tf.docid = dl.docid CROSS JOIN st
  GROUP BY q.qid, tf.docid
),
ranked AS (
  SELECT qid, docid AS chunk_docid, docid // 64 AS parent_docid,
         CAST(ROUND(score * 1000000) AS BIGINT) AS score_i6,
         row_number() OVER (
           PARTITION BY qid
           ORDER BY CAST(ROUND(score * 1000000) AS BIGINT) DESC, docid
         ) AS rank
  FROM sc
)
"""

CHUNKED_BM25_SQL = (
    "WITH " + _CHUNKED_CORE_SQL.format(qvalues=_query_values_sql())
    + f"SELECT qid, chunk_docid, parent_docid, rank, score_i6 FROM ranked "
      f"WHERE rank <= {TOP_K}"
)


def q_chunk_hits(sf_dir: str):
    """Parent-level best hit over the chunked top-k (A2 semantics), via
    DocJoin (batch-pruned probe of the chunk docstore) + AttachHasAnswer —
    no driver-side docstore materialization."""
    from .eval.qa import AttachHasAnswer
    from .eval.spans import chunk_level_hits
    from .query.executor import DocJoin

    res = _chunked_results(sf_dir)
    ans_ref = ray.put({qid: a for qid, _q, a in BM25_QUERIES})
    joined = (
        ray.data.from_pandas(
            res[["qid", "rank", "chunk_docid", "parent_docid"]].rename(
                columns={"chunk_docid": "docid"}
            )
        )
        .map_batches(
            DocJoin,
            fn_constructor_kwargs={
                "index_dir": ensure_chunk_index(sf_dir),
                "columns": ["content"],
            },
            batch_format="pyarrow",
            concurrency=1,
        )
        .map_batches(
            AttachHasAnswer,
            fn_constructor_kwargs={"answers_ref": ans_ref, "match": "string"},
            batch_format="pyarrow",
            concurrency=1,
        )
        .select_columns(["qid", "rank", "has_answer", "parent_docid"])
    )
    out = chunk_level_hits(joined, parent_col="parent_docid").to_pandas()
    if out.empty:
        # zero-row corpus → zero retrieved chunks
        return _typed_empty(qid=str, parent="int64", best_hit="int64")
    out["parent"] = out["parent"].astype("int64")
    out["best_hit"] = out["best_hit"].astype("int64")
    return out[["qid", "parent", "best_hit"]]


CHUNK_HITS_SQL = (
    "WITH " + _CHUNKED_CORE_SQL.format(qvalues=_query_values_sql())
    + f""",
ans(qid, answer) AS (VALUES {_answer_values_sql()}),
hits AS (
  SELECT r.qid, r.rank, r.parent_docid,
         bool_or((' ' || array_to_string(c.toks, ' ') || ' ')
                 LIKE ('% ' || a.answer || ' %')) AS hit
  FROM ranked r JOIN c ON r.chunk_docid = c.docid
       JOIN ans a ON a.qid = r.qid
  WHERE r.rank <= {TOP_K}
  GROUP BY r.qid, r.rank, r.parent_docid
)
SELECT qid, parent_docid AS parent,
       COALESCE(min(rank) FILTER (WHERE hit), 0) AS best_hit
FROM hits GROUP BY qid, parent_docid
"""
)


# -------------------------------------------------------------- reader ETL --


def q_reader_etl(sf_dir: str):
    """Retriever results → reader training samples (M20): positives with
    shifted answer spans, negatives capped, no-positive queries skipped —
    the reference's ``preprocess_retriever_data`` semantics over the BM25
    top-k (``dpr/data/reader_data.py:234-317``)."""
    from .eval.reader_etl import preprocess_retriever_results
    from .query.executor import DocJoin

    res = _bm25_results(sf_dir).copy()
    res["question"] = res["qid"].map({qid: q for qid, q, _a in BM25_QUERIES})
    ans_ref = ray.put({qid: a for qid, _q, a in BM25_QUERIES})
    ds = ray.data.from_pandas(
        res[["qid", "question", "rank", "docid"]]
    ).map_batches(
        DocJoin,
        fn_constructor_kwargs={
            "index_dir": ensure_index(sf_dir),
            "columns": ["title", "content"],
        },
        batch_format="pyarrow",
        concurrency=1,
    )
    return preprocess_retriever_results(ds, ans_ref, is_train=True)


def _qmeta_values_sql() -> str:
    return ", ".join(
        f"('{qid}', '{q}', {len(analyzer.tokenize(q))})"
        for qid, q, _a in BM25_QUERIES
    )


def _answer_ord_values_sql() -> str:
    rows = []
    for qid, _q, answers in BM25_QUERIES:
        for i, a in enumerate(answers):
            rows.append(f"('{qid}', {i}, '{a}')")
    return ", ".join(rows)


def _make_reader_etl_sql() -> str:
    # caps (max_positives=20, negatives ≥ 50) never bind at TOP_K=10, so the
    # oracle covers this configuration without re-expressing the cap chain
    title_toks = (
        r"len(regexp_extract_all(lower(d.source || '/doc/' "
        r"|| CAST(d.doc_id AS VARCHAR) || '.txt'), "
        r"'[\p{L}\p{N}\p{M}]+|[^\p{Z}\p{C}]'))"
    )
    return (
        "WITH " + _BM25_CORE_SQL.format(qvalues=_query_values_sql())
        + f""",
qmeta(qid, question, qlen) AS (VALUES {_qmeta_values_sql()}),
anso(qid, aord, answer) AS (VALUES {_answer_ord_values_sql()}),
doc AS (
  SELECT r.qid, r.rank, r.docid, regexp_split_to_array(d.text, ' ') AS toks,
         {title_toks} AS tlen
  FROM ranked r JOIN documents d ON r.docid = d.doc_id
  WHERE r.rank <= {TOP_K}
),
sp AS (
  SELECT doc.qid, doc.rank, a.aord, u.p - 1 AS s0,
         u.p + len(regexp_split_to_array(a.answer, ' ')) - 2 AS e0
  FROM doc JOIN anso a ON a.qid = doc.qid,
       LATERAL unnest(range(1, len(doc.toks)
         - len(regexp_split_to_array(a.answer, ' ')) + 2)) AS u(p)
  WHERE doc.toks[u.p : u.p + len(regexp_split_to_array(a.answer, ' ')) - 1]
        = regexp_split_to_array(a.answer, ' ')
),
agg AS (SELECT qid, rank, count(*) AS n_spans FROM sp GROUP BY 1, 2),
fst AS (
  SELECT qid, rank, s0, e0 FROM (
    SELECT *, row_number() OVER (PARTITION BY qid, rank ORDER BY aord, s0) AS rk
    FROM sp
  ) WHERE rk = 1
)
SELECT d.qid, q.question, d.docid, d.rank,
       CASE WHEN a.n_spans IS NOT NULL THEN 'pos' ELSE 'neg' END AS role,
       q.qlen + d.tlen AS passage_offset,
       COALESCE(a.n_spans, 0) AS n_spans,
       COALESCE(f.s0 + q.qlen + d.tlen, -1) AS span0_start,
       COALESCE(f.e0 + q.qlen + d.tlen, -1) AS span0_end
FROM doc d
JOIN qmeta q ON q.qid = d.qid
LEFT JOIN agg a ON a.qid = d.qid AND a.rank = d.rank
LEFT JOIN fst f ON f.qid = d.qid AND f.rank = d.rank
WHERE EXISTS (SELECT 1 FROM sp WHERE sp.qid = d.qid)
"""
    )


READER_ETL_SQL = _make_reader_etl_sql()


READER_EM_KS = [1, 2, 5, 10]


def q_reader_em(sf_dir: str):
    """The full reader prediction surface under the hash gate: K4
    relevance-ranked visit order → S12 per-threshold span predictions →
    A3 EM@k aggregate. Reader logits are deterministic 31-bit rolling
    hashes of the passage tokens (the SQL-replayable synthetic-model
    pattern the media queries use); ``max_answer_length=1`` keeps
    ``select_best_spans``'s (score desc, position) order in exact
    lockstep with the oracle's single-token span ranking."""
    from .eval.reader_predict import reader_em_at_k, reader_predictions
    from .query.executor import DocJoin
    from .util import token_hash31_impl as token_hash31  # shippable (plain)

    res = _bm25_results(sf_dir).copy()
    res["question"] = res["qid"].map({qid: q for qid, q, _a in BM25_QUERIES})
    joined = ray.data.from_pandas(
        res[["qid", "question", "rank", "docid"]]
    ).map_batches(
        DocJoin,
        fn_constructor_kwargs={
            "index_dir": ensure_index(sf_dir),
            "columns": ["content"],
        },
        batch_format="pyarrow",
        concurrency=1,
    )

    # an exact-answer token gets a +1.1 start-logit bonus (READER_EM_SQL's
    # `+ 1.1` term must stay equal to this constant) so the synthetic
    # reader is RIGHT where the passage contains the answer — EM@k then
    # varies with the threshold instead of being identically zero
    ans_sets = {qid: set(a) for qid, _q, a in BM25_QUERIES}

    def add_logits(batch: pa.Table) -> pa.Table:
        toks_all, sl_all, el_all, rel = [], [], [], []
        for qid, docid, text in zip(
            batch["qid"].to_pylist(),
            batch["docid"].to_pylist(),
            batch["content"].to_pylist(),
        ):
            aset = ans_sets.get(qid, set())
            toks = text.split(" ")
            toks_all.append(toks)
            sl_all.append(
                [
                    (token_hash31(t, 131) % 1000) / 1000.0
                    + (1.1 if t in aset else 0.0)
                    for t in toks
                ]
            )
            el_all.append(
                [(token_hash31(t, 137) % 1000) / 1000.0 for t in toks]
            )
            rel.append((token_hash31("r" + str(docid), 131) % 1000) / 1000.0)
        return pa.table(
            {
                "qid": batch["qid"],
                "question": batch["question"],
                "rank": batch["rank"].cast(pa.int64()),
                "relevance_logit": pa.array(rel, pa.float64()),
                "tokens": pa.array(toks_all, pa.list_(pa.string())),
                "start_logits": pa.array(sl_all, pa.list_(pa.float64())),
                "end_logits": pa.array(el_all, pa.list_(pa.float64())),
            }
        )

    samples = joined.map_batches(add_logits, batch_format="pyarrow")
    pred = reader_predictions(
        samples,
        passage_thresholds=READER_EM_KS,
        max_answer_length=1,
        top_spans=1,
    )
    ans_ref = ray.put({qid: a for qid, _q, a in BM25_QUERIES})
    em = reader_em_at_k(pred, ans_ref)
    return pa.table(
        {
            "top_k": pa.array(sorted(em), pa.int64()),
            "em_i6": pa.array(_i6([em[n] for n in sorted(em)]), pa.int64()),
        }
    )


def _norm_sql(expr: str) -> str:
    """normalize_answer (eval/qa.py:43) in DuckDB: lower → strip ASCII
    punctuation → articles → squeeze whitespace."""
    return (
        "trim(regexp_replace(regexp_replace(regexp_replace(lower("
        + expr
        + r"), '[!-/:-@\[-`{-~]', '', 'g'), '\b(a|an|the)\b', ' ', 'g'), "
        r"'\s+', ' ', 'g'))"
    )


def _make_reader_em_sql() -> str:
    h131 = _ROLL131.format(s="tok")
    h137 = _ROLL137.format(s="tok")
    relh = _ROLL131.format(s="'r' || CAST(docid AS VARCHAR)")
    ks = ", ".join(f"({n})" for n in READER_EM_KS)
    return (
        "WITH " + _BM25_CORE_SQL.format(qvalues=_query_values_sql())
        + f""",
ans(qid, answer) AS (VALUES {_answer_values_sql()}),
rdoc AS (
  SELECT r.qid, r.rank, r.docid, regexp_split_to_array(d.text, ' ') AS toks
  FROM ranked r JOIN documents d ON r.docid = d.doc_id
  WHERE r.rank <= {TOP_K}
),
rtok AS (
  SELECT qid, rank, docid, u.p AS p, toks[u.p] AS tok
  FROM rdoc, LATERAL unnest(range(1, len(toks) + 1)) AS u(p)
),
rsc AS (
  -- engine addition order: (start_hash + bonus) + end_hash
  SELECT rtok.qid, rank, docid, p, tok,
         (CAST({h131} % 1000 AS DOUBLE) / 1000.0
          + CASE WHEN b.answer IS NOT NULL THEN 1.1 ELSE 0.0 END)
           + CAST({h137} % 1000 AS DOUBLE) / 1000.0 AS score
  FROM rtok LEFT JOIN (SELECT DISTINCT qid, answer FROM ans) b
    ON b.qid = rtok.qid AND b.answer = rtok.tok
),
rvis AS (
  SELECT qid, rank, pred,
         row_number() OVER (PARTITION BY qid
           ORDER BY CAST({relh} % 1000 AS DOUBLE) / 1000.0 DESC, rank) AS vo
  FROM (
    SELECT qid, rank, docid, tok AS pred,
           row_number() OVER (PARTITION BY qid, rank
                              ORDER BY score DESC, p) AS rn
    FROM rsc
  ) WHERE rn = 1
),
ks(n) AS (VALUES {ks}),
p1 AS (
  SELECT qid, n, pred FROM (
    SELECT rvis.qid, ks.n, pred,
           row_number() OVER (PARTITION BY rvis.qid, ks.n ORDER BY vo) AS rn2
    FROM rvis CROSS JOIN ks WHERE rvis.rank <= ks.n
  ) WHERE rn2 = 1
),
emq AS (
  SELECT p1.qid, p1.n,
         max(CASE WHEN {_norm_sql('p1.pred')} = {_norm_sql('ans.answer')}
                  THEN 1 ELSE 0 END) AS em
  FROM p1 JOIN ans ON ans.qid = p1.qid GROUP BY 1, 2
)
SELECT CAST(n AS BIGINT) AS top_k,
       CAST(ROUND(avg(em) * 1000000) AS BIGINT) AS em_i6
FROM emq GROUP BY n
"""
    )


READER_EM_SQL = _make_reader_em_sql()


# --------------------------------------------------------------------- ANN --

KNN_K = 5
KNN_NQ = 10


def _load_queries(sf_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    t = t.filter(pa.compute.less(t["vec_id"], KNN_NQ))
    qids = t["vec_id"].to_pylist()
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    return qids, mat



def _knn_to_i6(res):
    """Shared kNN result shaping: (qid, vec_id, rank:int64, sim_i6)."""

    def to_i6(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": batch["qid"],
                "vec_id": batch["vec_id"],
                "rank": batch["rank"].cast(pa.int64()),
                "sim_i6": pa.array(
                    _i6(batch["sim"].to_numpy(zero_copy_only=False)), pa.int64()
                ),
            }
        )

    return res.map_batches(to_i6, batch_format="pyarrow")


def q_knn_cosine(sf_dir: str):
    from .stages.ann import brute_force_knn

    qids, qmat = _load_queries(sf_dir)
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).filter(expr=f"vec_id >= {KNN_NQ}")
    res = brute_force_knn(ds, qids, qmat, k=KNN_K)

    return _knn_to_i6(res)


def q_embedding_cov(sf_dir: str):
    """Distributed covariance of the embedding table (stages/linalg.py):
    per-block Gram partials, exact driver combine — d²+d floats per block
    move, never the vectors."""
    from .stages.linalg import covariance

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    )
    return covariance(ds, vec_col="embedding")


EMBEDDING_COV_SQL = """
WITH u AS (
  SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS i,
         unnest(embedding)::DOUBLE AS x
  FROM embeddings
),
m AS (SELECT i, avg(x) AS mu FROM u GROUP BY i),
pr AS (
  SELECT a.i AS i, b.i AS j, avg(a.x * b.x) AS exy
  FROM u a JOIN u b ON a.vec_id = b.vec_id
  GROUP BY 1, 2
)
SELECT pr.i, pr.j,
       CAST(ROUND((pr.exy - ma.mu * mb.mu) * 10000) AS BIGINT) AS cov_i4
FROM pr JOIN m ma ON pr.i = ma.i JOIN m mb ON pr.j = mb.i
"""


KNN_COSINE_SQL = f"""
WITH q AS (SELECT vec_id AS qid, embedding FROM embeddings WHERE vec_id < {KNN_NQ}),
c AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id >= {KNN_NQ}),
prs AS (SELECT q.qid, c.vec_id, unnest(q.embedding)::DOUBLE AS x,
               unnest(c.embedding)::DOUBLE AS y FROM q, c),
sims AS (SELECT qid, vec_id,
                sum(x*y) / (sqrt(sum(x*x)) * sqrt(sum(y*y))) AS sim
         FROM prs GROUP BY qid, vec_id),
r AS (SELECT qid, vec_id, sim,
             row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rank
      FROM sims)
SELECT qid, vec_id, rank, CAST(ROUND(sim * 1000000) AS BIGINT) AS sim_i6
FROM r WHERE rank <= {KNN_K}
"""


def q_sq8_knn(sf_dir: str):
    """SQ8 scalar-quantized kNN (FAISS ScalarQuantizer analog): per-dim
    min/max trained over the full table, uint8 codes, dequantized-float64
    cosine top-k — the whole chain replayed in the oracle
    (stages/ann.py:sq8_knn)."""
    from .stages.ann import sq8_knn

    qids, qmat = _load_queries(sf_dir)
    full = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    corpus = full.filter(expr=f"vec_id >= {KNN_NQ}")
    res = sq8_knn(corpus, qids, qmat, k=KNN_K, minmax_ds=full)

    return _knn_to_i6(res)


SQ8_KNN_SQL = f"""
WITH u AS (
  SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS i,
         unnest(embedding)::DOUBLE AS x
  FROM embeddings
),
mm AS (SELECT i, min(x) AS mn, max(x) AS mx FROM u GROUP BY i),
qz AS (
  SELECT vec_id, u.i,
         CASE WHEN mx > mn
              THEN mn + least(greatest(floor((x - mn) / (mx - mn) * 255 + 0.5),
                                       0), 255) * (mx - mn) / 255.0
              ELSE mn END AS xq
  FROM u JOIN mm ON u.i = mm.i
),
q AS (SELECT vec_id AS qid, i, xq FROM qz WHERE vec_id < {KNN_NQ}),
c AS (SELECT vec_id, i, xq FROM qz WHERE vec_id >= {KNN_NQ}),
sims AS (
  SELECT qid, c.vec_id,
         sum(q.xq * c.xq) / (sqrt(sum(q.xq * q.xq)) * sqrt(sum(c.xq * c.xq))) AS sim
  FROM q JOIN c ON q.i = c.i GROUP BY qid, c.vec_id
),
r AS (SELECT qid, vec_id, sim,
             row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rank
      FROM sims)
SELECT qid, vec_id, rank, CAST(ROUND(sim * 1000000) AS BIGINT) AS sim_i6
FROM r WHERE rank <= {KNN_K}
"""


NEAR_DUP_COS = 0.3  # random 64-d vectors rarely exceed ~0.4: yields few rows


def q_embedding_dup_pairs(sf_dir: str):
    from .stages.ann import embedding_near_dup_pairs

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return embedding_near_dup_pairs(ds, threshold=NEAR_DUP_COS)


EMBEDDING_DUP_SQL = f"""
WITH prs AS (
  SELECT a.vec_id AS id_a, b.vec_id AS id_b,
         unnest(a.embedding)::DOUBLE AS x, unnest(b.embedding)::DOUBLE AS y
  FROM embeddings a, embeddings b WHERE a.vec_id < b.vec_id
),
sims AS (
  SELECT id_a, id_b, sum(x*y) / (sqrt(sum(x*x)) * sqrt(sum(y*y))) AS cos
  FROM prs GROUP BY id_a, id_b
)
SELECT id_a, id_b, CAST(ROUND(cos * 1000000) AS BIGINT) AS cos_i6
FROM sims WHERE cos >= {NEAR_DUP_COS}
"""


SEM_EPS = 0.3  # same near-dup band as embedding_dup_pairs on this fixture


def q_semdedup(sf_dir: str):
    """SemDeDup-style semantic dedup (stages/ann.py:semdedup): k-means-
    bucket the embedding space (deterministic IVFPlan), prune near-dups
    within each cluster only — keep = no lower-id same-cluster vector
    with round9-cos >= eps."""
    from .stages.ann import semdedup

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return semdedup(
        ds, eps=SEM_EPS, n_lists=IVF_LISTS, iters=IVF_ITERS,
        train_cutoff=IVF_CUTOFF,
    )


def _make_semdedup_sql(dim: int = 64) -> str:
    """Replays semdedup end to end: the shared Lloyd chain trains the
    coarse quantizer on the same deterministic sample (here over the FULL
    embeddings table — semantic dedup has no query split), every vector
    is assigned, in-cluster lower-id pairs get round9-snapped cosines,
    and the keep/dup_of decision is a LEFT JOIN against the min matching
    lower id."""
    return f"""
WITH dims AS (SELECT range AS d FROM range({dim})),
lists AS (SELECT range AS j FROM range({IVF_LISTS})),
c AS MATERIALIZED (SELECT vec_id, embedding FROM embeddings),
s AS MATERIALIZED (SELECT vec_id, embedding FROM c WHERE vec_id < {IVF_CUTOFF}),
sr AS (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS rn FROM s),
init_rows AS (
  SELECT l.j, sr.vec_id
  FROM lists l JOIN sr
    ON sr.rn = l.j * greatest(1, (SELECT count(*) FROM s) // {IVF_LISTS})
),
inorm AS (
  SELECT ir.j, sqrt(sum(power(s.embedding[d.d + 1]::DOUBLE, 2))) AS nm
  FROM init_rows ir JOIN s ON s.vec_id = ir.vec_id, dims d GROUP BY ir.j
),
c0 AS MATERIALIZED (
  SELECT ir.j, d.d, ROUND(s.embedding[d.d + 1]::DOUBLE / nullif(i.nm, 0), 9) AS w
  FROM init_rows ir JOIN s ON s.vec_id = ir.vec_id
  JOIN inorm i ON i.j = ir.j, dims d
),{_ivf_lloyd_chain_sql()},
cdot AS (
  SELECT c.vec_id, f.j, ROUND(sum(f.w * c.embedding[f.d + 1]::DOUBLE), 9) AS dot
  FROM c, c{IVF_ITERS} f GROUP BY 1, 2
),
cassign AS (
  SELECT vec_id, j FROM (
    SELECT vec_id, j,
           row_number() OVER (PARTITION BY vec_id ORDER BY dot DESC, j) AS rk
    FROM cdot
  ) WHERE rk = 1
),
pairs AS (
  SELECT a.vec_id AS ia, b.vec_id AS ib
  FROM cassign a JOIN cassign b ON b.j = a.j AND b.vec_id < a.vec_id
),
pvec AS (
  SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS d,
         unnest(embedding)::DOUBLE AS x
  FROM c
),
-- Plain sum() accumulates in hash-arrival order (nondeterministic per
-- group); near the eps boundary that leaves only the round9 snap between
-- the two sides. Use ordered-list sequential reduction for the dot and
-- both norms (the residual-KNN oracle's qn/rn/dots idiom).
vn AS (
  SELECT vec_id,
         list_reduce(list_prepend(0.0, list(x * x ORDER BY d)),
                     (a, v) -> a + v) AS s2
  FROM pvec GROUP BY vec_id
),
dots AS (
  SELECT p.ia, p.ib,
         list_reduce(list_prepend(0.0, list(ea.x * eb.x ORDER BY ea.d)),
                     (a, v) -> a + v) AS dp
  FROM pairs p JOIN pvec ea ON ea.vec_id = p.ia
               JOIN pvec eb ON eb.vec_id = p.ib AND eb.d = ea.d
  GROUP BY 1, 2
),
sims AS (
  SELECT t.ia, t.ib,
         ROUND(t.dp / (sqrt(na.s2) * sqrt(nb.s2)), 9) AS sim9
  FROM dots t JOIN vn na ON na.vec_id = t.ia
              JOIN vn nb ON nb.vec_id = t.ib
),
dup AS (
  SELECT ia, min(ib) AS dup_of FROM sims WHERE sim9 >= {SEM_EPS} GROUP BY ia
)
SELECT ca.vec_id, CAST(ca.j AS BIGINT) AS cluster_id,
       CAST(CASE WHEN d.dup_of IS NULL THEN 1 ELSE 0 END AS BIGINT) AS keep,
       CAST(COALESCE(d.dup_of, -1) AS BIGINT) AS dup_of
FROM cassign ca LEFT JOIN dup d ON d.ia = ca.vec_id
"""


# SEMDEDUP_SQL is materialized after the IVF_* constants (defined below)


LSH_BITS, LSH_PROBE = 6, 3


def q_lsh_knn(sf_dir: str):
    from .stages.ann import lsh_knn

    qids, qmat = _load_queries(sf_dir)
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).filter(expr=f"vec_id >= {KNN_NQ}")
    res = lsh_knn(ds, qids, qmat, k=KNN_K, n_bits=LSH_BITS, n_probe=LSH_PROBE)

    return _knn_to_i6(res)


def _make_lsh_knn_sql() -> str:
    """The LSH plan's seeded hyperplanes ride into SQL as VALUES rows, so
    DuckDB reproduces bucketing, multiprobe (flip the lowest-|projection|
    bits) and the exact re-rank inside probed buckets."""
    from .stages.ann import LSHIndexPlan

    plan = LSHIndexPlan(64, n_bits=LSH_BITS, seed=99)
    vals = ", ".join(
        f"({b}, {d}, {plan.planes[b, d]!r})"
        for b in range(LSH_BITS)
        for d in range(64)
    )
    return f"""
WITH planes(b, d, w) AS (VALUES {vals}),
q AS (SELECT vec_id AS qid, embedding FROM embeddings WHERE vec_id < {KNN_NQ}),
c AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id >= {KNN_NQ}),
cpr AS (
  SELECT c.vec_id, p.b, sum(p.w * c.embedding[p.d + 1]::DOUBLE) AS proj
  FROM c, planes p GROUP BY 1, 2
),
cbucket AS (
  SELECT vec_id,
         CAST(sum(CASE WHEN proj > 0 THEN 1 << b ELSE 0 END) AS BIGINT) AS bucket
  FROM cpr GROUP BY vec_id
),
qpr AS (
  SELECT q.qid, p.b, sum(p.w * q.embedding[p.d + 1]::DOUBLE) AS proj
  FROM q, planes p GROUP BY 1, 2
),
qbase AS (
  SELECT qid,
         CAST(sum(CASE WHEN proj > 0 THEN 1 << b ELSE 0 END) AS BIGINT) AS base
  FROM qpr GROUP BY qid
),
qrank AS (
  SELECT qid, b,
         row_number() OVER (PARTITION BY qid ORDER BY abs(proj), b) AS rk
  FROM qpr
),
probes AS (
  SELECT qid, base AS bucket FROM qbase
  UNION ALL
  SELECT qb.qid, CAST(xor(qb.base, 1 << qr.b) AS BIGINT)
  FROM qbase qb JOIN qrank qr ON qr.qid = qb.qid AND qr.rk <= {LSH_PROBE - 1}
),
cand AS (
  SELECT DISTINCT p.qid, cb.vec_id
  FROM probes p JOIN cbucket cb ON cb.bucket = p.bucket
),
prs AS (
  SELECT cd.qid, cd.vec_id,
         unnest(q.embedding)::DOUBLE AS x, unnest(c.embedding)::DOUBLE AS y
  FROM cand cd JOIN q ON q.qid = cd.qid JOIN c ON c.vec_id = cd.vec_id
),
sims AS (
  SELECT qid, vec_id, sum(x*y) / (sqrt(sum(x*x)) * sqrt(sum(y*y))) AS sim
  FROM prs GROUP BY qid, vec_id
),
r AS (
  SELECT qid, vec_id, sim,
         row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rank
  FROM sims
)
SELECT qid, vec_id, rank, CAST(ROUND(sim * 1000000) AS BIGINT) AS sim_i6
FROM r WHERE rank <= {KNN_K}
"""


LSH_KNN_SQL = _make_lsh_knn_sql()


IVF_LISTS, IVF_PROBE, IVF_ITERS, IVF_CUTOFF = 12, 4, 8, 266


def q_ivf_knn(sf_dir: str):
    from .stages.ann import ivf_knn

    qids, qmat = _load_queries(sf_dir)
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).filter(expr=f"vec_id >= {KNN_NQ}")
    res = ivf_knn(
        ds, qids, qmat, k=KNN_K, n_lists=IVF_LISTS, n_probe=IVF_PROBE,
        train_cutoff=IVF_CUTOFF, iters=IVF_ITERS,
    )

    return _knn_to_i6(res)


def _ivf_lloyd_chain_sql() -> str:
    """The unrolled spherical-k-means Lloyd iteration blocks (a{i}/m{i}/
    n{i}/c{i+1}) over CTEs ``s`` (sample) and ``dims`` — shared verbatim
    by the IVF-family oracles and the semdedup oracle."""
    it = []
    for i in range(IVF_ITERS):
        it.append(f"""
a{i} AS MATERIALIZED (
  SELECT vec_id, j FROM (
    SELECT s.vec_id, c.j,
           row_number() OVER (
             PARTITION BY s.vec_id
             ORDER BY ROUND(sum(c.w * s.embedding[c.d + 1]::DOUBLE), 9) DESC, c.j
           ) AS rk
    FROM s, c{i} c GROUP BY s.vec_id, c.j
  ) WHERE rk = 1
),
m{i} AS MATERIALIZED (
  SELECT a.j, d.d, avg(s.embedding[d.d + 1]::DOUBLE) AS m
  FROM a{i} a JOIN s ON s.vec_id = a.vec_id, dims d
  GROUP BY a.j, d.d
),
n{i} AS MATERIALIZED (SELECT j, sqrt(sum(m * m)) AS nm FROM m{i} GROUP BY j),
c{i + 1} AS MATERIALIZED (
  SELECT c.j, c.d, COALESCE(ROUND(m.m / nullif(n.nm, 0), 9), c.w) AS w
  FROM c{i} c
  LEFT JOIN m{i} m ON m.j = c.j AND m.d = c.d
  LEFT JOIN n{i} n ON n.j = c.j
)""")
    return ",".join(it)


def _make_ivf_knn_sql(dim: int = 64) -> str:
    """DuckDB replays the ENTIRE IVF pipeline — spherical k-means training
    on the deterministic sample (``{KNN_NQ} <= vec_id < {IVF_CUTOFF}``),
    corpus list assignment, query multiprobe, exact re-rank — because
    IVFPlan snaps every decision float to ROUND(x, 9) (half-away, matching
    SQL ROUND). Lloyd iterations unroll into a CTE chain: a{{i}} = snapped
    argmax assignment, m{{i}}/n{{i}} = raw member means + norms,
    c{{i+1}} = snapped normalized update with COALESCE keeping the old
    centroid for empty / zero-norm lists."""
    iters_sql = _ivf_lloyd_chain_sql()
    return f"""
WITH dims AS (SELECT range AS d FROM range({dim})),
lists AS (SELECT range AS j FROM range({IVF_LISTS})),
q AS MATERIALIZED (SELECT vec_id AS qid, embedding FROM embeddings WHERE vec_id < {KNN_NQ}),
c AS MATERIALIZED (SELECT vec_id, embedding FROM embeddings WHERE vec_id >= {KNN_NQ}),
s AS MATERIALIZED (SELECT vec_id, embedding FROM c WHERE vec_id < {IVF_CUTOFF}),
sr AS (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS rn FROM s),
init_rows AS (
  SELECT l.j, sr.vec_id
  FROM lists l JOIN sr
    ON sr.rn = l.j * greatest(1, (SELECT count(*) FROM s) // {IVF_LISTS})
),
inorm AS (
  SELECT ir.j, sqrt(sum(power(s.embedding[d.d + 1]::DOUBLE, 2))) AS nm
  FROM init_rows ir JOIN s ON s.vec_id = ir.vec_id, dims d GROUP BY ir.j
),
c0 AS MATERIALIZED (
  SELECT ir.j, d.d, ROUND(s.embedding[d.d + 1]::DOUBLE / nullif(i.nm, 0), 9) AS w
  FROM init_rows ir JOIN s ON s.vec_id = ir.vec_id
  JOIN inorm i ON i.j = ir.j, dims d
),{iters_sql},
qd AS (
  SELECT q.qid, f.j, ROUND(sum(f.w * q.embedding[f.d + 1]::DOUBLE), 9) AS dot
  FROM q, c{IVF_ITERS} f GROUP BY 1, 2
),
qprobe AS (
  SELECT qid, j FROM (
    SELECT qid, j, row_number() OVER (PARTITION BY qid ORDER BY dot DESC, j) AS rk
    FROM qd
  ) WHERE rk <= {IVF_PROBE}
),
cdot AS (
  SELECT c.vec_id, f.j, ROUND(sum(f.w * c.embedding[f.d + 1]::DOUBLE), 9) AS dot
  FROM c, c{IVF_ITERS} f GROUP BY 1, 2
),
cassign AS (
  SELECT vec_id, j FROM (
    SELECT vec_id, j,
           row_number() OVER (PARTITION BY vec_id ORDER BY dot DESC, j) AS rk
    FROM cdot
  ) WHERE rk = 1
),
cand AS (
  SELECT DISTINCT p.qid, ca.vec_id
  FROM qprobe p JOIN cassign ca ON ca.j = p.j
),
prs AS (
  SELECT cd.qid, cd.vec_id,
         unnest(q.embedding)::DOUBLE AS x, unnest(c.embedding)::DOUBLE AS y
  FROM cand cd JOIN q ON q.qid = cd.qid JOIN c ON c.vec_id = cd.vec_id
),
sims AS (
  SELECT qid, vec_id, sum(x*y) / (sqrt(sum(x*x)) * sqrt(sum(y*y))) AS sim
  FROM prs GROUP BY qid, vec_id
),
r AS (
  SELECT qid, vec_id, sim,
         row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rank
  FROM sims
)
SELECT qid, vec_id, rank, CAST(ROUND(sim * 1000000) AS BIGINT) AS sim_i6
FROM r WHERE rank <= {KNN_K}
"""


IVF_KNN_SQL = _make_ivf_knn_sql()


PQ_M, PQ_KSUB, PQ_ITERS, PQ_CUTOFF = 4, 8, 3, 266


def q_pq_knn(sf_dir: str):
    """Product-quantized kNN (FAISS IndexPQ analog, asymmetric scoring):
    per-subspace L2 k-means trained on the deterministic sample, m-code
    encoding, reconstruction, cosine top-k (stages/ann.py:pq_knn)."""
    from .stages.ann import pq_knn

    qids, qmat = _load_queries(sf_dir)
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).filter(expr=f"vec_id >= {KNN_NQ}")
    res = pq_knn(
        ds, qids, qmat, k=KNN_K, m=PQ_M, ksub=PQ_KSUB,
        train_cutoff=PQ_CUTOFF, iters=PQ_ITERS,
    )

    return _knn_to_i6(res)


def _make_pq_knn_sql(dim: int = 64) -> str:
    """DuckDB replays the ENTIRE PQ pipeline — per-subspace L2 k-means on
    the deterministic sample, corpus code assignment, reconstruction,
    asymmetric cosine top-k — because PQPlan snaps every decision float
    to ROUND(x, 9) half-away. The subspace index rides along as a key
    column, so ONE unrolled Lloyd chain trains all m codebooks at once."""
    sub_d = dim // PQ_M
    dist = (
        "ROUND(sum(power(s.embedding[c.sb * {sd} + c.dl + 1]::DOUBLE - c.w, 2)), 9)"
    ).format(sd=sub_d)
    it = []
    for i in range(PQ_ITERS):
        it.append(f"""
a{i} AS MATERIALIZED (
  SELECT vec_id, sb, j FROM (
    SELECT s.vec_id, c.sb, c.j,
           row_number() OVER (
             PARTITION BY s.vec_id, c.sb
             ORDER BY {dist}, c.j
           ) AS rk
    FROM s, c{i} c GROUP BY s.vec_id, c.sb, c.j
  ) WHERE rk = 1
),
m{i} AS MATERIALIZED (
  SELECT a.sb, a.j, d.dl,
         avg(s.embedding[a.sb * {sub_d} + d.dl + 1]::DOUBLE) AS mu
  FROM a{i} a JOIN s ON s.vec_id = a.vec_id, ld d
  GROUP BY a.sb, a.j, d.dl
),
c{i + 1} AS MATERIALIZED (
  SELECT c.sb, c.j, c.dl, COALESCE(ROUND(m.mu, 9), c.w) AS w
  FROM c{i} c
  LEFT JOIN m{i} m ON m.sb = c.sb AND m.j = c.j AND m.dl = c.dl
)""")
    iters_sql = ",".join(it)
    fin = f"c{PQ_ITERS}"
    return f"""
WITH subs AS (SELECT range AS sb FROM range({PQ_M})),
ld AS (SELECT range AS dl FROM range({sub_d})),
ks AS (SELECT range AS j FROM range({PQ_KSUB})),
q AS MATERIALIZED (SELECT vec_id AS qid, embedding FROM embeddings WHERE vec_id < {KNN_NQ}),
c AS MATERIALIZED (SELECT vec_id, embedding FROM embeddings WHERE vec_id >= {KNN_NQ}),
s AS MATERIALIZED (SELECT vec_id, embedding FROM c WHERE vec_id < {PQ_CUTOFF}),
sr AS (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS rn FROM s),
init_rows AS (
  SELECT k.j, sr.vec_id
  FROM ks k JOIN sr
    ON sr.rn = k.j * greatest(1, (SELECT count(*) FROM s) // {PQ_KSUB})
),
c0 AS MATERIALIZED (
  SELECT ir.j, sub.sb, d.dl,
         ROUND(s.embedding[sub.sb * {sub_d} + d.dl + 1]::DOUBLE, 9) AS w
  FROM init_rows ir JOIN s ON s.vec_id = ir.vec_id, subs sub, ld d
),{iters_sql},
cassign AS (
  SELECT vec_id, sb, j FROM (
    SELECT s.vec_id, c.sb, c.j,
           row_number() OVER (
             PARTITION BY s.vec_id, c.sb
             ORDER BY {dist}, c.j
           ) AS rk
    FROM c s, {fin} c GROUP BY s.vec_id, c.sb, c.j
  ) WHERE rk = 1
),
rec AS (
  SELECT ca.vec_id, f.sb * {sub_d} + f.dl AS d, f.w
  FROM cassign ca JOIN {fin} f ON f.sb = ca.sb AND f.j = ca.j
),
qv AS (SELECT vec_id AS qid, generate_subscripts(embedding, 1) - 1 AS d,
              unnest(embedding)::DOUBLE AS x
       FROM embeddings WHERE vec_id < {KNN_NQ}),
-- PQ maps many corpus vectors to the SAME reconstruction; their sims must
-- come out bitwise-identical so the (sim DESC, vec_id) tie-break fires.
-- A plain sum() accumulates in hash-arrival order (nondeterministic per
-- group) — use ordered-list sequential reduction for dot and both norms.
qn AS (
  SELECT qid,
         list_reduce(list_prepend(0.0, list(x * x ORDER BY d)),
                     (a, v) -> a + v) AS s2
  FROM qv GROUP BY qid
),
rn AS (
  SELECT vec_id,
         list_reduce(list_prepend(0.0, list(w * w ORDER BY d)),
                     (a, v) -> a + v) AS s2
  FROM rec GROUP BY vec_id
),
dots AS (
  SELECT qv.qid, rec.vec_id,
         list_reduce(list_prepend(0.0, list(qv.x * rec.w ORDER BY qv.d)),
                     (a, v) -> a + v) AS dp
  FROM qv JOIN rec ON qv.d = rec.d GROUP BY 1, 2
),
sims AS (
  SELECT dots.qid, dots.vec_id, dots.dp / (sqrt(qn.s2) * sqrt(rn.s2)) AS sim
  FROM dots JOIN qn ON qn.qid = dots.qid JOIN rn ON rn.vec_id = dots.vec_id
),
r AS (SELECT qid, vec_id, ROUND(sim, 9) AS sim9,
             row_number() OVER (
               PARTITION BY qid ORDER BY ROUND(sim, 9) DESC, vec_id) AS rank
      FROM sims)
SELECT qid, vec_id, rank, CAST(ROUND(sim9 * 1000000) AS BIGINT) AS sim_i6
FROM r WHERE rank <= {KNN_K}
"""


PQ_KNN_SQL = _make_pq_knn_sql()


def q_ivfpq_knn(sf_dir: str):
    """IVF coarse filter + PQ asymmetric scoring (FAISS IndexIVFPQ
    analog, by_residual=False): both quantizers trained on the same
    deterministic sample; candidates from probed lists scored against PQ
    reconstructions (stages/ann.py:ivfpq_knn)."""
    from .stages.ann import ivfpq_knn

    qids, qmat = _load_queries(sf_dir)
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).filter(expr=f"vec_id >= {KNN_NQ}")
    res = ivfpq_knn(
        ds, qids, qmat, k=KNN_K, n_lists=IVF_LISTS, n_probe=IVF_PROBE,
        m=PQ_M, ksub=PQ_KSUB, train_cutoff=PQ_CUTOFF,
        ivf_iters=IVF_ITERS, pq_iters=PQ_ITERS,
    )

    return _knn_to_i6(res)


def _make_ivfpq_knn_sql(dim: int = 64) -> str:
    """IVF chain (through the probed candidate set) + a p-prefixed PQ
    training chain + PQ reconstruction scoring restricted to candidates.
    Shares the IVF SQL verbatim up to ``cand`` — same sample CTEs (both
    quantizers train on the identical deterministic sample), so the two
    chains compose without duplication."""
    base = _make_ivf_knn_sql(dim)
    head, sep, _ = base.partition("prs AS (")
    assert sep, "IVF SQL shape changed"
    sub_d = dim // PQ_M
    dist = (
        "ROUND(sum(power(s.embedding[c.sb * {sd} + c.dl + 1]::DOUBLE - c.w, 2)), 9)"
    ).format(sd=sub_d)
    it = []
    for i in range(PQ_ITERS):
        it.append(f"""
pa{i} AS MATERIALIZED (
  SELECT vec_id, sb, j FROM (
    SELECT s.vec_id, c.sb, c.j,
           row_number() OVER (
             PARTITION BY s.vec_id, c.sb ORDER BY {dist}, c.j
           ) AS rk
    FROM s, p{i} c GROUP BY s.vec_id, c.sb, c.j
  ) WHERE rk = 1
),
pm{i} AS MATERIALIZED (
  SELECT a.sb, a.j, d.dl,
         avg(s.embedding[a.sb * {sub_d} + d.dl + 1]::DOUBLE) AS mu
  FROM pa{i} a JOIN s ON s.vec_id = a.vec_id, ld d
  GROUP BY a.sb, a.j, d.dl
),
p{i + 1} AS MATERIALIZED (
  SELECT c.sb, c.j, c.dl, COALESCE(ROUND(m.mu, 9), c.w) AS w
  FROM p{i} c
  LEFT JOIN pm{i} m ON m.sb = c.sb AND m.j = c.j AND m.dl = c.dl
)""")
    fin = f"p{PQ_ITERS}"
    return head + f"""subs AS (SELECT range AS sb FROM range({PQ_M})),
ld AS (SELECT range AS dl FROM range({sub_d})),
ks AS (SELECT range AS j FROM range({PQ_KSUB})),
pinit AS (
  SELECT k.j, sr.vec_id
  FROM ks k JOIN sr
    ON sr.rn = k.j * greatest(1, (SELECT count(*) FROM s) // {PQ_KSUB})
),
p0 AS MATERIALIZED (
  SELECT ir.j, sub.sb, d.dl,
         ROUND(s.embedding[sub.sb * {sub_d} + d.dl + 1]::DOUBLE, 9) AS w
  FROM pinit ir JOIN s ON s.vec_id = ir.vec_id, subs sub, ld d
),{",".join(it)},
pqassign AS (
  SELECT vec_id, sb, j FROM (
    SELECT s.vec_id, c.sb, c.j,
           row_number() OVER (
             PARTITION BY s.vec_id, c.sb ORDER BY {dist}, c.j
           ) AS rk
    FROM c s, {fin} c GROUP BY s.vec_id, c.sb, c.j
  ) WHERE rk = 1
),
rec AS (
  SELECT ca.vec_id, f.sb * {sub_d} + f.dl AS d, f.w
  FROM pqassign ca JOIN {fin} f ON f.sb = ca.sb AND f.j = ca.j
),
qv AS (SELECT vec_id AS qid, generate_subscripts(embedding, 1) - 1 AS d,
              unnest(embedding)::DOUBLE AS x
       FROM embeddings WHERE vec_id < {KNN_NQ}),
qn AS (
  SELECT qid,
         list_reduce(list_prepend(0.0, list(x * x ORDER BY d)),
                     (a, v) -> a + v) AS s2
  FROM qv GROUP BY qid
),
rn AS (
  SELECT vec_id,
         list_reduce(list_prepend(0.0, list(w * w ORDER BY d)),
                     (a, v) -> a + v) AS s2
  FROM rec GROUP BY vec_id
),
dots AS (
  SELECT qv.qid, rec.vec_id,
         list_reduce(list_prepend(0.0, list(qv.x * rec.w ORDER BY qv.d)),
                     (a, v) -> a + v) AS dp
  FROM cand cd
  JOIN qv ON qv.qid = cd.qid
  JOIN rec ON rec.vec_id = cd.vec_id AND rec.d = qv.d
  GROUP BY 1, 2
),
sims AS (
  SELECT dots.qid, dots.vec_id, dots.dp / (sqrt(qn.s2) * sqrt(rn.s2)) AS sim
  FROM dots JOIN qn ON qn.qid = dots.qid JOIN rn ON rn.vec_id = dots.vec_id
),
r AS (SELECT qid, vec_id, ROUND(sim, 9) AS sim9,
             row_number() OVER (
               PARTITION BY qid ORDER BY ROUND(sim, 9) DESC, vec_id) AS rank
      FROM sims)
SELECT qid, vec_id, rank, CAST(ROUND(sim9 * 1000000) AS BIGINT) AS sim_i6
FROM r WHERE rank <= {KNN_K}
"""


IVFPQ_KNN_SQL = _make_ivfpq_knn_sql()


def q_ivfpq_residual_knn(sf_dir: str):
    """IVFPQ in FAISS's default ``by_residual=True`` form: the PQ trains
    on and encodes ``x - coarse_centroid[assign(x)]``; reconstruction adds
    the centroid back (stages/ann.py:ivfpq_knn by_residual=True).
    Reference analog: the trained IndexIVFPQ of faiss_indexers.py:201-232."""
    from .stages.ann import ivfpq_knn

    qids, qmat = _load_queries(sf_dir)
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).filter(expr=f"vec_id >= {KNN_NQ}")
    res = ivfpq_knn(
        ds, qids, qmat, k=KNN_K, n_lists=IVF_LISTS, n_probe=IVF_PROBE,
        m=PQ_M, ksub=PQ_KSUB, train_cutoff=PQ_CUTOFF,
        ivf_iters=IVF_ITERS, pq_iters=PQ_ITERS, by_residual=True,
    )

    return _knn_to_i6(res)


def _make_ivfpq_residual_knn_sql(dim: int = 64) -> str:
    """by_residual=True oracle: the IVF chain verbatim through ``cand`` /
    ``cassign``, then the PQ training + assignment chains re-expressed
    over LONG-FORM residual tables — ``cres(vec_id, d, rv)`` = raw dim
    value minus the assigned FINAL coarse centroid weight (both sides
    compute this identical float64 subtraction of a round9 weight from
    the raw embedding), ``sres`` = its sample slice. Reconstruction adds
    the coarse centroid back per dim (``g.w + f.w``, both round9-snapped,
    same addition order as the engine's ``coarse + pq.reconstruct``)."""
    base = _make_ivf_knn_sql(dim)
    head, sep, _ = base.partition("prs AS (")
    assert sep, "IVF SQL shape changed"
    sub_d = dim // PQ_M
    civf = f"c{IVF_ITERS}"
    sdist = "ROUND(sum(power(r.rv - c.w, 2)), 9)"
    it = []
    for i in range(PQ_ITERS):
        it.append(f"""
pa{i} AS MATERIALIZED (
  SELECT vec_id, sb, j FROM (
    SELECT r.vec_id, c.sb, c.j,
           row_number() OVER (
             PARTITION BY r.vec_id, c.sb ORDER BY {sdist}, c.j
           ) AS rk
    FROM sres r JOIN p{i} c ON r.d = c.sb * {sub_d} + c.dl
    GROUP BY r.vec_id, c.sb, c.j
  ) WHERE rk = 1
),
pm{i} AS MATERIALIZED (
  SELECT a.sb, a.j, r.d - a.sb * {sub_d} AS dl, avg(r.rv) AS mu
  FROM pa{i} a JOIN sres r
    ON r.vec_id = a.vec_id
   AND r.d >= a.sb * {sub_d} AND r.d < (a.sb + 1) * {sub_d}
  GROUP BY a.sb, a.j, dl
),
p{i + 1} AS MATERIALIZED (
  SELECT c.sb, c.j, c.dl, COALESCE(ROUND(m.mu, 9), c.w) AS w
  FROM p{i} c
  LEFT JOIN pm{i} m ON m.sb = c.sb AND m.j = c.j AND m.dl = c.dl
)""")
    fin = f"p{PQ_ITERS}"
    return head + f"""subs AS (SELECT range AS sb FROM range({PQ_M})),
ld AS (SELECT range AS dl FROM range({sub_d})),
ks AS (SELECT range AS j FROM range({PQ_KSUB})),
cres AS MATERIALIZED (
  SELECT ca.vec_id, f.d, c.embedding[f.d + 1]::DOUBLE - f.w AS rv
  FROM cassign ca JOIN c ON c.vec_id = ca.vec_id
  JOIN {civf} f ON f.j = ca.j
),
sres AS MATERIALIZED (SELECT * FROM cres WHERE vec_id < {PQ_CUTOFF}),
pinit AS (
  SELECT k.j, sr.vec_id
  FROM ks k JOIN sr
    ON sr.rn = k.j * greatest(1, (SELECT count(*) FROM s) // {PQ_KSUB})
),
p0 AS MATERIALIZED (
  SELECT ir.j, sub.sb, d.dl, ROUND(r.rv, 9) AS w
  FROM pinit ir CROSS JOIN subs sub CROSS JOIN ld d
  JOIN sres r ON r.vec_id = ir.vec_id AND r.d = sub.sb * {sub_d} + d.dl
),{",".join(it)},
pqassign AS (
  SELECT vec_id, sb, j FROM (
    SELECT r.vec_id, c.sb, c.j,
           row_number() OVER (
             PARTITION BY r.vec_id, c.sb ORDER BY {sdist}, c.j
           ) AS rk
    FROM cres r JOIN {fin} c ON r.d = c.sb * {sub_d} + c.dl
    GROUP BY r.vec_id, c.sb, c.j
  ) WHERE rk = 1
),
rec AS (
  SELECT ca.vec_id, f.sb * {sub_d} + f.dl AS d, g.w + f.w AS w
  FROM pqassign ca
  JOIN {fin} f ON f.sb = ca.sb AND f.j = ca.j
  JOIN cassign ci ON ci.vec_id = ca.vec_id
  JOIN {civf} g ON g.j = ci.j AND g.d = f.sb * {sub_d} + f.dl
),
qv AS (SELECT vec_id AS qid, generate_subscripts(embedding, 1) - 1 AS d,
              unnest(embedding)::DOUBLE AS x
       FROM embeddings WHERE vec_id < {KNN_NQ}),
qn AS (
  SELECT qid,
         list_reduce(list_prepend(0.0, list(x * x ORDER BY d)),
                     (a, v) -> a + v) AS s2
  FROM qv GROUP BY qid
),
rn AS (
  SELECT vec_id,
         list_reduce(list_prepend(0.0, list(w * w ORDER BY d)),
                     (a, v) -> a + v) AS s2
  FROM rec GROUP BY vec_id
),
dots AS (
  SELECT qv.qid, rec.vec_id,
         list_reduce(list_prepend(0.0, list(qv.x * rec.w ORDER BY qv.d)),
                     (a, v) -> a + v) AS dp
  FROM cand cd
  JOIN qv ON qv.qid = cd.qid
  JOIN rec ON rec.vec_id = cd.vec_id AND rec.d = qv.d
  GROUP BY 1, 2
),
sims AS (
  SELECT dots.qid, dots.vec_id, dots.dp / (sqrt(qn.s2) * sqrt(rn.s2)) AS sim
  FROM dots JOIN qn ON qn.qid = dots.qid JOIN rn ON rn.vec_id = dots.vec_id
),
r AS (SELECT qid, vec_id, ROUND(sim, 9) AS sim9,
             row_number() OVER (
               PARTITION BY qid ORDER BY ROUND(sim, 9) DESC, vec_id) AS rank
      FROM sims)
SELECT qid, vec_id, rank, CAST(ROUND(sim9 * 1000000) AS BIGINT) AS sim_i6
FROM r WHERE rank <= {KNN_K}
"""


IVFPQ_RESIDUAL_KNN_SQL = _make_ivfpq_residual_knn_sql()
SEMDEDUP_SQL = _make_semdedup_sql()


# ------------------------------------------------------------------ events --


def q_events_window(sf_dir: str):
    from .stages.windows import tumbling_window_agg

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    out = tumbling_window_agg(ev, window="hour")

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_us": batch["window_start"].cast(pa.int64()),
                "event_type": batch["event_type"],
                "n_events": batch["n_events"],
                "sum_i6": pa.array(
                    _i6(batch["sum_value"].to_numpy(zero_copy_only=False)),
                    pa.int64(),
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


EVENTS_WINDOW_SQL = """
SELECT epoch_us(date_trunc('hour', ts)) AS window_us, event_type,
       count(*) AS n_events,
       CAST(ROUND(sum(value) * 1000000) AS BIGINT) AS sum_i6
FROM events GROUP BY 1, 2
"""


def q_sessions(sf_dir: str):
    from .stages.windows import session_windows

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    out = session_windows(ev, gap_seconds=1800.0)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "session_start_us": batch["session_start"].cast(pa.int64()),
                "session_end_us": batch["session_end"].cast(pa.int64()),
                "n_events": batch["n_events"],
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


HOP_WINDOW_US = 3_600_000_000
HOP_HOP_US = 900_000_000


def q_events_hopping(sf_dir: str):
    from .stages.windows import hopping_window_agg

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    out = hopping_window_agg(
        ev, window_us=HOP_WINDOW_US, hop_us=HOP_HOP_US, key_col="event_type"
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_us": batch["window_start"].cast(pa.int64()),
                "event_type": batch["event_type"],
                "n_events": batch["n_events"],
                "sum_i6": pa.array(
                    _i6(batch["sum_value"].to_numpy(zero_copy_only=False)),
                    pa.int64(),
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


EVENTS_HOPPING_SQL = f"""
SELECT (epoch_us(ts) // {HOP_HOP_US} - r.i) * {HOP_HOP_US} AS window_us,
       event_type, count(*) AS n_events,
       CAST(ROUND(sum(value) * 1000000) AS BIGINT) AS sum_i6
FROM events
CROSS JOIN (SELECT unnest(range(0, {HOP_WINDOW_US // HOP_HOP_US})) AS i) r
GROUP BY 1, 2
"""


def q_heavy_hitters(sf_dir: str):
    from .stages.sketch import heavy_hitters

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )
    return heavy_hitters(docs, k=10, capacity=4096)


HEAVY_HITTERS_SQL = f"""
WITH c AS (SELECT term, count(*) AS cnt FROM ({TOK_SQL}) GROUP BY term),
r AS (SELECT term, cnt,
             row_number() OVER (ORDER BY cnt DESC, term) AS rank
      FROM c)
SELECT term, cnt, rank FROM r WHERE rank <= 10
"""


SESSIONS_SQL = """
WITH o AS (SELECT user_id, ts,
                  lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS pts
           FROM events),
f AS (SELECT user_id, ts,
             CASE WHEN pts IS NULL
                       OR epoch_us(ts) - epoch_us(pts) > 1800000000
                  THEN 1 ELSE 0 END AS nf
      FROM o),
s AS (SELECT user_id, ts,
             sum(nf) OVER (PARTITION BY user_id ORDER BY ts
                           ROWS UNBOUNDED PRECEDING) AS sid
      FROM f)
SELECT user_id, epoch_us(min(ts)) AS session_start_us,
       epoch_us(max(ts)) AS session_end_us, count(*) AS n_events
FROM s GROUP BY user_id, sid
"""


ASOF_LEFT_TYPE, ASOF_RIGHT_TYPE = "purchase", "click"


def q_asof_join(sf_dir: str):
    """Attribution as-of join: each purchase matched to the user's most
    recent preceding click (stages/joins.py:asof_join — one shuffle, one
    lexsort + exclusive cummax per key group)."""
    from .stages.joins import asof_join

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )
    left = ev.filter(expr=f"event_type == '{ASOF_LEFT_TYPE}'")
    right = ev.filter(expr=f"event_type == '{ASOF_RIGHT_TYPE}'")
    return asof_join(left, right, key_col="user_id", ts_col="ts",
                     id_col="event_id")


# "most recent preceding" in strict (ts, event_id) lexicographic order —
# ties total and deterministic on both sides
ASOF_JOIN_SQL = f"""
WITH x AS (SELECT event_id, user_id, ts FROM events
           WHERE event_type = '{ASOF_LEFT_TYPE}'),
y AS (SELECT event_id, user_id, ts FROM events
      WHERE event_type = '{ASOF_RIGHT_TYPE}'),
m AS (
  SELECT x.event_id AS left_id, y.event_id AS y_id,
         epoch_us(y.ts) AS y_ts_us,
         row_number() OVER (PARTITION BY x.event_id
                            ORDER BY y.ts DESC, y.event_id DESC) AS rn
  FROM x JOIN y ON x.user_id = y.user_id
    AND (y.ts < x.ts OR (y.ts = x.ts AND y.event_id < x.event_id))
)
SELECT x.user_id AS key, x.event_id AS left_id, epoch_us(x.ts) AS left_ts_us,
       COALESCE(m.y_id, -1) AS right_id,
       COALESCE(m.y_ts_us, -1) AS right_ts_us,
       COALESCE(epoch_us(x.ts) - m.y_ts_us, -1) AS lag_us
FROM x LEFT JOIN (SELECT * FROM m WHERE rn = 1) m ON x.event_id = m.left_id
"""


def q_range_join(sf_dir: str):
    """Range (interval-containment) join: every event matched to its
    containing gap-session window — events interval-joined against their
    own sessions (stages/joins.py:interval_join; one shuffle, two
    searchsorted calls per key group). Self-validating: row count equals
    the event count and per-session multiplicity equals n_events."""
    from .stages.joins import interval_join
    from .stages.windows import session_windows

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"]
    )
    sess = session_windows(ev, gap_seconds=1800.0)
    return interval_join(
        ev, sess, key_col="user_id", ts_col="ts", id_col="event_id",
        start_col="session_start", end_col="session_end",
    )


RANGE_JOIN_SQL = """
WITH o AS (SELECT user_id, ts,
                  lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS pts
           FROM events),
f AS (SELECT user_id, ts,
             CASE WHEN pts IS NULL
                       OR epoch_us(ts) - epoch_us(pts) > 1800000000
                  THEN 1 ELSE 0 END AS nf
      FROM o),
s AS (SELECT user_id, ts,
             sum(nf) OVER (PARTITION BY user_id ORDER BY ts
                           ROWS UNBOUNDED PRECEDING) AS sid
      FROM f),
sess AS (SELECT user_id, epoch_us(min(ts)) AS s_us, epoch_us(max(ts)) AS e_us
         FROM s GROUP BY user_id, sid)
SELECT e.user_id AS key, e.event_id AS left_id, epoch_us(e.ts) AS ts_us,
       sess.s_us AS start_us, sess.e_us AS end_us
FROM events e
JOIN sess ON sess.user_id = e.user_id
         AND epoch_us(e.ts) BETWEEN sess.s_us AND sess.e_us
"""


# -------------------------------------------------------------- multimodal --

# The synthetic media chain is sha256-seeded precisely so DuckDB can replay
# it: seed = sha256("{doc_id}:{text[:64]}"), payload = seed*64 (2048 B),
# decode metadata = payload bytes 0..2, features = uint32-LE words of
# sha256("{seed_hex}:{j}") expansions (stages/multimodal.py). The SQL below
# reconstructs the same bytes from hex pairs of sha256(VARCHAR) output.

# value of the m-th byte (0-based) of a lowercase hex string {h}
_HEXB = ("(strpos('0123456789abcdef', substr({h}, 2*({m})+1, 1)) - 1) * 16"
         " + strpos('0123456789abcdef', substr({h}, 2*({m})+2, 1)) - 1")

MEDIA_DECODE_SQL = f"""
WITH h AS (
  SELECT doc_id AS media_id,
         sha256(CAST(doc_id AS VARCHAR) || ':' || substr(text, 1, 64)) AS hx
  FROM documents
)
SELECT CAST(media_id AS BIGINT) AS media_id,
       CAST(16 + ({_HEXB.format(h='hx', m='0')}) % 64 AS INTEGER) AS width,
       CAST(16 + ({_HEXB.format(h='hx', m='1')}) % 64 AS INTEGER) AS height,
       CAST(1 + ({_HEXB.format(h='hx', m='2')}) % 3 AS INTEGER) AS channels,
       CAST(2048 AS BIGINT) AS n_bytes
FROM h
"""

# feature vector: 4 sha256 expansions of the seed hex → 128 bytes → 32
# uint32 LE words → float32(x)/2^32 (exact: /2^32 only shifts the float32
# exponent, so the only rounding is the uint32→float32 cast, replicated by
# CAST(x AS FLOAT)); norm over the float64-widened elements.
MEDIA_FEATURES_SQL = f"""
WITH h AS (
  SELECT doc_id AS media_id,
         sha256(CAST(doc_id AS VARCHAR) || ':' || substr(text, 1, 64)) AS hx
  FROM documents
),
raw AS (
  SELECT media_id,
         sha256(hx || ':0') || sha256(hx || ':1') ||
         sha256(hx || ':2') || sha256(hx || ':3') AS rx
  FROM h
),
v AS (
  SELECT media_id,
         list_transform(range(0, 32), k ->
           CAST(CAST(
                 ({_HEXB.format(h='rx', m='4*k')})
               + ({_HEXB.format(h='rx', m='4*k+1')}) * 256
               + ({_HEXB.format(h='rx', m='4*k+2')}) * 65536
               + ({_HEXB.format(h='rx', m='4*k+3')}) * 16777216
             AS FLOAT) AS DOUBLE) / 4294967296.0) AS vec
  FROM raw
)
SELECT CAST(media_id AS BIGINT) AS media_id,
       CAST(32 AS BIGINT) AS dim,
       CAST(ROUND(sqrt(list_sum(list_transform(vec, x -> x * x))) * 1000000)
            AS BIGINT) AS norm_i6,
       CAST(ROUND(vec[1] * 1000000) AS BIGINT) AS v0_i6,
       CAST(ROUND(vec[32] * 1000000) AS BIGINT) AS v31_i6
FROM v
"""


def q_media_decode(sf_dir: str):
    from .stages.multimodal import media_pipeline

    corpus = corpus_from_documents(sf_dir)
    decoded, _feats = media_pipeline(corpus, fake_decode=True)
    return decoded


def q_media_features(sf_dir: str):
    from .stages.multimodal import media_pipeline

    corpus = corpus_from_documents(sf_dir)
    _decoded, feats = media_pipeline(corpus, fake_decode=True)

    def summarize(batch: pa.Table) -> pa.Table:
        feats_np = [np.asarray(v, dtype=np.float64) for v in batch["feature"].to_pylist()]
        # sequential float64 sum-of-squares: matches DuckDB list_sum's
        # left-to-right accumulation order bit-for-bit
        def _norm(v: np.ndarray) -> float:
            acc = 0.0
            for x in v.tolist():
                acc += x * x
            return float(np.sqrt(acc))

        return pa.table(
            {
                "media_id": batch["media_id"],
                "dim": pa.array([len(v) for v in feats_np], pa.int64()),
                "norm_i6": pa.array(
                    _i6([_norm(v) for v in feats_np]), pa.int64()
                ),
                "v0_i6": pa.array(_i6([float(v[0]) for v in feats_np]), pa.int64()),
                "v31_i6": pa.array(_i6([float(v[-1]) for v in feats_np]), pa.int64()),
            }
        )

    return feats.map_batches(summarize, batch_format="pyarrow")


MEDIA_RESIZE_W, MEDIA_RESIZE_H = 32, 32
FRAME_EVERY = 4


def q_media_resize(sf_dir: str):
    """Geometry of an aspect-preserving resize-to-fit over the synthetic
    media (stages/multimodal.py:Resize; pixel resampling stubbed)."""
    from .stages.multimodal import Resize, synth_media_batch

    media = corpus_from_documents(sf_dir).map_batches(
        synth_media_batch, batch_format="pyarrow"
    )
    return media.map_batches(
        Resize,
        fn_constructor_kwargs={
            "target_w": MEDIA_RESIZE_W, "target_h": MEDIA_RESIZE_H,
            "fake": True,
        },
        batch_format="pyarrow",
        batch_size=256,
        concurrency=auto_pool(0.5),
    )


def q_media_frames(sf_dir: str):
    """Every-4th-frame sampling over the synthetic video chain
    (stages/multimodal.py:FrameSample; demux stubbed)."""
    from .stages.multimodal import FrameSample, synth_media_batch

    media = corpus_from_documents(sf_dir).map_batches(
        synth_media_batch, batch_format="pyarrow"
    )
    return media.map_batches(
        FrameSample,
        fn_constructor_kwargs={"every": FRAME_EVERY, "fake": True},
        batch_format="pyarrow",
        batch_size=256,
        concurrency=auto_pool(0.5),
    )


MEDIA_RESIZE_SQL = f"""
WITH h AS (
  SELECT doc_id AS media_id,
         sha256(CAST(doc_id AS VARCHAR) || ':' || substr(text, 1, 64)) AS hx
  FROM documents
),
g AS (
  SELECT media_id,
         16 + ({_HEXB.format(h='hx', m='0')}) % 64 AS w,
         16 + ({_HEXB.format(h='hx', m='1')}) % 64 AS h
  FROM h
),
s AS (
  SELECT media_id, w, h,
         least({MEDIA_RESIZE_W}.0 / w, {MEDIA_RESIZE_H}.0 / h, 1.0) AS scale
  FROM g
)
SELECT CAST(media_id AS BIGINT) AS media_id,
       CAST(trunc(w * scale) AS INTEGER) AS out_w,
       CAST(trunc(h * scale) AS INTEGER) AS out_h,
       CAST(ROUND(scale * 1000000) AS BIGINT) AS scale_i6
FROM s
"""

MEDIA_FRAMES_SQL = f"""
WITH h AS (
  SELECT doc_id AS media_id,
         sha256(CAST(doc_id AS VARCHAR) || ':' || substr(text, 1, 64)) AS hx
  FROM documents
),
g AS (
  SELECT media_id, hx,
         8 + ({_HEXB.format(h='hx', m='3')}) % 32 AS n_frames
  FROM h
)
SELECT CAST(media_id AS BIGINT) AS media_id,
       CAST(u.f AS INTEGER) AS frame_idx,
       CAST(n_frames AS INTEGER) AS n_frames,
       substr(sha256(hx || ':f' || CAST(u.f AS VARCHAR)), 1, 8) AS frame_sig
FROM g, LATERAL unnest(range(0, n_frames, {FRAME_EVERY})) AS u(f)
"""


# ----------------------------------------------------------- curation -------

CURATION_MIN_QUALITY_I6 = 250_000
CURATION_MIN_TOKENS = 20
CURATION_MAX_TOKENS = 1_000_000


def q_curation(sf_dir: str):
    """Composed training-data curation (stages/curation.py): fused
    quality+langid single pass, near-dup cluster canonicalization, one
    cogroup merge applying every keep-rule — per-doc audit verdicts."""
    from .stages.curation import curate_corpus

    docs = _docs_ds(sf_dir)
    return curate_corpus(
        docs,
        _ngram_pairs(sf_dir),
        id_col="doc_id",
        text_col="text",
        min_quality_i6=CURATION_MIN_QUALITY_I6,
        min_tokens=CURATION_MIN_TOKENS,
        max_tokens=CURATION_MAX_TOKENS,
    )


# The composite oracle is literally the composition of the three already-
# green per-stage oracles (quality, langid, clusters) joined on docid.
CURATION_SQL = f"""
WITH q AS (SELECT * FROM ({TEXT_QUALITY_SQL})),
l AS (SELECT * FROM ({LANGID_SQL})),
c AS (SELECT * FROM ({DEDUP_CLUSTERS_SQL}))
SELECT q.docid, q.n_tokens, l.lang_pred, q.quality_i6, c.is_canonical,
       CAST(CASE WHEN q.quality_i6 >= {CURATION_MIN_QUALITY_I6}
             AND q.n_tokens BETWEEN {CURATION_MIN_TOKENS}
                               AND {CURATION_MAX_TOKENS}
             AND l.lang_pred <> 'und'
             AND c.is_canonical = 1 THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM q JOIN l ON q.docid = l.docid JOIN c ON q.docid = c.docid
"""


# ----------------------------------------------------------------- exports --


def queries_dict():
    # ORDERING CONTRACT: the driver verifies the FIRST 50 entries in
    # insertion order. Every distinct component must sit in the first 50;
    # the tail (last 7) holds only redundant/pytest-gated variants with
    # prior driver-green rows: bm25_topk_bmw / bm25_topk_maxscore (now
    # FULLY redundant — the checked bm25_topk entry itself runs all three
    # executor methods and asserts bitwise identity in-query; these stay
    # for per-method oracle sweeps), sample_fixed / grouped_topk /
    # sample_corpus (tests/test_sampling.py), quantiles (exact variant,
    # tests/test_joins_quantiles.py; approx_quantiles stays checked),
    # chunked_bm25 (composition of chunk_corpus + the bitwise-gated BM25
    # engine; chunk_corpus AND chunk_hits stay checked).
    return {
        "docstore": q_docstore,
        "corpus_stats": q_corpus_stats,
        "term_stats": q_term_stats,
        "postings": q_postings,
        "bm25_topk": q_bm25_topk,
        "qa_eval": q_qa_eval,
        "hits_at_k": q_hits_at_k,
        "dedup_exact": q_dedup_exact,
        "ngram_jaccard": q_ngram_jaccard,
        "ngram_jaccard_hashed": q_ngram_jaccard_hashed,
        "dedup_clusters": q_dedup_clusters,
        "dup_spans": q_dup_spans,
        "decontam": q_decontam,
        "curation": q_curation,
        "minhash_lsh": q_minhash_lsh,
        "simhash": q_simhash,
        "text_quality": q_text_quality,
        "repetition": q_repetition,
        "unigram_nll": q_unigram_nll,
        "token_count": q_token_count,
        "tfidf_topk": q_tfidf_topk,
        "approx_quantiles": q_approx_quantiles,
        "pack_bins": q_pack_bins,
        "pack_fragments": q_pack_fragments,
        "chunk_corpus": q_chunk_corpus,
        "chunk_hits": q_chunk_hits,
        "reader_etl": q_reader_etl,
        "reader_em": q_reader_em,
        "langid": q_langid,
        "fingerprint": q_fingerprint,
        "knn_cosine": q_knn_cosine,
        "sq8_knn": q_sq8_knn,
        "embedding_cov": q_embedding_cov,
        "embedding_dup_pairs": q_embedding_dup_pairs,
        "semdedup": q_semdedup,
        "lsh_knn": q_lsh_knn,
        "ivf_knn": q_ivf_knn,
        "pq_knn": q_pq_knn,
        "ivfpq_knn": q_ivfpq_knn,
        "ivfpq_residual_knn": q_ivfpq_residual_knn,
        "events_window": q_events_window,
        "events_hopping": q_events_hopping,
        "sessions": q_sessions,
        "asof_join": q_asof_join,
        "range_join": q_range_join,
        "heavy_hitters": q_heavy_hitters,
        "media_decode": q_media_decode,
        "media_features": q_media_features,
        "media_resize": q_media_resize,
        "media_frames": q_media_frames,
        # --- tail: driver-unchecked (entries 51+), pytest-gated variants ---
        "bm25_topk_bmw": q_bm25_topk_bmw,
        "bm25_topk_maxscore": q_bm25_topk_maxscore,
        "sample_fixed": q_sample_fixed,
        "grouped_topk": q_grouped_topk,
        "quantiles": q_quantiles,
        "sample_corpus": q_sample_corpus,
        "chunked_bm25": q_chunked_bm25,
    }


def oracle_sql_dict():
    return {
        "docstore": DOCSTORE_SQL,
        "corpus_stats": CORPUS_STATS_SQL,
        "term_stats": TERM_STATS_SQL,
        "postings": POSTINGS_SQL,
        "bm25_topk": BM25_TOPK_SQL,
        "bm25_topk_bmw": BM25_TOPK_SQL,
        "bm25_topk_maxscore": BM25_TOPK_SQL,
        "qa_eval": QA_EVAL_SQL,
        "hits_at_k": HITS_AT_K_SQL,
        "dedup_exact": DEDUP_EXACT_SQL,
        "ngram_jaccard": NGRAM_JACCARD_SQL,
        "ngram_jaccard_hashed": NGRAM_HASHED_SQL,
        "dedup_clusters": DEDUP_CLUSTERS_SQL,
        "dup_spans": DUP_SPANS_SQL,
        "decontam": DECONTAM_SQL,
        "curation": CURATION_SQL,
        "minhash_lsh": MINHASH_LSH_SQL,
        "simhash": SIMHASH_SQL,
        "langid": LANGID_SQL,
        "fingerprint": FINGERPRINT_SQL,
        "text_quality": TEXT_QUALITY_SQL,
        "repetition": REPETITION_SQL,
        "unigram_nll": UNIGRAM_NLL_SQL,
        "token_count": TOKEN_COUNT_SQL,
        "tfidf_topk": TFIDF_TOPK_SQL,
        "quantiles": QUANTILES_SQL,
        "approx_quantiles": APPROX_QUANTILES_SQL,
        "pack_bins": PACK_BINS_SQL,
        "pack_fragments": PACK_FRAGMENTS_SQL,
        "sample_corpus": SAMPLE_CORPUS_SQL,
        "sample_fixed": SAMPLE_FIXED_SQL,
        "grouped_topk": GROUPED_TOPK_SQL,
        "chunk_corpus": CHUNK_CORPUS_SQL,
        "chunked_bm25": CHUNKED_BM25_SQL,
        "chunk_hits": CHUNK_HITS_SQL,
        "reader_etl": READER_ETL_SQL,
        "reader_em": READER_EM_SQL,
        "knn_cosine": KNN_COSINE_SQL,
        "sq8_knn": SQ8_KNN_SQL,
        "embedding_cov": EMBEDDING_COV_SQL,
        "lsh_knn": LSH_KNN_SQL,
        "ivf_knn": IVF_KNN_SQL,
        "pq_knn": PQ_KNN_SQL,
        "ivfpq_knn": IVFPQ_KNN_SQL,
        "ivfpq_residual_knn": IVFPQ_RESIDUAL_KNN_SQL,
        "embedding_dup_pairs": EMBEDDING_DUP_SQL,
        "semdedup": SEMDEDUP_SQL,
        "events_window": EVENTS_WINDOW_SQL,
        "events_hopping": EVENTS_HOPPING_SQL,
        "sessions": SESSIONS_SQL,
        "asof_join": ASOF_JOIN_SQL,
        "range_join": RANGE_JOIN_SQL,
        "heavy_hitters": HEAVY_HITTERS_SQL,
        "media_decode": MEDIA_DECODE_SQL,
        "media_features": MEDIA_FEATURES_SQL,
        "media_resize": MEDIA_RESIZE_SQL,
        "media_frames": MEDIA_FRAMES_SQL,
    }


def flagship_entry(sf_dir: str = "/root/testdata/sf0.001"):
    """Flagship: corpus → index → retrieve → validate → flattened results."""
    from .pipelines import retrieve_and_evaluate

    index_dir = ensure_index(sf_dir)
    queries = pa.table(
        {
            "qid": pa.array([q[0] for q in BM25_QUERIES]),
            "question": pa.array([q[1] for q in BM25_QUERIES]),
            "answers": pa.array([q[2] for q in BM25_QUERIES], pa.list_(pa.string())),
        }
    )
    res, metrics = retrieve_and_evaluate(queries, index_dir, k=TOP_K)
    df = res.to_pandas()
    df.attrs["metrics"] = metrics
    return df
