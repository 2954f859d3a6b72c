"""curate_corpus: every keep-rule exercised on a hand-built corpus."""

import pyarrow as pa
import ray

from conftest import REPO_ROOT
from dpr_ray.stages.curation import curate_corpus
from dpr_ray.stages.dedup import ngram_jaccard_pairs

GOOD = "the quick brown fox jumps over the lazy dog near the quiet river " * 2
DUP = GOOD + "extra tail words here"
SHORT = "tiny doc"
JUNK = "a a a a a a a a a a a a a a a a a a a a a a a a a a a a a a"


def _corpus():
    return ray.data.from_arrow(
        pa.table(
            {
                "docid": pa.array([1, 2, 3, 4], pa.int64()),
                "content": pa.array([GOOD, DUP, SHORT, JUNK], pa.string()),
            }
        )
    )


def test_curation_rules(ray_session):
    docs = _corpus()
    pairs = ngram_jaccard_pairs(docs, threshold=0.5)
    out = (
        curate_corpus(docs, pairs, min_quality_i6=100_000, min_tokens=10)
        .to_pandas()
        .set_index("docid")
    )
    assert len(out) == 4
    # doc 1: good text, canonical of the {1,2} near-dup cluster → kept
    assert out.loc[1, "keep"] == 1 and out.loc[1, "is_canonical"] == 1
    # doc 2: near-dup of 1 (Jaccard > 0.5) → not canonical, dropped
    assert out.loc[2, "is_canonical"] == 0 and out.loc[2, "keep"] == 0
    # doc 3: too short
    assert out.loc[3, "n_tokens"] < 10 and out.loc[3, "keep"] == 0
    # doc 4: one repeated token → distinct ratio floor, quality below min
    assert out.loc[4, "quality_i6"] < 100_000 and out.loc[4, "keep"] == 0
    # audit columns always populated
    assert (out["lang_pred"] != "").all()


def test_curation_no_pairs(ray_session):
    docs = _corpus()
    empty = ray.data.from_arrow(
        pa.table(
            {
                "docid_a": pa.array([], pa.int64()),
                "docid_b": pa.array([], pa.int64()),
            }
        )
    )
    out = curate_corpus(docs, empty).to_pandas()
    assert (out["is_canonical"] == 1).all()


def test_duplicate_spans(ray_session):
    from dpr_ray.stages.dedup import duplicate_spans

    span = "alpha beta gamma delta epsilon zeta eta theta"  # 8 tokens
    docs = ray.data.from_arrow(
        pa.table(
            {
                "docid": pa.array([1, 2, 3, 4], pa.int64()),
                "content": pa.array(
                    [
                        f"start {span} end",
                        f"other prefix {span}",
                        "completely different words here nothing repeated at all",
                        f"{span} {span}",  # twice in one doc
                    ],
                    pa.string(),
                ),
            }
        )
    )
    out = duplicate_spans(docs, window=8).to_pandas()
    # windows inside the shared span region occur across docs 1, 2, 4; the
    # EXACT 8-token span itself appears in all three (4 occurrences: doc 4
    # has it twice)
    assert len(out) > 0
    assert (out["n_docs"] >= 2).all()
    top = out.sort_values(["n_docs", "n_occ"], ascending=False).iloc[0]
    assert top["n_docs"] == 3 and top["n_occ"] >= 4

def test_ngram_hashed_matches_string_variant(ray_session):
    """The 62-bit hashed-shingle variant must produce the identical pair
    set and jaccard values as the exact string variant (collisions are
    ~2^-62 per shingle pair; impossible on a 4-doc corpus)."""
    from dpr_ray.stages.dedup import ngram_jaccard_pairs_hashed

    docs = _corpus()
    want = (
        ngram_jaccard_pairs(docs, threshold=0.2)
        .to_pandas()
        .sort_values(["docid_a", "docid_b"])
        .reset_index(drop=True)
    )
    got = (
        ngram_jaccard_pairs_hashed(docs, threshold=0.2)
        .to_pandas()
        .sort_values(["docid_a", "docid_b"])
        .reset_index(drop=True)
    )
    assert len(want) > 0
    assert want.equals(got)

def test_decontaminate(ray_session):
    """Corpus doc 1 contains the eval span twice (2 hits), doc 2 is clean,
    doc 3 is shorter than the window (0 spans, 0 hits)."""
    from dpr_ray.stages.dedup import decontaminate

    span = "alpha beta gamma delta epsilon zeta eta theta"  # 8 tokens
    test = ray.data.from_arrow(
        pa.table(
            {
                "docid": pa.array([100], pa.int64()),
                "content": pa.array([f"question about {span} indeed"], pa.string()),
            }
        )
    )
    corpus = ray.data.from_arrow(
        pa.table(
            {
                "docid": pa.array([1, 2, 3], pa.int64()),
                "content": pa.array(
                    [
                        f"{span} filler words {span}",
                        "completely different words here nothing repeated at all today",
                        "tiny doc",
                    ],
                    pa.string(),
                ),
            }
        )
    )
    out = (
        decontaminate(corpus, test, window=8)
        .to_pandas()
        .set_index("docid")
        .sort_index()
    )
    assert out.loc[1, "n_hits"] >= 2 and out.loc[1, "contaminated"] == 1
    assert out.loc[2, "n_hits"] == 0 and out.loc[2, "contaminated"] == 0
    assert out.loc[3, "n_spans"] == 0 and out.loc[3, "contaminated"] == 0

def test_repetition_stats(ray_session):
    from dpr_ray.stages.text_stats import RepetitionStats

    docs = ray.data.from_arrow(
        pa.table(
            {
                "docid": pa.array([1, 2, 3], pa.int64()),
                "content": pa.array(
                    [
                        "spam ham " * 10,          # one 2-gram dominates
                        "all these tokens appear only once here",
                        "x",                        # shorter than any window
                    ],
                    pa.string(),
                ),
            }
        )
    )
    out = (
        docs.map_batches(RepetitionStats(), batch_format="pyarrow")
        .to_pandas()
        .set_index("docid")
        .sort_index()
    )
    # doc 1: 20 tokens, 19 2-gram positions; "spam ham" occurs 10x
    assert abs(out.loc[1, "top2_frac"] - round(10 / 19, 6)) < 1e-9
    # every 3-gram position in doc 1 repeats (all spans are one of 2 kinds)
    assert out.loc[1, "dup3_frac"] == 1.0
    # doc 2: no repeated 2/3-grams -> top2 covers 1 position, dup3 = 0
    assert abs(out.loc[2, "top2_frac"] - round(1 / 6, 6)) < 1e-9
    assert out.loc[2, "dup3_frac"] == 0.0
    # doc 3: no windows at all
    assert out.loc[3, "top2_frac"] == 0.0 and out.loc[3, "dup3_frac"] == 0.0

def test_unigram_logprob(ray_session):
    import math

    from dpr_ray.stages.text_stats import unigram_logprob

    docs = ray.data.from_arrow(
        pa.table(
            {
                "docid": pa.array([1, 2, 3], pa.int64()),
                "content": pa.array(
                    ["the cat sat", "the the the", ""], pa.string()
                ),
            }
        )
    )
    out = (
        unigram_logprob(docs).to_pandas().set_index("docid").sort_index()
    )
    # corpus: the=4, cat=1, sat=1; total=6, V=3; p(t) = (cf+1)/9
    p = {"the": 5 / 9, "cat": 2 / 9, "sat": 2 / 9}
    exp1 = -(math.log(p["the"]) + math.log(p["cat"]) + math.log(p["sat"])) / 3
    exp2 = -math.log(p["the"])
    assert abs(out.loc[1, "nll"] - round(exp1, 6)) < 1e-9
    assert abs(out.loc[2, "nll"] - round(exp2, 6)) < 1e-9
    assert out.loc[3, "nll"] == 0.0 and out.loc[3, "n_tokens"] == 0
    # rare-token doc scores higher nll than the repetitive head-token doc
    assert out.loc[1, "nll"] > out.loc[2, "nll"]

    # vocab_cap: tail terms scored as unseen (cf=0), V unchanged
    capped = (
        unigram_logprob(docs, vocab_cap=1)
        .to_pandas()
        .set_index("docid")
        .sort_index()
    )
    exp1c = -(math.log(5 / 9) + 2 * math.log(1 / 9)) / 3
    assert abs(capped.loc[1, "nll"] - round(exp1c, 6)) < 1e-9
    assert capped.loc[2, "nll"] == out.loc[2, "nll"]

def test_unigram_lm_pull_bounded(ray_session):
    """The LM collection must never pull the full vocabulary to the driver:
    with vocab_cap=V the take_all sees at most V+1 rows (top-V + one stats
    sentinel), while V/total still count the UNCAPPED vocabulary."""
    from dpr_ray.stages.text_stats import _collect_lm, _partial_term_counts

    docs = ray.data.from_arrow(
        pa.table(
            {
                "docid": pa.array(list(range(40)), pa.int64()),
                "content": pa.array(
                    [f"common w{i} w{i} unique{i}" for i in range(40)],
                    pa.string(),
                ),
            }
        )
    ).repartition(8)
    summed = _partial_term_counts(docs, "content")
    cf, total, vocab, pulled = _collect_lm(summed, vocab_cap=3)
    assert pulled <= 3 + 1
    assert len(cf) == 3
    assert cf["common"] == 40  # global head term survives the local caps
    assert vocab == 81  # common + 40×w{i} + 40×unique{i} — uncapped V
    assert total == 40 * 4
    # uncapped path unchanged
    cf_all, total_all, vocab_all, _ = _collect_lm(
        _partial_term_counts(docs, "content"), None
    )
    assert len(cf_all) == 81 and total_all == total and vocab_all == vocab
    assert all(cf_all[t] == c for t, c in cf.items())


def test_tfidf_topk_hand_computed(ray_session):
    import math

    from dpr_ray.stages.text_stats import tfidf_topk

    docs = ray.data.from_arrow(
        pa.table(
            {
                "docid": pa.array([1, 2, 3], pa.int64()),
                "content": pa.array(
                    ["cat cat dog", "dog fish", "fish fish fish"],
                    pa.string(),
                ),
            }
        )
    ).repartition(3)
    out = (
        tfidf_topk(docs, k=2)
        .to_pandas()
        .sort_values(["docid", "rank"], ignore_index=True)
    )
    # N=3; df: cat=1, dog=2, fish=2
    def i6(tf, df):
        return round(round(tf * math.log(3 / df), 9) * 1e6)

    assert len(out) == 5  # doc 3 has a single distinct term
    d1 = out[out.docid == 1]
    assert list(d1.term) == ["cat", "dog"]  # 2·ln3 > 1·ln1.5
    assert list(d1.tfidf_i6) == [i6(2, 1), i6(1, 2)]
    assert list(d1["rank"]) == [1, 2]
    d3 = out[out.docid == 3]
    assert list(d3.term) == ["fish"] and d3.iloc[0].tfidf_i6 == i6(3, 2)
    # doc 2: dog and fish tie at 1·ln(1.5) → term asc breaks the tie
    d2 = out[out.docid == 2]
    assert list(d2.term) == ["dog", "fish"]
    assert list(d2.tf) == [1, 1] and list(d2.df) == [2, 2]


def test_bpe_pattern_re2_parity():
    """BPE_PATTERN must mean the same thing to python re (engine) and
    DuckDB's RE2 (oracle) — disjoint char-class branches guarantee it;
    this guards the pattern against edits that break the property."""
    import re

    import duckdb

    from dpr_ray.entrypoints import BPE_PATTERN

    cases = [
        "", " ", "a b", "don't stop-me now!!", "é ü ñ 漢字", "x1y2z3",
        "...---...", "tab\tnewline\nmix  spaces", "a" * 100 + "!" + "9" * 50,
        # chars where python \s and RE2 \s DISAGREE — the pattern must use
        # an explicit whitespace class so both engines see the same thing
        "a\vb", "a\x1cb", "a\x1db", "a\xa0b", "x y", "\v\v", "a\x85b",
    ]
    con = duckdb.connect()
    pat = re.compile(BPE_PATTERN)
    for t in cases:
        py = len(pat.findall(t))
        sql = con.execute(
            "SELECT len(regexp_extract_all(?, ?))", [t, BPE_PATTERN]
        ).fetchone()[0]
        assert py == sql, (t, py, sql)


def test_curate_job_empty_keepset(tmp_path):
    """curate_job with a quality bar nothing can clear: the verdicts
    phase writes only keep=0/, the corpus phase must short-circuit
    (no keep=1/ directory exists) instead of crashing, and a rerun
    resumes both phases from markers. Subprocess with its own Ray
    session from an off-path cwd (the shipping-trap drive pattern)."""
    import json
    import os
    import subprocess
    import sys

    out_dir = str(tmp_path / "curated")
    cmd = [
        sys.executable, os.path.join(REPO_ROOT, "tools", "curate_job.py"),
        "--docs", "/root/testdata/sf0.001/documents.parquet",
        "--id-col", "doc_id", "--text-col", "text",
        "--out-dir", out_dir, "--write-corpus",
        "--min-quality-i6", "2000000",  # quality_i6 <= 1e6 → keep nobody
        "--num-cpus", "2",
    ]
    env = dict(os.environ, RAY_ADDRESS="local")
    r1 = subprocess.run(cmd, cwd=str(tmp_path), capture_output=True,
                        text=True, timeout=300, env=env)
    assert r1.returncode == 0, r1.stdout + r1.stderr
    rep1 = json.loads(r1.stdout.strip().splitlines()[-1])
    assert rep1["kept_rows"] == 0
    assert not os.path.isdir(os.path.join(out_dir, "verdicts", "keep=1"))
    assert os.path.exists(os.path.join(out_dir, "verdicts", "_SUCCESS"))
    assert os.path.exists(os.path.join(out_dir, "corpus", "_SUCCESS"))
    # rerun: both phases resume from markers, nothing recomputed
    r2 = subprocess.run(cmd, cwd=str(tmp_path), capture_output=True,
                        text=True, timeout=300, env=env)
    assert r2.returncode == 0, r2.stdout + r2.stderr
    rep2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert rep2["verdicts"] == "resumed"
    assert rep2["corpus"] == "resumed"
    # markers are SIGNED: a rerun with a different quality bar must
    # RECOMPUTE, not serve the stale all-dropped verdicts (the unsigned-
    # marker staleness class fixed on every index resume marker)
    cmd3 = list(cmd)
    cmd3[cmd3.index("--min-quality-i6") + 1] = "0"  # keep everybody
    r3 = subprocess.run(cmd3, cwd=str(tmp_path), capture_output=True,
                        text=True, timeout=300, env=env)
    assert r3.returncode == 0, r3.stdout + r3.stderr
    rep3 = json.loads(r3.stdout.strip().splitlines()[-1])
    assert "verdict_rows" in rep3, rep3  # recomputed, not resumed
    assert rep3["verdicts"] == "rebuilt: signature changed", rep3
    assert rep3["kept_rows"] > 0, rep3


def test_qualitylang_fused_equals_separate_stages(ray_session):
    """QualityLang tokenizes ONCE and must stay byte-identical to running
    TextQuality and LangId separately (each of which tokenizes itself)."""
    import pyarrow as pa

    from dpr_ray.stages.curation import QualityLang
    from dpr_ray.stages.text_stats import LangId, TextQuality

    tbl = pa.table(
        {
            "docid": pa.array([1, 2, 3, 4], pa.int64()),
            "content": [
                "the quick brown fox the the",
                "le chat et le chien et le",
                "",
                "zzz qqq zzz qqq unique tokens here altogether now",
            ],
        }
    )
    fused = QualityLang()(tbl)
    q = TextQuality()(tbl)
    lang = LangId()(tbl)
    for c in q.column_names:
        assert fused[c].equals(q[c]), c
    assert fused["lang_pred"].equals(lang["lang_pred"])


def test_curate_job_uint64_ids_kept_exactly(tmp_path):
    """KeepFilter must compare ids in int64 exactly: int64 keep-ids vs a
    raw uint64 id column promoted searchsorted/== to float64 and SILENTLY
    dropped kept docs with adjacent ids >= 2^53 (both rounded to the same
    float). Adjacent 2^60 ids with a keep-everything bar: every doc must
    reach the written corpus."""
    import json
    import os
    import subprocess
    import sys

    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    n = 6
    ids = np.array([1, 2, (1 << 60), (1 << 60) + 1, (1 << 60) + 2, 7],
                   np.uint64)
    docs = pa.table(
        {
            "doc_id": pa.array(ids, pa.uint64()),
            # English stopwords so lang_pred != 'und' (the keep rule
            # drops undetermined-language docs regardless of quality)
            "text": [
                "the and of is in " + " ".join(
                    f"tok{i}w{j}" for j in range(30)
                ) for i in range(n)
            ],
        }
    )
    dpath = str(tmp_path / "docs.parquet")
    pq.write_table(docs, dpath)
    out_dir = str(tmp_path / "curated")
    r = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "curate_job.py"),
         "--docs", dpath, "--out-dir", out_dir, "--write-corpus",
         "--min-quality-i6", "0", "--min-tokens", "1", "--num-cpus", "2"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=300,
        env=dict(os.environ, RAY_ADDRESS="local"),
    )
    assert r.returncode == 0, r.stdout + r.stderr
    rep = json.loads(r.stdout.strip().splitlines()[-1])
    assert rep["kept_rows"] == n, rep
    back = pads.dataset(
        os.path.join(out_dir, "corpus"), partitioning="hive"
    ).to_table(columns=["doc_id"])
    got = sorted(int(v) for v in back["doc_id"].to_pylist())
    assert got == sorted(int(v) for v in ids), got


# ---- block-level finishers vs the per-group map_groups references ----


def _ref_duplicate_spans(ds, window=8):
    """The per-group ``map_groups`` shape duplicate_spans replaced: Counter
    emit, one ``finish`` call per span hash."""
    from collections import Counter

    import numpy as np

    from dpr_ray import analyzer
    from dpr_ray.stages.dedup import _span_hashes

    def emit(batch):
        pairs = Counter()
        ids = batch["docid"].to_pylist()
        memo = {}
        for i, toks in enumerate(
            analyzer.tokenize_batch(batch["content"].to_pylist())
        ):
            h = _span_hashes(toks, window, memo)
            if len(h) == 0:
                continue
            uniq, cnt = np.unique(h, return_counts=True)
            for wh, c in zip(uniq.tolist(), cnt.tolist()):
                pairs[(int(wh), int(ids[i]))] += int(c)
        ks = list(pairs.keys())
        return pa.table(
            {
                "whash": pa.array([k[0] for k in ks], pa.int64()),
                "docid": pa.array([k[1] for k in ks], pa.int64()),
                "occ": pa.array([pairs[k] for k in ks], pa.int64()),
            }
        )

    def finish(group):
        docs = group["docid"].to_numpy(zero_copy_only=False)
        n_docs = len(np.unique(docs))
        if n_docs < 2:
            return pa.table(
                {
                    "whash": pa.array([], pa.int64()),
                    "n_docs": pa.array([], pa.int64()),
                    "n_occ": pa.array([], pa.int64()),
                }
            )
        occ = int(group["occ"].to_numpy(zero_copy_only=False).sum())
        return pa.table(
            {
                "whash": group["whash"][:1],
                "n_docs": pa.array([n_docs], pa.int64()),
                "n_occ": pa.array([occ], pa.int64()),
            }
        )

    return (
        ds.map_batches(emit, batch_format="pyarrow")
        .groupby("whash")
        .map_groups(finish, batch_format="pyarrow")
    )


def _ref_tfidf_topk(ds, k):
    """The per-group ``map_groups`` shape tfidf_topk replaced: one
    ``attach_df`` call per term, one ``topk`` call per doc."""
    from collections import Counter

    import numpy as np

    from dpr_ray.util import round_half_away, to_i6

    n_docs = ds.count()

    def tf_rows(batch):
        docs, terms, tfs = [], [], []
        for d, t in zip(
            batch["docid"].to_pylist(), batch["content"].to_pylist()
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

    def attach_df(group):
        df = group.num_rows
        return group.append_column(
            "df", pa.array(np.full(df, df, np.int64), pa.int64())
        )

    def topk(group):
        tf = group["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        df = group["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        terms = group["term"].to_pylist()
        score9 = round_half_away(tf * np.log(n_docs / df), 9)
        order = np.lexsort((np.asarray(terms, dtype=object), -score9))[:k]
        n = len(order)
        return pa.table(
            {
                "docid": group["docid"].take(pa.array(order)),
                "term": pa.array([terms[i] for i in order], pa.string()),
                "tf": group["tf"].take(pa.array(order)),
                "df": group["df"].take(pa.array(order)),
                "rank": pa.array(np.arange(1, n + 1, dtype=np.int64),
                                 pa.int64()),
                "tfidf_i6": pa.array(to_i6(score9[order]), pa.int64()),
            }
        )

    return (
        ds.map_batches(tf_rows, batch_format="pyarrow")
        .groupby("term")
        .map_groups(attach_df, batch_format="pyarrow")
        .groupby("docid")
        .map_groups(topk, batch_format="pyarrow")
    )


_SPAN = "alpha beta gamma delta epsilon zeta eta theta"  # 8 tokens


def _finisher_corpus() -> pa.Table:
    """Docid 5 three times (rows 0-1 share a batch at any partitioning,
    row 9 lands in another once split); docs shorter than the 8-token
    window; tf-idf ties between ASCII and non-ASCII terms (1-4 byte UTF-8)
    that only the term order breaks."""
    rows = [
        (5, f"{_SPAN} one"),
        (5, f"{_SPAN} two {_SPAN}"),
        (6, f"x {_SPAN} y"),
        (7, "tiny doc"),
        (8, "q è Q 日 ß 😀 ä \ue000 ab"),
        (9, "dog fish"),
        (10, f"lonely window words only here in this doc {_SPAN}"),
        (11, ""),
        (12, "a a a b b c"),
        (5, f"{_SPAN} three é é"),
        (13, "dog fish 日本"),
        (14, "mu nu xi omicron pi rho sigma tau upsilon"),
        (15, "mu nu xi omicron pi rho sigma tau phi"),
    ]
    return pa.table(
        {
            "docid": pa.array([r[0] for r in rows], pa.int64()),
            "content": pa.array([r[1] for r in rows], pa.string()),
        }
    )


def _partitionings():
    """repartition(1/4/7), plus a layout whose input has a zero-row block."""
    tbl = _finisher_corpus()
    for n in (1, 4, 7):
        yield f"repartition({n})", ray.data.from_arrow(tbl).repartition(n)
    yield "zero-row block", ray.data.from_arrow(
        [tbl.slice(0, 4), tbl.slice(0, 0), tbl.slice(4)]
    )


def test_duplicate_spans_matches_map_groups_reference(ray_session):
    from dpr_ray.stages.dedup import duplicate_spans

    for name, ds in _partitionings():
        got = duplicate_spans(ds).take_all()
        want = _ref_duplicate_spans(ds).take_all()
        assert got == want, name
        # the shared span: docs 5 (three rows, one docid) and 6, 10
        assert max(r["n_docs"] for r in got) == 3, name


def test_tfidf_topk_matches_map_groups_reference(ray_session):
    from dpr_ray.stages.text_stats import tfidf_topk

    for k in (2, 12):  # 12 exceeds every doc's distinct term count
        for name, ds in _partitionings():
            got = tfidf_topk(ds, k=k).take_all()
            want = _ref_tfidf_topk(ds, k).take_all()
            assert got == want, (k, name)
    # doc 8's nine tf=1 df=1 terms tie: python str (code point) order
    d8 = [r["term"] for r in got if r["docid"] == 8]
    assert d8 == sorted("q è Q 日 ß 😀 ä \ue000 ab".split(" "))


def test_duplicate_spans_rejects_uint64_id_past_int64(ray_session):
    """A uint64 docid >= 2^63 cannot be an int64 output id: the
    vectorized emit must fail loudly instead of wrapping it negative."""
    import pytest

    from dpr_ray.stages.dedup import duplicate_spans

    tbl = pa.table(
        {
            "docid": pa.array([1, 1 << 63], pa.uint64()),
            "content": pa.array([_SPAN, _SPAN], pa.string()),
        }
    )
    with pytest.raises(Exception, match="not in range|overflow"):
        duplicate_spans(ray.data.from_arrow(tbl)).take_all()


def test_map_sorted_groups_colocates_hot_key(ray_session, monkeypatch):
    """The guarantee map_sorted_groups' block-level finishers rely on,
    under a hot key holding more than half the rows of a many-block
    dataset: every key's rows arrive in exactly one batch, and keys
    ascend within and across blocks. The helper's output runs with
    per-operator reservation off on a private DataContext; its input and
    the global context keep Ray's default."""
    import numpy as np
    from ray.data import DataContext

    from dpr_ray.stages import text_stats
    from dpr_ray.util import map_sorted_groups

    n, hot = 6000, 17
    keys = np.arange(n, dtype=np.int64) % 501
    keys[: n // 2 + 500] = hot
    np.random.default_rng(0).shuffle(keys)
    ds = ray.data.from_items(
        [{"key": int(x)} for x in keys], override_num_blocks=12
    )

    def per_batch(block):
        k = block["key"].to_numpy()
        uniq, cnt = np.unique(k, return_counts=True)
        return pa.table(
            {
                "key": uniq,
                "rows": cnt,
                "sorted": np.full(len(uniq), bool((np.diff(k) >= 0).all())),
            }
        )

    assert DataContext.get_current().op_resource_reservation_enabled
    wide = map_sorted_groups(ds, "key", per_batch)
    assert wide.context.op_resource_reservation_enabled is False
    assert ds.context.op_resource_reservation_enabled
    assert DataContext.get_current().op_resource_reservation_enabled
    out = wide.take_all()
    got = [r["key"] for r in out]
    assert all(r["sorted"] for r in out)
    assert got == sorted(set(got))  # each key in one batch, ascending
    want_k, want_c = np.unique(keys, return_counts=True)
    assert got == want_k.tolist()
    assert [r["rows"] for r in out] == want_c.tolist()
    assert dict(zip(got, (r["rows"] for r in out)))[hot] > n // 2

    # tfidf_topk chains two helpers: both outputs are reservation-off,
    # and the caller's input keeps the default
    outputs = []

    def recording(*args):
        outputs.append(map_sorted_groups(*args))
        return outputs[-1]

    monkeypatch.setattr(text_stats, "map_sorted_groups", recording)
    docs = ray.data.from_arrow(_finisher_corpus())
    text_stats.tfidf_topk(docs, k=2)
    assert len(outputs) == 2
    assert [o.context.op_resource_reservation_enabled for o in outputs] == [
        False,
        False,
    ]
    assert docs.context.op_resource_reservation_enabled
    assert DataContext.get_current().op_resource_reservation_enabled


def _take_all_within(ds, seconds=120):
    """``ds.take_all()`` in a thread joined with a timeout, so a deadlocked
    execution fails the test instead of hanging the run."""
    import threading

    box = {}

    def run():
        try:
            box["rows"] = ds.take_all()
        except BaseException as e:  # re-raised on the test thread
            box["error"] = e

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"take_all still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["rows"]


def test_actor_pool_chained_onto_map_sorted_groups_output(ray_session):
    """A caller's actor pool chained onto a helper output runs in the
    same reservation-off execution: it completes and passes every row
    through unchanged, in order."""
    from dpr_ray.stages.dedup import duplicate_spans
    from dpr_ray.stages.text_stats import tfidf_topk

    class Passthrough:
        def __call__(self, batch):
            return batch

    for stage in (duplicate_spans, tfidf_topk):
        ds = ray.data.from_arrow(_finisher_corpus()).repartition(4)
        want = _take_all_within(stage(ds))
        assert want, stage.__name__
        chained = stage(ds).map_batches(
            Passthrough, batch_format="pyarrow", concurrency=(1, 2)
        )
        assert _take_all_within(chained) == want, stage.__name__
