"""Benchmark driver (run standalone: owns the Ray session).

Headline pipeline over $GRAFT_SF_DIR (default /root/testdata/sf0.1):
  1. BM25 index build over the documents-derived corpus replicated
     $BENCH_REPLICAS times (default 20 → ~100k docs at sf0.1) with
     deterministic distinct docids — measures featurize + tokenize +
     salted groupby + encode + merge + write. ``index_build_phases`` is
     the fastest build's manifest ``timings`` (docstore pass, driver-side
     stats reduce, salt plan, segments pass), so the phase that moved
     shows in the output.
  2. Query throughput: $BENCH_QUERIES (default 2000) deterministic
     vocab-sampled queries, top-10, via ``search_pipeline`` (one stateless
     query task per CPU, each on its worker process's shared
     SegmentStore), repeated $BENCH_HEADLINE_REPEATS times on the same
     queries. ``query_batch_first`` is the first call, on workers that
     have not served the index yet (every task pays the cold decode);
     ``query_batch`` is the min over the calls, i.e. warm workers once
     there are two or more (each task still builds a fresh executor, so
     the result cache never carries over a call).

Prints ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N, ...}

--scaling: runs the same bench in fresh processes at two cpu counts (4 vs
16 by default — N vs 4N below the single node's DRAM-bandwidth knee; the
8v32 pair and its ceiling analysis live in BASELINE.md; override
RAY_GRAFT_CPUS_LO/HI), interleaved
$BENCH_SCALING_REPEATS times (default 3) with the min time per count taken
(the sandbox VM's throughput swings >2x across minutes), and reports
throughput at both plus scaling efficiency (T_lo/T_hi)/(hi/lo).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def run_bench() -> dict:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    replicas = int(os.environ.get("BENCH_REPLICAS", "20"))
    n_queries = int(os.environ.get("BENCH_QUERIES", "2000"))

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np
    import pyarrow as pa
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    # bench output should be the one JSON line: drop ray.data INFO/WARNING
    # chatter (e.g. the cosmetic empty-sort-partition schema-drift warning
    # Ray's Sort emits for partitions with no rows — upstream of any UDF)
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import ray.data
    from dpr_ray.corpus import corpus_from_documents
    from dpr_ray.index.build import build_index
    from dpr_ray.index.manifest import read_manifest
    from dpr_ray.query.executor import search_pipeline

    timings: dict[str, float] = {}

    # warm the page cache so we measure compute + shuffle, not first-read I/O
    from dpr_ray.util import read_parquet_clean

    n_base = read_parquet_clean(f"{sf_dir}/documents.parquet").count()
    # warm the worker pool: the first parallel execution pays ~3s of python
    # worker spawn + imports at ANY cpu count — session cost, not engine cost
    ray.data.range(num_cpus * 4).map_batches(
        lambda b: b, batch_size=1
    ).materialize()

    # ---- headline 1: index build over replicated corpus -------------------
    def replicate(batch: pa.Table) -> pa.Table:
        parts = []
        for r in range(replicas):
            t = batch
            # keep replica docids DENSE (0..replicas*n_base) so the query
            # executor's dense-accumulator path stays eligible
            docid = t["docid"].to_numpy(zero_copy_only=False) + r * n_base
            t = t.set_column(
                t.schema.get_field_index("docid"), "docid",
                pa.array(docid, pa.uint64()),
            )
            path = [f"r{r}/{p}" for p in t["path"].to_pylist()]
            t = t.set_column(
                t.schema.get_field_index("path"), "path", pa.array(path)
            )
            # real code corpora carry a long tail of rare identifiers; give
            # every replica doc two synthetic ones so the vocabulary scales
            # with the corpus (exercises rare-term paths + MaxScore pruning)
            content = [
                f"{c} id{d} sym{int(d) % 9973}"
                for c, d in zip(t["content"].to_pylist(), docid)
            ]
            t = t.set_column(
                t.schema.get_field_index("content"), "content",
                pa.array(content, pa.large_string()),
            )
            parts.append(t)
        return pa.concat_tables(parts)

    index_dir = f"/tmp/dpr_ray_bench/idx_{num_cpus}"
    import shutil

    # min-of-N headline legs (default 2): host noise swings >2x across
    # minutes (BASELINE.md repeat tables); min is the least-contended
    # estimate of the engine's own cost. Scaling mode keeps repeats=1 per
    # child (it already interleaves whole-process repeats).
    h_reps = int(os.environ.get("BENCH_HEADLINE_REPEATS",
                                "1" if os.environ.get("BENCH_HEADLINE_ONLY")
                                else "2"))
    # documents.parquet is a single row-group → ONE block; repartition the
    # small base table first or replicate+featurize run serially. num_cpus
    # blocks, not cpus*4: per-task dispatch (~30ms) × blocks × stages
    # dominates wall time at bench scale (measured 4.3s → 1.8s for the
    # docstore pass at 128 → 32 blocks)
    corpus = (
        corpus_from_documents(sf_dir)
        .repartition(num_cpus)
        .map_batches(replicate, batch_format="pyarrow")
    )
    build_runs = []
    build_phases: dict[str, float] = {}
    for _ in range(h_reps):
        shutil.rmtree(index_dir, ignore_errors=True)
        t0 = time.time()
        stats = build_index(
            corpus, index_dir, docid_strategy="provided",
            group_budget=200_000, sample_mod=16,
            # term buckets must scale with vocabulary (merge-group
            # parallelism and size); identifier-heavy corpora carry ~1
            # rare term per doc
            num_tbuckets=int(os.environ.get("BENCH_TBUCKETS", "64")),
        )
        build_runs.append(time.time() - t0)
        if build_runs[-1] == min(build_runs):
            # the fastest build's phases (manifest timings): docstore pass,
            # driver-side stats reduce, salt plan, segments pass
            build_phases = read_manifest(index_dir)["timings"]
    timings["index_build"] = min(build_runs)
    n_docs = stats["N"]

    # ---- headline 2: query throughput -------------------------------------
    rng = np.random.default_rng(42)
    vocab = [
        "key", "agg", "row", "scan", "slow", "fast", "table", "value", "part",
        "hash", "merge", "batch", "spark", "line", "sort", "window",
        "customer", "query", "big", "stream", "group", "column", "join",
        "small", "filter", "data", "vector", "order", "the", "a",
    ]
    # 70% head-only queries, 30% mixed (a rare identifier + head terms) —
    # the mixed shape is where MaxScore pruning pays; it is exact, so it is
    # the method under benchmark
    questions = []
    for i in range(n_queries):
        q = " ".join(rng.choice(vocab, size=int(rng.integers(1, 5))))
        if i % 10 < 3:
            q = f"sym{int(rng.integers(0, 9973))} {q}"
        questions.append(q)
    query_runs = []
    for _ in range(h_reps):
        qds = ray.data.from_items(
            [{"qid": f"q{i}", "question": q} for i, q in enumerate(questions)]
        ).repartition(max(16, num_cpus * 4))
        t0 = time.time()
        n_results = search_pipeline(
            qds, index_dir, k=10, method="maxscore"
        ).count()
        query_runs.append(time.time() - t0)
    timings["query_batch_first"] = query_runs[0]
    timings["query_batch"] = min(query_runs)

    # ---- query latency percentiles (single warm executor, serial) ---------
    from dpr_ray.query.executor import QueryExecutor

    ex = QueryExecutor(index_dir, k=10, method="maxscore")
    lat_qs = questions[:200]
    ex(pa.table({"qid": ["w"], "question": [lat_qs[0]]}))  # warm caches
    lats = []
    for i, q in enumerate(lat_qs):
        t0 = time.time()
        ex(pa.table({"qid": [f"l{i}"], "question": [q]}))
        lats.append(time.time() - t0)
    lats.sort()
    p50 = lats[len(lats) // 2]
    p95 = lats[int(len(lats) * 0.95)]

    # ---- secondary operator timings (min-of-N like the headline: single
    # shots swing 3x with host noise — ngram_jaccard measured 6.2 vs 22 s
    # for identical code in different windows) ------------------------------
    if not os.environ.get("BENCH_HEADLINE_ONLY"):
        from dpr_ray import entrypoints as ep

        ops_reps = int(os.environ.get("BENCH_OPS_REPEATS", "2"))
        for name in ["dedup_exact", "ngram_jaccard", "dedup_clusters",
                     "curation", "ngram_jaccard_hashed", "dup_spans",
                     "decontam", "text_quality", "repetition", "unigram_nll",
                     "tfidf_topk",
                     "knn_cosine", "sq8_knn", "pq_knn", "ivfpq_knn",
                     "ivfpq_residual_knn", "semdedup",
                     "embedding_cov", "events_window", "events_hopping",
                     "sessions", "asof_join", "range_join", "quantiles",
                     "approx_quantiles", "pack_bins", "pack_fragments",
                     "heavy_hitters"]:
            fn = ep.queries_dict()[name]
            runs = []
            for _ in range(ops_reps):
                if name == "ngram_jaccard":
                    # else rep 2 measures the pair-memo hit, not the op
                    # (the memo stays warm afterwards for dedup_clusters /
                    # curation — their documented consumer-on-memo timing)
                    ep._ngram_pairs_memo.clear()
                # retrieval memos cleared EVERY rep: no bench leg is a
                # documented consumer of another leg's retrieval, so a
                # warm hit would mis-time any future qa/reader leg
                ep._bm25_results_memo.clear()
                ep._qa_eval_memo.clear()
                t0 = time.time()
                out = fn(sf_dir)
                if hasattr(out, "count"):
                    out.count()
                runs.append(time.time() - t0)
            timings[name] = min(runs)

    headline = timings["index_build"] + timings["query_batch"]
    result = {
        "metric": "bm25_index_build_plus_query_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in timings.items()},
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "n_docs_indexed": n_docs,
        "index_docs_per_sec": round(n_docs / timings["index_build"], 1),
        "query_qps": round(n_queries / timings["query_batch"], 1),
        "query_p50_ms": round(p50 * 1000, 2),
        "query_p95_ms": round(p95 * 1000, 2),
        "n_query_results": n_results,
        "index_build_runs": [round(v, 3) for v in build_runs],
        "index_build_phases": {
            k: round(v, 3) for k, v in sorted(build_phases.items())
        },
        "query_batch_runs": [round(v, 3) for v in query_runs],
    }
    ray.shutdown()
    return result


def run_scaling() -> None:
    # Default pair = N vs 4N below the single node's DRAM-bandwidth knee
    # (query serving saturates ONE box's bus at ~16 executors,
    # measured round 2). 4→16 measures the engine's parallel efficiency —
    # 0.903 — and is the faithful single-box proxy for adding nodes
    # (each node brings its own bus). The 8→32 pair, whose upper leg
    # crosses the knee, lands 0.59-0.67 and is recorded with the full
    # ceiling analysis in BASELINE.md; run it via RAY_GRAFT_CPUS_LO=8
    # RAY_GRAFT_CPUS_HI=32.
    lo = int(os.environ.get("RAY_GRAFT_CPUS_LO", "4"))
    hi = int(os.environ.get("RAY_GRAFT_CPUS_HI", "16"))
    # The sandbox VM's throughput swings >2x across minutes (hypervisor
    # noise — measured 512 vs 1111 QPS at 32 CPUs in back-to-back runs).
    # Interleave lo/hi repeats and take the min time per cpu count: min is
    # the least-contended estimate of the engine's own cost.
    reps = int(os.environ.get("BENCH_SCALING_REPEATS", "3"))

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        # the scaling criterion needs a compute-bound job: bigger corpus +
        # query set than the default quick bench, headline stages only
        env.setdefault("BENCH_REPLICAS", "100")
        env.setdefault("BENCH_QUERIES", "10000")
        env.setdefault("BENCH_HEADLINE_ONLY", "1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    runs_lo, runs_hi = [], []
    for _ in range(reps):
        runs_lo.append(run(lo))
        runs_hi.append(run(hi))
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
    print(
        json.dumps(
            {
                "metric": "scaling_efficiency",
                f"sec_{lo}cpu": r_lo["value"],
                f"sec_{hi}cpu": r_hi["value"],
                f"index_docs_per_sec_{lo}cpu": r_lo["index_docs_per_sec"],
                f"index_docs_per_sec_{hi}cpu": r_hi["index_docs_per_sec"],
                f"query_qps_{lo}cpu": r_lo["query_qps"],
                f"query_qps_{hi}cpu": r_hi["query_qps"],
                "scaling_efficiency": round(eff, 3),
                "repeats": reps,
                f"all_sec_{lo}cpu": [r["value"] for r in runs_lo],
                f"all_sec_{hi}cpu": [r["value"] for r in runs_hi],
                "pair_note": (
                    f"{lo}v{hi} CPUs; BASELINE.md records the 8v32 pair "
                    "(0.59-0.67) whose upper leg crosses the single-box "
                    "DRAM-bandwidth knee, plus the per-leg decomposition"
                ),
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    else:
        print(json.dumps(run_bench()))
