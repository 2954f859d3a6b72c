"""`ray job submit`-able build+query driver.

On a real cluster:
    ray job submit --working-dir . -- python tools/build_job.py \
        --corpus s3://bucket/corpus/*.parquet --index-dir /data/idx \
        --queries queries.tsv --k 100 --partition-resume

In this sandbox Ray runs local-mode; the same script exercises the exact
job path (`ray.init(address=...)` honors RAY_ADDRESS). Resumable: re-submit
after a failure with the same arguments and completed stages/partitions
are skipped (see dpr_ray.index.build resume semantics).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus", required=True,
                    help="parquet path/dir of (repo,path,commit,lang,content)")
    ap.add_argument("--index-dir", required=True)
    ap.add_argument("--queries", help="QA TSV (question \\t answers-literal)")
    ap.add_argument("--out-json", help="ranked results JSON path")
    ap.add_argument("--k", type=int, default=100)
    ap.add_argument("--docid-strategy", default="hash64",
                    choices=["hash64", "provided"])
    ap.add_argument("--group-budget", type=int, default=50_000)
    ap.add_argument("--num-tbuckets", type=int, default=16)
    ap.add_argument("--partition-resume", action="store_true")
    ap.add_argument("--no-resume", action="store_true")
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    args = ap.parse_args()

    import ray

    ray.init(
        address=os.environ.get("RAY_ADDRESS", "local"),
        num_cpus=args.num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from dpr_ray._shipping import ensure_shippable
    from dpr_ray.index.build import build_index
    from dpr_ray.util import read_parquet_clean

    ensure_shippable()  # standalone-tool rule: register BEFORE any UDF

    # fail loudly on a wrong-shape input before any cluster work
    import pyarrow.dataset as pads

    in_schema = pads.dataset(args.corpus).schema
    # featurize passes commit/lang through to the docstore too — a
    # corpus missing them died as a KeyError deep inside the UDF
    required = ["repo", "path", "commit", "lang", "content"]
    missing = [c for c in required if c not in in_schema.names]
    if missing:
        raise SystemExit(
            f"--corpus {args.corpus} is missing column(s) {missing}; "
            f"found {in_schema.names}. Expected an input_hint corpus "
            "(repo, path, commit, lang, content)."
        )

    t0 = time.time()
    corpus = read_parquet_clean(args.corpus)
    stats = build_index(
        corpus,
        args.index_dir,
        docid_strategy=args.docid_strategy,
        group_budget=args.group_budget,
        num_tbuckets=args.num_tbuckets,
        resume=not args.no_resume,
        partition_resume=args.partition_resume,
    )
    out = {"build_sec": round(time.time() - t0, 2), "stats": stats}

    if args.queries:
        from dpr_ray.pipelines import retrieve_and_evaluate
        from dpr_ray.sources.qa_sources import read_qa_csv

        queries = read_qa_csv(args.queries)
        t1 = time.time()
        _res, metrics = retrieve_and_evaluate(
            queries, args.index_dir, k=args.k, out_json=args.out_json
        )
        out["query_sec"] = round(time.time() - t1, 2)
        out["metrics"] = metrics
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
