"""`ray job submit`-able incremental index refresh driver.

On a real cluster:
    ray job submit --working-dir . -- python tools/merge_job.py \
        --base-index /data/idx_v1 --delta-corpus s3://bucket/delta/*.parquet \
        --deletes-file gone.txt --out-index /data/idx_v2

Phases (each independently resumable; re-submit with the same args):
  1. delta build — ``build_index`` over ``--delta-corpus`` into
     ``<out>/.delta_index`` (skipped when ``--delta-index`` points at a
     pre-built one); resumes from build_index's own checkpoints.
  2. upsert merge — ``merge_indexes(mode="upsert")``: newest-wins docid
     arbitration + tombstones, byte-identical to rebuilding the latest
     corpus (tests/test_merge_upsert.py). The merge resumes itself: a
     re-submit with the same inputs returns the completed merge (the
     report's ``"merge": "resumed"``), and changed inputs (index dirs,
     their contents, deletes, or ``--deletes-are-docids``) re-merge.

The base index is never modified; chain runs for multi-delta backlogs
(v1+d1→v2, v2+d2→v3 — the arbitration map stays delta-sized per run).
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
    ap.add_argument("--base-index", required=True)
    ap.add_argument("--out-index", required=True)
    ap.add_argument("--delta-corpus",
                    help="parquet of (repo,path,commit,lang,content) updates/adds")
    ap.add_argument("--delta-index",
                    help="pre-built delta index (skips phase 1)")
    ap.add_argument("--deletes-file",
                    help="one tombstone per line: ext_id, or docid with "
                         "--deletes-are-docids")
    ap.add_argument("--deletes-are-docids", action="store_true")
    ap.add_argument("--mode", default="upsert",
                    choices=["upsert", "disjoint"])
    ap.add_argument("--docid-strategy", default="hash64",
                    choices=["hash64", "provided"])
    ap.add_argument("--no-resume", action="store_true")
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    args = ap.parse_args()
    if args.delta_corpus and args.delta_index:
        ap.error("--delta-corpus and --delta-index are mutually exclusive")

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
    from dpr_ray.index.merge import merge_with_decision
    from dpr_ray.util import read_parquet_clean

    ensure_shippable()  # standalone-tool rule: register BEFORE any UDF

    out: dict = {}
    dels: list[str] = []
    if args.deletes_file:
        with open(args.deletes_file) as f:
            dels = [ln.strip() for ln in f if ln.strip()]

    # ---- phase 1: delta build
    delta_dir = args.delta_index
    if args.delta_corpus:
        # loud up-front schema check (the build_job/curate_job rule): a
        # wrong-shape delta otherwise dies as a KeyError deep in a UDF
        import pyarrow.dataset as pads

        in_schema = pads.dataset(args.delta_corpus).schema
        required = ["repo", "path", "commit", "lang", "content"]
        schema_missing = [c for c in required if c not in in_schema.names]
        if schema_missing:
            raise SystemExit(
                f"--delta-corpus {args.delta_corpus} is missing column(s) "
                f"{schema_missing}; found {in_schema.names}. Expected an "
                "input_hint corpus (repo, path, commit, lang, content)."
            )
        delta_dir = os.path.join(args.out_index, ".delta_index")
        t0 = time.time()
        stats_d = build_index(
            read_parquet_clean(args.delta_corpus),
            delta_dir,
            docid_strategy=args.docid_strategy,
            resume=not args.no_resume,
        )
        out["delta_build_sec"] = round(time.time() - t0, 2)
        out["delta_docs"] = stats_d["N"]

    # bootstrap (first refresh cycle): a base that does not exist yet is
    # skipped, so the merge runs over the delta alone — this is the
    # "missing base" path dpr_ray.index.merge's zero-input error message
    # promises. The merge signature covers the input dir list, so a later
    # run with the same out-index re-merges once the base appears.
    base_exists = os.path.exists(os.path.join(args.base_index, "stats.json"))
    if not base_exists:
        if not delta_dir:
            raise SystemExit(
                f"--base-index {args.base_index} has no index (no "
                "stats.json) and no delta was given — nothing to merge"
            )
        out["base"] = "missing (bootstrap: merging delta alone)"
    index_dirs = ([args.base_index] if base_exists else []) + (
        [delta_dir] if delta_dir else []
    )

    # ---- phase 2: merge (resumable; outputs are otherwise rewritten)
    t0 = time.time()
    kw = {}
    if dels:
        if args.deletes_are_docids:
            kw["delete_docids"] = [int(x) for x in dels]
        else:
            kw["delete_ext_ids"] = dels
    stats, out["merge"] = merge_with_decision(
        index_dirs, args.out_index, mode=args.mode,
        resume=not args.no_resume, **kw,
    )
    out["merge_sec"] = round(time.time() - t0, 2)
    out["stats"] = stats
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
