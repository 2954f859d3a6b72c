"""`ray job submit`-able corpus-CURATION driver — the training-data side
of tools/build_job.py: quality + language-ID + near-dup canonicalization
over a documents parquet, written as resumable hive-partitioned parquet.

On a real cluster:
    ray job submit --working-dir . -- python tools/curate_job.py \
        --docs s3://bucket/documents/*.parquet --out-dir /data/curated \
        --write-corpus

Outputs under --out-dir:
  verdicts/keep={0,1}/part-*.parquet — one row per doc with every rule's
    verdict (docid, n_tokens, lang_pred, quality_i6, is_canonical, keep);
    `keep=1/` IS the curated docid list, so any engine can semi-join the
    raw corpus against it without rerunning the rules.
  corpus/bucket=*/part-*.parquet (with --write-corpus) — the kept docs
    WITH text, partitioned by docid hash bucket. The keep-set filter is
    the decontam broadcast shape (one ray.put of a sorted int64 array,
    map-only searchsorted membership); for corpora whose keep-set
    exceeds the broadcast budget, partition both sides by docid range
    and join per partition instead.

Resume: each phase writes a `_SUCCESS` record on completion, signed
over the docs fingerprint and its parameters (dpr_ray.index.manifest);
a re-run skips completed phases with the same signature. A phase that
crashed MID-write, or whose inputs or parameters changed, is cleared and
rewritten.

In this sandbox Ray runs local-mode; the same script exercises the exact
job path (`ray.init(address=...)` honors RAY_ADDRESS).
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
    ap.add_argument("--docs", required=True,
                    help="parquet path/dir with (doc_id, text[, lang, ...])")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--id-col", default="doc_id")
    ap.add_argument("--text-col", default="text")
    ap.add_argument("--min-quality-i6", type=int, default=250_000)
    ap.add_argument("--min-tokens", type=int, default=20)
    ap.add_argument("--max-tokens", type=int, default=1_000_000)
    ap.add_argument("--ngram-k", type=int, default=3)
    ap.add_argument("--ngram-threshold", type=float, default=0.5)
    ap.add_argument("--write-corpus", action="store_true",
                    help="also materialize kept docs with text")
    ap.add_argument("--corpus-buckets", type=int, default=64,
                    help="docid hash buckets for the corpus partitioning")
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

    import numpy as np
    import pyarrow as pa
    import ray.data

    from dpr_ray._shipping import ensure_shippable
    from dpr_ray.index.build import corpus_fingerprint
    from dpr_ray.index.io import write_partitioned
    from dpr_ray.index import manifest as man
    from dpr_ray.stages.curation import curate_corpus
    from dpr_ray.stages.dedup import ngram_jaccard_pairs_hashed
    from dpr_ray.util import map_per_block, read_parquet_clean

    # register dpr_ray for by-value pickling BEFORE any UDF is created:
    # the resume path can reach the KeepFilter stage without ever calling
    # a pipeline entry point (which would have registered it), and an
    # unregistered read_parquet_clean closure ships by module reference —
    # workers without the repo on sys.path then hang PENDING (the
    # round-2 shipping trap #4, hit again here in round 3)
    ensure_shippable()

    # fail loudly on a wrong-shape input before any cluster work (a raw
    # KeyError from deep inside a map_batches UDF is much harder to read)
    import pyarrow.dataset as pads

    in_schema = pads.dataset(args.docs).schema
    missing = [c for c in (args.id_col, args.text_col)
               if c not in in_schema.names]
    if missing:
        raise SystemExit(
            f"--docs {args.docs} is missing column(s) {missing}; "
            f"found {in_schema.names}. Pass --id-col/--text-col to map "
            "your schema (expected a documents-style table)."
        )

    import shutil

    # signed: a bare _SUCCESS served stale verdicts when the docs or any
    # curation parameter changed between runs into the same --out-dir
    docs_fp = corpus_fingerprint(read_parquet_clean(args.docs))
    verdict_sig = man.sign(
        "verdicts", docs_fp=docs_fp, id_col=args.id_col,
        text_col=args.text_col, ngram_k=args.ngram_k,
        ngram_threshold=args.ngram_threshold,
        min_quality_i6=args.min_quality_i6, min_tokens=args.min_tokens,
        max_tokens=args.max_tokens,
    )
    corpus_sig = man.sign(
        "corpus", verdict_sig=verdict_sig, corpus_buckets=args.corpus_buckets
    )

    def phase_dir(name: str, sig: str) -> tuple[str, str]:
        """(path, resume decision); clears a half-written or stale phase."""
        d = os.path.join(args.out_dir, name)
        done, decision = man.reuse(os.path.join(d, "_SUCCESS"), None, sig)
        if done is None:
            shutil.rmtree(d, ignore_errors=True)
        return d, decision

    t0 = time.time()
    out: dict = {}
    vdir, out["verdicts"] = phase_dir("verdicts", verdict_sig)
    if out["verdicts"] != "resumed":
        docs = read_parquet_clean(
            args.docs, columns=[args.id_col, args.text_col]
        )
        pairs = ngram_jaccard_pairs_hashed(
            docs, id_col=args.id_col, text_col=args.text_col,
            k=args.ngram_k, threshold=args.ngram_threshold,
        )
        verdicts = curate_corpus(
            docs, pairs, id_col=args.id_col, text_col=args.text_col,
            min_quality_i6=args.min_quality_i6,
            min_tokens=args.min_tokens, max_tokens=args.max_tokens,
        )
        vstats = write_partitioned(verdicts, vdir, partition_col="keep",
                                   sum_cols=[])
        man.commit(os.path.join(vdir, "_SUCCESS"), None, verdict_sig)
        out["verdict_rows"] = vstats["rows"]
        out["verdicts_sec"] = round(time.time() - t0, 2)

    if args.write_corpus:
        cdir, out["corpus"] = phase_dir("corpus", corpus_sig)
    if out.get("corpus", "resumed") != "resumed":
        t1 = time.time()
        # keep=1 partition is the kept docid list — read it back (narrow,
        # already on disk) and broadcast as a sorted membership array
        keep1_dir = os.path.join(args.out_dir, "verdicts", "keep=1")
        if os.path.isdir(keep1_dir):
            # hive partition dirs are only written when non-empty — a run
            # where NO doc survived has no keep=1/ directory at all
            kept = ray.data.read_parquet(keep1_dir, columns=["docid"])
            ids = np.sort(
                np.concatenate(
                    [
                        t["docid"].to_numpy(zero_copy_only=False)
                        for t in (ray.get(r) for r in kept.to_arrow_refs())
                        if t.num_rows
                    ]
                    or [np.empty(0, np.int64)]
                )
            )
        else:
            ids = np.empty(0, np.int64)
        ids_ref = ray.put(ids)
        n_buckets = args.corpus_buckets
        id_col = args.id_col

        class KeepFilter:
            def __init__(self):
                self.ids = ray.get(ids_ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                # ids is never empty here (main skips the scan then).
                # Cast to the verdicts' int64 docid space FIRST (loud
                # ArrowInvalid on overflow, same as the upstream verdicts
                # cast): a raw uint64 column compared against int64 ids
                # promotes searchsorted/== to float64 and SILENTLY drops
                # kept docs with ids >= 2^53
                d = (
                    batch[id_col]
                    .cast(pa.int64())
                    .to_numpy(zero_copy_only=False)
                )
                pos = np.searchsorted(self.ids, d)
                hit = (pos < len(self.ids)) & (
                    self.ids[np.minimum(pos, len(self.ids) - 1)] == d
                )
                kept_b = batch.filter(pa.array(hit))
                return kept_b.append_column(
                    "bucket",
                    pa.array(
                        kept_b[id_col]
                        .to_numpy(zero_copy_only=False)
                        .astype(np.int64)
                        % n_buckets,
                        pa.int64(),
                    ),
                )

        if len(ids) == 0:
            # nothing was kept: skip the corpus scan entirely, leave an
            # empty (but marked-complete) corpus phase
            os.makedirs(cdir, exist_ok=True)
            out["kept_rows"] = 0
        else:
            full_docs = read_parquet_clean(args.docs)
            cstats = write_partitioned(
                map_per_block(full_docs, KeepFilter, {}),
                cdir, partition_col="bucket", sum_cols=[],
            )
            out["kept_rows"] = cstats["rows"]
        man.commit(os.path.join(cdir, "_SUCCESS"), None, corpus_sig)
        out["corpus_sec"] = round(time.time() - t1, 2)

    out["total_sec"] = round(time.time() - t0, 2)
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
