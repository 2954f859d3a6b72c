"""Per-layer instrumentation: wrappers around the engine's public
functions (query executor, build stages, eval) and the serial replays of
worker-side stages that Ray runs out of the driver's reach.

Every per-layer metric name the benchmark can print is in ``PER_LAYER``;
a workload that does not exercise a layer reports 0 for it.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from .tracing import Tracer

ROUTES = {
    "maxscore_topk_dense": "maxscore",
    "taat_topk_dense": "taat_dense",
    "taat_topk_dense_multi": "taat_multi",
    "pruned_topk_dense": "pruned_dense",
    "taat_topk_entries": "taat_sparse",
    "bmw_topk": "bmw_sparse",
}

PER_LAYER = [
    # build side (serial replay + manifest + on-disk counts)
    "index.build.docstore_s", "index.build.segments_s",
    "index.build.head_terms_salted",
    "stages.featurize.busy_s", "analyzer.tokenize_busy_s", "analyzer.tokens",
    "index.build.emit_busy_s", "index.build.shuffle_rows",
    "index.build.shuffle_bytes",
    "index.segments.encode_busy_s", "index.segments.bytes_per_posting",
    "index.bytes_per_input_byte",
    "index.io.files_written", "index.io.bytes_written",
    # refresh
    "index.merge.delta_build_s", "index.merge.merge_s",
    "index.merge.bytes_written_per_delta_byte",
    "index.merge.tbuckets_rewritten_frac", "index.merge.tbuckets_touched_frac",
    # query executor (serial closed loop, in-process)
    "query.executor.fetch_calls", "query.executor.fetch_terms",
    "query.executor.fetch_busy_s",
    "query.executor.decode_postings", "query.executor.decode_busy_s",
    "query.executor.scored_cache_hit_ratio",
    "query.executor.result_cache_hit_ratio",
    "query.executor.tokenize_busy_s", "query.executor.score_busy_s",
    "query.executor.self_s", "query.executor.warm_busy_s",
    "query.executor.route.deferred_taat",
    *[f"query.executor.route.{r}" for r in ROUTES.values()],
    "query.executor.op_tasks", "query.executor.op_wall_s",
    # DocJoin + answer validation + pipeline operators
    "query.executor.docjoin_busy_s", "query.executor.docjoin_rows",
    "eval.qa.has_answer_busy_s", "eval.qa.has_answer_calls",
    "eval.qa.top_k_hits_s", "eval.qa.save_results_s",
    "pipelines.op_tasks.AttachHasAnswer", "pipelines.op_wall_s.AttachHasAnswer",
    # curation
    "stages.dedup.duplicate_spans_s", "stages.dedup.max_span_docs",
    "stages.text_stats.tfidf_topk_s", "stages.text_stats.max_df",
    "stages.groupby_task_max_over_mean",
    # the tracing itself
    "trace.named_over_wall", "trace.overhead_frac",
]

UNITS = {
    "_s": "s", "_frac": "ratio", "_ratio": "ratio", "_per_posting": "B",
    "_per_input_byte": "ratio", "_per_delta_byte": "ratio",
    "_over_mean": "ratio", "_over_wall": "ratio", "bytes": "B",
    "bytes_written": "B",
}


def unit_of(name: str) -> str:
    """Unit from the name's last part that has a unit suffix (an
    operator name such as ``AttachHasAnswer`` may follow it)."""
    for part in reversed(name.split(".")):
        for suffix, unit in UNITS.items():
            if part.endswith(suffix):
                return unit
    return "count"


# ---------------------------------------------------------------- query side


def wrap_query_layers(tr: Tracer) -> None:
    """Spans around the in-process ``QueryExecutor`` call path."""
    from dpr_ray import analyzer
    from dpr_ray.index import segments as seg
    from dpr_ray.query import executor as ex
    from dpr_ray.query import scorer

    def count_tokens(args, out, idx):
        tr.counts["analyzer.tokens"] += sum(len(t) for t in out)

    def count_fetch(args, out, idx):
        tr.counts["query.executor.fetch_calls"] += 1
        tr.counts["query.executor.fetch_terms"] += len(args[1])

    def count_decode(args, out, idx):
        tr.counts["query.executor.decode_postings"] += len(out[0])

    tr.wrap(ex.QueryExecutor, "__call__", "query.executor")
    tr.wrap(analyzer, "tokenize_batch", "analyzer.tokenize", count_tokens)
    tr.wrap(ex.SegmentStore, "fetch", "query.executor.fetch", count_fetch)
    tr.wrap(ex.SegmentStore, "scored", "query.executor.scored")
    tr.wrap(seg, "concat_delta_decode", "query.executor.decode", count_decode)
    tr.wrap(seg, "concat_varint_decode", "query.executor.decode")
    tr.wrap(scorer, "score_contrib_vec", "query.scorer.contrib")
    for fn, route in ROUTES.items():
        def on_route(args, out, idx, _route=route):
            if tr.spans[idx][3] >= 0 and tr.spans[tr.spans[idx][3]][0].startswith(
                "query.executor.route."
            ):
                return  # a kernel's internal fallback, not a route decision
            tr.counts[f"query.executor.route.{_route}"] += 1
            if _route == "maxscore" and out is None:
                tr.counts["query.executor.route.deferred_taat"] += 1
        tr.wrap(ex, fn, f"query.executor.route.{route}", on_route)


def query_layer_metrics(tr: Tracer, roots: list[int], wall_s: float) -> dict:
    """Per-layer figures over the spans under ``roots`` (one client span
    per serial query)."""
    sel = tr.descendants_of(roots)
    sel_set = set(sel)
    by_name: dict[str, list[int]] = {}
    for i in sel:
        by_name.setdefault(tr.spans[i][0], []).append(i)

    def busy(name: str) -> float:
        return tr.busy(name, sel_set)

    has_fetch_child = {tr.spans[i][3] for i in by_name.get("query.executor.fetch", [])}
    scored = by_name.get("query.executor.scored", [])
    scored_hits = sum(1 for i in scored if i not in has_fetch_child)
    route_names = [n for n in by_name if n.startswith("query.executor.route.")]
    calls = by_name.get("query.executor", [])
    # a query whose executor call ran no scoring kernel was answered from
    # the result cache
    with_route = set()
    for n in route_names:
        for i in by_name[n]:
            p = tr.spans[i][3]
            while p >= 0 and tr.spans[p][0] != "query.executor":
                p = tr.spans[p][3]
            with_route.add(p)
    self_t = tr.self_times(sel)
    # time inside a named layer below the executor; what the client and
    # the executor's own frame spend is left out, so the share drops when
    # a hot path runs outside every wrapped function
    named = sum(v for n, v in self_t.items()
                if n not in ("bench.client", "query.executor"))
    return {
        "query.executor.fetch_busy_s": busy("query.executor.fetch"),
        "query.executor.decode_busy_s": busy("query.executor.decode"),
        "query.executor.tokenize_busy_s": busy("analyzer.tokenize"),
        "query.executor.score_busy_s": sum(busy(n) for n in route_names)
        + busy("query.scorer.contrib"),
        "query.executor.self_s": self_t.get("query.executor", 0.0),
        "query.executor.scored_cache_hit_ratio":
            scored_hits / len(scored) if scored else 0.0,
        "query.executor.result_cache_hit_ratio":
            (len(calls) - len(with_route)) / len(calls) if calls else 0.0,
        "trace.named_over_wall": named / wall_s if wall_s else 0.0,
    }


# ---------------------------------------------------------------- build side


def replay_build(tr: Tracer, corpus: pa.Table, index_dir: str,
                 batch_rows: int = 8192) -> dict:
    """Serial, in-driver replay of the build's map side — ``Featurize``
    then ``EmitEncodedPostings`` over the same corpus with the built
    index's salt plan — timing the analyzer and the segment encoder and
    counting the rows and bytes the build's shuffle moves."""
    from dpr_ray import analyzer
    from dpr_ray.config import BM25Params
    from dpr_ray.index import segments as seg
    from dpr_ray.index.build import EmitEncodedPostings
    from dpr_ray.index.manifest import read_manifest
    from dpr_ray.stages.featurize import Featurize

    stats = seg.read_stats(index_dir)
    salt_map = read_manifest(index_dir).get("salt_map", {})

    def count_tokens(args, out, idx):
        tr.counts["analyzer.tokens"] += sum(len(t) for t in out)

    def count_shuffle(args, out, idx):
        tr.counts["index.build.shuffle_rows"] += out.num_rows
        tr.counts["index.build.shuffle_bytes"] += out.nbytes

    tr.wrap(Featurize, "__call__", "stages.featurize")
    tr.wrap(EmitEncodedPostings, "__call__", "index.build.emit", count_shuffle)
    tr.wrap(analyzer, "tokenize_batch", "analyzer.tokenize", count_tokens)
    tr.wrap(analyzer, "doc_lengths", "analyzer.doc_lengths")
    tr.wrap(seg, "encode_single_block_lists", "index.segments.encode")
    tr.wrap(seg, "encode_posting_list", "index.segments.encode")
    try:
        feat = Featurize(docid_strategy="provided", num_dbuckets=16)
        parts = [feat(corpus.slice(i, batch_rows))
                 for i in range(0, corpus.num_rows, batch_rows)]
        docs = pa.concat_tables(parts).sort_by("docid").select(
            ["docid", "content", "doclen"]
        )
        emit = EmitEncodedPostings(
            None, stats["avgdl"], BM25Params(k1=stats["k1"], b=stats["b"]),
            int(stats["num_tbuckets"]), int(stats["block_size"]),
        )
        emit.shift_map = {k: int(v) for k, v in salt_map.items()}
        for i in range(0, docs.num_rows, batch_rows):
            emit(docs.slice(i, batch_rows))
    finally:
        tr.unwrap_all()
    return {
        "stages.featurize.busy_s": tr.busy("stages.featurize"),
        "analyzer.tokenize_busy_s": tr.busy("analyzer.tokenize")
        + tr.busy("analyzer.doc_lengths"),
        "analyzer.tokens": tr.counts["analyzer.tokens"],
        "index.build.emit_busy_s": tr.busy("index.build.emit"),
        "index.build.shuffle_rows": tr.counts["index.build.shuffle_rows"],
        "index.build.shuffle_bytes": tr.counts["index.build.shuffle_bytes"],
        "index.segments.encode_busy_s": tr.busy("index.segments.encode"),
    }


def dir_files(path: str) -> dict[str, int]:
    """relative path → size for every file under ``path``."""
    out = {}
    for d, _, files in os.walk(path):
        for f in files:
            p = os.path.join(d, f)
            out[os.path.relpath(p, path)] = os.path.getsize(p)
    return out


def index_disk_metrics(index_dir: str, content_bytes: int) -> dict:
    from dpr_ray.index import segments as seg

    files = dir_files(index_dir)
    seg_bytes = sum(v for k, v in files.items() if k.startswith("segments/"))
    doc_bytes = sum(v for k, v in files.items() if k.startswith("docstore/"))
    postings = int(seg.read_stats(index_dir)["postings"])
    return {
        "index.io.files_written": len(files),
        "index.io.bytes_written": sum(files.values()),
        "index.segments.bytes_per_posting": seg_bytes / max(1, postings),
        "index.bytes_per_input_byte": (seg_bytes + doc_bytes) / max(1, content_bytes),
    }


def tbucket_metrics(base_dir: str, merged_dir: str, touched_terms,
                    num_tbuckets: int) -> dict:
    """Share of term buckets whose segment files the merge rewrote (files
    are content-hash named, so an unchanged bucket keeps its names) and
    the share holding a term the delta touches — the floor a refresh
    proportional to the delta could reach."""
    from dpr_ray.index import segments as seg

    def per_bucket(d: str) -> dict[str, set]:
        out: dict[str, set] = {}
        for rel in dir_files(os.path.join(d, "segments")):
            b, _, name = rel.partition(os.sep)
            out.setdefault(b, set()).add(name)
        return out

    a, b = per_bucket(base_dir), per_bucket(merged_dir)
    buckets = set(a) | set(b)
    rewritten = sum(1 for k in buckets if a.get(k) != b.get(k))
    touched = {seg.term_bucket(t, num_tbuckets) for t in touched_terms}
    return {
        "index.merge.tbuckets_rewritten_frac": rewritten / max(1, len(buckets)),
        "index.merge.tbuckets_touched_frac": len(touched) / num_tbuckets,
    }


# ----------------------------------------------------------------- eval side


def replay_eval(tr: Tracer, results: pa.Table, index_dir: str,
                answers: dict, batch_rows: int = 4096) -> dict:
    """Serial replay of the eval pipeline's worker stages over the rows
    one ``retrieve_and_evaluate`` call produced: ``DocJoin`` on the bare
    result rows, then ``AttachHasAnswer`` with ``has_answer_string``
    timed per call."""
    import ray

    from dpr_ray.eval import qa
    from dpr_ray.query.executor import DocJoin

    def count_join(args, out, idx):
        tr.counts["query.executor.docjoin_rows"] += out.num_rows

    def count_has(args, out, idx):
        tr.counts["eval.qa.has_answer_calls"] += 1

    bare = results.select(["qid", "question", "rank", "docid", "score"])
    answers_ref = ray.put(answers)
    tr.wrap(DocJoin, "__call__", "query.executor.docjoin", count_join)
    tr.wrap(qa, "has_answer_string", "eval.qa.has_answer", count_has)
    try:
        join = DocJoin(index_dir, ["ext_id", "title", "content"])
        attach = qa.AttachHasAnswer(answers_ref, match="string")
        for i in range(0, bare.num_rows, batch_rows):
            attach(join(bare.slice(i, batch_rows)))
    finally:
        tr.unwrap_all()
    return {
        "query.executor.docjoin_busy_s": tr.busy("query.executor.docjoin"),
        "query.executor.docjoin_rows": tr.counts["query.executor.docjoin_rows"],
        "eval.qa.has_answer_busy_s": tr.busy("eval.qa.has_answer"),
        "eval.qa.has_answer_calls": tr.counts["eval.qa.has_answer_calls"],
    }


def max_df(texts) -> int:
    """Largest document frequency of a whitespace token (the tfidf
    stage's term convention) — the hot key's group size."""
    from collections import Counter

    df: Counter = Counter()
    for t in texts:
        df.update(set(t.split(" ")))
    return max(df.values()) if df else 0


def groupby_skew(ops: list[dict]) -> float:
    """Slowest over mean task wall time, worst over the ``map_groups``
    operators (in this Ray version a groupby is SortMap → SortReduce →
    MapBatches(<group fn>))."""
    worst = 0.0
    for prev, o in zip(ops, ops[1:]):
        if (prev["name"].startswith("SortReduce")
                and o["name"].startswith("MapBatches(") and o.get("wall_mean")):
            worst = max(worst, o["wall_max"] / o["wall_mean"])
    return worst


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, np.float64), q)) if len(values) else 0.0
