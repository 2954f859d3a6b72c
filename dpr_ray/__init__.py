"""dpr_ray — a Ray-Data-native sparse (BM25) retrieval engine.

From-scratch engine with the query and data-processing capabilities of
facebookresearch/DPR (reference at /root/reference), re-expressed as
ray.data.Dataset pipelines: map_batches tokenizers over zero-copy Arrow
batches emit (term, docid, tf) postings, a salted groupby(term) shuffle
builds delta+varint-compressed block-max posting lists, and query
executors, one stateless task per block of queries, answer top-k via
exact BM25 scoring (vectorized term-at-a-time and block-max WAND paths,
rank-identical).

Layout:
  analyzer   — DPR SimpleTokenizer-compatible analyzer (the "analyzer contract")
  codec      — varint/delta posting-list encoding (numpy-vectorized)
  config     — BM25 parameters and engine constants
  corpus     — deterministic corpus synthesis (input_hint schema)
  index/     — build, segments, merge
  query/     — scorer, executor (a task per query block), brute-force oracle
  eval/      — has_answer validation, top-k-hits metrics, results sink
  sources/   — DPR-shaped query/ctx sources (TSV/JSONL)
  stages/    — training-data ops: dedup, ANN, text analysis, windows, multimodal
"""

__version__ = "0.1.0"

_LAZY = {
    "build_index": ("dpr_ray.index.build", "build_index"),
    "merge_indexes": ("dpr_ray.index.merge", "merge_indexes"),
    "search_pipeline": ("dpr_ray.query.executor", "search_pipeline"),
    "QueryExecutor": ("dpr_ray.query.executor", "QueryExecutor"),
    "retrieve_and_evaluate": ("dpr_ray.pipelines", "retrieve_and_evaluate"),
    "tokenize": ("dpr_ray.analyzer", "tokenize"),
    "BM25Params": ("dpr_ray.config", "BM25Params"),
}

__all__ = list(_LAZY)


def __getattr__(name):
    # lazy top-level API: `from dpr_ray import build_index` without paying
    # ray/pyarrow import cost for modules the caller never touches
    try:
        mod_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(name) from None
    import importlib

    return getattr(importlib.import_module(mod_name), attr)
