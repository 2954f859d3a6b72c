"""End-to-end retrieval pipelines (the ``dense_retriever.py`` main-path
analog, SURVEY §3.2): queries → top-k → doc join → has_answer → metrics +
ranked results JSON."""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data

from ._shipping import ensure_shippable
from .config import DEFAULT_TOP_K
from .eval import qa
from .query.executor import search_pipeline
from .util import map_per_block


def retrieve_and_evaluate(
    queries: pa.Table,
    index_dir: str,
    k: int = DEFAULT_TOP_K,
    match: str = "string",
    method: str = "taat",
    out_json: str | None = None,
):
    """queries table (qid, question, answers) → (result Dataset, metrics).

    Result Dataset rows: qid, question, rank, docid, score, ext_id, title,
    content, has_answer — the flattened form of the reference's output JSON.
    Metrics replicate ``top_k_hits`` accuracy (``qa_validation.py:72-79``).
    Nothing after retrieval shuffles: answer matching is a task per block
    that fuses with the query and doc-join tasks (one operator, no actor;
    string mode tokenizes only the passages that can hold an answer), and
    the metrics and the results JSON reduce the materialized blocks on the
    driver, with no second execution. The JSON is written entry by entry
    from Arrow columns, byte-identical to ``json.dump(..., indent=1)``.
    """
    ensure_shippable()
    answers_map = {
        qid: ans
        for qid, ans in zip(
            queries["qid"].to_pylist(), queries["answers"].to_pylist()
        )
    }
    answers_ref = ray.put(answers_map)
    qds = ray.data.from_arrow(queries.select(["qid", "question"]))
    res = search_pipeline(
        qds, index_dir, k=k, method=method,
        with_docs=True, doc_columns=["ext_id", "title", "content"],
    )
    res = map_per_block(
        res, qa.AttachHasAnswer, {"answers_ref": answers_ref, "match": match}
    )
    # result set is query-scale (n_queries × k rows): pin it so metrics and
    # the results sink don't recompute the whole retrieval
    res = res.materialize()
    metrics = qa.top_k_hits(res, n_queries=queries.num_rows, k=k)
    if out_json:
        qa.save_results(res, out_json, answers_ref)
    return res, metrics
