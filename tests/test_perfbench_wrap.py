"""Tier-1 guard for the benchmark's instrumentation: every engine name
``perfbench.layers.wrap_query_layers`` wraps must exist (a rename makes
every ``--trace 1`` run raise), ``unwrap_all`` must restore each one, and
a traced query must still pass through the wrapped fetch, decode and
scoring names the per-layer figures are read from."""

import pyarrow as pa

from dpr_ray import corpus as corpus_mod
from perfbench.layers import ROUTES, wrap_query_layers
from perfbench.tracing import Tracer


def test_wrap_query_layers_targets_exist_and_unwrap_restores():
    from dpr_ray.query import executor as ex

    tr = Tracer()
    try:
        wrap_query_layers(tr)
        patched = list(tr._patches)
    finally:
        tr.unwrap_all()
    names = {attr for _owner, attr, _orig in patched}
    assert set(ROUTES) <= names
    assert {"fetch", "scored", "concat_delta_decode",
            "concat_varint_decode", "tokenize_batch"} <= names
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig, attr
    assert not tr._patches
    assert ex.SegmentStore.fetch.__name__ == "fetch"


def test_traced_query_reaches_wrapped_layers(ray_session, tmp_path):
    """Every scored miss goes through ``fetch`` (the traced scored hit
    ratio counts a scored span without a fetch child as a hit) and
    decodes through ``concat_delta_decode``."""
    import ray.data

    from dpr_ray.index.build import build_index
    from dpr_ray.query.executor import QueryExecutor

    tbl = corpus_mod.synth_corpus_table(80, seed=12)
    tbl = tbl.append_column("docid", pa.array(range(80), pa.uint64()))
    d = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(tbl).repartition(2), d,
                docid_strategy="provided")
    qs = ["def return", "rare_tok_3 class", "def return"]
    batch = pa.table({"qid": [f"q{i}" for i in range(3)], "question": qs})
    ex = QueryExecutor(d, k=5, method="maxscore")
    tr = Tracer()
    wrap_query_layers(tr)
    try:
        ex(batch)
    finally:
        tr.unwrap_all()
    spans = tr.spans
    fetch_parents = {s[3] for s in spans if s[0] == "query.executor.fetch"}
    scored = [i for i, s in enumerate(spans)
              if s[0] == "query.executor.scored"]
    misses = [i for i in scored if i in fetch_parents]
    assert tr.counts["query.executor.fetch_calls"] == len(misses) > 0
    assert tr.counts["query.executor.decode_postings"] > 0
    assert len(scored) > len(misses)  # repeated terms hit the scored cache
    assert any(s[0].startswith("query.executor.route.") for s in spans)
