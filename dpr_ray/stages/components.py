"""Distributed connected components over near-duplicate pair graphs, and
the cluster-canonicalization step (``dedup_clusters``) a corpus-scale
near-dup pipeline needs AFTER pair generation: pairs → components →
one canonical doc per cluster.

No counterpart in the reference (its only dedup is first-wins exact,
``dpr/data/biencoder_data.py:379-380``); this closes the loop on the
pair-producing ops in ``stages/dedup.py`` / ``stages/ann.py``.

Scale shape — min-label propagation, Dataset-native:

- adjacency = edges exploded both directions ``(node, req)``; a static,
  narrow two-int64 table materialized ONCE and reused every round.
- labels ``(node, label)`` init: per-edge ``(endpoint, min(a, b))`` rows
  → ``groupby(node).min`` — every edge endpoint gets a label in one
  shuffle.
- one round: ``union(labels, adjacency)`` → ``groupby(node)`` cogroup
  emits the node's current label to every adjacent requester AND to
  itself → ``groupby(node).min`` keeps the smallest label seen. Two
  shuffles per round over tables of size O(|E| + |V_edges|) — never
  O(corpus), and nothing ever lands on the driver except a scalar.
- convergence: labels only ever decrease, so the monotone
  ``sum(label)`` aggregate reaching a fixed point IS convergence
  (no per-node change join needed). Rounds needed = max over
  components of the eccentricity of the min-id node — near-dup
  clusters are low-diameter stars/cliques, so a handful in practice;
  ``max_rounds`` caps pathological chains with a logged warning.

Per-round ``materialize()`` is of the narrow (node, label) table only —
the documented small-intermediate exception to the no-materialize rule
(iterative lineage would otherwise re-run all prior rounds each
execution).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import ray

from .._shipping import ensure_shippable
from ..util import ids_int64

logger = logging.getLogger("dpr_ray.components")

_EMPTY_LABELS = pa.table(
    {"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())}
)


def _rename_min(batch: pa.Table) -> pa.Table:
    return pa.table({"node": batch["node"], "label": batch["min(label)"]})


def _driver_union_find(adj) -> "ray.data.Dataset":
    """Small-graph path: one pull of the (node, req) pairs, path-halving
    union-find, labels back as a Dataset."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for batch in adj.iter_batches(batch_format="pyarrow"):
        for a, b in zip(
            batch["node"].to_numpy(zero_copy_only=False),
            batch["req"].to_numpy(zero_copy_only=False),
        ):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted(parent)
    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "label": pa.array([find(n) for n in nodes], pa.int64()),
            }
        )
    )


def connected_components(
    edges,
    a_col: str = "docid_a",
    b_col: str = "docid_b",
    max_rounds: int = 64,
    driver_edge_limit: int = 2_000_000,
):
    """→ materialized Dataset ``(node, label)``: one row per distinct edge
    endpoint, ``label`` = the smallest node id reachable from it (the
    component's canonical id). Nodes with no edges do not appear — see
    :func:`assign_clusters` for full-corpus assignment.

    Size-gated hybrid (the embedding-near-dup dual-path pattern): a
    near-dup pair graph is tiny relative to its corpus, and each
    distributed propagation round costs two shuffles of fixed dispatch
    latency — so up to ``driver_edge_limit`` edges (≤ 32 MB of int64
    pairs) the edge list is pulled once and union-find runs on the
    driver in linear time. Above the limit the iterative min-label
    propagation below takes over; the choice is logged."""
    ensure_shippable()

    def explode_adj(batch: pa.Table) -> pa.Table:
        a = ids_int64(batch[a_col])
        b = ids_int64(batch[b_col])
        return pa.table(
            {
                "node": pa.array(np.concatenate([a, b]), pa.int64()),
                "req": pa.array(np.concatenate([b, a]), pa.int64()),
                "label": pa.array(
                    np.full(2 * len(a), -1, np.int64), pa.int64()
                ),
            }
        )

    adj = edges.map_batches(explode_adj, batch_format="pyarrow").materialize()
    n_adj = adj.count()
    if n_adj == 0:
        return ray.data.from_arrow(_EMPTY_LABELS)
    if n_adj <= 2 * driver_edge_limit:
        logger.info(
            "connected_components: %d edges ≤ limit — driver union-find",
            n_adj // 2,
        )
        return _driver_union_find(adj)
    logger.info(
        "connected_components: %d edges — distributed propagation", n_adj // 2
    )

    def init_labels(batch: pa.Table) -> pa.Table:
        # (endpoint, min(a,b)) for both endpoints; groupby.min finishes it
        node = batch["node"].to_numpy(zero_copy_only=False)
        req = batch["req"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "label": pa.array(np.minimum(node, req), pa.int64()),
            }
        )

    labels = (
        adj.map_batches(init_labels, batch_format="pyarrow")
        .groupby("node")
        .min("label")
        .map_batches(_rename_min, batch_format="pyarrow")
        .materialize()
    )

    def propagate(group: pa.Table) -> pa.Table:
        lab = group["label"].to_numpy(zero_copy_only=False)
        has = lab >= 0
        if not has.any():  # defensive: key with no label row
            return _EMPTY_LABELS
        lev = int(lab[has].min())
        req = group["req"].to_numpy(zero_copy_only=False)
        out = req[req >= 0]
        nodes = np.concatenate([out, group["node"][:1].to_numpy(zero_copy_only=False)])
        return pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "label": pa.array(np.full(len(nodes), lev, np.int64), pa.int64()),
            }
        )

    def lift(batch: pa.Table) -> pa.Table:  # (node,label) → adj schema
        return pa.table(
            {
                "node": batch["node"],
                "req": pa.array(
                    np.full(batch.num_rows, -1, np.int64), pa.int64()
                ),
                "label": batch["label"],
            }
        )

    prev_sum = labels.sum("label")
    for rnd in range(max_rounds):
        labels = (
            labels.map_batches(lift, batch_format="pyarrow")
            .union(adj)
            .groupby("node")
            .map_groups(propagate, batch_format="pyarrow")
            .groupby("node")
            .min("label")
            .map_batches(_rename_min, batch_format="pyarrow")
            .materialize()
        )
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            logger.info("connected_components: converged after %d rounds", rnd + 1)
            break
        prev_sum = cur_sum
    else:
        logger.warning(
            "connected_components: max_rounds=%d hit before convergence "
            "(component diameter exceeds the cap; labels are an upper "
            "bound on canonical ids, not final)",
            max_rounds,
        )
    return labels


def assign_clusters(docs, comp_labels, id_col: str = "docid"):
    """Full-corpus cluster assignment: → Dataset ``(docid, cluster_id,
    is_canonical)``. Docs untouched by any edge are their own singleton
    cluster. Implemented as ONE more min-shuffle (union of per-doc
    self-labels with the component labels — a component label is always
    ≤ its node's docid), never a driver-side lookup table."""
    ensure_shippable()

    def self_labels(batch: pa.Table) -> pa.Table:
        ids = ids_int64(batch[id_col])
        return pa.table(
            {"node": pa.array(ids, pa.int64()), "label": pa.array(ids, pa.int64())}
        )

    def finish(batch: pa.Table) -> pa.Table:
        node = batch["node"].to_numpy(zero_copy_only=False)
        lab = batch["min(label)"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "docid": pa.array(node, pa.int64()),
                "cluster_id": pa.array(lab, pa.int64()),
                "is_canonical": pa.array((node == lab).astype(np.int64), pa.int64()),
            }
        )

    return (
        docs.map_batches(self_labels, batch_format="pyarrow")
        .union(comp_labels)
        .groupby("node")
        .min("label")
        .map_batches(finish, batch_format="pyarrow")
    )


def dedup_clusters(
    docs,
    pairs,
    id_col: str = "docid",
    a_col: str = "docid_a",
    b_col: str = "docid_b",
    max_rounds: int = 64,
):
    """Near-dup canonicalization: pair graph → connected components →
    per-doc ``(docid, cluster_id, is_canonical)``. ``pairs`` is any
    near-dup pair Dataset (ngram_jaccard / minhash_lsh / embedding
    near-dup output)."""
    comp = connected_components(
        pairs, a_col=a_col, b_col=b_col, max_rounds=max_rounds
    )
    return assign_clusters(docs, comp, id_col=id_col)
