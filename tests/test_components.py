"""Connected components / dedup_clusters: min-label propagation vs a
driver-side union-find ground truth, across chain (max-diameter), star,
clique, disjoint and empty graphs."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from dpr_ray.stages.components import (
    assign_clusters,
    connected_components,
    dedup_clusters,
)


def _uf_labels(edges: list[tuple[int, int]]) -> dict[int, int]:
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def _edges_ds(edges):
    a, b = zip(*edges) if edges else ((), ())
    return ray.data.from_arrow(
        pa.table(
            {
                "docid_a": pa.array(list(a), pa.int64()),
                "docid_b": pa.array(list(b), pa.int64()),
            }
        )
    )


def _cc_dict(edges, **kw):
    out = connected_components(_edges_ds(edges), **kw).to_pandas()
    return dict(zip(out["node"], out["label"]))


@pytest.mark.parametrize("limit", [2_000_000, 0])  # driver UF / distributed
@pytest.mark.parametrize(
    "edges",
    [
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)],  # chain
        [(10, 1), (10, 2), (10, 3), (10, 4)],  # star, hub not min
        [(1, 2), (1, 3), (2, 3), (7, 8), (8, 9), (7, 9)],  # two cliques
        [(5, 5)],  # self loop
        [(3, 1), (1, 3), (2, 9)],  # duplicates / reversed
    ],
)
def test_cc_matches_union_find(ray_session, edges, limit):
    assert _cc_dict(edges, driver_edge_limit=limit) == _uf_labels(edges)


def test_cc_empty(ray_session):
    out = connected_components(_edges_ds([]))
    assert out.count() == 0
    # Ray's to_pandas drops columns on 0-row datasets; check the schema
    assert out.schema().names == ["node", "label"]


@pytest.mark.parametrize("limit", [2_000_000, 0])
def test_cc_random_graph(ray_session, limit):
    rng = np.random.default_rng(7)
    edges = [
        (int(a), int(b))
        for a, b in rng.integers(0, 60, size=(120, 2))
    ]
    assert _cc_dict(edges, driver_edge_limit=limit) == _uf_labels(edges)


def test_assign_clusters_covers_singletons(ray_session):
    docs = ray.data.from_arrow(
        pa.table({"docid": pa.array([1, 2, 3, 4, 5, 6], pa.int64())})
    )
    out = dedup_clusters(docs, _edges_ds([(2, 4), (4, 6)])).to_pandas()
    got = dict(zip(out["docid"], out["cluster_id"]))
    assert got == {1: 1, 2: 2, 3: 3, 4: 2, 5: 5, 6: 2}
    canon = dict(zip(out["docid"], out["is_canonical"]))
    assert canon == {1: 1, 2: 1, 3: 1, 4: 0, 5: 1, 6: 0}


def test_assign_clusters_no_edges(ray_session):
    docs = ray.data.from_arrow(
        pa.table({"docid": pa.array([7, 8], pa.int64())})
    )
    out = assign_clusters(
        docs, connected_components(_edges_ds([]))
    ).to_pandas()
    assert dict(zip(out["docid"], out["cluster_id"])) == {7: 7, 8: 8}


def test_max_rounds_cap_warns(ray_session, caplog):
    # a 12-chain needs ~11 rounds; cap at 2 → warning, labels an upper bound
    edges = [(i, i + 1) for i in range(1, 12)]
    with caplog.at_level("WARNING", logger="dpr_ray.components"):
        out = connected_components(
            _edges_ds(edges), max_rounds=2, driver_edge_limit=0
        ).to_pandas()
    assert any("max_rounds" in r.message for r in caplog.records)
    full = _uf_labels(edges)
    got = dict(zip(out["node"], out["label"]))
    assert all(got[n] >= full[n] for n in full)  # upper bound on canonical



def test_ids_int64_refuses_what_int64_cannot_hold():
    from dpr_ray.util import ids_int64

    top = 2**63 - 1
    got = ids_int64(pa.array([top, 0], pa.uint64()))
    assert got.dtype == np.int64 and got.tolist() == [top, 0]
    for big in (2**63, 2**64 - 1):
        with pytest.raises(ValueError, match="outside int64"):
            ids_int64(pa.array([1, big], pa.uint64()))
        with pytest.raises(ValueError, match="outside int64"):
            ids_int64(np.array([big], np.uint64))


def _u64_edges_ds(edges):
    a, b = zip(*edges)
    return ray.data.from_arrow(
        pa.table(
            {
                "docid_a": pa.array(list(a), pa.uint64()),
                "docid_b": pa.array(list(b), pa.uint64()),
            }
        )
    )


# a stage's ValueError reaches the caller wrapped by Ray Data
# (UserCodeException), its message kept
@pytest.mark.parametrize("limit", [2_000_000, 0])  # driver UF / distributed
def test_cc_uint64_ids_exact_or_refused(ray_session, limit):
    """uint64 ids up to 2^63-1 keep their value; 2^63 and above are
    refused instead of wrapping to negative nodes."""
    top = 2**63 - 1
    out = connected_components(
        _u64_edges_ds([(top, top - 1), (5, top)]), driver_edge_limit=limit
    ).to_pandas()
    assert dict(zip(out["node"], out["label"])) == {
        5: 5, top - 1: 5, top: 5,
    }
    for edge in [(2**63, 3), (2**64 - 1, 3), (2**63 + 1, 2**63 + 2)]:
        with pytest.raises(Exception, match="outside int64"):
            connected_components(_u64_edges_ds([edge]), driver_edge_limit=limit)


def test_assign_clusters_uint64_ids_exact_or_refused(ray_session):
    def docs(ids):
        return ray.data.from_arrow(pa.table({"docid": pa.array(ids, pa.uint64())}))

    top = 2**63 - 1
    no_edges = connected_components(_edges_ds([]))
    out = assign_clusters(docs([top, 4]), no_edges).to_pandas()
    assert dict(zip(out["docid"], out["cluster_id"])) == {top: top, 4: 4}
    for big in (2**63, 2**64 - 1):
        with pytest.raises(Exception, match="outside int64"):
            assign_clusters(docs([big, 4]), no_edges).materialize()
