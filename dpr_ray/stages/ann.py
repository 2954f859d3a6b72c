"""Similarity search over an embedding column (list<float>):

- ``brute_force_knn`` — exact cosine top-k: the query matrix is broadcast
  ONCE with ray.put, each batch does one float64 matmul and emits its local
  top-k candidates, a groupby(qid) merge takes the global top-k
  ((-sim, vec_id) tie-break). This is the reference's
  ``DenseFlatIndexer.search_knn`` shape (``faiss_indexers.py:86-115``)
  without FAISS.
- ``lsh_knn`` — random-hyperplane LSH buckets (deterministic seed) with
  multiprobe, exact re-rank inside probed buckets: the sub-linear scale
  path (``DenseHNSWFlatIndexer`` analog, ``faiss_indexers.py:118-198``).
  Approximate: recall measured against brute force in tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .._shipping import ensure_shippable
from ..util import ids_int64, map_per_block, round_half_away, to_i6


def _to_matrix(col) -> np.ndarray:
    """list<float> column → (n, d) float64 matrix (zero-copy flatten)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(col)
    return flat.reshape(n, -1) if n else flat.reshape(0, 0)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _local_topk_idx(row: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values of ``row`` PLUS every entry tied
    with the k-th value — a candidate tied at the local boundary must
    survive to the global (-sim, vec_id) merge or a smaller vec_id could
    be dropped, diverging from the oracle's total order."""
    if len(row) <= k:
        return np.arange(len(row))
    kth = np.partition(row, len(row) - k)[len(row) - k]
    return np.flatnonzero(row >= kth)


class _BatchTopK:
    """Per-batch exact cosine vs the broadcast query matrix; emits each
    query's local top-k so the shuffle moves k rows per (query, block)."""

    def __init__(self, q_ref, k: int, id_col: str, vec_col: str,
                 exclude_ref=None, snap9: bool = False):
        q = ray.get(q_ref)
        self.qids = q["qids"]
        self.qmat = _normalize(q["matrix"])
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col
        self.exclude = ray.get(exclude_ref) if exclude_ref is not None else set()
        # snap9: emit ROUND(sim, 9) so ranking ties are decided by vec_id
        # identically on both sides. Needed when the corpus op maps many
        # rows to IDENTICAL vectors (PQ reconstructions): BLAS gives
        # ulp-different dots for the same vector in different matmul
        # shapes/buckets, so "equal" candidates would rank nondeterministically
        self.snap9 = snap9

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        keep = ~np.isin(ids, list(self.exclude)) if self.exclude else slice(None)
        mat = _normalize(_to_matrix(batch[self.vec_col]))
        ids = ids[keep]
        mat = mat[keep]
        if len(ids) == 0:
            return pa.table(
                {
                    "qid": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "sim": pa.array([], pa.float64()),
                }
            )
        sims = self.qmat @ mat.T  # (nq, nb) float64
        if self.snap9:
            sims = round_half_away(sims, 9)
        k = min(self.k, sims.shape[1])
        out_q, out_v, out_s = [], [], []
        for qi in range(sims.shape[0]):
            row = sims[qi]
            part = _local_topk_idx(row, k)
            out_q.extend([int(self.qids[qi])] * len(part))
            out_v.extend(ids[part].tolist())
            out_s.extend(row[part].tolist())
        return pa.table(
            {
                "qid": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )


def _empty_knn_result():
    """Schema-stable zero-row result (the `_final_topk_fn` schema) for the
    zero-queries edge: np.asarray([]) is 1-D, so the 2-D query-matrix math
    downstream would die with an opaque AxisError/IndexError otherwise.
    Training-based indexers (IVF/SQ8/PQ/IVFPQ) guard AFTER training, so an
    empty CORPUS still raises their loud no-sample ValueError (the message
    names the actual problem) while zero queries over a trainable corpus
    return this empty result like the untrained paths do."""
    return ray.data.from_arrow(
        pa.table(
            {
                "qid": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int32()),
                "sim": pa.array([], pa.float64()),
            }
        )
    )


def _final_topk_fn(k: int):
    def final_topk(group: pa.Table) -> pa.Table:
        sims = group["sim"].to_numpy(zero_copy_only=False)
        vids = group["vec_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((vids, -sims))[:k]
        return pa.table(
            {
                "qid": group["qid"].take(pa.array(order)),
                "vec_id": pa.array(vids[order], pa.int64()),
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int32), pa.int32()),
                "sim": pa.array(round_half_away(sims[order]), pa.float64()),
            }
        )

    return final_topk


def brute_force_knn(
    ds,
    query_ids: list[int],
    query_matrix: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    exclude_ids: set | None = None,
    snap9: bool = False,
):
    """→ Dataset (qid, vec_id, rank, sim): exact cosine top-k per query.
    ``sim`` rounded to 6 decimals (oracle parity); ranking uses the exact
    float64 value with (-sim, vec_id) tie-break (``snap9=True`` ranks on
    ROUND(sim, 9) instead — required when the input stream carries
    duplicate vectors, see _BatchTopK)."""
    ensure_shippable()
    if len(query_ids) == 0:
        return _empty_knn_result()
    q_ref = ray.put(
        {"qids": list(query_ids), "matrix": np.asarray(query_matrix, dtype=np.float64)}
    )
    ex_ref = ray.put(set(exclude_ids)) if exclude_ids else None
    cand = map_per_block(ds, _BatchTopK, {
        "q_ref": q_ref, "k": k, "id_col": id_col, "vec_col": vec_col,
        "exclude_ref": ex_ref, "snap9": snap9,
    })
    return cand.groupby("qid").map_groups(_final_topk_fn(k), batch_format="pyarrow")



def _collect_sample(ds, id_col: str, vec_col: str, cutoff: int):
    """Deterministic quantizer-training sample: all rows with
    ``id_col < cutoff`` (predicate-pushdown scan, never a sort), pulled
    to the driver as (ids, float64 matrix)."""
    tables = [
        ray.get(r)
        for r in ds.filter(expr=f"{id_col} < {cutoff}").to_arrow_refs()
    ]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        raise ValueError(
            f"no training sample: no rows with {id_col} < {cutoff}"
        )
    ids = np.concatenate(
        [t[id_col].to_numpy(zero_copy_only=False) for t in tables]
    )
    mat = np.concatenate([_to_matrix(t[vec_col]) for t in tables])
    return ids, mat


class IVFPlan:
    """Deterministic, SQL-reproducible IVF coarse quantizer (spherical
    k-means, driver-side Lloyd iterations on a small sample). Every float
    the clustering depends on is snapped to 9 decimals with SQL ROUND
    (half-away) semantics so a DuckDB oracle replays the exact same
    clustering from the same sample:

    - init: sample sorted by id ascending; centroid ``j`` =
      ``round9(normalize(sample[j * (S // n_lists)]))``
    - assign: ``argmax_j round9(dot(x_raw, c_j))``, ties → lowest ``j``
    - update: ``c_j = round9(normalize(mean(raw members)))``; an empty
      list or a zero-norm mean keeps the previous centroid

    The snapping absorbs summation-order noise (numpy pairwise vs SQL
    sequential accumulation) so assignments cannot flip between the two
    implementations. Reference analog: the trained coarse quantizer of
    ``DenseHNSWSQIndexer.train`` (``faiss_indexers.py:201-232``)."""

    def __init__(self, sample_ids, sample: np.ndarray, n_lists: int = 16,
                 iters: int = 8):
        order = np.argsort(np.asarray(sample_ids, dtype=np.int64), kind="stable")
        s = np.asarray(sample, dtype=np.float64)[order]
        n_lists = min(n_lists, len(s))
        step = max(1, len(s) // n_lists)
        idx = np.arange(n_lists) * step
        c = round_half_away(_normalize(s[idx]), 9)
        for _ in range(iters):
            assign = self._argmax_i9(s, c)
            for j in range(n_lists):
                members = s[assign == j]
                if len(members):
                    m = members.mean(axis=0)
                    norm = np.linalg.norm(m)
                    if norm > 0:
                        c[j] = round_half_away(m / norm, 9)
        self.centroids = c
        self.n_lists = n_lists
        self.iters = iters

    @staticmethod
    def _i9dots(m: np.ndarray, c: np.ndarray) -> np.ndarray:
        a = (np.asarray(m, dtype=np.float64) @ c.T) * 1e9
        return (np.sign(a) * np.floor(np.abs(a) + 0.5)).astype(np.int64)

    def _argmax_i9(self, m: np.ndarray, c: np.ndarray) -> np.ndarray:
        return np.argmax(self._i9dots(m, c), axis=1)  # first max → lowest j

    def assign(self, m: np.ndarray) -> np.ndarray:
        return self._argmax_i9(m, self.centroids)

    def probe(self, v: np.ndarray, n_probe: int) -> np.ndarray:
        d = self._i9dots(np.asarray(v, dtype=np.float64)[None, :], self.centroids)[0]
        return np.lexsort((np.arange(len(d)), -d))[:n_probe]


def ivf_knn(
    ds,
    query_ids: list[int],
    query_matrix: np.ndarray,
    k: int = 10,
    n_lists: int = 16,
    n_probe: int = 4,
    train_cutoff: int = 2048,
    iters: int = 8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Approximate cosine top-k via IVF: train a coarse quantizer on a
    deterministic sample (all rows with ``id_col < train_cutoff`` — a
    predicate-pushdown scan, never a sort), score each query only against
    vectors whose assigned list is among the query's ``n_probe`` closest
    centroids. Same output schema as brute_force_knn; recall tested vs
    brute force and replayed exactly by a DuckDB oracle (IVF_KNN_SQL)."""
    ensure_shippable()
    ids, mat = _collect_sample(ds, id_col, vec_col, train_cutoff)
    plan = IVFPlan(ids, mat, n_lists=n_lists, iters=iters)
    if len(query_ids) == 0:
        # after training: empty corpus keeps its loud no-sample error;
        # a (0,)-shaped query matrix would AxisError in _BatchTopK
        return _empty_knn_result()
    qm = np.asarray(query_matrix, dtype=np.float64)
    probe_map: dict[int, set[int]] = {}
    for qid, v in zip(query_ids, qm):
        for b in plan.probe(v, n_probe):
            probe_map.setdefault(int(b), set()).add(int(qid))
    q_ref = ray.put({"qids": list(query_ids), "matrix": qm})
    plan_ref = ray.put(plan)
    probe_ref = ray.put(probe_map)

    class ListTopK(_BatchTopK):
        def __init__(self):
            super().__init__(q_ref, k, id_col, vec_col, None)
            self.plan = ray.get(plan_ref)
            self.probe_map = ray.get(probe_ref)
            self.qid_to_row = {q: i for i, q in enumerate(self.qids)}

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch[self.id_col].to_numpy(zero_copy_only=False)
            if len(ids) == 0:  # zero-row block: (0,0) @ centroids would raise
                return pa.table(
                    {
                        "qid": pa.array([], pa.int64()),
                        "vec_id": pa.array([], pa.int64()),
                        "sim": pa.array([], pa.float64()),
                    }
                )
            mat = _to_matrix(batch[self.vec_col])
            lists = self.plan.assign(mat)
            nmat = _normalize(mat)
            out_q, out_v, out_s = [], [], []
            for b in np.unique(lists):
                qids = self.probe_map.get(int(b))
                if not qids:
                    continue
                sel = lists == b
                sub_ids = ids[sel]
                sub = nmat[sel]
                for qid in sorted(qids):
                    row = self.qmat[self.qid_to_row[qid]] @ sub.T
                    part = _local_topk_idx(row, min(k, len(row)))
                    out_q.extend([qid] * len(part))
                    out_v.extend(sub_ids[part].tolist())
                    out_s.extend(row[part].tolist())
            return pa.table(
                {
                    "qid": pa.array(out_q, pa.int64()),
                    "vec_id": pa.array(out_v, pa.int64()),
                    "sim": pa.array(out_s, pa.float64()),
                }
            )

    cand = map_per_block(ds, ListTopK, {})
    return cand.groupby("qid").map_groups(_final_topk_fn(k), batch_format="pyarrow")


def _pair_table(ids_a, ids_b, sims, threshold, same: bool) -> pa.Table:
    """Vectorized (lo < hi, cos ≥ threshold) pair extraction from a sim
    matrix; ``same=True`` keeps only the upper triangle (module-level
    ``to_i6`` import — this runs on workers, where a function-scope
    relative import would need ``import dpr_ray`` to succeed)."""
    ia, ib = np.nonzero(sims >= threshold)
    da, db = ids_a[ia], ids_b[ib]
    keep = (da < db) if same else (da != db)
    da, db, s = da[keep], db[keep], sims[ia[keep], ib[keep]]
    lo = np.minimum(da, db)
    hi = np.maximum(da, db)
    return pa.table(
        {
            "id_a": pa.array(ids_int64(lo), pa.int64()),
            "id_b": pa.array(ids_int64(hi), pa.int64()),
            "cos_i6": pa.array(to_i6(s), pa.int64()),
        }
    )


def embedding_near_dup_pairs(
    ds,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    block_rows: int = 4096,
    method: str = "auto",
    exact_max_rows: int = 200_000,
    lsh_tables: int = 8,
    lsh_bits: int = 12,
    bucket_cap: int = 20_000,
):
    """Embedding-cosine near-duplicate pairs → Dataset (id_a < id_b, cos_i6).

    ``method="exact"`` (auto for ≤ ``exact_max_rows`` rows): normalized
    blocks go to the object store once; the upper-triangular grid of
    block-pairs becomes a DATASET of (i, j) items scored by a task per
    grid block — one float64 matmul per pair, results stream (no driver-side
    ray.get of pair outputs). O(n²/B²) pairs: exact, fine to ~10^5-10^6.

    ``method="lsh"`` (auto above the cutoff): each vector is hashed into
    ``lsh_tables`` random-hyperplane bucket tables (deterministic seed);
    groupby(table, bucket) verifies candidates with the same matmul and a
    final groupby dedups pairs found in several tables. Linear shuffle
    volume (T × n rows), approximate — recall vs the exact grid is
    test-gated; buckets above ``bucket_cap`` are dropped with a warning
    (no silent truncation)."""
    ensure_shippable()
    import ray.data as rd

    if method == "auto":
        method = "exact" if ds.count() <= exact_max_rows else "lsh"

    if method == "exact":
        blocks = []
        for batch in ds.iter_batches(batch_size=block_rows, batch_format="pyarrow"):
            ids = batch[id_col].to_numpy(zero_copy_only=False).copy()
            blocks.append(
                (ray.put(ids), ray.put(_normalize(_to_matrix(batch[vec_col]))))
            )
        nb = len(blocks)
        blocks_ref = ray.put(blocks)
        grid = rd.from_items(
            [{"i": i, "j": j} for i in range(nb) for j in range(i, nb)]
        )

        class PairBlocks:
            def __init__(self):
                self.blocks = ray.get(blocks_ref)  # list of (ids_ref, mat_ref)
                self._cache: dict[int, tuple] = {}

            def _get(self, i: int):
                e = self._cache.get(i)
                if e is None:
                    e = (ray.get(self.blocks[i][0]), ray.get(self.blocks[i][1]))
                    self._cache[i] = e  # plasma numpy: zero-copy, no eviction need
                return e

            def __call__(self, batch: pa.Table) -> pa.Table:
                parts = []
                for i, j in zip(batch["i"].to_pylist(), batch["j"].to_pylist()):
                    ids_a, a = self._get(i)
                    ids_b, b = self._get(j)
                    parts.append(
                        _pair_table(ids_a, ids_b, a @ b.T, threshold, i == j)
                    )
                return pa.concat_tables(parts)

        return map_per_block(grid, PairBlocks, {})

    # ---- LSH path: linear shuffle, bucket-local verify --------------------
    import logging

    logger = logging.getLogger("dpr_ray.ann")
    seed = 31

    class EmitBuckets:
        def __init__(self):
            self.planes = None  # built on first batch (needs dim)

        def __call__(self, batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                # a (0,0) matrix has no dim to build the planes from
                return pa.table(
                    {
                        "bkey": pa.array([], pa.int64()),
                        "vid": pa.array([], pa.int64()),
                        "vec": pa.array([], batch[vec_col].type),
                    }
                )
            mat = _to_matrix(batch[vec_col])
            if self.planes is None:
                rng = np.random.default_rng(seed)
                self.planes = rng.standard_normal(
                    (lsh_tables, lsh_bits, mat.shape[1])
                )
            ids = ids_int64(batch[id_col])
            pow2 = 1 << np.arange(lsh_bits)
            tbls, parts = [], []
            for t in range(lsh_tables):
                bucket = ((mat @ self.planes[t].T) > 0) @ pow2
                parts.append(
                    pa.table(
                        {
                            "bkey": pa.array(
                                t * (1 << lsh_bits) + bucket, pa.int64()
                            ),
                            "vid": pa.array(ids, pa.int64()),
                            "vec": batch[vec_col],
                        }
                    )
                )
            return pa.concat_tables(parts)

    def verify_bucket(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "cos_i6": pa.array([], pa.int64()),
            }
        )
        m = group.num_rows
        if m < 2:
            return empty
        if m > bucket_cap:
            logger.warning(
                "embedding_near_dup LSH: dropping bucket %d with %d members "
                "(> cap %d); raise lsh_bits to split hot buckets",
                int(group["bkey"][0].as_py()), m, bucket_cap,
            )
            return empty
        ids = group["vid"].to_numpy(zero_copy_only=False)
        mat = _normalize(_to_matrix(group["vec"]))
        return _pair_table(ids, ids, mat @ mat.T, threshold, True)

    cand = (
        map_per_block(ds, EmitBuckets, {})
        .groupby("bkey")
        .map_groups(verify_bucket, batch_format="pyarrow")
    )
    # a pair found in several tables appears several times: keep one
    return cand.groupby(["id_a", "id_b"]).map_groups(
        lambda g: g.slice(0, 1), batch_format="pyarrow"
    )


class LSHIndexPlan:
    """Deterministic random-hyperplane bucketer: bucket(v) = sign bits of
    G @ v (G seeded). Multiprobe flips the lowest-margin bits."""

    def __init__(self, dim: int, n_bits: int = 8, seed: int = 99):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((n_bits, dim))
        self.n_bits = n_bits

    def bucket(self, m: np.ndarray) -> np.ndarray:
        return ((m @ self.planes.T) > 0) @ (1 << np.arange(self.n_bits))

    def probe_buckets(self, v: np.ndarray, n_probe: int) -> list[int]:
        proj = self.planes @ v
        base = int(((proj > 0) * (1 << np.arange(self.n_bits))).sum())
        order = np.argsort(np.abs(proj))  # lowest-margin bits first
        buckets = [base]
        for bit in order[: max(0, n_probe - 1)]:
            buckets.append(base ^ (1 << int(bit)))
        return buckets


def lsh_knn(
    ds,
    query_ids: list[int],
    query_matrix: np.ndarray,
    k: int = 10,
    n_bits: int = 8,
    n_probe: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    exclude_ids: set | None = None,
):
    """Approximate cosine top-k: score only vectors in the query's probed
    LSH buckets. Same output schema as brute_force_knn."""
    ensure_shippable()
    if len(query_ids) == 0:
        return _empty_knn_result()
    qm = np.asarray(query_matrix, dtype=np.float64)
    dim = qm.shape[1]
    plan = LSHIndexPlan(dim, n_bits=n_bits)
    probe_map: dict[int, set[int]] = {}
    for qid, v in zip(query_ids, qm):
        for b in plan.probe_buckets(v, n_probe):
            probe_map.setdefault(b, set()).add(qid)
    q_ref = ray.put({"qids": list(query_ids), "matrix": qm})
    probe_ref = ray.put(probe_map)
    ex_ref = ray.put(set(exclude_ids)) if exclude_ids else None

    class BucketTopK(_BatchTopK):
        def __init__(self):
            super().__init__(q_ref, k, id_col, vec_col, ex_ref)
            self.plan = plan
            self.probe_map = ray.get(probe_ref)
            self.qid_to_row = {q: i for i, q in enumerate(self.qids)}

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch[self.id_col].to_numpy(zero_copy_only=False)
            # excludes drop BEFORE bucket top-k selection (the _BatchTopK
            # contract): filtered after, an excluded id still consumes a
            # top-k slot and a valid rank-(k+1) neighbor is silently lost
            if self.exclude:
                keep = ~np.isin(ids, list(self.exclude))
                batch = batch.filter(pa.array(keep))
                ids = ids[keep]
            if len(ids) == 0:  # zero-row block: (0,0) @ planes would raise
                return pa.table(
                    {
                        "qid": pa.array([], pa.int64()),
                        "vec_id": pa.array([], pa.int64()),
                        "sim": pa.array([], pa.float64()),
                    }
                )
            mat = _to_matrix(batch[self.vec_col])
            buckets = self.plan.bucket(mat)
            out_q, out_v, out_s = [], [], []
            nmat = _normalize(mat)
            for b in np.unique(buckets):
                qids = self.probe_map.get(int(b))
                if not qids:
                    continue
                sel = buckets == b
                sub_ids = ids[sel]
                sub = nmat[sel]
                for qid in sorted(qids):
                    row = self.qmat[self.qid_to_row[qid]] @ sub.T
                    part = _local_topk_idx(row, min(k, len(row)))
                    out_q.extend([qid] * len(part))
                    # python ints, not astype(int64): a uint64 id >= 2^63
                    # must fail the int64 output array, not wrap negative
                    out_v.extend(sub_ids[part].tolist())
                    out_s.extend(row[part].tolist())
            return pa.table(
                {
                    "qid": pa.array(out_q, pa.int64()),
                    "vec_id": pa.array(out_v, pa.int64()),
                    "sim": pa.array(out_s, pa.float64()),
                }
            )

    cand = map_per_block(ds, BucketTopK, {})
    return cand.groupby("qid").map_groups(_final_topk_fn(k), batch_format="pyarrow")


# ------------------------------------------------------------- SQ8 ---------


def sq8_minmax(ds, vec_col: str = "embedding") -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension global min/max — the SQ8 "training" pass: per-block
    partials (2·d floats each) stream to the driver for an exact combine;
    the corpus itself is never shuffled or materialized."""
    ensure_shippable()

    def mm(batch: pa.Table) -> pa.Table:
        m = _to_matrix(batch[vec_col])
        if m.size == 0:
            return pa.table(
                {
                    "mn": pa.array([], pa.list_(pa.float64())),
                    "mx": pa.array([], pa.list_(pa.float64())),
                }
            )
        return pa.table(
            {
                "mn": pa.array([m.min(axis=0).tolist()], pa.list_(pa.float64())),
                "mx": pa.array([m.max(axis=0).tolist()], pa.list_(pa.float64())),
            }
        )

    rows = ds.map_batches(mm, batch_format="pyarrow").take_all()
    if not rows:
        raise ValueError("sq8_minmax: dataset has no vectors to train on")
    mn = np.min([r["mn"] for r in rows], axis=0).astype(np.float64)
    mx = np.max([r["mx"] for r in rows], axis=0).astype(np.float64)
    return mn, mx


def _sq8_codes(m: np.ndarray, mn: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """float64 matrix → uint8 codes. Exact SQL replay: the expression is
    floor((x-mn)/(mx-mn)*255 + 0.5) clipped to [0,255] — floor(v+0.5) is
    half-AWAY rounding for the non-negative v here, matching SQL ROUND
    (numpy's round() is half-even and would diverge on .5 boundaries).
    Dims with mx == mn encode as 0."""
    scale = mx - mn
    safe = np.where(scale > 0, scale, 1.0)
    v = np.floor((m - mn) / safe * 255 + 0.5)
    codes = np.clip(v, 0, 255)
    return np.where(scale > 0, codes, 0.0).astype(np.uint8)


def _sq8_dequant_mat(m: np.ndarray, mn: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """Quantize-then-dequantize in one shot (what scoring sees):
    x̂ = mn + code * (mx-mn) / 255 — left-associative like the SQL."""
    codes = _sq8_codes(m, mn, mx).astype(np.float64)
    return mn + codes * (mx - mn) / 255.0


def _list_col(m: np.ndarray):
    n, d = m.shape if m.ndim == 2 else (0, 0)
    if n == 0 or d == 0:
        return pa.array([[]] * n, pa.list_(pa.float64()))
    return pa.ListArray.from_arrays(
        pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32)),
        pa.array(m.ravel(), pa.float64()),
    )


def sq8_encode(
    ds,
    mn: np.ndarray,
    mx: np.ndarray,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """→ Dataset (id, codes: list<uint8>): the stored SQ8 representation —
    1 B/dim instead of 4 B/dim float32 (4× less object store / disk /
    shuffle volume for every downstream consumer)."""
    ensure_shippable()
    ref = ray.put((mn, mx))

    class Encode:
        def __init__(self):
            self.mn, self.mx = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            m = _to_matrix(batch[vec_col])
            if len(m) == 0:  # empty filtered block: (0,0) cannot broadcast
                return pa.table(
                    {
                        id_col: batch[id_col],
                        "codes": pa.array([], pa.list_(pa.uint8())),
                    }
                )
            codes = _sq8_codes(m, self.mn, self.mx)
            n, d = codes.shape
            col = pa.ListArray.from_arrays(
                pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32)),
                pa.array(codes.ravel(), pa.uint8()),
            )
            return pa.table({id_col: batch[id_col], "codes": col})

    return map_per_block(ds, Encode, {})


def sq8_knn(
    ds,
    query_ids: list[int],
    query_matrix: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    minmax_ds=None,
):
    """Scalar-quantized (SQ8) kNN — the reference's FAISS
    ``ScalarQuantizer`` indexer analog (``faiss`` SQ8: 1 B/dim codes,
    ~4× memory/IO reduction on the corpus side). Scoring is float64
    cosine over the quantize→dequantize of BOTH sides, so the whole
    pipeline (min/max training, code assignment, dequantized similarity,
    (-sim, vec_id) ranking) is deterministically replayable in the DuckDB
    oracle — the approximation vs exact cosine is the quantization error
    itself, never hidden float drift.

    Scale shape: min/max is a map-reduce of 2·d floats per block; the
    scoring pass reuses brute_force_knn's broadcast + local-top-k merge
    over the dequantized stream. At 100 TB the stored codes (sq8_encode)
    are what ships between stages."""
    mn, mx = sq8_minmax(minmax_ds if minmax_ds is not None else ds, vec_col)
    if len(query_ids) == 0:
        # after training: a (0,)-shaped query matrix fails to broadcast
        # against the (dim,) mn/mx in _sq8_dequant_mat
        return _empty_knn_result()
    qd = _sq8_dequant_mat(np.asarray(query_matrix, np.float64), mn, mx)
    ref = ray.put((mn, mx))

    class Dequant:
        def __init__(self):
            self.mn, self.mx = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            m = _to_matrix(batch[vec_col])
            dq = _sq8_dequant_mat(m, self.mn, self.mx) if len(m) else m
            return pa.table({id_col: batch[id_col], vec_col: _list_col(dq)})

    dq = map_per_block(ds, Dequant, {})
    return brute_force_knn(dq, query_ids, qd, k=k, id_col=id_col, vec_col=vec_col)


# -------------------------------------------------------------- PQ ---------


class PQPlan:
    """Deterministic, SQL-reproducible product quantizer: ``m`` subspaces
    of ``d/m`` dims, each with its own ``ksub``-centroid L2 k-means
    trained driver-side on a small deterministic sample. Every decision
    float is snapped to ROUND(x, 9) half-away (the IVFPlan discipline) so
    a DuckDB oracle replays training, code assignment and reconstruction
    exactly:

    - init: sample sorted by id; centroid ``(sub, j)`` = round9 of the
      raw subvector of ``sample[j * (S // ksub)]``
    - assign: ``argmin_j round9(||x_sub - c_j||²)``, ties → lowest ``j``
    - update: ``c_j = round9(mean(raw members))``; empty cluster keeps
      the previous centroid

    Reference analog: FAISS ``IndexPQ`` / the ProductQuantizer inside
    ``DenseHNSWFlatIndexer``'s HNSW-PQ variants (``faiss_indexers.py``) —
    codes are m bytes/vector (d·4 → m bytes: 64× here)."""

    def __init__(self, sample_ids, sample: np.ndarray, m: int = 4,
                 ksub: int = 8, iters: int = 3):
        order = np.argsort(np.asarray(sample_ids, dtype=np.int64), kind="stable")
        s = np.asarray(sample, dtype=np.float64)[order]
        d = s.shape[1]
        assert d % m == 0, "dim must divide into m subspaces"
        self.m, self.sub_d, self.ksub = m, d // m, min(ksub, len(s))
        step = max(1, len(s) // self.ksub)
        idx = np.arange(self.ksub) * step
        cent = np.empty((m, self.ksub, self.sub_d), np.float64)
        for sub in range(m):
            lo = sub * self.sub_d
            ssub = s[:, lo : lo + self.sub_d]
            c = round_half_away(ssub[idx], 9).copy()
            for _ in range(iters):
                assign = self._argmin_i9(ssub, c)
                for j in range(self.ksub):
                    members = ssub[assign == j]
                    if len(members):
                        c[j] = round_half_away(members.mean(axis=0), 9)
            cent[sub] = c
        self.centroids = cent
        self.iters = iters

    @staticmethod
    def _argmin_i9(msub: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Per-row argmin of round9-snapped squared L2 distance (int64
        compare — identical ordering and ties to SQL ROUND(dist, 9))."""
        d2 = ((msub[:, None, :] - c[None, :, :]) ** 2).sum(axis=2) * 1e9
        i9 = (np.sign(d2) * np.floor(np.abs(d2) + 0.5)).astype(np.int64)
        return np.argmin(i9, axis=1)  # first min → lowest j

    def assign(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, dtype=np.float64)
        codes = np.empty((len(mat), self.m), np.int64)
        for sub in range(self.m):
            lo = sub * self.sub_d
            codes[:, sub] = self._argmin_i9(
                mat[:, lo : lo + self.sub_d], self.centroids[sub]
            )
        return codes

    def reconstruct(self, codes: np.ndarray) -> np.ndarray:
        parts = [self.centroids[sub][codes[:, sub]] for sub in range(self.m)]
        return np.concatenate(parts, axis=1)


def pq_knn(
    ds,
    query_ids: list[int],
    query_matrix: np.ndarray,
    k: int = 10,
    m: int = 4,
    ksub: int = 8,
    train_cutoff: int = 266,
    iters: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Approximate cosine top-k via product quantization with asymmetric
    scoring (raw query vs reconstructed corpus — FAISS ADC): train PQPlan
    on the deterministic sample (``id_col < train_cutoff``, a pushdown
    scan), encode each corpus block to m int codes, reconstruct, and
    reuse brute_force_knn's broadcast + local-top-k merge over the
    reconstructed stream. At scale the stored representation is the
    (vec_id, m-byte codes) table — d·4 → m bytes per vector; scoring
    dequantizes per batch from the broadcast codebook (m·ksub·sub_d
    floats, a few KB)."""
    ensure_shippable()
    ids, mat = _collect_sample(ds, id_col, vec_col, train_cutoff)
    plan = PQPlan(ids, mat, m=m, ksub=ksub, iters=iters)
    plan_ref = ray.put(plan)

    class Reconstruct:
        def __init__(self):
            self.plan = ray.get(plan_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mb = _to_matrix(batch[vec_col])
            rec = (
                self.plan.reconstruct(self.plan.assign(mb))
                if len(mb)
                else mb
            )
            return pa.table({id_col: batch[id_col], vec_col: _list_col(rec)})

    rec = map_per_block(ds, Reconstruct, {})
    # snap9: PQ maps many rows to identical reconstructions; rank on
    # ROUND(sim, 9) so equal vectors tie exactly and vec_id decides
    return brute_force_knn(
        rec, query_ids, np.asarray(query_matrix, np.float64), k=k,
        id_col=id_col, vec_col=vec_col, snap9=True,
    )


def ivfpq_knn(
    ds,
    query_ids: list[int],
    query_matrix: np.ndarray,
    k: int = 10,
    n_lists: int = 12,
    n_probe: int = 4,
    m: int = 4,
    ksub: int = 8,
    train_cutoff: int = 266,
    ivf_iters: int = 8,
    pq_iters: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    by_residual: bool = False,
):
    """IVF coarse filter + PQ asymmetric scoring — the FAISS
    ``IndexIVFPQ`` analog. ``by_residual=False``: PQ codebooks over RAW
    vectors. ``by_residual=True`` (FAISS's IndexIVFPQ default): the PQ
    trains on and encodes the RESIDUAL ``x - centroid[assign(x)]``, and
    reconstruction adds the coarse centroid back — finer quantization
    near each list's center for the same m bytes/vector. Both quantizers
    train on the same deterministic sample; each corpus block assigns a
    coarse list AND m PQ codes, scores only the queries probing its list,
    against the PQ reconstruction. Sub-linear in probes like ivf_knn,
    with PQ's m-byte storage story on top. Reference analog: the trained
    IVFPQ of ``faiss_indexers.py:201-232``."""
    ensure_shippable()
    ids, mat = _collect_sample(ds, id_col, vec_col, train_cutoff)
    ivf = IVFPlan(ids, mat, n_lists=n_lists, iters=ivf_iters)
    if by_residual:
        # residuals vs the FINAL (round9-snapped) coarse centroids — the
        # same values a SQL oracle derives from its cassign ⋈ c{N} join
        train = np.asarray(mat, np.float64) - ivf.centroids[ivf.assign(mat)]
    else:
        train = mat
    pq = PQPlan(ids, train, m=m, ksub=ksub, iters=pq_iters)
    if len(query_ids) == 0:
        # after training (see _empty_knn_result): zero queries must not
        # reach _BatchTopK's _normalize with a (0,)-shaped matrix
        return _empty_knn_result()
    qm = np.asarray(query_matrix, dtype=np.float64)
    probe_map: dict[int, set[int]] = {}
    for qid, v in zip(query_ids, qm):
        for b in ivf.probe(v, n_probe):
            probe_map.setdefault(int(b), set()).add(int(qid))
    q_ref = ray.put({"qids": list(query_ids), "matrix": qm})
    ivf_ref = ray.put(ivf)
    pq_ref = ray.put(pq)
    probe_ref = ray.put(probe_map)

    class ListPQTopK(_BatchTopK):
        def __init__(self):
            super().__init__(q_ref, k, id_col, vec_col, None)
            self.ivf = ray.get(ivf_ref)
            self.pq = ray.get(pq_ref)
            self.probe_map = ray.get(probe_ref)
            self.qid_to_row = {q: i for i, q in enumerate(self.qids)}

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch[self.id_col].to_numpy(zero_copy_only=False)
            raw = _to_matrix(batch[self.vec_col])
            empty = pa.table(
                {
                    "qid": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "sim": pa.array([], pa.float64()),
                }
            )
            if len(raw) == 0:
                return empty
            lists = self.ivf.assign(raw)
            # PQ-encode only rows whose coarse list some query probes —
            # unprobed rows never score, so skip their assignment work
            probed = np.isin(lists, list(self.probe_map.keys()))
            if not probed.any():
                return empty
            ids, raw, lists = ids[probed], raw[probed], lists[probed]
            if by_residual:
                coarse = self.ivf.centroids[lists]
                rec = _normalize(
                    coarse
                    + self.pq.reconstruct(self.pq.assign(raw - coarse))
                )
            else:
                rec = _normalize(self.pq.reconstruct(self.pq.assign(raw)))
            out_q, out_v, out_s = [], [], []
            for b in np.unique(lists):
                qids = self.probe_map.get(int(b))
                if not qids:
                    continue
                sel = lists == b
                sub_ids = ids[sel]
                sub = rec[sel]
                for qid in sorted(qids):
                    # snap9: identical reconstructions scored in different
                    # buckets/matmul shapes get ulp-different BLAS dots;
                    # ranking on ROUND(sim, 9) restores the vec_id tie-break
                    row = round_half_away(
                        self.qmat[self.qid_to_row[qid]] @ sub.T, 9
                    )
                    part = _local_topk_idx(row, min(self.k, len(row)))
                    out_q.extend([qid] * len(part))
                    out_v.extend(sub_ids[part].tolist())
                    out_s.extend(row[part].tolist())
            return pa.table(
                {
                    "qid": pa.array(out_q, pa.int64()),
                    "vec_id": pa.array(out_v, pa.int64()),
                    "sim": pa.array(out_s, pa.float64()),
                }
            )

    cand = map_per_block(ds, ListPQTopK, {})
    return cand.groupby("qid").map_groups(_final_topk_fn(k), batch_format="pyarrow")


def semdedup(
    ds,
    eps: float = 0.3,
    n_lists: int = 12,
    iters: int = 8,
    train_cutoff: int = 266,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    cluster_row_budget: int | None = None,
):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): k-means-bucket the embedding space, then prune
    near-duplicates WITHIN each cluster only — the quadratic pair work is
    bounded per cluster instead of corpus-wide (the paper's design point;
    at 100 TB ``n_lists`` scales with the corpus so cluster size stays
    bounded, and the shuffle moves each vector exactly once).

    → Dataset ``(vec_id, cluster_id, keep, dup_of)`` with one row per
    input vector. Deterministic keep rule (the exact-dedup first-wins
    discipline, order-independent and SQL-replayable): ``keep = 1`` iff
    NO lower-id vector in the same cluster has ``ROUND(cos, 9) >= eps``;
    ``dup_of`` = the smallest such lower id, else ``-1``. Cosines are
    round9-snapped on both sides because BLAS matmul and the oracle's
    per-pair sums differ at the ulp (CLAUDE.md oracle-parity trap #3).

    The coarse quantizer is the deterministic, SQL-replayable ``IVFPlan``
    (round9-snapped spherical k-means on the ``id_col < train_cutoff``
    sample) — the oracle replays training, assignment, in-cluster pair
    sims and the keep decision exactly. Reference analog: the trained
    coarse quantizer of ``faiss_indexers.py:201-232``.

    Degenerate-cluster guard: ``n_lists`` is the paper's knob for bounding
    cluster size, but skewed embeddings can still collapse most of the
    corpus into one cluster — an unguarded in-group ``nmat @ nmat.T`` is
    then O(c²) memory and OOMs at scale. Clusters larger than
    ``cluster_row_budget`` rows (default ``$DPR_SEMDEDUP_CLUSTER_BUDGET``
    or 8192 — the in-segment sims matrix is budget² × 8 B, ~537 MB at
    the default; 65536 would be 34 GB) are deterministically SUBSPLIT
    into contiguous id-order
    segments of at most that many rows, and pairs are only compared within
    a segment (a logged approximation — cross-segment duplicates in an
    over-budget cluster are missed, exactly the ``shingle_df_cap``
    discipline of ``dedup.py``). The guard never trips at test scale, so
    the SQL oracle stays exact; at 100 TB it converts a silent OOM into a
    bounded, warned fallback (the real fix is raising ``n_lists``)."""
    ensure_shippable()
    import os

    if cluster_row_budget is None:
        cluster_row_budget = int(
            os.environ.get("DPR_SEMDEDUP_CLUSTER_BUDGET", "8192")
        )
    budget = max(2, int(cluster_row_budget))
    ids, mat = _collect_sample(ds, id_col, vec_col, train_cutoff)
    plan = IVFPlan(ids, mat, n_lists=n_lists, iters=iters)
    plan_ref = ray.put(plan)

    class Assign:
        def __init__(self):
            self.plan = ray.get(plan_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            m = _to_matrix(batch[vec_col])
            cl = (
                self.plan.assign(m)
                if len(m)
                else np.empty(0, np.int64)
            )
            return pa.table(
                {
                    id_col: batch[id_col].cast(pa.int64()),
                    "cluster_id": pa.array(
                        cl.astype(np.int64), pa.int64()
                    ),
                    vec_col: batch[vec_col],
                }
            )

    assigned = map_per_block(ds, Assign, {})

    def prune(group: pa.Table) -> pa.Table:
        vids = group[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(vids, kind="stable")
        vids = vids[order]
        nmat = _normalize(_to_matrix(group[vec_col]))[order]
        cluster = int(group["cluster_id"][0].as_py())
        n = len(vids)
        if n > budget:
            # Degenerate cluster: the quadratic sims matrix would be
            # n²·8 B. Subsplit into contiguous id-order segments of
            # ≤ budget rows; compare pairs within a segment only.
            import logging

            logging.getLogger(__name__).warning(
                "semdedup: cluster %d has %d rows > budget %d; "
                "subsplitting into %d id-order segments (cross-segment "
                "duplicate pairs in this cluster are NOT compared — "
                "raise n_lists to avoid degenerate clusters)",
                cluster,
                n,
                budget,
                -(-n // budget),
            )
        has_dup = np.zeros(n, bool)
        dup_of = np.full(n, -1, np.int64)
        for a in range(0, n, budget):
            b = min(a + budget, n)
            sims = round_half_away(nmat[a:b] @ nmat[a:b].T, 9)
            # strict lower triangle in id order: row i vs all j < i
            dup_mask = np.tril(sims >= eps, k=-1)
            seg_has = dup_mask.any(axis=1)
            first_j = np.argmax(dup_mask, axis=1)  # first True = min id
            has_dup[a:b] = seg_has
            dup_of[a:b] = np.where(seg_has, vids[a:b][first_j], -1)
        return pa.table(
            {
                id_col: pa.array(vids, pa.int64()),
                "cluster_id": pa.array(
                    np.full(n, cluster, np.int64), pa.int64()
                ),
                "keep": pa.array(
                    (~has_dup).astype(np.int64), pa.int64()
                ),
                "dup_of": pa.array(dup_of.astype(np.int64), pa.int64()),
            }
        )

    return assigned.groupby("cluster_id").map_groups(
        prune, batch_format="pyarrow"
    )
