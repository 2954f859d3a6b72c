"""Small shared numeric helpers."""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

P31 = (1 << 31) - 1  # Mersenne prime; 31-bit hashes keep all products in u64


def poly_mod31(values, offsets, base: int) -> np.ndarray:
    """Per-group polynomial hash ``sum(v_i * base^(n-1-i)) mod (2^31-1)``
    (Horner-equivalent), vectorized across ALL groups at once. ``offsets``
    has length n_groups+1; group j owns values[offsets[j]:offsets[j+1]].
    Empty groups hash to 0.

    Deterministic across processes AND expressible in SQL as
    ``list_reduce(list_prepend(0, vals), (a,v) -> (a*base+v) % 2147483647)``
    — the property the DuckDB oracle checks rely on."""
    values = np.asarray(values, dtype=np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    p = np.uint64(P31)
    n = len(offsets) - 1
    out = np.zeros(n, dtype=np.uint64)
    lens = np.diff(offsets)
    if len(values) == 0 or n == 0 or lens.max() == 0:
        return out
    maxlen = int(lens.max())
    pows = np.empty(maxlen, dtype=np.uint64)
    acc = 1
    for i in range(maxlen):
        pows[i] = acc
        acc = (acc * base) % P31
    owner_end = np.repeat(offsets[1:], lens)
    revpos = owner_end - 1 - np.arange(len(values), dtype=np.int64)
    # v%p < 2^31 and pow < 2^31 → product < 2^62 (no u64 overflow); group
    # sums of L terms < L·2^31 stay in u64 for any realistic L
    terms = ((values % p) * pows[revpos]) % p
    nz = lens > 0
    out[nz] = np.add.reduceat(terms, offsets[:-1][nz]) % p
    return out


def token_hash31_impl(t: str, base: int = 131) -> int:
    """31-bit rolling hash of a token's code points (SQL-expressible,
    deterministic — never python hash()). PLAIN function: code shipped to
    workers must reference THIS, not the lru-cached wrapper below — an
    ``lru_cache`` wrapper pickles by module reference (its ``__reduce__``
    ignores ``register_pickle_by_value``), which breaks workers that can't
    ``import dpr_ray``. Cache per task with a local dict instead."""
    h = 0
    for c in t:
        h = (h * base + ord(c)) % P31
    return h


token_hash31 = functools.lru_cache(maxsize=1_000_000)(token_hash31_impl)


def token_hash62_impl(t: str) -> int:
    """62-bit token hash from two independent 31-bit rolling hashes
    (bases 131/137) — bit-addressable for SimHash, SQL-expressible.
    Plain (shippable) like :func:`token_hash31_impl`."""
    return token_hash31_impl(t, 131) | (token_hash31_impl(t, 137) << 31)


def map_per_block(ds, cls, kwargs: dict):
    """``ds.map_batches`` of ``cls`` as a stateless task per block: each
    task builds one ``cls(**kwargs)`` and calls it on its whole block.
    Tasks run on the session's warm workers, so nothing is spawned, held
    or autoscaled, and chained calls fuse into one operator; whatever
    ``cls`` builds lives for one block, unless it parks it in a
    per-process memo (``search_pipeline``'s stores). Parallelism is the
    block count: split an input that arrives as one block. The task takes
    ``cls``'s name, so ``Dataset.stats()`` names the operator
    ``MapBatches(<cls name>)``."""

    def task(batch, **kw):
        return cls(**kw)(batch)

    task.__name__ = cls.__name__
    return ds.map_batches(
        task, fn_kwargs=kwargs, batch_format="pyarrow", batch_size=None
    )


def ids_int64(col) -> np.ndarray:
    """An integer id column (Arrow or numpy) as int64 numpy, refusing ids an
    int64 cannot hold: a uint64 id at or above 2^63 raises ``ValueError``
    instead of wrapping to a negative id, as ``astype(np.int64)`` does."""
    try:
        return pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False)
    except pa.ArrowInvalid as e:
        raise ValueError(f"id column holds a value outside int64: {e}") from None


def round_half_away(x, decimals: int = 6) -> np.ndarray:
    """Round half AWAY from zero (SQL ROUND semantics; numpy rounds half to
    even — the two disagree exactly on .5 boundaries, which ratio-valued
    columns hit often). Used for every float the DuckDB oracle reproduces."""
    scale = 10.0 ** decimals
    a = np.asarray(x, dtype=np.float64) * scale
    return np.sign(a) * np.floor(np.abs(a) + 0.5) / scale


def to_i6(x) -> np.ndarray:
    """round(x * 1e6) as int64 with SQL ROUND (half-away) semantics."""
    a = np.asarray(x, dtype=np.float64) * 1e6
    return (np.sign(a) * np.floor(np.abs(a) + 0.5)).astype(np.int64)


def map_sorted_groups(ds, key, fn):
    """``ds.groupby(key).map_groups(...)`` with ``fn`` called once per
    BLOCK, not once per group (~1 ms of Python each). It runs the same
    ``sort(key)`` shuffle and relies on the same guarantee: every key's rows
    sit in one block, in ascending key order. ``fn`` gets the block as a
    pyarrow Table, possibly with zero rows, and reduces all its groups.
    Runs via :func:`full_width`, whose rule binds stages a caller chains on."""
    return full_width(
        ds.sort(key).map_batches(fn, batch_size=None, batch_format="pyarrow")
    )


def block_refs(mat) -> list:
    """Object refs of a materialized Dataset's blocks that hold rows (a
    shuffle's empty partitions come out schema-less); no execution."""
    return [
        ref for bundle in mat.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks if meta.num_rows
    ]


def partial_rows(ds) -> list[pa.Table]:
    """Execute ``ds`` once (``materialize``) and fetch its non-empty
    blocks to the driver, for a stage that returns a few partial rows per
    block (a writer's counts and sums), which the caller reduces on the
    driver. An ``aggregate`` of the same sums is a second, AllToAll
    execution: 35 ms against 7 ms for fetching 4 one-row blocks (median
    of 7, 4 CPUs). A zero-block ``ds`` gives ``[]``."""
    import ray

    return ray.get(block_refs(ds.materialize()))


def full_width(ds):
    """``ds`` with per-operator resource reservation off. Ray 2.49 keeps a
    CPU share for operators behind a shuffle barrier, so the map stage
    ahead of it runs serially (4 map tasks of 0.3 s before a groupby:
    1.39 s; off: 0.45 s). It also holds back a lone task map: over
    ``from_items`` blocks it runs the first task alone and starts the
    rest when that one ends (merge's segments pass at 100k docs, 4
    tasks: 1.97–2.29 s; off: 1.31 s). The flag governs the whole
    execution, stages a caller chains on included. The engine chains
    only tasks; a caller chaining actor pools of its own should
    materialize() ahead of them, as pools with reservation off can hold
    every CPU against the shuffle. ``ds``'s (caller-shared) and the
    global DataContext are left unchanged."""
    from ray.data import Dataset
    from ray.data._internal.logical.interfaces import LogicalPlan

    plan = ds._plan.deep_copy()
    plan._context.op_resource_reservation_enabled = False
    return Dataset(plan, LogicalPlan(ds._logical_plan.dag, plan._context))


def run_starts(*cols) -> np.ndarray:
    """Start index of each run of equal rows in equal-length arrays that
    are sorted together (the group boundaries of a sorted block)."""
    n = len(cols[0])
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return np.flatnonzero(new)


def strip_schema_metadata(batch):
    """Drop file-level schema metadata (e.g. the ``pandas`` blob pyarrow
    embeds on write): a metadata-bearing ``pa.Schema`` is unhashable, so
    Ray's per-merge ``unify_schemas`` logs a warning for every block pair.
    Metadata-only replace — buffers are untouched (zero-copy)."""
    return batch.replace_schema_metadata(None) if batch.schema.metadata else batch


def read_parquet_clean(path, **kw):
    """``ray.data.read_parquet`` with schema metadata stripped at the read
    boundary (fused into the read task). Use for any externally-written
    parquet; files this engine writes carry no metadata already."""
    import ray.data

    return ray.data.read_parquet(path, **kw).map_batches(
        strip_schema_metadata, batch_format="pyarrow"
    )
