"""Distributed prefix_sum / pack_bins vs driver-side cumsum."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from dpr_ray.stages.scan import pack_bins, prefix_sum


def _ds(keys, vals):
    return ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(list(keys), pa.int64()),
                "v": pa.array(list(vals), pa.int64()),
            }
        )
    ).repartition(4)


def test_prefix_sum_matches_cumsum(ray_session):
    rng = np.random.default_rng(5)
    keys = rng.permutation(1000)  # unordered, unique
    vals = rng.integers(1, 50, 1000)
    out = (
        prefix_sum(_ds(keys, vals), "k", "v", bucket_width=97)
        .to_pandas()
        .sort_values("key")
        .reset_index(drop=True)
    )
    order = np.argsort(keys)
    want = np.concatenate(([0], np.cumsum(vals[order])[:-1]))
    assert (out["key"].to_numpy() == keys[order]).all()
    assert (out["offset"].to_numpy() == want).all()


def test_prefix_sum_auto_bucket_width(ray_session):
    keys = [3, 1 << 40, 7, 1 << 39]
    vals = [10, 20, 30, 40]
    out = prefix_sum(_ds(keys, vals), "k", "v").to_pandas().sort_values("key")
    assert list(out["offset"]) == [0, 10, 40, 80]


def test_prefix_sum_duplicate_keys_raises(ray_session):
    with pytest.raises(Exception):
        prefix_sum(_ds([1, 1, 2], [1, 1, 1]), "k", "v", bucket_width=10).take_all()


def test_pack_bins_layout(ray_session):
    keys = range(10)
    vals = [100] * 10  # budget 250 → bins of floor(offset/250)
    out = (
        pack_bins(_ds(keys, vals), "k", "v", budget=250, bucket_width=3)
        .to_pandas()
        .sort_values("key")
    )
    assert list(out["bin_id"]) == [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]


def test_pack_fragments_tiling(ray_session):
    """Fragments must tile: (a) each doc's fragments partition [0, n)
    contiguously in bin order; (b) each window's frag_len sums to exactly
    the budget except the final window; (c) zero-token docs emit nothing."""
    from dpr_ray.stages.scan import pack_fragments

    rng = np.random.default_rng(9)
    n = 200
    keys = rng.permutation(n)
    vals = rng.integers(0, 90, n)  # includes zeros
    vals[vals < 5] = 0
    budget = 128
    out = (
        pack_fragments(_ds(keys, vals), "k", "v", budget=budget,
                       bucket_width=17)
        .to_pandas()
        .sort_values(["key", "bin_id"], ignore_index=True)
    )
    vmap = dict(zip(keys, vals))
    # (a) per-doc tiling
    for k, g in out.groupby("key"):
        assert g["tok_start"].iloc[0] == 0
        assert g["tok_end"].iloc[-1] == vmap[k]
        assert (g["tok_start"].to_numpy()[1:] == g["tok_end"].to_numpy()[:-1]).all()
        assert (g["frag_len"] == g["tok_end"] - g["tok_start"]).all()
        assert (g["bin_id"].to_numpy()[1:] == g["bin_id"].to_numpy()[:-1] + 1).all()
    # (b) per-window budget
    per_bin = out.groupby("bin_id")["frag_len"].sum()
    total = int(vals.sum())
    assert per_bin.iloc[:-1].eq(budget).all()
    assert per_bin.sum() == total
    assert per_bin.index.max() == (total - 1) // budget
    # (c) zero docs absent
    assert set(out["key"]) == {int(k) for k, v in vmap.items() if v > 0}


# a stage's ValueError reaches the caller wrapped by Ray Data
# (UserCodeException), its message kept
def test_prefix_sum_uint64_keys_exact_or_refused(ray_session):
    """uint64 keys up to 2^63-1 come out exact, with their offsets; 2^63
    and above are refused instead of wrapping to negative keys."""

    def run(keys, **kw):
        ds = ray.data.from_arrow(pa.table({
            "k": pa.array(keys, pa.uint64()),
            "v": pa.array([10, 20], pa.int64()),
        }))
        return prefix_sum(ds, "k", "v", **kw).to_pandas().sort_values("key")

    top = 2**63 - 1
    for kw in ({}, {"bucket_width": 1 << 40}):
        out = run([top, 5], **kw)
        assert list(out["key"]) == [5, top]
        assert list(out["offset"]) == [0, 20]
    for big in (2**63, 2**64 - 1):
        with pytest.raises(Exception, match="outside int64"):
            run([big, 5], bucket_width=1 << 40)
