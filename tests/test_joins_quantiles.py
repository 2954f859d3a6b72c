"""asof_join vs a brute-force per-row scan; exact_quantiles vs np.sort."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from dpr_ray.stages.joins import asof_join
from dpr_ray.stages.sketch import exact_quantiles


def _events(rows):  # rows: (event_id, user_id, ts_us)
    eid, uid, ts = zip(*rows) if rows else ((), (), ())
    return ray.data.from_arrow(
        pa.table(
            {
                "event_id": pa.array(list(eid), pa.int64()),
                "user_id": pa.array(list(uid), pa.int64()),
                "ts": pa.array(list(ts), pa.int64()),
            }
        )
    )


def _brute_asof(left, right):
    out = {}
    for le, lu, lt in left:
        best = None
        for re_, ru, rt in right:
            if ru != lu:
                continue
            if (rt, re_) < (lt, le):
                if best is None or (rt, re_) > (best[1], best[0]):
                    best = (re_, rt)
        out[le] = best or (-1, -1)
    return out


def test_asof_matches_brute_force(ray_session):
    rng = np.random.default_rng(3)
    left = [
        (int(i), int(rng.integers(0, 5)), int(rng.integers(0, 50)))
        for i in range(100, 140)
    ]
    right = [
        (int(i), int(rng.integers(0, 5)), int(rng.integers(0, 50)))
        for i in range(200, 260)
    ]
    out = asof_join(_events(left), _events(right)).to_pandas()
    want = _brute_asof(left, right)
    assert len(out) == len(left)
    for _, r in out.iterrows():
        rid, rts = want[r["left_id"]]
        assert (r["right_id"], r["right_ts_us"]) == (rid, rts)
        if rid >= 0:
            assert r["lag_us"] == r["left_ts_us"] - rts


def test_asof_ts_tie_uses_id_order(ray_session):
    # right events at the SAME timestamp as the left: only smaller ids match
    left = [(10, 1, 100)]
    right = [(5, 1, 100), (20, 1, 100), (7, 1, 99)]
    out = asof_join(_events(left), _events(right)).to_pandas()
    assert out.iloc[0]["right_id"] == 5  # latest (ts,eid) < (100,10)
    assert out.iloc[0]["lag_us"] == 0


def test_asof_self_join_excludes_self(ray_session):
    ev = [(1, 1, 10), (2, 1, 20), (3, 1, 30)]
    out = (
        asof_join(_events(ev), _events(ev))
        .to_pandas()
        .sort_values("left_id")
    )
    assert list(out["right_id"]) == [-1, 1, 2]


def test_asof_no_right(ray_session):
    out = asof_join(_events([(1, 1, 10)]), _events([])).to_pandas()
    assert list(out["right_id"]) == [-1]


def test_exact_quantiles_vs_sorted(ray_session):
    rng = np.random.default_rng(11)
    vals = rng.integers(0, 40, 500)
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.int64())}))
    ps = (0, 250_000, 500_000, 900_000, 1_000_000)
    out = exact_quantiles(ds, "v", ps_i6=ps)
    s = np.sort(vals)
    got = dict(zip(out["p_i6"].to_pylist(), out["value"].to_pylist()))
    for p in ps:
        assert got[p] == s[((len(s) - 1) * p) // 1_000_000]


def test_exact_quantiles_empty(ray_session):
    ds = ray.data.from_arrow(pa.table({"v": pa.array([], pa.int64())}))
    assert exact_quantiles(ds, "v").num_rows == 0


def test_interval_join_brute(ray_session):
    """interval_join vs brute force on overlapping intervals, boundary
    inclusivity, and unmatched left rows."""
    import numpy as np

    from dpr_ray.stages.joins import interval_join

    rng = np.random.default_rng(9)
    n_ev, n_iv = 120, 25
    ev = pa.table(
        {
            "event_id": pa.array(range(n_ev), pa.int64()),
            "user_id": pa.array(rng.integers(0, 4, n_ev), pa.int64()),
            "ts": pa.array(rng.integers(0, 1000, n_ev), pa.int64()),
        }
    )
    starts = rng.integers(0, 900, n_iv)
    ends = starts + rng.integers(0, 200, n_iv)  # overlapping by design
    iv = pa.table(
        {
            "user_id": pa.array(rng.integers(0, 4, n_iv), pa.int64()),
            "session_start": pa.array(starts, pa.int64()),
            "session_end": pa.array(ends, pa.int64()),
        }
    )
    out = interval_join(
        ray.data.from_arrow(ev), ray.data.from_arrow(iv)
    ).to_pandas()
    got = set(map(tuple, out[["left_id", "start_us", "end_us"]].to_numpy()))
    want = set()
    matched = set()
    for e_id, e_u, e_t in zip(
        ev["event_id"].to_pylist(), ev["user_id"].to_pylist(), ev["ts"].to_pylist()
    ):
        for i_u, s, t in zip(
            iv["user_id"].to_pylist(),
            iv["session_start"].to_pylist(),
            iv["session_end"].to_pylist(),
        ):
            if e_u == i_u and s <= e_t <= t:
                want.add((e_id, s, t))
                matched.add(e_id)
    for e_id in ev["event_id"].to_pylist():
        if e_id not in matched:
            want.add((e_id, -1, -1))
    assert got == want


def test_approx_quantiles_accuracy(ray_session):
    """The sampled estimator must land within the DKW band of the true
    quantiles, and be rerun-identical (deterministic gate)."""
    import numpy as np

    from dpr_ray.stages.sketch import approx_quantiles

    rng = np.random.default_rng(3)
    n = 20_000
    vals = rng.standard_normal(n)
    tbl = pa.table(
        {
            "rid": pa.array(range(n), pa.int64()),
            "v": pa.array(vals, pa.float64()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    est = approx_quantiles(ds, "v", "rid", rate_i6=300_000)
    est2 = approx_quantiles(ds, "v", "rid", rate_i6=300_000)
    assert est.equals(est2)  # deterministic
    got = dict(zip(est["p_i6"].to_pylist(), est["value"].to_pylist()))
    sv = np.sort(np.sign(vals * 1e6) * np.floor(np.abs(vals * 1e6) + 0.5))
    m = int(n * 0.3)
    eps = np.sqrt(np.log(2 / 0.01) / (2 * m))  # DKW at 99%
    for p_i6, v in got.items():
        p = p_i6 / 1e6
        lo = sv[max(0, int(np.floor((p - eps) * (n - 1))))]
        hi = sv[min(n - 1, int(np.ceil((p + eps) * (n - 1))))]
        assert lo <= v <= hi, (p, v, lo, hi)


# a stage's ValueError reaches the caller wrapped by Ray Data
# (UserCodeException), its message kept
@pytest.mark.parametrize("join", ["asof", "interval"])
def test_join_uint64_event_ids_exact_or_refused(ray_session, join):
    """uint64 event ids up to 2^63-1 come out exact as left_id; 2^63 and
    above are refused with a message naming the id column's range."""
    from dpr_ray.stages.joins import interval_join

    def run(ids):
        ev = ray.data.from_arrow(pa.table({
            "event_id": pa.array(ids, pa.uint64()),
            "user_id": pa.array([1] * len(ids), pa.int64()),
            "ts": pa.array([5, 7][: len(ids)], pa.int64()),
        }))
        if join == "asof":
            right = ray.data.from_arrow(pa.table({
                "event_id": pa.array([9], pa.uint64()),
                "user_id": pa.array([1], pa.int64()),
                "ts": pa.array([1], pa.int64()),
            }))
            return asof_join(ev, right).to_pandas()
        iv = ray.data.from_arrow(pa.table({
            "user_id": pa.array([1], pa.int64()),
            "session_start": pa.array([0], pa.int64()),
            "session_end": pa.array([10], pa.int64()),
        }))
        return interval_join(ev, iv).to_pandas()

    top = 2**63 - 1
    assert sorted(run([top, top - 1])["left_id"]) == [top - 1, top]
    for big in (2**63, 2**64 - 1):
        with pytest.raises(Exception, match="outside int64"):
            run([big, 3])
