"""Ordered joins Ray Data lacks natively. First entry: the as-of join
(each left event matched to the most recent preceding right event with the
same key) — the canonical sessionization/attribution primitive.

Scale shape: lift both sides to one tagged narrow table
``(key, ts_us, eid, side)`` and ``groupby(key)`` ONCE; inside a group one
lexsort + one exclusive cummax does every match vectorized (no per-row
scan, no nested binary searches). The shuffle moves each event exactly
once; the driver sees nothing.

Partitioning assumption (same as session windows): a key's full history
fits one group. For keys whose stream exceeds a worker, pre-split by
coarse time range with a one-range boundary overlap on the right side —
the operator's semantics only need the latest preceding right event, so
replicating the previous range's right rows preserves exactness.

Determinism: matches are defined in strict ``(ts, eid)`` lexicographic
order — a right row at the identical timestamp matches only if its id is
smaller, so ties are total and reproducible (the ``(-score, docid)``
discipline applied to time).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .._shipping import ensure_shippable
from ..util import ids_int64


def _as_us(col) -> pa.Array:
    """Timestamp or integer column → int64 microseconds."""
    if pa.types.is_timestamp(col.type):
        return col.cast(pa.timestamp("us")).cast(pa.int64())
    return col.cast(pa.int64())


def _lift(ds, key_col, ts_col, id_col, side: int):
    def f(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": batch[key_col].cast(pa.int64()),
                "ts_us": _as_us(batch[ts_col]),
                "eid": pa.array(ids_int64(batch[id_col]), pa.int64()),
                "side": pa.array(np.full(n, side, np.int32), pa.int32()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


_OUT_SCHEMA = {
    "key": pa.int64(),
    "left_id": pa.int64(),
    "left_ts_us": pa.int64(),
    "right_id": pa.int64(),
    "right_ts_us": pa.int64(),
    "lag_us": pa.int64(),
}


def asof_join(
    left,
    right,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
):
    """→ Dataset ``(key, left_id, left_ts_us, right_id, right_ts_us,
    lag_us)``: one row per LEFT event; ``right_*``/``lag_us`` are ``-1``
    when no right event precedes it (left outer as-of)."""
    ensure_shippable()

    tagged = _lift(left, key_col, ts_col, id_col, 0).union(
        _lift(right, key_col, ts_col, id_col, 1)
    )

    def match(group: pa.Table) -> pa.Table:
        ts = group["ts_us"].to_numpy(zero_copy_only=False)
        eid = group["eid"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False)
        # left(0) before right(1) at identical (ts, eid): a right row that
        # IS the left row (self-join uses) must not match itself
        order = np.lexsort((side, eid, ts))
        ts, eid, side = ts[order], eid[order], side[order]
        n = len(ts)
        ypos = np.where(side == 1, np.arange(n), -1)
        last_excl = np.concatenate(([-1], np.maximum.accumulate(ypos)[:-1]))
        li = np.nonzero(side == 0)[0]
        if len(li) == 0:
            return pa.table(
                {c: pa.array([], t) for c, t in _OUT_SCHEMA.items()}
            )
        m = last_excl[li]
        hit = m >= 0
        ms = np.where(hit, m, 0)
        r_id = np.where(hit, eid[ms], -1)
        r_ts = np.where(hit, ts[ms], -1)
        lag = np.where(hit, ts[li] - ts[ms], -1)
        key = group["key"][0].as_py()
        return pa.table(
            {
                "key": pa.array(np.full(len(li), key, np.int64), pa.int64()),
                "left_id": pa.array(eid[li], pa.int64()),
                "left_ts_us": pa.array(ts[li], pa.int64()),
                "right_id": pa.array(r_id, pa.int64()),
                "right_ts_us": pa.array(r_ts, pa.int64()),
                "lag_us": pa.array(lag, pa.int64()),
            }
        )

    return tagged.groupby("key").map_groups(match, batch_format="pyarrow")


def interval_join(
    left_ds,
    right_ds,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    start_col: str = "session_start",
    end_col: str = "session_end",
    keep_unmatched: bool = True,
):
    """Range (interval-containment) join — each left event matched to
    EVERY right interval of the same key containing its timestamp
    (``start <= ts <= end``, inclusive): → Dataset
    ``(key, left_id, ts_us, start_us, end_us)``, one row per containment
    pair; unmatched left rows kept with ``-1`` sentinels when
    ``keep_unmatched`` (left-outer, the asof_join convention).

    Scale shape: the asof discipline — lift both sides to one tagged
    narrow table and ``groupby(key)`` ONCE; inside a group, events are
    sorted by ``(ts, id)`` and every interval finds its members with two
    ``searchsorted`` calls, so group work is
    O((L + R) log L + |output|), fully vectorized (the pair emit is one
    repeat/gather, no per-interval Python loop). Overlapping intervals
    are handled naturally (an event emits once per containing interval).
    Same partitioning assumption as asof_join: a key's history fits one
    group; over-worker keys pre-split by coarse time range with
    boundary-crossing intervals replicated to every range they touch."""
    ensure_shippable()
    left = _lift(left_ds, key_col, ts_col, id_col, 0)

    def lift_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": batch[key_col].cast(pa.int64()),
                "ts_us": _as_us(batch[start_col]),
                "eid": _as_us(batch[end_col]),  # reuse the tagged-union slot
                "side": pa.array(np.ones(n, np.int32), pa.int32()),
            }
        )

    right = right_ds.map_batches(lift_right, batch_format="pyarrow")

    def match(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        t1 = group["ts_us"].to_numpy(zero_copy_only=False)
        t2 = group["eid"].to_numpy(zero_copy_only=False)
        key = int(group["key"][0].as_py())
        lmask = side == 0
        ts, eid = t1[lmask], t2[lmask]
        starts, ends = t1[~lmask], t2[~lmask]
        empty_cols = {
            "key": pa.array([], pa.int64()),
            "left_id": pa.array([], pa.int64()),
            "ts_us": pa.array([], pa.int64()),
            "start_us": pa.array([], pa.int64()),
            "end_us": pa.array([], pa.int64()),
        }
        if len(ts) == 0:
            return pa.table(empty_cols)
        order = np.lexsort((eid, ts))
        ts, eid = ts[order], eid[order]
        if len(starts):
            iorder = np.lexsort((ends, starts))
            starts, ends = starts[iorder], ends[iorder]
            lo = np.searchsorted(ts, starts, side="left")
            hi = np.searchsorted(ts, ends, side="right")
            cnt = np.maximum(hi - lo, 0)
            total = int(cnt.sum())
            pos = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            ev = np.repeat(lo, cnt) + pos
            rep = np.repeat(np.arange(len(starts)), cnt)
            out_ts, out_id = ts[ev], eid[ev]
            out_s, out_e = starts[rep], ends[rep]
            matched = np.zeros(len(ts), bool)
            matched[ev] = True
        else:
            out_ts = out_id = out_s = out_e = np.empty(0, np.int64)
            matched = np.zeros(len(ts), bool)
        if keep_unmatched and not matched.all():
            um = ~matched
            out_ts = np.concatenate([out_ts, ts[um]])
            out_id = np.concatenate([out_id, eid[um]])
            out_s = np.concatenate([out_s, np.full(um.sum(), -1, np.int64)])
            out_e = np.concatenate([out_e, np.full(um.sum(), -1, np.int64)])
        return pa.table(
            {
                "key": pa.array(np.full(len(out_ts), key, np.int64), pa.int64()),
                "left_id": pa.array(out_id, pa.int64()),  # _lift's int64
                "ts_us": pa.array(out_ts.astype(np.int64), pa.int64()),
                "start_us": pa.array(out_s.astype(np.int64), pa.int64()),
                "end_us": pa.array(out_e.astype(np.int64), pa.int64()),
            }
        )

    return left.union(right).groupby("key").map_groups(
        match, batch_format="pyarrow"
    )
