"""Windowed aggregates over stream-shaped tables (events).

Ray Data has no event-time windows; a tumbling window is a groupby over the
truncated timestamp. The implementation pre-aggregates per batch (one row
per (window, key) per batch) so the shuffle moves partials, not events —
the partial+final pattern for aggregation at scale.

Ordering assumption: none — tumbling counts/sums are order-independent.
(Session windows would need per-key ts-sorted map_groups; see
``session_windows``.)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from .._shipping import ensure_shippable
from ..util import round_half_away

_UNIT_US = {"second": 1_000_000, "minute": 60_000_000, "hour": 3_600_000_000,
            "day": 86_400_000_000}


def _ts_us(col) -> np.ndarray:
    """Epoch microseconds (int64 numpy) from a ts column. Timestamp inputs
    are RESCALED through timestamp("us") first — a direct int64 cast
    reinterprets a s/ms/ns payload as µs, silently collapsing every event
    into window 0 (or exploding ns into the far future). Integer inputs
    are interpreted as µs (session_windows' documented contract)."""
    if pa.types.is_timestamp(col.type):
        col = col.cast(pa.timestamp("us", getattr(col.type, "tz", None)))
    return col.cast(pa.int64()).to_numpy(zero_copy_only=False)


def tumbling_window_agg(
    events_ds,
    window: str = "hour",
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
):
    """→ Dataset (window_start: timestamp[us], <key_col>, n_events,
    sum_value): tumbling-window count + sum per key.

    A ``timestamp[ns]`` ``ts_col`` must be microsecond-aligned: it is
    rescaled by a safe cast to ``timestamp[us]``, which raises
    ``ArrowInvalid`` on any event with a sub-microsecond component rather
    than truncating it (floor the column to µs upstream if that loss is
    acceptable). Integer columns are read as epoch µs."""
    ensure_shippable()
    unit = _UNIT_US[window]

    def partial(batch: pa.Table) -> pa.Table:
        ts = _ts_us(batch[ts_col])
        win = (ts // unit) * unit
        t = pa.table(
            {
                "w": pa.array(win, pa.int64()),
                "key": batch[key_col],
                "value": batch[value_col],
            }
        )
        g = t.group_by(["w", "key"]).aggregate(
            [("value", "sum"), ("value", "count")]
        )
        return pa.table(
            {
                "w": g["w"],
                "key": g["key"],
                "sum_part": g["value_sum"],
                "n_part": g["value_count"],
            }
        )

    partials = events_ds.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby(["w", "key"]).aggregate(
        Sum("sum_part", alias_name="sum_value"),
        Sum("n_part", alias_name="n_events"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start": batch["w"].cast(pa.timestamp("us")),
                key_col: batch["key"],
                "n_events": batch["n_events"].cast(pa.int64()),
                "sum_value": pa.array(
                    round_half_away(
                        batch["sum_value"].to_numpy(zero_copy_only=False)
                    ),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def hopping_window_agg(
    events_ds,
    window_us: int = 3_600_000_000,
    hop_us: int = 900_000_000,
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
):
    """→ Dataset (window_start: timestamp[us], <key_col>, n_events,
    sum_value): HOPPING (sliding) windows of length ``window_us`` advancing
    every ``hop_us``. ``window_us`` must be a multiple of ``hop_us``; each
    event then belongs to exactly ``window_us // hop_us`` windows (starts
    ``(ts // hop - i) * hop`` for ``i in 0..k-1``), so the per-batch
    expansion factor is the fixed constant k — partials stay one row per
    (window, key) per batch and the shuffle moves partials, not the
    k-times-replicated events.

    Timestamps are read as in ``tumbling_window_agg``: a ``timestamp[ns]``
    column must be microsecond-aligned (the safe cast to ``timestamp[us]``
    raises ``ArrowInvalid`` on sub-microsecond parts)."""
    ensure_shippable()
    if window_us % hop_us:
        raise ValueError("window_us must be a multiple of hop_us")
    k = window_us // hop_us

    def partial(batch: pa.Table) -> pa.Table:
        ts = _ts_us(batch[ts_col])
        n = len(ts)
        base = (ts // hop_us) * hop_us
        # (k, n) window starts, flattened; keys/values tiled by take
        win = (base[None, :] - np.arange(k, dtype=np.int64)[:, None] * hop_us).ravel()
        idx = pa.array(np.tile(np.arange(n, dtype=np.int64), k))
        t = pa.table(
            {
                "w": pa.array(win, pa.int64()),
                "key": pc.take(batch[key_col], idx),
                "value": pc.take(batch[value_col], idx),
            }
        )
        g = t.group_by(["w", "key"]).aggregate(
            [("value", "sum"), ("value", "count")]
        )
        return pa.table(
            {
                "w": g["w"],
                "key": g["key"],
                "sum_part": g["value_sum"],
                "n_part": g["value_count"],
            }
        )

    agg = (
        events_ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["w", "key"])
        .aggregate(
            Sum("sum_part", alias_name="sum_value"),
            Sum("n_part", alias_name="n_events"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start": batch["w"].cast(pa.timestamp("us")),
                key_col: batch["key"],
                "n_events": batch["n_events"].cast(pa.int64()),
                "sum_value": pa.array(
                    round_half_away(
                        batch["sum_value"].to_numpy(zero_copy_only=False)
                    ),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def session_windows(
    events_ds,
    gap_seconds: float = 1800.0,
    key_col: str = "user_id",
    ts_col: str = "ts",
):
    """→ Dataset (key, session_start, session_end, n_events): session
    windows per key (gap-based, new session when the gap STRICTLY exceeds
    ``gap_seconds``). Ordering handled inside map_groups: each key's events
    are sorted by ts in its group (the documented partitioning assumption,
    shared with asof_join: all events of a key land in one group via the
    groupby; over-worker keys pre-split by coarse time range with one
    boundary event replicated). Arrow/numpy end to end — one sort + one
    boundary nonzero + three gathers per group, no pandas, no per-session
    loop.

    ``session_start`` / ``session_end`` preserve the input ``ts_col``
    type: timestamp inputs yield the same timestamp type, integer inputs
    yield int64 (interpreted as microseconds for the gap comparison)."""
    ensure_shippable()
    gap_us = int(round(gap_seconds * 1e6))

    def sessions(group: pa.Table) -> pa.Table:
        col = group[ts_col]
        is_ts = pa.types.is_timestamp(col.type)
        out_ts_type = col.type if is_ts else pa.int64()
        if len(group) == 0:
            return pa.table(
                {
                    key_col: pa.array([], group[key_col].type),
                    "session_start": pa.array([], out_ts_type),
                    "session_end": pa.array([], out_ts_type),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        ts_us = (
            col.cast(pa.timestamp("us")).cast(pa.int64())
            if is_ts
            else col.cast(pa.int64())
        ).to_numpy(zero_copy_only=False)
        ts_us = np.sort(ts_us)
        n = len(ts_us)
        new_session = np.ones(n, dtype=bool)
        new_session[1:] = (ts_us[1:] - ts_us[:-1]) > gap_us
        b = np.nonzero(new_session)[0]  # first event index of each session
        last = np.concatenate([b[1:], [n]]) - 1
        # int64 carries µs; timestamp outputs go via timestamp("us") so a
        # non-µs unit is rescaled, not reinterpreted.
        def _out(vals: np.ndarray) -> pa.Array:
            arr = pa.array(vals, pa.int64())
            if is_ts:
                return arr.cast(pa.timestamp("us")).cast(out_ts_type)
            return arr

        starts = _out(ts_us[b])
        ends = _out(ts_us[last])
        return pa.table(
            {
                key_col: pa.array(
                    [group[key_col][0].as_py()] * len(b), group[key_col].type
                ),
                "session_start": starts,
                "session_end": ends,
                "n_events": pa.array(last - b + 1, pa.int64()),
            }
        )

    return events_ds.groupby(key_col).map_groups(
        sessions, batch_format="pyarrow"
    )
