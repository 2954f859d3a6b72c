"""Parallel hive-partitioned parquet sink.

``ray.data.Dataset.write_parquet(partition_cols=...)`` in this Ray version
serializes most of the write (measured: 49s vs 3.5s for the same 500k-row
dataset without partition_cols). This sink does the same layout —
``<out>/<col>=<value>/part-<hash>.parquet`` — inside ``map_batches``: each
block writes one file per partition value it contains, fully parallel.
Readers are unchanged (hive partitioning).

File names are the blake2b hash of the written rows (Arrow IPC bytes), so a
Ray task RETRY (worker death after a partial write) re-produces the same
names and overwrites its own files instead of duplicating rows under a
fresh uuid — the sink is idempotent per block. Two DIFFERENT blocks of one
partition never carry identical row sets in this engine (docstore blocks
are docid-disjoint, spill/segment rows are (term, slice)-unique), so
content-named files cannot collide into silent row loss; a true 128-bit
hash collision is negligible. Names still vary with Ray's block boundaries
between runs; cross-run determinism guarantees remain content-level
(sorted row sets), which is what the resume/merge property tests assert.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..util import partial_rows


class _HashSink:
    """File-like sink that folds writes straight into blake2b — hashing
    the IPC stream without materializing a second in-RAM copy of the
    block (the byte stream is identical to a buffered one, so names are
    unchanged)."""

    closed = False

    def __init__(self):
        self.h = hashlib.blake2b(digest_size=16)

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.h.update(data)
        return len(data)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def _content_name(tbl: pa.Table) -> str:
    sink = _HashSink()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return f"part-{sink.h.hexdigest()}.parquet"


def write_content_named(tbl: pa.Table, out_dir: str) -> None:
    """Write ``tbl`` as one parquet file under ``out_dir``, named by the
    hash of its rows: a task retry overwrites, never duplicates."""
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(tbl, os.path.join(out_dir, _content_name(tbl)))


def write_partitioned(
    ds, out_dir: str, partition_col: str, sum_cols: list[str] | None = None
) -> dict:
    """Write ``ds`` under ``out_dir`` hive-partitioned by ``partition_col``
    (int-valued). Consumes the dataset. Returns {"rows": total_rows,
    "sum_<c>": Σc for each ``sum_cols`` entry} — per-block partials ride the
    same execution and are summed on the driver, so callers get output
    stats without a re-read pass or a reduce execution."""
    sum_cols = sum_cols or []

    def write_block(batch: pa.Table) -> pa.Table:
        out = {"rows": pa.array([batch.num_rows], pa.int64())}
        for c in sum_cols:
            s = (
                int(batch[c].to_numpy(zero_copy_only=False).sum())
                if batch.num_rows else 0
            )
            out[f"sum_{c}"] = pa.array([s], pa.int64())
        if batch.num_rows == 0:
            return pa.table(out)
        vals = batch[partition_col].to_numpy(zero_copy_only=False)
        col_idx = batch.schema.get_field_index(partition_col)
        body = batch.remove_column(col_idx)
        for v in np.unique(vals):
            write_content_named(
                body.filter(pa.array(vals == v)),
                os.path.join(out_dir, f"{partition_col}={int(v)}"),
            )
        return pa.table(out)

    os.makedirs(out_dir, exist_ok=True)
    parts = partial_rows(ds.map_batches(write_block, batch_format="pyarrow"))
    return {
        k: sum(int(t[k].to_numpy().sum()) for t in parts)
        for k in ["rows"] + [f"sum_{c}" for c in sum_cols]
    }
