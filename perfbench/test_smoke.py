"""Smoke tests for the benchmark itself (not part of the engine's suite):

    python -m pytest perfbench/test_smoke.py -q

Every workload runs at tiny scale with no failed operation and prints
exactly the metric names ``BENCHMARK.json`` lists; inputs are seeded; a
directory without the engine makes the benchmark fail without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd: str, workload: str, trace: int = 0):
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "0.05"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_line(p) -> dict:
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_tiny_scale(workload):
    r = result_line(run_bench(ROOT, workload))
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["attempted"] >= 1
    assert r["failed"] == 0 and r["correct"] is True
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == want
    assert all(v["value"] > 0 for v in r["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    r = result_line(run_bench(ROOT, "serve_distinct", trace=1))
    assert r["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == want
    m = {k: v["value"] for k, v in r["metrics"].items()}
    assert m["query.executor.fetch_calls"] > 0
    # the wrapped layers, not the client or the executor's own frame,
    # hold most of the serial loop's time
    assert 0.5 < m["trace.named_over_wall"] <= 1.0


def test_inputs_are_seeded():
    sys.path.insert(0, ROOT)
    from perfbench import gen

    sz = gen.Sizes().scaled(0.05)
    for w in WORKLOADS:
        a = gen.inputs_digest(gen.workload_inputs(w, 5, sz))
        b = gen.inputs_digest(gen.workload_inputs(w, 5, sz))
        c = gen.inputs_digest(gen.workload_inputs(w, 6, sz))
        assert a == b != c, w


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for p in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, p), tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench(str(tmp_path), WORKLOADS[0])
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
