#!/usr/bin/env python3
"""Benchmark entry point: one seeded workload, one JSON result line.

    python3 perfbench/run.py --workload serve_distinct --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The engine gets a private Ray session with
4 logical CPUs; the load is this process alone (one thread, closed loop,
one client). ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run. The last stdout line is the JSON
result; the full figures (issue-level names, samples, failures) and, for
traced runs, the spans go to ``.pb/out/``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".pb")
E2E = {"setup_s": "s", "throughput_per_s": "1/s", "latency_ms": "ms",
       "peak_rss_mb": "MB"}
# AF_UNIX socket paths are capped at 107 bytes; Ray's socket lives at
# <temp>/session_<40 chars>/sockets/plasma_store
MAX_RAY_TEMP = 107 - 62
# a run must end within 180 s; a hung pipeline is cut before that
WATCHDOG_S = 170


def _watchdog(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def start_ray(temp_dir: str | None) -> float:
    """Start the session and warm the worker pool; returns seconds."""
    t0 = time.perf_counter()
    import ray
    import ray.data
    from ray.data import DataContext

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, _temp_dir=temp_dir)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    # the first parallel execution pays worker spawn + imports
    ray.data.range(16).map_batches(lambda b: b, batch_size=1).materialize()
    return time.perf_counter() - t0


def stop_ray(timeout_s: float = 30.0) -> None:
    """Shut the session down and wait until every process it started has
    exited (killing stragglers after ``timeout_s``)."""
    import ray

    from perfbench.tracing import session_pids

    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while session_pids() and time.monotonic() < deadline:
        time.sleep(0.2)
    for pid in session_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while session_pids():
        time.sleep(0.1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every input size (smoke tests use ~0.05)")
    args = ap.parse_args(argv)

    # import the package from the checkout root, not this script's dir
    sys.path[:] = [ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    try:
        import dpr_ray  # noqa: F401  (the engine must be in the checkout)
    except ImportError as e:
        print(f"perfbench: cannot import the engine from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    from perfbench import gen, layers, workloads
    from perfbench.tracing import RssSampler

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = gen.Sizes().scaled(args.scale) if args.scale != 1.0 else gen.Sizes()
    work = os.path.join(STATE, f"w{os.getpid()}")
    ray_tmp = os.path.join(STATE, f"r{os.getpid()}")
    if len(ray_tmp) > MAX_RAY_TEMP:
        print(f"perfbench: {ray_tmp} is too long for Ray's sockets; using "
              "Ray's default temp dir", file=sys.stderr)
        ray_tmp = None
    out_dir = os.path.join(STATE, "out")
    for d in (work, out_dir, ray_tmp):
        if d:
            os.makedirs(d, exist_ok=True)
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    try:
        session_s = start_ray(ray_tmp)
        ctx = workloads.Ctx(args.seed, args.seconds, sizes, work,
                            bool(args.trace), session_s)
        with RssSampler() as rss:
            res = workloads.WORKLOADS[args.workload](ctx)
    finally:
        signal.alarm(0)
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        if ray_tmp:
            shutil.rmtree(ray_tmp, ignore_errors=True)

    e2e = dict(res["e2e"], peak_rss_mb=rss.peak_kb / 1024.0)
    lay = {name: float(res["layers"].get(name, 0.0)) for name in layers.PER_LAYER}
    ops = ctx.ops
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as f:
        json.dump({
            "args": vars(args), "sizes": vars(sizes), "num_cpus": 4,
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "e2e": e2e, "layers": lay if args.trace else {},
            "detail": res["detail"], "attempted": ops.attempted,
            "failed": ops.failed, "failed_ops_ratio": ops.failed / max(1, ops.attempted),
            "failures": ops.failures,
        }, f, indent=1, default=float)
    if args.trace:
        ctx.tracer.dump(os.path.join(out_dir, f"{tag}.spans.jsonl"))
    for msg in ops.failures:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    metrics = (
        {n: {"value": v, "unit": layers.unit_of(n)} for n, v in lay.items()}
        if args.trace else
        {n: {"value": float(e2e[n]), "unit": u} for n, u in E2E.items()}
    )
    sys.stdout.flush()
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
