"""In-memory span tracing from outside the engine, Ray ``Dataset.stats()``
parsing, and the session's peak-RSS sampler.

Spans are recorded by wrappers installed around public functions and
methods of the engine's modules (``Tracer.wrap``); nothing inside the
engine is edited. A span is ``(name, start, end, parent, qid)``; a span's
self time is its duration minus the part its direct children cover.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, qid]
        self.counts: Counter = Counter()
        self.qid: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.qid])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name`` and passes ``(args, result, span_index)`` to
        ``on_result``. ``unwrap_all`` restores every original."""
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as idx:
                out = orig(*args, **kwargs)
            if on_result is not None:
                on_result(args, out, idx)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def self_times(self, spans=None) -> dict[str, float]:
        """name → summed self time over ``spans`` (default: all)."""
        child_sum: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_sum[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for i in (range(len(self.spans)) if spans is None else spans):
            s = self.spans[i]
            out[s[0]] += (s[2] - s[1]) - child_sum.get(i, 0.0)
        return dict(out)

    def busy(self, name: str, within: set[int] | None = None) -> float:
        """Summed duration of spans named ``name`` (those in ``within``
        only, if given); a span nested in another of the same name counts
        once, through the outer one."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[0] != name or (within is not None and i not in within):
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total += s[2] - s[1]
        return total

    def descendants_of(self, roots: list[int]) -> list[int]:
        rs = set(roots)
        out = []
        for i, s in enumerate(self.spans):
            p, inside = i, False
            while p >= 0:
                if p in rs:
                    inside = True
                    break
                p = self.spans[p][3]
            if inside:
                out.append(i)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, qid in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "qid": qid}) + "\n")


_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_OP = re.compile(r"^\s*(?:Operator|Suboperator) \d+ (.+?): (\d+) tasks executed")
_WALL = re.compile(
    r"Remote wall time: ([\d.]+)(us|ms|s) min, ([\d.]+)(us|ms|s) max, "
    r"([\d.]+)(us|ms|s) mean, ([\d.]+)(us|ms|s) total"
)


def parse_dataset_stats(text: str) -> list[dict]:
    """``Dataset.stats()`` text → per-operator {name, tasks, wall_max,
    wall_mean, wall_total} (seconds)."""
    ops: list[dict] = []
    cur = None
    for line in text.splitlines():
        m = _OP.match(line)
        if m:
            cur = {"name": m.group(1), "tasks": int(m.group(2))}
            ops.append(cur)
            continue
        m = _WALL.search(line)
        if m and cur is not None and "wall_total" not in cur:
            v = [float(m.group(i)) * _UNIT[m.group(i + 1)] for i in (1, 3, 5, 7)]
            cur.update(wall_max=v[1], wall_mean=v[2], wall_total=v[3])
    return ops


def op_stats(ops: list[dict], needle: str) -> tuple[int, float]:
    """(tasks, summed remote wall s) over operators whose name has
    ``needle``."""
    sel = [o for o in ops if needle in o["name"]]
    return (sum(o["tasks"] for o in sel),
            sum(o.get("wall_total", 0.0) for o in sel))


def _descendants(pid: int) -> list[int]:
    """``pid`` and its live (non-zombie) descendants."""
    kids: dict[int, list[int]] = defaultdict(list)
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if state != "Z":
            kids[int(ppid)].append(int(d))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, []))
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssSampler:
    """Largest ``VmHWM`` of this process and every descendant (the Ray
    session's GCS, raylet and workers), sampled on a background thread so
    short-lived workers are seen before they exit."""

    def __init__(self, interval_s: float = 0.5) -> None:
        self.peak_kb = 0
        self._interval = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        for p in _descendants(os.getpid()):
            self.peak_kb = max(self.peak_kb, _hwm_kb(p))

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


def session_cpu_s() -> float:
    """CPU seconds (user + system) used so far by this process's live
    descendants."""
    me, total = os.getpid(), 0
    for p in _descendants(me):
        if p == me:
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                utime, stime = f.read().rsplit(")", 1)[1].split()[11:13]
        except (OSError, ValueError):
            continue
        total += int(utime) + int(stime)
    return total / os.sysconf("SC_CLK_TCK")


def session_pids() -> list[int]:
    """Live descendants of this process, after reaping exited children."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass
    me = os.getpid()
    return [p for p in _descendants(me) if p != me]
