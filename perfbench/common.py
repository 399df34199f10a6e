"""Shared measurement helpers: spans, percentiles, memory, spawn timing."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Reported for a per-layer metric that does not apply to a workload.
NOT_APPLICABLE = -1.0


def child_env() -> Dict[str, str]:
    """Environment for interpreters the benchmark spawns: the checkout's
    ``src`` first on the path, nothing else changed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process, from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class CycleClock:
    """Ends a timed run at the cycle boundary nearest its deadline, so
    that a run holds only whole cycles of its mix."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds
        self.cycle_start: Optional[float] = None

    def stop_at_boundary(self) -> bool:
        """Call at every cycle boundary; True ends the run there."""
        now = time.perf_counter()
        if self.cycle_start is not None:
            last_cycle = now - self.cycle_start
            if now + last_cycle / 2 >= self.deadline:
                return True
        self.cycle_start = now
        return False


class Spans:
    """In-memory span log: (name, start, end, parent, job) per record.

    Spans nest per thread; :meth:`self_times` gives each layer's time
    minus the part of it its child spans cover.
    """

    def __init__(self) -> None:
        self.records: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, job=None):
        stack = self._stack()
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else None, job]
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, job=None,
            parent: Optional[int] = None) -> int:
        """Record a span timed elsewhere (e.g. from client timestamps)."""
        with self._lock:
            self.records.append([name, start, end, parent, job])
            return len(self.records) - 1

    def self_times(self) -> Dict[str, float]:
        children: Dict[int, List[list]] = {}
        for record in self.records:
            if record[3] is not None:
                children.setdefault(record[3], []).append(record)
        out: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.records):
            covered = 0.0
            cursor = start
            for child in sorted(children.get(index, ()), key=lambda r: r[1]):
                lo, hi = max(child[1], cursor), min(child[2], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


class NullSpans:
    """Tracing off: the same call sites, no records."""

    @contextmanager
    def span(self, name: str, job=None):
        yield None

    def add(self, *args, **kwargs) -> None:
        return None


def spawn_ready_s(code: str) -> float:
    """Seconds from spawning a fresh interpreter running ``code`` until
    it prints its first line (``code`` prints once it is ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.read()
    if proc.wait(timeout=60) != 0 or not line.strip():
        raise RuntimeError(f"setup probe failed: {code!r}")
    return elapsed


def median_setup_s(code: str, repeats: int = 7) -> float:
    """Median of ``repeats`` spawn-to-ready times after one warm-up
    spawn (which may write bytecode caches)."""
    spawn_ready_s(code)
    return p50([spawn_ready_s(code) for _ in range(repeats)])


_IMPORT_PROBE = (
    "import time, sys, json\n"
    "t = time.perf_counter()\n"
    "import repro\n"
    "t = time.perf_counter() - t\n"
    "print(json.dumps({'repro_s': t, 'numpy': 'numpy' in sys.modules,\n"
    "                  'modules': len(sys.modules)}))\n"
)


def import_layer(repeats: int = 5) -> Dict[str, float]:
    """The ``import`` layer: medians over ``repeats`` fresh interpreters
    (after one warm-up)."""
    samples = []
    for _ in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        samples.append(json.loads(out.strip().splitlines()[-1]))
    samples = samples[1:]
    cli = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "--version"], cwd=ROOT,
            env=child_env(), capture_output=True, timeout=60, check=True,
        )
        cli.append(time.perf_counter() - start)
    return {
        "import.repro_s": p50([s["repro_s"] for s in samples]),
        "import.cli_s": p50(cli),
        "import.numpy_eager": float(samples[-1]["numpy"]),
        "import.modules": float(samples[-1]["modules"]),
    }
