"""``silence``: JobSpec simulate jobs run to silence in-process, one client."""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro import JobSpec, build_engine
from repro.obs import Instrumentation

from . import ensemble
from .checks import Checker, check_silent_ranked
from .common import CycleClock, p50
from .mixes import SILENCE_CYCLE, silence_jobs

SETUP_CODE = "import repro; print('ready', flush=True)"


def run_pass(seed: int, seconds: float, checker: Checker, spans,
             count: Optional[int] = None, counters: Optional[Dict] = None) -> Dict:
    """Run whole cycles of the mix for about ``seconds`` (or exactly
    ``count`` jobs).

    ``counters`` (traced runs) maps protocol kind to an Instrumentation
    bag every engine of that kind reports into.
    """
    samples, trajectories = [], []
    builds: Dict[int, list] = {}
    run_s: Dict[str, float] = {}
    events_by_kind: Dict[str, int] = {}
    events = issued = 0
    start = time.perf_counter()
    clock = CycleClock(seconds)
    for index, kwargs in enumerate(silence_jobs(seed)):
        if (count is None and index % len(SILENCE_CYCLE) == 0
                and clock.stop_at_boundary()):
            break
        if count is not None and index >= count:
            break
        issued = index + 1
        kind = kwargs["protocol"]
        instr = Instrumentation() if counters is not None else None
        try:
            t0 = time.perf_counter()
            with spans.span("job", index):
                with spans.span("jobspec", index):
                    spec = JobSpec.from_legacy_kwargs(**kwargs)
                    spec.digest()
                with spans.span("protocols", index):
                    protocol = spec.scenario.protocol.build()
                with spans.span("configurations", index):
                    configuration = spec.start_configuration(protocol)
                with spans.span("core.build", index):
                    driver, _ = build_engine(
                        protocol, configuration, seed=spec.seed,
                        engine=spec.engine, backend=spec.backend,
                        instrumentation=instr,
                    )
                t1 = time.perf_counter()
                with spans.span("core.run", index):
                    silent = driver.run(
                        max_interactions=spec.max_interactions,
                        max_events=spec.max_events,
                    )
                t2 = time.perf_counter()
        except Exception as exc:  # a broken job is a counted failure
            checker.record_error(exc)
            continue
        samples.append(t2 - t0)
        builds.setdefault(index % len(SILENCE_CYCLE), []).append(t1 - t0)
        run_s[kind] = run_s.get(kind, 0.0) + (t2 - t1)
        events_by_kind[kind] = events_by_kind.get(kind, 0) + driver.events
        events += driver.events
        trajectories.append((index, driver.events, driver.interactions))
        with spans.span("check", index):
            checker.record(check_silent_ranked(protocol, silent, driver.counts))
        if counters is not None:
            counters.setdefault(kind, Instrumentation()).merge(instr)
    wall = time.perf_counter() - start
    return {
        "job_s": samples,
        "wall": wall,
        "runs": len(samples),
        "events": events,
        # Build seconds of one cycle of the mix: per cycle position, the
        # median over the run's cycles.
        "build_s": sum(p50(times) for times in builds.values()),
        "trajectories": trajectories,
        "run_s_by_kind": run_s,
        "events_by_kind": events_by_kind,
        "count": issued,
    }


def layers(seed: int, traced: Dict, spans, checker: Checker) -> Dict[str, float]:
    """Per-kind loop speed, then the ensemble layers, which no workload
    of their own measures."""
    out: Dict[str, float] = {"core.run_calls": 1.0}
    for kind, run_s in traced["run_s_by_kind"].items():
        out[f"core.events_per_s.{kind}"] = traced["events_by_kind"][kind] / run_s
    out.update(ensemble.layers(seed, spans, checker))
    return out

