"""``scale``: random starts swept up to n = 10^6, a fixed event budget each."""

from __future__ import annotations

import gc
import time
from typing import Dict, Optional

from repro import JobSpec, build_engine
from repro.obs import Instrumentation

from .checks import Checker, check_budgeted
from .common import p50
from .mixes import SCALE_EVENT_BUDGET, scale_jobs

SETUP_CODE = "import repro; print('ready', flush=True)"


def run_pass(seed: int, seconds: float, checker: Checker, spans,
             count: Optional[int] = None, counters: Optional[Dict] = None) -> Dict:
    """One sweep with its repeats (fixed work: ``seconds`` does not
    shorten it).

    A point's job time and layer times are medians over its repeats;
    the job samples are the points.  Traced runs also time a ``run()``
    that does no work after the budget (the run-boundary cost).
    """
    trajectories = []
    points: Dict[str, Dict[str, list]] = {}
    for index, (label, legacy) in enumerate(scale_jobs(seed)):
        instr = Instrumentation() if counters is not None else None
        point = points.setdefault(label, {})
        try:
            t0 = time.perf_counter()
            with spans.span("job", index):
                with spans.span("jobspec", index):
                    spec = JobSpec.from_dict(legacy.to_dict())
                    spec.digest()
                with spans.span("protocols", index):
                    protocol = spec.scenario.protocol.build()
                t1 = time.perf_counter()
                with spans.span("configurations", index):
                    configuration = spec.start_configuration(protocol)
                t2 = time.perf_counter()
                with spans.span("core.build", index):
                    driver, _ = build_engine(
                        protocol, configuration, seed=spec.seed,
                        engine=spec.engine, backend=spec.backend,
                        instrumentation=instr,
                    )
                t3 = time.perf_counter()
                with spans.span("core.run", index):
                    driver.run(max_events=spec.max_events)
                t4 = time.perf_counter()
        except Exception as exc:  # a broken point is a counted failure
            checker.record_error(exc)
            continue
        trajectories.append((label, driver.events, driver.interactions))
        for key, value in (("job", t4 - t0), ("events", driver.events),
                           ("protocols", t1 - t0), ("configurations", t2 - t1),
                           ("build", t3 - t2), ("spec_to_engine", t3 - t0),
                           ("events_per_s", driver.events / (t4 - t3))):
            point.setdefault(key, []).append(value)
        with spans.span("check", index):
            checker.record(check_budgeted(driver.events, SCALE_EVENT_BUDGET,
                                          driver.counts, protocol.num_agents))
        if counters is not None:
            with spans.span("core.zero_run", index):
                z0 = time.perf_counter()
                driver.run(max_events=spec.max_events)
                point.setdefault("zero_run", []).append(time.perf_counter() - z0)
            counters.setdefault(spec.scenario.protocol.kind,
                                Instrumentation()).merge(instr)
        del driver, protocol, configuration
        gc.collect()
    medians = {label: {key: p50(values) for key, values in point.items()}
               for label, point in points.items()}
    samples = [point["job"] for point in medians.values()]
    return {
        "job_s": samples,
        # Timed phase: one sweep, the jobs themselves, not the checks and
        # heap collections between them.
        "wall": sum(samples),
        "runs": len(samples),
        "events": sum(point["events"] for point in medians.values()),
        # Spec -> engine ready, summed over the points.
        "build_s": sum(point["spec_to_engine"] for point in medians.values()),
        "trajectories": trajectories,
        "points": medians,
        "count": len(trajectories),
    }


def layers(seed: int, traced: Dict, spans, checker: Checker) -> Dict[str, float]:
    out: Dict[str, float] = {"core.run_calls": 2.0}
    for label, point in traced["points"].items():
        out[f"protocols.build_s.{label}"] = point["protocols"]
        out[f"configurations.start_s.{label}"] = point["configurations"]
        out[f"core.build_s.{label}"] = point["build"]
        out[f"core.events_per_s.{label}"] = point["events_per_s"]
        out[f"core.zero_run_s.{label}"] = point["zero_run"]
    return out
