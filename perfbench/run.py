"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {silence,scale,serve}
        --seed N --seconds S --trace {0,1} [--spans FILE]

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced on the same jobs, checks that both
runs produced the same trajectories, and prints the per-layer metrics
(with each layer's self time and the tracing overhead).  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The program under test is the ``repro`` package in ``src/`` of the
checkout this file sits in; the benchmark exits with code 2 if it is
missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("silence", "scale", "serve")


def _load_repro() -> None:
    """Put the checkout's ``src`` and root first on the path and make
    sure ``repro`` really comes from there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def end_to_end(module, seed: int, seconds: float, checker) -> dict:
    from perfbench.common import NullSpans, median_setup_s, p50, p90, self_peak_rss_mb

    if hasattr(module, "setup_s"):
        setup = module.setup_s(checker)
    else:
        setup = median_setup_s(module.SETUP_CODE)
    result = module.run_pass(seed, seconds, checker, NullSpans())
    build = result["build_s"] if "build_s" in result else module.build_s(seed)
    samples = result["job_s"]
    return {
        "setup_s": (setup, "s"),
        "job_s.p50": (p50(samples), "s"),
        "job_s.p90": (p90(samples), "s"),
        "events_per_s": (result["events"] / result["wall"], "ev/s"),
        "runs_per_s": (result["runs"] / result["wall"], "runs/s"),
        "build_s": (build, "s"),
        "peak_rss_mb": (result.get("peak_rss_mb") or self_peak_rss_mb(), "MB"),
    }, {"job samples": len(samples), "runs": result["runs"]}


def per_layer(module, seed: int, seconds: float, checker, spans_path) -> tuple:
    from perfbench.catalog import manifest, metrics
    from perfbench.common import NOT_APPLICABLE, NullSpans, Spans, import_layer

    untraced = module.run_pass(seed, seconds, checker, NullSpans())
    spans = Spans()
    counters: dict = {}
    traced = module.run_pass(seed, seconds, checker, spans,
                             count=untraced["count"], counters=counters)
    # Instrumentation consumes no randomness: the traced trajectories
    # must equal the untraced ones at the same seed.
    mismatched = sum(1 for a, b in zip(untraced["trajectories"], traced["trajectories"])
                     if a != b)
    if len(untraced["trajectories"]) != len(traced["trajectories"]):
        mismatched += 1
    checker.record([f"{mismatched} traced trajectories differ"] if mismatched else [])

    declared = metrics("per_layer")
    values = {name: NOT_APPLICABLE for name, _, _ in declared}
    values.update(import_layer())
    jobspec = [r[2] - r[1] for r in spans.records if r[0] == "jobspec"]
    if jobspec:
        values["jobspec.s"] = sum(jobspec) / len(jobspec)
    run_spans = [r[2] - r[1] for r in spans.records if r[0] == "core.run"]
    if run_spans:
        values["core.run_s"] = sum(run_spans)
    if counters:
        from repro.obs import Instrumentation

        total = Instrumentation()
        for bag in counters.values():
            total.merge(bag)
        for name, value in total.derived().items():
            if f"core.{name}" in values:
                values[f"core.{name}"] = value
    values.update(module.layers(seed, traced, spans, checker))
    self_times = spans.self_times()
    for layer in manifest()["self_layers"]:
        if layer in self_times:
            values[f"self_s.{layer}"] = self_times[layer]
    overhead = traced["wall"] - untraced["wall"]
    values["trace.overhead_s"] = overhead
    values["trace.overhead_ratio"] = overhead / untraced["wall"]
    values["job_s.samples"] = float(len(untraced["job_s"]))
    values["error_rate"] = checker.error_rate
    if spans_path:
        spans.dump(spans_path)
    units = {name: unit for name, unit, _ in declared}
    unknown = set(values) - set(units)
    if unknown:
        raise SystemExit(f"perfbench: undeclared per-layer metrics {sorted(unknown)}")
    return ({name: (value, units[name]) for name, value in values.items()},
            {"jobs": untraced["count"], "self-check mismatches": mismatched})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded default seed)")
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="traced runs: write every span here as JSON lines")
    args = parser.parse_args(argv)
    _load_repro()

    from perfbench.checks import Checker
    from perfbench.mixes import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    module = importlib.import_module(f"perfbench.{args.workload}")
    checker = Checker()
    if args.trace:
        metrics, notes = per_layer(module, seed, args.seconds, checker, args.spans)
    else:
        metrics, notes = end_to_end(module, seed, args.seconds, checker)

    print(f"# perfbench {args.workload} seed={seed} trace={args.trace} "
          f"machine={json.dumps(machine(), sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6g} {unit}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for reason, count in sorted(checker.reasons.items()):
        print(f"# FAILED x{count}: {reason}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
