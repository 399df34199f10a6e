"""Ensemble layers, measured in the traced ``silence`` run.

One run_ensemble(workers=2) call per fault campaign, each into a fresh
temporary directory that is deleted after it, then serial in-process
reruns of the same runs.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import tempfile
import time
from typing import Dict, List

import numpy as np

from repro import get_campaign, run_scenario
from repro.ensemble import load_manifest, run_ensemble, shard_path

from .checks import Checker, check_ensemble
from .common import ROOT, p50
from .mixes import ENSEMBLE_CYCLE, ensemble_calls, ensemble_spec

#: Ensemble output lives inside the checkout and is deleted per call.
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _, names in os.walk(path) for name in names)


def _records(out_dir: str) -> List[Dict]:
    manifest = load_manifest(out_dir)
    records: List[Dict] = []
    for shard in manifest["shards"]:
        with open(shard_path(out_dir, shard["index"])) as handle:
            records.extend(json.load(handle)["records"])
    return records


def run_calls(seed: int, checker: Checker, spans) -> Dict:
    """One cycle of run_ensemble calls, timed from the observer's
    shard events."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    compute: List[float] = []
    commit: List[float] = []
    aggregate: List[float] = []
    written: List[int] = []
    calls: List[Dict] = []
    retries = 0
    cycle = itertools.islice(ensemble_calls(seed), len(ENSEMBLE_CYCLE))
    for index, call in enumerate(cycle):
        seen: List[tuple] = []

        def observer(kind, fields, seen=seen):
            seen.append((time.perf_counter(), kind, dict(fields)))

        tmp = tempfile.mkdtemp(prefix="ensemble-", dir=TMP_ROOT)
        out_dir = os.path.join(tmp, "out")
        try:
            with spans.span("jobspec", index):
                ensemble_spec(call).digest()
            t0 = time.perf_counter()
            with spans.span("ensemble.call", index) as call_span:
                result = run_ensemble(
                    out_dir, campaign_id=call["campaign"], scale=call["scale"],
                    total_runs=call["total_runs"], shard_size=call["shard_size"],
                    seed=call["seed"], workers=call["workers"], observer=observer,
                )
            t1 = time.perf_counter()
            records = _records(out_dir)
            written.append(_dir_bytes(out_dir))
        except Exception as exc:  # a broken call is a counted failure
            checker.record_error(exc)
            continue
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        quarantined = 0
        opened: Dict[int, float] = {}
        committed: Dict[int, float] = {}
        last_done = t0
        for stamp, kind, fields in seen:
            if kind == "shard_start":
                opened[fields["shard"]] = stamp
            elif kind == "shard_commit":
                committed[fields["shard"]] = stamp
            elif kind == "shard_done":
                shard = fields["shard"]
                quarantined += fields.get("quarantined", 0)
                mid = committed.get(shard, stamp)
                compute.append(mid - opened[shard])
                commit.append(stamp - mid)
                parent = spans.add("ensemble.shard", opened[shard], stamp,
                                   job=index, parent=call_span)
                spans.add("ensemble.shard_compute", opened[shard], mid,
                          job=index, parent=parent)
                spans.add("ensemble.shard_commit", mid, stamp,
                          job=index, parent=parent)
                last_done = stamp
            elif kind in ("retry", "pool_rebuild"):
                retries += 1
        aggregate.append(t1 - last_done)
        spans.add("ensemble.aggregate", last_done, t1, job=index,
                  parent=call_span)
        calls.append(dict(call, records=records,
                          compute=sum(compute[-len(opened):])))
        checker.record(check_ensemble(result, records, call["total_runs"],
                                      quarantined))
    try:
        os.rmdir(TMP_ROOT)
    except OSError:
        pass
    return {
        "calls": calls,
        "compute": compute,
        "commit": commit,
        "aggregate": aggregate,
        "written": written,
        "retries": retries,
    }


def layers(seed: int, spans, checker: Checker) -> Dict[str, float]:
    """The ensemble calls, then serial in-process reruns of each call
    (same spawned seeds as the ensemble): per-run scenario cost, and how
    well the pool used its workers on those calls."""
    traced = run_calls(seed, checker, spans)
    out: Dict[str, float] = {
        "ensemble.shard_compute_s": p50(traced["compute"]),
        "ensemble.shard_commit_s": p50(traced["commit"]),
        "ensemble.aggregate_s": p50(traced["aggregate"]),
        "ensemble.bytes_written": float(p50(traced["written"])),
        "pool.retries": float(traced["retries"]),
    }
    serial = pooled = 0.0
    mismatches = 0
    for index, call in enumerate(traced["calls"]):
        campaign = call["campaign"]
        scenario = get_campaign(campaign).build(call["scale"])
        children = np.random.SeedSequence(call["seed"]).spawn(call["total_runs"])
        run_s = events = 0.0
        for run, child in enumerate(children):
            t0 = time.perf_counter()
            with spans.span("scenarios.run", index):
                result = run_scenario(scenario, seed=child)
            run_s += time.perf_counter() - t0
            events += result.total_events
            record = call["records"][run]
            if (record["total_events"], record["total_interactions"]) != (
                    result.total_events, result.total_interactions):
                mismatches += 1
        out[f"scenarios.run_s.{campaign}"] = run_s / len(children)
        out[f"scenarios.events_per_s.{campaign}"] = events / run_s
        serial += run_s
        pooled += call["compute"]
    out["pool.efficiency"] = serial / (traced["calls"][0]["workers"] * pooled)
    out["scenarios.run_mismatch"] = float(mismatches)
    checker.record([f"{mismatches} in-process scenario runs differ from the "
                    "ensemble's records"] if mismatches else [])
    return out
