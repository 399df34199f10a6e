"""Tests of the benchmark itself: seeding, checkers, catalogue, spans.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import JobSpec, RingOfTrapsProtocol

from perfbench.catalog import manifest, metrics
from perfbench.checks import (
    Checker,
    check_budgeted,
    check_ensemble,
    check_served,
    check_silent_ranked,
)
from perfbench.common import ROOT, Spans
from perfbench.mixes import DEFAULT_SEED, HELD_OUT_SEED, digests

WORKLOADS = ("silence", "scale", "serve")


@pytest.mark.parametrize("workload", WORKLOADS + ("ensemble",))
def test_seed_fixes_the_job_list(workload):
    count = 6 if workload == "scale" else 25
    first = digests(workload, DEFAULT_SEED, count)
    assert len(first) == count
    assert first == digests(workload, DEFAULT_SEED, count)
    assert first != digests(workload, HELD_OUT_SEED, count)


def test_serve_repeats_are_cache_hits_of_earlier_jobs():
    listed = digests("serve", DEFAULT_SEED, 40)
    assert len(set(listed)) < len(listed)


def test_checker_counts_an_unranked_configuration():
    protocol = RingOfTrapsProtocol(num_agents=240)
    checker = Checker()
    solved = protocol.solved_configuration().counts_list()
    assert checker.record(check_silent_ranked(protocol, True, solved))
    unranked = list(solved)
    unranked[0] += 1
    unranked[1] -= 1
    assert not checker.record(check_silent_ranked(protocol, True, unranked))
    assert not checker.record(check_silent_ranked(protocol, False, solved))
    assert (checker.attempted, checker.failed) == (3, 2)
    assert checker.reasons["not ranked"] == 1
    assert checker.reasons["not silent"] == 1
    assert checker.error_rate == pytest.approx(2 / 3)


def _served(spec, counts, **extra):
    result = {"mode": "simulate", "num_agents": spec.scenario.protocol.num_agents,
              "silent": True, "events": 10, "counts": counts}
    result.update(extra)
    return {"status": "done", "result": result}


def test_checker_counts_a_served_result_with_the_wrong_agent_count():
    spec = JobSpec.from_legacy_kwargs(protocol="ring", n=240, seed=3)
    protocol = spec.scenario.protocol.build()
    solved = protocol.solved_configuration().counts_list()
    checker = Checker()
    assert checker.record(check_served(spec, _served(spec, solved), protocol))
    short = list(solved)
    short[0] = 0
    assert not checker.record(check_served(spec, _served(spec, short), protocol))
    wrong_n = _served(spec, solved, num_agents=239)
    assert not checker.record(check_served(spec, wrong_n, protocol))
    assert checker.reasons["counts do not sum to n"] == 1
    assert checker.reasons["wrong agent count"] == 1
    assert (checker.attempted, checker.failed) == (3, 2)


def test_checker_counts_a_cache_hit_that_does_not_replay():
    spec = JobSpec.from_legacy_kwargs(protocol="ring", n=240, seed=3)
    protocol = spec.scenario.protocol.build()
    solved = protocol.solved_configuration().counts_list()
    first = _served(spec, solved)["result"]
    replay = _served(spec, solved, events=11)
    reasons = check_served(spec, replay, protocol, first=first)
    assert reasons == ["cache hit differs from the first result"]
    assert check_served(spec, {"status": "failed"}, protocol) == ["status 'failed'"]


def test_budget_and_ensemble_checks():
    assert check_budgeted(100, 100, [50, 50], 100) == []
    assert len(check_budgeted(99, 100, [50, 49], 100)) == 2
    records = [{"run": 0, "recovered_all": True}, {"run": 1, "recovered_all": False}]
    aggregate = {"total_runs": 2, "aggregates": {"failed_jobs": 0}}
    assert check_ensemble(aggregate, records, 2, 0) == ["a run did not recover"]
    assert "quarantined runs" in check_ensemble(aggregate, records[:1], 2, 1)


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    for kind in ("end_to_end", "per_layer"):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[kind]]
        assert listed == metrics(kind)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds == {m["name"]: m["bound"] for m in manifest()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert manifest()["claim"] is None


def test_self_time_subtracts_child_coverage():
    spans = Spans()
    spans.add("parent", 0.0, 10.0)
    spans.add("child", 1.0, 4.0, parent=0)
    spans.add("child", 3.0, 6.0, parent=0)
    spans.add("grandchild", 1.0, 2.0, parent=1)
    times = spans.self_times()
    assert times["parent"] == pytest.approx(5.0)
    assert times["child"] == pytest.approx(5.0)
    assert times["grandchild"] == pytest.approx(1.0)
