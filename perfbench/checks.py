"""Correctness checks whose failures feed ``error_rate``.

Every check returns the list of reasons a result is wrong (empty when
it is right), so a failure is counted once per job with every reason
recorded.  The checks read plain results only; their cost is kept out
of the timed spans.
"""

from __future__ import annotations

import sys
import traceback
from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro import Configuration, count_leaders


class Checker:
    """Counts attempted and failed jobs, and why each failure failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def record(self, reasons: Sequence[str]) -> bool:
        """Count one job; returns True iff it passed."""
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.update(reasons)
        return not reasons

    def record_error(self, exc: BaseException) -> None:
        """Count a job that raised; its traceback goes to stderr."""
        traceback.print_exception(exc, file=sys.stderr)
        self.record([f"{type(exc).__name__}: {exc}"])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_silent_ranked(protocol, silent: bool, counts: Sequence[int]) -> List[str]:
    """silence: silent, ranked, and exactly one leader."""
    reasons = []
    configuration = Configuration(list(counts))
    if not silent:
        reasons.append("not silent")
    if not protocol.is_ranked(configuration):
        reasons.append("not ranked")
    if count_leaders(protocol, configuration) != 1:
        reasons.append("leader count != 1")
    return reasons


def check_budgeted(events: int, budget: int, counts: Sequence[int],
                   num_agents: int) -> List[str]:
    """scale: the run did exactly its event budget and kept every agent."""
    reasons = []
    if events != budget:
        reasons.append(f"events {events} != budget {budget}")
    if sum(counts) != num_agents:
        reasons.append("counts do not sum to n")
    return reasons


def check_served(spec, info: Dict, protocol=None,
                 first: Optional[Dict] = None) -> List[str]:
    """serve: a finished job's ``GET /v1/jobs/<id>`` body.

    ``protocol`` is the built protocol of a simulate spec (needed for
    the ranking check of a to-silence job); ``first`` is the result of
    the earlier job a cache hit must replay.
    """
    if info.get("status") != "done":
        return [f"status {info.get('status')!r}"]
    result = info.get("result") or {}
    reasons = []
    if spec.mode == "simulate":
        counts = result.get("counts", [])
        if sum(counts) != spec.scenario.protocol.num_agents:
            reasons.append("counts do not sum to n")
        if result.get("num_agents") != spec.scenario.protocol.num_agents:
            reasons.append("wrong agent count")
        if spec.max_events is None:
            if not result.get("silent"):
                reasons.append("not silent")
            if protocol is None or not protocol.is_ranked(Configuration(counts)):
                reasons.append("not ranked")
        elif result.get("events") != spec.max_events:
            reasons.append("events != budget")
    else:
        runs = result.get("runs", [])
        if len(runs) != spec.repetitions:
            reasons.append("runs != repetitions")
        if result.get("failures"):
            reasons.append("scenario run failures")
        if not all(run.get("recovered_all") for run in runs):
            reasons.append("a run did not recover")
    if first is not None and result != first:
        reasons.append("cache hit differs from the first result")
    return reasons


def check_ensemble(aggregate: Dict, records: Sequence[Dict], total_runs: int,
                   quarantined: int) -> List[str]:
    """ensemble: every run committed, none quarantined, all recovered."""
    reasons = []
    if aggregate["total_runs"] != total_runs or len(records) != total_runs:
        reasons.append("runs != total")
    if aggregate["aggregates"].get("failed_jobs") or quarantined:
        reasons.append("quarantined runs")
    if not all(record.get("recovered_all") for record in records):
        reasons.append("a run did not recover")
    return reasons
