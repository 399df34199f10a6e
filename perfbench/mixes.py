"""Seeded job lists for every workload.

Each workload is a fixed *cycle* of job shapes (the mix); the workload
seed only draws the per-job simulation seeds.  So two seeds run the
same mix with different trajectories, the same seed always yields the
same list of JobSpecs, and the share of every shape in a run does not
depend on the seed.  The program under test sees only the generated
specs, never the workload seed.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Tuple

from repro import JobSpec

#: Seed the benchmark is tuned and reported on, and the held-out seed
#: kept for re-checking a later claim on an unseen input.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# (protocol, n, start, k).  Sizes are exact lattice sizes where the
# protocol needs one (ring: m(m+1); line: 3m^3(m+1)).  Jobs run in
# cycle order and a run stops only at the end of a cycle, so every
# shape keeps its share.  The median and the 90th percentile of job
# time each fall inside a block of one tree shape: tree time to silence
# varies by about 6% between seeds, against 20-30% for ag, ring and
# line, so the percentiles move with the program, not with the seed.
SILENCE_CYCLE: Tuple[Tuple[str, int, str, object], ...] = (
    # light: below the median block
    ("ag", 200, "random", None),
    ("line", 72, "random", None),
    ("ring", 240, "random", None),
    ("ring", 992, "k-distant", 32),
    ("line", 960, "k-distant", 32),
    ("ag", 500, "random", None),
    # middle: six jobs of one shape hold the median (ranks 30-60%)
    ("tree", 256, "random", None),
    ("tree", 256, "random", None),
    ("tree", 256, "random", None),
    ("tree", 256, "random", None),
    ("tree", 256, "random", None),
    ("tree", 256, "random", None),
    # upper: between the two blocks
    ("ring", 992, "random", None),
    ("line", 960, "random", None),
    ("line", 4536, "k-distant", 32),
    ("ag", 2000, "random", None),
    # heavy: four jobs of one shape hold the 90th percentile (ranks 80-100%)
    ("tree", 1024, "random", None),
    ("tree", 1024, "random", None),
    ("tree", 1024, "random", None),
    ("tree", 1024, "random", None),
)

#: Scale sweep: (label, protocol, n, repeats).  Random starts, default
#: backend, a fixed productive-event budget per point.  A point's time
#: is the median over its repeats (the same spec each time).  The points
#: up to n=2^18 run three times; the points near 10^6 take several
#: seconds each and run once.
SCALE_POINTS: Tuple[Tuple[str, str, int, int], ...] = (
    ("tree-n65536", "tree", 65536, 3),
    ("tree-n262144", "tree", 262144, 3),
    ("tree-n1048576", "tree", 1048576, 1),
    ("ag-n100000", "ag", 100000, 3),
    ("ag-n1000000", "ag", 1000000, 1),
    ("ring-n100172", "ring", 100172, 3),
)
SCALE_EVENT_BUDGET = 10_000

#: Serve cycle.  Entry kinds:
#:   ("sim", protocol, n, start, k)          simulate to silence
#:   ("budget", protocol, n, max_events)     budgeted simulate, n >= 1e5
#:   ("scenario", campaign, scale, reps)     catalogue scenario job
#:   ("repeat", back)                        resubmit the spec `back` jobs
#:                                           earlier (a cache hit)
#:   ("pause", protocol, n, max_events)      large job paused once and
#:                                           resumed at once
#:
#: The server runs one job at a time, so with both clients busy a job
#: waits for the job before it (a cache hit waits for nothing, and the
#: job after it waits for the one before the hit): a job's time is about
#: the sum of two run times.  The order below keeps every such pair away
#: from the pairs of consecutive tree n=256 jobs, which hold the median
#: (tree time to silence varies little with the seed), and puts the pairs
#: with the budgeted tree job, a fixed amount of work, at the 90th
#: percentile.  The tree jobs come in three runs of four, one after each
#: heavy job, so that the median samples the whole run rather than one
#: stretch of it; light jobs sit between the heavy ones.
_TREE_RUN = (("sim", "tree", 256, "random", None),) * 4
SERVE_CYCLE: Tuple[tuple, ...] = (
    ("sim", "line", 72, "random", None),
    ("budget", "tree", 131072, 8192),
    ("scenario", "ag_corrupt_recover", "smoke", 2),
    *_TREE_RUN,
    ("budget", "ag", 100000, 8192),
    ("sim", "ring", 992, "k-distant", 32),
    ("sim", "line", 960, "k-distant", 32),
    ("repeat", 7),
    ("sim", "ag", 500, "random", None),
    *_TREE_RUN,
    ("sim", "tree", 1000, "random", None),
    ("pause", "ring", 100172, 32768),
    ("sim", "ring", 240, "random", None),
    ("repeat", 7),
    ("sim", "line", 72, "random", None),
    ("sim", "ring", 240, "random", None),
    ("repeat", 7),
    ("sim", "line", 960, "k-distant", 32),
    *_TREE_RUN,
)

#: Ensemble calls (traced silence run): (campaign, scale) per
#: run_ensemble call, each call ENSEMBLE_RUNS runs in shards of
#: ENSEMBLE_SHARD with ENSEMBLE_WORKERS.
ENSEMBLE_CYCLE: Tuple[Tuple[str, str], ...] = (
    ("tree_epoch_bias_flip", "paper"),
    ("ag_corrupt_recover", "paper"),
)
ENSEMBLE_RUNS = 8
ENSEMBLE_SHARD = 4
ENSEMBLE_WORKERS = 2


def _seeds(seed: int, salt: str) -> Iterator[int]:
    rng = random.Random(f"{salt}/{seed}")
    while True:
        yield rng.randrange(2**31)


def simulate_spec(protocol: str, n: int, start: str, k, seed: int,
                  max_events=None) -> JobSpec:
    kwargs = dict(protocol=protocol, n=n, start=start, seed=seed,
                  max_events=max_events)
    if k is not None:
        kwargs["k"] = k
    return JobSpec.from_legacy_kwargs(**kwargs)


def silence_jobs(seed: int) -> Iterator[Dict]:
    """Endless silence workload as ``from_legacy_kwargs`` arguments (the
    benchmark builds each JobSpec inside the job's timed span)."""
    seeds = _seeds(seed, "silence")
    for protocol, n, start, k in itertools.cycle(SILENCE_CYCLE):
        kwargs = dict(protocol=protocol, n=n, start=start, seed=next(seeds))
        if k is not None:
            kwargs["k"] = k
        yield kwargs


def scale_jobs(seed: int) -> List[Tuple[str, JobSpec]]:
    """The sweep as budgeted simulate specs, in rounds: the first round
    runs every point, later rounds only the points that repeat."""
    seeds = _seeds(seed, "scale")
    specs = {
        label: simulate_spec(protocol, n, "random", None, next(seeds),
                             max_events=SCALE_EVENT_BUDGET)
        for label, protocol, n, _ in SCALE_POINTS
    }
    rounds = max(repeats for *_, repeats in SCALE_POINTS)
    return [(label, specs[label])
            for round_ in range(rounds)
            for label, _, _, repeats in SCALE_POINTS if repeats > round_]


def serve_jobs(seed: int) -> Iterator[Dict]:
    """Endless serve workload as job dicts.

    Each dict has ``kind`` (sim/budget/scenario/repeat/pause), ``spec``
    (the JobSpec; a repeat carries the earlier job's spec) and, for a
    repeat, ``of`` — the index of the job whose result it must replay.
    """
    seeds = _seeds(seed, "serve")
    history: List[JobSpec] = []
    for index, entry in enumerate(itertools.cycle(SERVE_CYCLE)):
        kind = entry[0]
        job: Dict = {"kind": kind, "index": index}
        if kind == "sim":
            _, protocol, n, start, k = entry
            job["spec"] = simulate_spec(protocol, n, start, k, next(seeds))
        elif kind in ("budget", "pause"):
            _, protocol, n, budget = entry
            job["spec"] = simulate_spec(protocol, n, "random", None,
                                        next(seeds), max_events=budget)
        elif kind == "scenario":
            _, campaign, scale, reps = entry
            job["spec"] = JobSpec.from_campaign(
                campaign, scale=scale, seed=next(seeds), repetitions=reps
            )
        else:
            back = entry[1]
            of = index - back
            while SERVE_CYCLE[of % len(SERVE_CYCLE)][0] != "sim":
                of -= 1
            job["of"] = of
            job["spec"] = history[of]
        history.append(job["spec"])
        yield job


def ensemble_calls(seed: int) -> Iterator[Dict]:
    """Endless ensemble calls: one dict per run_ensemble call."""
    seeds = _seeds(seed, "ensemble")
    for campaign, scale in itertools.cycle(ENSEMBLE_CYCLE):
        yield {
            "campaign": campaign,
            "scale": scale,
            "seed": next(seeds),
            "total_runs": ENSEMBLE_RUNS,
            "shard_size": ENSEMBLE_SHARD,
            "workers": ENSEMBLE_WORKERS,
        }


def ensemble_spec(call: Dict) -> JobSpec:
    """The JobSpec an ensemble call resolves to (its manifest digest)."""
    return JobSpec.from_campaign(
        call["campaign"], scale=call["scale"], seed=call["seed"],
        repetitions=call["total_runs"],
    )


def digests(workload: str, seed: int, count: int) -> List[str]:
    """The first ``count`` JobSpec digests a workload submits (or, for
    ``ensemble``, the traced silence run's ensemble calls)."""
    if workload == "silence":
        specs = (JobSpec.from_legacy_kwargs(**kwargs)
                 for kwargs in itertools.islice(silence_jobs(seed), count))
    elif workload == "scale":
        specs = (spec for _, spec in scale_jobs(seed)[:count])
    elif workload == "serve":
        specs = (job["spec"] for job in itertools.islice(serve_jobs(seed), count))
    elif workload == "ensemble":
        specs = map(ensemble_spec, itertools.islice(ensemble_calls(seed), count))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [spec.digest() for spec in specs]
