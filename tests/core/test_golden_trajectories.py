"""Golden trajectory pins for the jump engine.

Each pin is ``(events, interactions, sha256(counts))`` after a
10^4-event budget from a seeded random start at n ≈ 2·10^4.  The pins
were recorded before the engine build was restructured (lazy fused
index, gc pause, cheaper family and table compilation) and guard that
construction changes never move a trajectory: one-shot runs, runs
driven in 4096-event chunks, and runs that snapshot and resume at the
midpoint must all reproduce them exactly.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import build_engine, random_configuration, resume_engine
from repro.scenarios.spec import ProtocolSpec

pytest.importorskip("numpy")

BUDGET = 10_000
CHUNK = 4096
SEED = 2026

#: kind -> population (line needs an exact lattice size: m = 8, max fill).
SIZES = {"ag": 20_000, "ring": 20_000, "line": 16_896, "tree": 20_000}

PINS = {
    "one-shot": {
        "ag": (10000, 275759104,
            "1c1a86c734dfcdab454de71a97047d0d37139d214fd4556c6a3d65b414e0528c"),
        "line": (10000, 247331667,
            "2c4f2476ded393fed86a697943310360831fcfbd0e07eaecb49d2a32f591f9dc"),
        "ring": (10000, 276200730,
            "457ba3d301eae65569427de539058e57401c87ffd1ca0aa58807abc61d2b122f"),
        "tree": (10000, 124314,
            "09c3060c3106dd16071c1a3e217767c6dcf2930f5e8a2d05b3b9a166a67ac106"),
    },
    "chunked": {
        "ag": (10000, 278480645,
            "22726442cfc869c3237b35d71da49f9e2ec4678d6cc60eeacb82e9c9b975742e"),
        "line": (10000, 247120523,
            "8b0389e37add5c1f127bd1847cd1d3f862c509bda7ab354cf9ad12c4536c8694"),
        "ring": (10000, 277617432,
            "44f5e349e22ef10ae13377c6be2e8eef02f4a25d08ab921d7a9cf6cda7f41ff3"),
        "tree": (10000, 124550,
            "4e586837b3e4b1af33e7146ad8400f06deec40740d79e196eb50382e1a5164ed"),
    },
    "snapshot": {
        "ag": (10000, 279301253,
            "a3f1c849b7e040fdd8d9d681f0d017acbc1c098fb82fd94fd47ca719942c6db0"),
        "line": (10000, 245400737,
            "347dcd5e0532eb7fe6e2f89e620bdc76dea659b0a5c0673a981e30eefcd17420"),
        "ring": (10000, 278323415,
            "210e56c155476119528d1f57ca174d0deefebfbb998e12084cc7a798126d804f"),
        "tree": (10000, 124660,
            "65d99aaf58fc930c1b8e7528a0a6635dfaa7c589ecd52ab590dd72c5a3fe0a2d"),
    },
}


def _digest(counts) -> str:
    return hashlib.sha256(
        ",".join(map(str, counts)).encode()
    ).hexdigest()


def _start(kind):
    protocol = ProtocolSpec(kind=kind, num_agents=SIZES[kind]).build()
    return protocol, random_configuration(protocol, seed=SEED)


def _pin(engine):
    return engine.events, engine.interactions, _digest(engine.counts)


def run_one_shot(kind):
    protocol, start = _start(kind)
    engine, _ = build_engine(protocol, start, seed=SEED)
    engine.run(max_events=BUDGET)
    return _pin(engine)


def run_chunked(kind):
    protocol, start = _start(kind)
    engine, _ = build_engine(protocol, start, seed=SEED)
    while engine.events < BUDGET:
        if engine.run(max_events=min(BUDGET, engine.events + CHUNK)):
            break
    return _pin(engine)


def run_snapshot(kind):
    protocol, start = _start(kind)
    engine, _ = build_engine(protocol, start, seed=SEED)
    engine.run(max_events=BUDGET // 2)
    resumed = resume_engine(protocol, engine.snapshot())
    resumed.run(max_events=BUDGET)
    return _pin(resumed)


RUNNERS = {
    "one-shot": run_one_shot,
    "chunked": run_chunked,
    "snapshot": run_snapshot,
}


@pytest.mark.parametrize("mode", sorted(RUNNERS))
@pytest.mark.parametrize("kind", sorted(SIZES))
def test_trajectory_matches_pin(kind, mode):
    assert RUNNERS[mode](kind) == PINS[mode][kind]
