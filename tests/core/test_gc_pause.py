"""The collector pause around engine construction.

Large-n builds allocate millions of long-lived containers; with the
cyclic collector running, each allocation burst triggers a collection
that walks everything built so far.  ``build_engine``, ``resume_engine``
and the scenario engine factory pause the collector for the build and
restore its previous state afterwards — including after a failed build,
under nesting, and with builds running concurrently in threads.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro import build_engine, random_configuration, resume_engine
from repro.core.engine import _gc_paused
from repro.exceptions import ReproError
from repro.protocols import AGProtocol, TreeRankingProtocol

pytest.importorskip("numpy")


@pytest.fixture
def gc_enabled():
    """Run with the collector on, and leave it as the test found it."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not was_enabled:
            gc.disable()


def _collections_inside(function, action) -> int:
    """Collections that start while ``function``'s body is running.

    The collections the pause defers run right after it ends, at the
    first allocation once the collector is back on; they are not
    counted, being outside the body.
    """
    body = function.__wrapped__.__code__
    started = []

    def callback(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is body:
                started.append(info["generation"])
                return
            frame = frame.f_back

    gc.callbacks.append(callback)
    try:
        action()
    finally:
        gc.callbacks.remove(callback)
    return len(started)


@pytest.mark.parametrize(
    "protocol",
    [AGProtocol(100_000), TreeRankingProtocol(1 << 16)],
    ids=["ag-n100000", "tree-n65536"],
)
def test_build_triggers_no_collection(gc_enabled, protocol):
    start = random_configuration(protocol, seed=5)
    gc.collect()
    engines = []
    count = _collections_inside(
        build_engine,
        lambda: engines.append(build_engine(protocol, start, seed=5)),
    )
    assert count == 0
    assert gc.isenabled()
    engine, _ = engines[0]
    assert engine.run(max_events=100) in (True, False)


def test_resume_triggers_no_collection(gc_enabled):
    protocol = TreeRankingProtocol(1 << 14)
    engine, _ = build_engine(
        protocol, random_configuration(protocol, seed=2), seed=2
    )
    engine.run(max_events=500)
    snapshot = engine.snapshot()
    gc.collect()
    count = _collections_inside(
        resume_engine, lambda: resume_engine(protocol, snapshot)
    )
    assert count == 0
    assert gc.isenabled()


def test_failed_build_restores_collector(gc_enabled):
    protocol = AGProtocol(50)
    wrong_size = random_configuration(AGProtocol(40), seed=1)
    with pytest.raises(ReproError):
        build_engine(protocol, wrong_size, seed=1)
    assert gc.isenabled()


def test_callers_disable_is_respected(gc_enabled):
    protocol = AGProtocol(500)
    gc.disable()
    try:
        build_engine(protocol, random_configuration(protocol, seed=1), seed=1)
        assert not gc.isenabled()
        with pytest.raises(ReproError):
            build_engine(
                protocol, random_configuration(AGProtocol(40), seed=1), seed=1
            )
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_pause_restores_on_outermost_exit(gc_enabled):
    with _gc_paused:
        with _gc_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_concurrent_builds_leave_collector_enabled(gc_enabled):
    """Overlapping builds in more threads than cores, with a short
    switch interval so the depth count's updates interleave: a lost
    update would leave the collector off (or re-enable it mid-build)."""
    protocol = TreeRankingProtocol(2048)
    start = random_configuration(protocol, seed=3)
    errors = []

    def worker():
        try:
            for _ in range(25):
                engine, _ = build_engine(protocol, start, seed=3)
                engine.run(max_events=20)
                for _ in range(200):
                    with _gc_paused:
                        if gc.isenabled():
                            errors.append("collector on inside a pause")
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert gc.isenabled()
    with _gc_paused:
        assert not gc.isenabled()
    assert gc.isenabled()
