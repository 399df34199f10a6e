"""``serve``: a ``python -m repro serve`` subprocess, two closed-loop clients."""

from __future__ import annotations

import base64
import gc
import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro import EngineSnapshot, JobSpec, build_engine, resume_engine, run_protocol
from repro.serve.client import ServeClient
from repro.serve.wire import OP_CLOSE, OP_TEXT, decode_frame, encode_frame

from .checks import Checker, check_served
from .common import ROOT, CycleClock, child_env, p50, process_peak_rss_mb
from .mixes import SERVE_CYCLE, serve_jobs

CLIENTS = 2
SERVE_EXIT_CODE = 143  # SIGTERM contract of `repro serve`


class TimedClient(ServeClient):
    """ServeClient plus a WebSocket reader that yields each record as it
    arrives, stamped with the client's receive time."""

    def iter_events(self, job_id: str):
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        try:
            key = base64.b64encode(os.urandom(16)).decode("ascii")
            sock.sendall((
                f"GET /v1/ws/jobs/{job_id} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("latin-1"))
            head, leftover = self._read_until(sock, b"\r\n\r\n")
            if b" 101 " not in head.split(b"\r\n", 1)[0] + b" ":
                raise RuntimeError(f"websocket refused: {head[:80]!r}")
            buffered = bytearray(leftover)

            def recv_exact(count: int) -> bytes:
                while len(buffered) < count:
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise EOFError
                    buffered.extend(chunk)
                taken = bytes(buffered[:count])
                del buffered[:count]
                return taken

            while True:
                try:
                    opcode, payload = decode_frame(recv_exact)
                except EOFError:
                    return
                if opcode == OP_CLOSE:
                    try:
                        sock.sendall(encode_frame(b"", opcode=OP_CLOSE, mask=True))
                    except OSError:
                        pass
                    return
                if opcode == OP_TEXT:
                    yield time.perf_counter(), json.loads(payload.decode("utf-8"))
        finally:
            sock.close()


def start_server() -> Tuple[subprocess.Popen, int, float]:
    """Spawn ``python -m repro serve``; returns (process, port, seconds
    from spawn to the first ``/v1/health`` 200)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"repro serve did not start: {line!r}")
    port = int(line.rsplit(":", 1)[1])
    client = ServeClient(port=port, timeout=10.0)
    while True:
        try:
            client.health()
            break
        except OSError:
            if time.perf_counter() - start > 60:
                stop_server(proc)
                raise
            time.sleep(0.002)
    return proc, port, time.perf_counter() - start


def stop_server(proc: subprocess.Popen) -> int:
    """SIGTERM the server and wait; returns its exit code."""
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    proc.stdout.close()
    return code


def setup_s(checker: Checker, repeats: int = 5) -> float:
    """Median spawn -> health 200 over ``repeats`` servers (after one
    warm-up); every server must exit 143 on SIGTERM."""
    times = []
    for attempt in range(repeats + 1):
        proc, _, ready = start_server()
        code = stop_server(proc)
        checker.record([] if code == SERVE_EXIT_CODE
                       else [f"serve exit code {code}"])
        if attempt:
            times.append(ready)
    return p50(times)


class _Session:
    """State shared by the client threads of one pass."""

    def __init__(self, seed: int, port: int, checker: Checker, spans,
                 seconds: float, count: Optional[int]) -> None:
        self.jobs = serve_jobs(seed)
        self.port = port
        self.checker = checker
        self.spans = spans
        self.clock = CycleClock(seconds)
        self.count = count
        self.lock = threading.Lock()
        self.issued = 0
        self.results: Dict[int, Dict] = {}
        self.records: List[Dict] = []
        self.protocols: Dict[Tuple[str, int], object] = {}

    def next_job(self) -> Optional[Dict]:
        """The next job, or None once the run is over: after ``count``
        jobs, or at the cycle boundary nearest the deadline."""
        with self.lock:
            if (self.count is None and self.issued % len(SERVE_CYCLE) == 0
                    and self.clock.stop_at_boundary()):
                return None
            if self.count is not None and self.issued >= self.count:
                return None
            self.issued += 1
            return next(self.jobs)

    def protocol_for(self, spec):
        key = (spec.scenario.protocol.kind, spec.scenario.protocol.num_agents)
        with self.lock:
            protocol = self.protocols.get(key)
        if protocol is None:
            protocol = spec.scenario.protocol.build()
            with self.lock:
                self.protocols[key] = protocol
        return protocol


def _run_job(session: _Session, client: TimedClient, job: Dict) -> None:
    spans = session.spans
    spec = job["spec"]
    index = job["index"]
    rec = {"index": index, "kind": job["kind"], "digest": None,
           "frames": 0, "progress": 0, "start": None, "done": None}
    reasons: List[str] = []
    t0 = time.perf_counter()
    status, _, body = client.submit(spec.to_dict())
    t_ack = time.perf_counter()
    rec["status"] = status
    info = None
    if status == 429:
        reasons.append("429 rejected")
    elif status not in (200, 202):
        reasons.append(f"HTTP {status}")
    elif status == 200 and body.get("status") == "done":
        info = client.job(body["id"])
        rec["cached"] = True
    else:
        rec["cached"] = False
        paused = False
        for stamp, record in client.iter_events(body["id"]):
            rec["frames"] += 1
            kind = record.get("kind")
            if kind == "job_start" and rec["start"] is None:
                rec["start"] = stamp
            elif kind == "job_progress":
                rec["progress"] += 1
                if job["kind"] == "pause" and not paused:
                    paused = True
                    code, _ = client.pause(body["id"])
                    if code != 202:
                        reasons.append(f"pause returned {code}")
            elif kind == "job_paused":
                code, _ = client.resume(body["id"])
                if code != 202:
                    reasons.append(f"resume returned {code}")
            elif kind == "job_done":
                rec["done"] = stamp
        info = client.job(body["id"])
    t_end = time.perf_counter()
    rec["job_s"] = t_end - t0
    rec["submit_s"] = t_ack - t0
    root = spans.add("serve.job", t0, t_end, job=index)
    spans.add("serve.submit", t0, t_ack, job=index, parent=root)
    if rec["start"] is not None and rec["done"] is not None:
        spans.add("serve.queue_wait", t_ack, rec["start"], job=index, parent=root)
        spans.add("serve.exec", rec["start"], rec["done"], job=index, parent=root)
    if info is not None:
        result = info.get("result") or {}
        rec["digest"] = info.get("digest")
        rec["events"] = result.get("events", sum(
            r.get("total_events", 0) for r in result.get("runs", [])))
        rec["interactions"] = result.get("interactions", sum(
            r.get("total_interactions", 0) for r in result.get("runs", [])))
        first = None
        if job["kind"] == "repeat":
            with session.lock:
                first = session.results.get(job["of"])
            if first is None:
                reasons.append("repeat of a job without a result")
        protocol = (session.protocol_for(spec)
                    if spec.mode == "simulate" and spec.max_events is None
                    else None)
        reasons.extend(check_served(spec, info, protocol, first))
        with session.lock:
            session.results.setdefault(index, result)
    with session.lock:
        session.checker.record(reasons)
        session.records.append(rec)


def _client_loop(session: _Session) -> None:
    client = TimedClient(port=session.port, timeout=120.0)
    while True:
        job = session.next_job()
        if job is None:
            return
        try:
            _run_job(session, client, job)
        except Exception as exc:  # a broken job is a counted failure
            with session.lock:
                session.checker.record_error(exc)
                session.records.append({"index": job["index"], "kind": job["kind"],
                                        "error": True})


def run_pass(seed: int, seconds: float, checker: Checker, spans,
             count: Optional[int] = None, counters=None) -> Dict:
    proc, port, _ = start_server()
    try:
        start = time.perf_counter()
        session = _Session(seed, port, checker, spans, seconds, count)
        threads = [threading.Thread(target=_client_loop, args=(session,))
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        peak = process_peak_rss_mb(proc.pid)
    finally:
        code = stop_server(proc)
    checker.record([] if code == SERVE_EXIT_CODE else [f"serve exit code {code}"])
    records = sorted((r for r in session.records if "job_s" in r),
                     key=lambda r: r["index"])
    return {
        "job_s": [r["job_s"] for r in records],
        "wall": wall,
        "runs": len(records),
        "events": sum(r.get("events", 0) for r in records if not r.get("cached")),
        "trajectories": [(r["index"], r.get("events"), r.get("interactions"))
                         for r in records],
        "records": records,
        "peak_rss_mb": peak,
        "count": session.issued,
    }


def build_s(seed: int, rounds: int = 3) -> float:
    """Spec -> engine ready, summed over one cycle's simulate specs,
    built in this process as the server builds them: the median of
    ``rounds`` builds per spec."""
    specs = [job["spec"] for job in itertools.islice(serve_jobs(seed), len(SERVE_CYCLE))
             if job["kind"] in ("sim", "budget", "pause")]
    times: List[List[float]] = [[] for _ in specs]
    for _ in range(rounds):
        for spec, spec_times in zip(specs, times):
            gc.collect()
            t0 = time.perf_counter()
            protocol = spec.scenario.protocol.build()
            configuration = spec.start_configuration(protocol)
            build_engine(protocol, configuration, seed=spec.seed,
                         engine=spec.engine, backend=spec.backend)
            spec_times.append(time.perf_counter() - t0)
    return sum(p50(spec_times) for spec_times in times)


def jobspec_s(seed: int, spans) -> float:
    """Mean server-side parse cost of one cycle's specs (from_dict of
    the POSTed dict, then digest), timed in this process."""
    specs = [job["spec"] for job in itertools.islice(serve_jobs(seed), len(SERVE_CYCLE))]
    start = time.perf_counter()
    for spec in specs:
        with spans.span("jobspec"):
            JobSpec.from_dict(spec.to_dict()).digest()
    return (time.perf_counter() - start) / len(specs)


def layers(seed: int, traced: Dict, spans, checker: Checker) -> Dict[str, float]:
    records = traced["records"]
    executed = [r for r in records if r.get("start") is not None and r.get("done")]
    simulate = [r for r in executed if r["kind"] in ("sim", "budget", "pause")]
    out: Dict[str, float] = {
        "serve.submit_s": p50([r["submit_s"] for r in records]),
        "serve.queue_wait_s": p50(_gaps(spans, "serve.queue_wait")),
        "serve.exec_s": p50(_gaps(spans, "serve.exec")),
        "serve.frames": sum(r["frames"] for r in records) / len(records),
        "serve.cache_hit_ratio": sum(1 for r in records if r.get("cached")) / len(records),
        "serve.rejected": float(sum(1 for r in records if r.get("status") == 429)),
        "core.run_calls": sum(r["progress"] for r in simulate) / len(simulate),
        "jobspec.s": jobspec_s(seed, spans),
    }
    # One-shot comparison on the first cycle's distinct simulate digests.
    served = {}
    for r in simulate:
        if r["kind"] != "pause" and r["digest"] not in served:
            served[r["digest"]] = r
    cycle = [job for job in itertools.islice(serve_jobs(seed), len(SERVE_CYCLE))
             if job["kind"] in ("sim", "budget", "pause")]
    mismatch = 0
    served_s = served_events = oneshot_s = oneshot_events = 0.0
    for job in cycle:
        spec = job["spec"]
        digest = spec.digest()
        t0 = time.perf_counter()
        with spans.span("oneshot.run_protocol", job["index"]):
            result = run_protocol(**spec.to_run_kwargs())
        elapsed = time.perf_counter() - t0
        match = [r for r in simulate if r["digest"] == digest]
        if any((r["events"], r["interactions"]) != (result.events, result.interactions)
               for r in match):
            mismatch += 1
        if digest in served:
            r = served[digest]
            served_s += r["done"] - r["start"]
            served_events += r["events"]
            oneshot_s += elapsed
            oneshot_events += result.events
    out["serve.trajectory_mismatch"] = float(mismatch)
    out["serve.chunk_cost_ratio"] = (served_s / served_events) / (oneshot_s / oneshot_events)
    out.update(snapshot_layer(next(job["spec"] for job in cycle if job["kind"] == "pause"),
                              spans))
    return out


def _gaps(spans, name: str) -> List[float]:
    return [r[2] - r[1] for r in spans.records if r[0] == name]


def snapshot_layer(spec, spans, repeats: int = 3) -> Dict[str, float]:
    """Capture and restore the paused job's engine after one chunk."""
    protocol = spec.scenario.protocol.build()
    driver, _ = build_engine(protocol, spec.start_configuration(protocol),
                             seed=spec.seed, engine=spec.engine,
                             backend=spec.backend)
    driver.run(max_events=4096)
    capture, restore = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with spans.span("core.snapshot.capture"):
            data = driver.snapshot().to_dict()
        t1 = time.perf_counter()
        with spans.span("core.snapshot.restore"):
            resume_engine(protocol, EngineSnapshot.from_dict(data))
        t2 = time.perf_counter()
        capture.append(t1 - t0)
        restore.append(t2 - t1)
    return {
        "snapshot.capture_s": p50(capture),
        "snapshot.restore_s": p50(restore),
        "snapshot.bytes": float(len(json.dumps(data))),
    }
