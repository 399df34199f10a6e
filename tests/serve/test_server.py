"""repro serve end to end: submit, stream, cache, backpressure, pause.

The server runs on its own event-loop thread per fixture; tests talk to
it through :class:`~repro.serve.client.ServeClient` — plain HTTP plus
the raw-socket WebSocket reader — so every assertion exercises the real
wire format.
"""

import asyncio
import concurrent.futures
import threading
import time

import pytest

from repro.jobspec import JobSpec
from repro.serve import JobControl, ReproServer, ServeClient, execute_jobspec


class ServerHandle:
    """One ReproServer on a dedicated event-loop thread."""

    def __init__(self, **kwargs):
        self.server = ReproServer(**kwargs)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def main():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=main, daemon=True)
        self.thread.start()
        assert started.wait(10), "server did not start"
        self.client = ServeClient(port=self.server.port)

    def close(self):
        concurrent.futures.wait(
            [asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop)],
            timeout=10,
        )
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()

    def wait_done(self, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            info = self.client.job(job_id)
            if info["status"] in ("done", "failed", "paused"):
                return info
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} did not finish in {timeout}s")


@pytest.fixture
def serve():
    handle = ServerHandle()
    yield handle
    handle.close()


@pytest.fixture
def parked_serve():
    """dispatch=False: jobs queue but never run — backpressure is exact."""
    handle = ServerHandle(dispatch=False, queue_size=1)
    yield handle
    handle.close()


def simulate_dict(seed=7):
    return JobSpec.from_legacy_kwargs(
        protocol="ag", n=30, start="random", seed=seed
    ).to_dict()


def scenario_dict():
    return JobSpec.from_campaign(
        "ag_corrupt_recover", scale="smoke", seed=3
    ).to_dict()


class TestHttpSurface:
    def test_health(self, serve):
        health = serve.client.health()
        assert health["status"] == "ok"
        assert health["queue_size"] == 16

    def test_validation_error_names_field(self, serve):
        bad = simulate_dict()
        bad["backend"] = "cuda"
        status, _, body = serve.client.submit(bad)
        assert status == 400
        assert body["field"] == "backend"
        assert "cuda" in body["error"]

    def test_malformed_json_is_400(self, serve):
        status, _, body = serve.client.request("POST", "/v1/jobs")
        assert status == 400
        assert "JSON" in body["error"]

    def test_unknown_job_is_404(self, serve):
        status, _, body = serve.client.request("GET", "/v1/jobs/job-9999")
        assert status == 404


class TestSubmitStreamCache:
    def test_simulate_job_runs_streams_and_replays_from_cache(self, serve):
        spec = simulate_dict()
        status, _, info = serve.client.submit(spec)
        assert status == 202
        assert info["status"] == "queued" and not info["cached"]

        done = serve.wait_done(info["id"])
        assert done["status"] == "done"
        result = done["result"]
        assert result["stop_reason"] == "silence"
        assert sum(result["counts"]) == 30

        original_frames = serve.client.stream_events(info["id"], raw=True)
        kinds = [frame.split(b'"kind": "')[1].split(b'"')[0]
                 for frame in original_frames]
        assert kinds[0] == b"job_start"
        assert kinds[-1] == b"job_done"
        assert b"job_progress" in kinds

        # Identical resubmission: served from cache, never re-run, and
        # the replayed WebSocket stream is byte-identical.
        status, _, replay = serve.client.submit(spec)
        assert status == 200
        assert replay["cached"] and replay["status"] == "done"
        assert replay["id"] != info["id"]
        assert serve.client.job(replay["id"])["result"] == result
        replay_frames = serve.client.stream_events(replay["id"], raw=True)
        assert replay_frames == original_frames

    def test_different_seed_misses_cache(self, serve):
        first = serve.client.submit(simulate_dict(seed=7))
        serve.wait_done(first[2]["id"])
        status, _, info = serve.client.submit(simulate_dict(seed=8))
        assert status == 202 and not info["cached"]
        serve.wait_done(info["id"])

    def test_scenario_job_streams_logical_records(self, serve):
        status, _, info = serve.client.submit(scenario_dict())
        assert status == 202
        done = serve.wait_done(info["id"])
        assert done["status"] == "done"
        assert done["result"]["recovered_fraction"] == 1.0

        records = serve.client.stream_events(info["id"])
        kinds = {record["kind"] for record in records}
        assert {"job_start", "run_start", "phase_start", "fault",
                "phase_end", "run_end", "job_done"} <= kinds
        runs = {record["run"] for record in records if "run" in record}
        assert runs == set(range(done["result"]["repetitions"]))


class TestBackpressure:
    def test_queue_full_rejects_with_retry_hint(self, parked_serve):
        status, _, info = parked_serve.client.submit(simulate_dict(seed=1))
        assert status == 202

        status, headers, body = parked_serve.client.submit(
            simulate_dict(seed=2)
        )
        assert status == 429
        assert headers["retry-after"] == "1"
        assert body["retry_after"] == 1
        assert "full" in body["error"]

    def test_inflight_duplicate_deduplicates_not_rejects(self, parked_serve):
        status, _, first = parked_serve.client.submit(simulate_dict(seed=1))
        assert status == 202
        status, _, dup = parked_serve.client.submit(simulate_dict(seed=1))
        assert status == 200
        assert dup["deduplicated"] and dup["id"] == first["id"]


class TestPauseResume:
    def test_pause_rejected_unless_running(self, serve):
        status, _, info = serve.client.submit(simulate_dict())
        serve.wait_done(info["id"])
        status, body = serve.client.pause(info["id"])
        assert status == 409
        status, body = serve.client.resume(info["id"])
        assert status == 409

    def test_simulate_park_resume_is_bit_identical(self):
        spec = JobSpec.from_legacy_kwargs(
            protocol="ag", n=30, start="random", seed=7
        )
        reference = execute_jobspec(spec)
        assert reference["status"] == "done"

        control = JobControl()
        control.request_pause()  # parks at the first safe boundary
        paused = execute_jobspec(spec, control=control)
        assert paused["status"] == "paused"
        assert paused["park"]["mode"] == "simulate"

        resumed = execute_jobspec(spec, park=paused["park"])
        assert resumed["status"] == "done"
        assert resumed["result"] == reference["result"]

    @pytest.mark.xfail(
        strict=True,
        reason="run() boundaries re-partition the sampler, so a served "
        "job's trajectory depends on its 4096-event chunk grid",
    )
    def test_chunked_simulate_matches_one_shot_run(self):
        """A served simulate job reproduces the one-shot engine run.

        Today it does not: tree n=256 at seed 1 reaches silence after
        11,559 events one-shot and after 12,304 served in chunks.  The
        guarantee that holds is that park/resume is bit-identical on
        the same chunk grid (the test above)."""
        from repro.core.engine import build_engine

        spec = JobSpec.from_legacy_kwargs(
            protocol="tree", n=256, start="random", seed=1
        )
        protocol = spec.scenario.protocol.build()
        engine, _ = build_engine(
            protocol, spec.start_configuration(protocol), seed=spec.seed
        )
        assert engine.run()
        served = execute_jobspec(spec)["result"]
        assert (served["events"], served["interactions"]) == (
            engine.events, engine.interactions
        )

    def test_scenario_park_resume_is_bit_identical(self):
        spec = JobSpec.from_campaign("ag_corrupt_recover", scale="smoke",
                                     seed=3)
        reference = execute_jobspec(spec)

        control = JobControl()
        control.request_pause()
        paused = execute_jobspec(spec, control=control)
        assert paused["status"] == "paused"
        assert paused["park"]["next_run"] == 0

        resumed = execute_jobspec(spec, park=paused["park"])
        assert resumed["result"] == reference["result"]

    def test_park_mode_mismatch_is_an_error(self):
        from repro.exceptions import ReproError

        spec = JobSpec.from_legacy_kwargs(protocol="ag", n=10)
        with pytest.raises(ReproError, match="park blob"):
            execute_jobspec(spec, park={"mode": "scenario"})
