"""The serving layer: queue semantics, batching, dedup, HTTP loop."""

from __future__ import annotations

import time

import pytest

from repro.errors import ServeError
from repro.serve.client import ServeClient
from repro.serve.jobspec import JobSpec, result_digest, run_batch
from repro.serve.queue import JobQueue
from repro.serve.server import JobServer

#: Tiny synthetic spec: fast to capture, fast to replay.
SPEC = {
    "workload": "FIMI",
    "cores": 2,
    "source": "synthetic",
    "accesses": 2048,
    "cache": [1024 * 1024],
}


def _spec(**overrides) -> dict:
    payload = dict(SPEC)
    payload.update(overrides)
    return payload


def _submit(queue: JobQueue, n: int, spec=None, **kwargs):
    jobs = []
    for index in range(n):
        fields = dict(mode="batch", priority=0)
        fields.update(kwargs)
        jobs.append(
            queue.submit(
                JobSpec.from_json(spec or SPEC),
                fields["mode"],
                fields["priority"],
                f"job-{index:03d}",
            )
        )
    return jobs


class TestQueue:
    def test_backpressure_rejects_with_429(self):
        queue = JobQueue(max_queue=2)
        _submit(queue, 2)
        with pytest.raises(ServeError) as excinfo:
            _submit(queue, 1)
        assert excinfo.value.status == 429
        assert queue.stats()["rejected_full"] == 1

    def test_draining_rejects_with_503(self):
        queue = JobQueue()
        queue.drain()
        with pytest.raises(ServeError) as excinfo:
            _submit(queue, 1)
        assert excinfo.value.status == 503

    def test_rejects_unknown_mode_and_priority(self):
        queue = JobQueue()
        spec = JobSpec.from_json(SPEC)
        with pytest.raises(ServeError, match="mode"):
            queue.submit(spec, "bulk", 0, "j")
        with pytest.raises(ServeError, match="priority"):
            queue.submit(spec, "batch", "high", "j")

    def test_priority_orders_the_schedule(self):
        queue = JobQueue()
        spec = JobSpec.from_json(SPEC)
        low = queue.submit(spec, "batch", 0, "low")
        interactive = queue.submit(spec, "interactive", 0, "inter")
        high = queue.submit(spec, "batch", 5, "high")
        batch = queue.take_batch()
        # Highest priority leads; equal-key jobs ride along anyway.
        assert batch.leader is high
        assert sorted(batch.jobs, key=lambda j: j.seq) == [low, interactive, high]

    def test_interactive_precedes_batch_at_equal_priority(self):
        queue = JobQueue()
        # Different captures: no coalescing, pure ordering.
        a = queue.submit(JobSpec.from_json(_spec(cores=2)), "batch", 0, "a")
        b = queue.submit(JobSpec.from_json(_spec(cores=4)), "interactive", 0, "b")
        assert queue.take_batch().leader is b
        assert queue.take_batch().leader is a

    def test_coalesces_only_matching_passes(self):
        queue = JobQueue()
        same1 = queue.submit(JobSpec.from_json(_spec(cache=[1024 * 1024])), "batch", 0, "s1")
        other = queue.submit(JobSpec.from_json(_spec(cores=4)), "batch", 0, "o")
        same2 = queue.submit(
            JobSpec.from_json(_spec(cache=[4 * 1024 * 1024])), "batch", 0, "s2"
        )
        first = queue.take_batch()
        assert sorted(first.jobs, key=lambda j: j.seq) == [same1, same2]
        assert first.leader is same1
        assert all(job.coalesced for job in first.jobs)
        second = queue.take_batch()
        assert second.jobs == (other,)
        assert not other.coalesced

    def test_max_batch_caps_riders(self):
        queue = JobQueue(max_batch=2)
        jobs = [
            queue.submit(
                JobSpec.from_json(_spec(cache=[(1 << i) * 1024 * 1024])),
                "batch",
                0,
                f"j{i}",
            )
            for i in range(4)
        ]
        assert queue.take_batch().jobs == (jobs[0], jobs[1])
        assert queue.take_batch().jobs == (jobs[2], jobs[3])

    def test_no_batching_degrades_to_singletons(self):
        queue = JobQueue()
        jobs = _submit(queue, 3)
        for expected in jobs:
            batch = queue.take_batch(batching=False)
            assert batch.jobs == (expected,)
        assert queue.stats()["coalesced_riders"] == 0

    def test_zero_inversions_by_construction(self):
        queue = JobQueue()
        for index in range(8):
            queue.submit(
                JobSpec.from_json(_spec(cores=2 + (index % 3))),
                "interactive" if index % 2 else "batch",
                index % 4,
                f"j{index}",
            )
        while queue.take_batch(timeout=0.0) is not None:
            pass
        assert queue.inversions == 0

    def test_stop_cancels_pending(self):
        queue = JobQueue()
        (job,) = _submit(queue, 1)
        queue.stop()
        assert job.state == "cancelled"
        assert job.done_event.is_set()
        assert queue.take_batch() is None


@pytest.fixture
def server():
    instance = JobServer(max_queue=16, max_batch=8)
    instance.start_worker()
    yield instance
    instance.shutdown()


class TestServer:
    def test_served_result_matches_the_cli_path(self, server):
        response, status = server.submit({"spec": SPEC, "mode": "interactive"})
        assert status == 202
        job = server.get_job(response["job_id"], wait=120)
        assert job.state == "done"
        # Byte-identity: the served digest equals the digest of the
        # same spec run straight through the replay engine (what
        # ``repro-cosim --digest`` prints).
        assert job.digest == result_digest(JobSpec.from_json(SPEC).run())
        assert job.summary["configs"][0]["mpki"] > 0

    def test_duplicate_submission_is_answered_from_the_store(self, server):
        first, _ = server.submit({"spec": SPEC})
        server.get_job(first["job_id"], wait=120)
        second, status = server.submit({"spec": SPEC})
        assert status == 200
        assert second["state"] == "done"
        assert second["outcome"] == "deduplicated"
        assert second["digest"] == server.get_job(first["job_id"]).digest
        assert server.counts["deduplicated"] == 1

    def test_invalid_specs_bounce_with_400(self, server):
        with pytest.raises(ServeError) as excinfo:
            server.submit({"spec": {"workload": "FIMI", "cache_szie": [1]}})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            server.submit({"spec": SPEC, "extra": 1})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            server.submit([1, 2])
        assert excinfo.value.status == 400

    def test_concurrent_invalid_submits_are_counted_exactly(self):
        import sys
        import threading

        instance = JobServer()
        threads, per_thread = 8, 250
        barrier = threading.Barrier(threads)
        bounced: list[int] = []

        def hammer() -> None:
            barrier.wait()
            for _ in range(per_thread):
                try:
                    instance.submit({"spec": {"workload": "FIMI", "cache_szie": [1]}})
                except ServeError as error:
                    bounced.append(error.status)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        assert bounced == [400] * (threads * per_thread)
        assert instance.counts["invalid"] == threads * per_thread

    def test_unknown_job_is_404(self, server):
        with pytest.raises(ServeError) as excinfo:
            server.get_job("job-999999")
        assert excinfo.value.status == 404

    def test_batch_results_equal_solo_runs(self):
        # The engine-level guarantee the server's coalescing rests on.
        a = JobSpec.from_json(_spec(cache=[1024 * 1024]))
        b = JobSpec.from_json(_spec(cache=[4 * 1024 * 1024, 1024 * 1024]))
        batched = run_batch([a, b])
        assert result_digest(batched[0]) == result_digest(a.run())
        assert result_digest(batched[1]) == result_digest(b.run())

    def test_drain_finishes_pending_work(self, server):
        response, _ = server.submit({"spec": SPEC})
        server.queue.drain()
        assert server.drain(wait=True, timeout=120)
        job = server.get_job(response["job_id"])
        assert job.state == "done"
        with pytest.raises(ServeError) as excinfo:
            server.submit({"spec": _spec(cores=4)})
        assert excinfo.value.status == 503

    def test_capture_warm_batches_are_counted(self, tmp_path):
        from repro.trace.cache import TraceCache

        instance = JobServer(trace_cache=TraceCache(tmp_path / "cache"))
        instance.start_worker()
        try:
            first, _ = instance.submit({"spec": SPEC})
            instance.get_job(first["job_id"], wait=120)
            # Different geometry, same capture: answered from the cached
            # trace without re-capture.
            warm, _ = instance.submit({"spec": _spec(cache=[4 * 1024 * 1024])})
            job = instance.get_job(warm["job_id"], wait=120)
            assert job.state == "done"
            assert job.capture_warm
            assert instance.counts["capture_warm_batches"] >= 1
        finally:
            instance.shutdown()


class TestHTTP:
    @pytest.fixture
    def client(self, server):
        host, port = server.start_http("127.0.0.1", 0)
        client = ServeClient(host, port)
        client.wait_ready()
        return client

    def test_end_to_end_over_http(self, client):
        response = client.submit(SPEC, mode="interactive", priority=2)
        job = client.wait(response["job_id"], timeout=120)
        assert job["state"] == "done"
        assert job["outcome"] == "completed"
        assert job["digest"] == result_digest(JobSpec.from_json(SPEC).run())
        windows = client.windows(response["job_id"])
        assert windows["configs"][0]["windows"]
        assert client.healthz()["status"] == "ok"
        stats = client.stats()
        assert stats["completed"] >= 1
        assert stats["priority_inversions"] == 0

    def test_http_errors_carry_the_server_status(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"workload": "NOPE"})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.job("job-424242")
        assert excinfo.value.status == 404

    def test_drain_endpoint_stops_admission(self, client):
        assert client.drain()["draining"] is True
        deadline = time.monotonic() + 5
        while not client.healthz()["draining"]:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        with pytest.raises(ServeError) as excinfo:
            client.submit(SPEC)
        assert excinfo.value.status == 503
