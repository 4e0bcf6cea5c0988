"""``serve_open``: an open-loop schedule against a ``repro-serve`` daemon.

The generator is one process with two threads — a submitter that sends
each request when it is due and a poller that collects results — and so
never holds more than two connections.  Each request is timed from its
due time, so a stalled generator or a backed-up server both show up as
latency; how late the submitter itself ran is reported as ``gen.lag_*``.

Latency uses the server's own job record (admission wall time plus
queue and run time) as the completion instant, which removes the
poller's polling order from the measurement.  Every served digest is
checked afterwards against ``JobSpec.run`` of the same spec.
"""

from __future__ import annotations

import collections
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any

from layerbench import inputs, layers
from layerbench.calibrate import HostClock
from layerbench.host import pid_peak_rss_mb
from layerbench.spans import Tracer
from layerbench.stats import median, percentile
from layerbench.sweep import Outcome, cli_run

#: The daemon runs on one CPU and the generator (and everything else this
#: process does during a schedule) on another, so the two never compete
#: and the reference loop can be timed on the CPU the server uses.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, CLIENT_CPU = _CPUS[-1], _CPUS[0]

#: A small job outside the schedule's capture groups: warms a fresh daemon.
WARM_SPEC = {
    "workload": "PLSA",
    "cores": 2,
    "source": "synthetic",
    "accesses": 8192,
    "cache": [1 << 20],
    "audit": "off",
}

#: Seconds to wait for the last results once the schedule has been sent.
COLLECT_TIMEOUT_S = 60.0

REFUSED = (429, 503)


class Daemon:
    """A ``repro-serve`` child on a free port, with its trace cache in ``workdir``."""

    def __init__(self, workdir: str, src_dir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        ready = os.path.join(workdir, "ready")
        env = {**os.environ, "PYTHONPATH": src_dir, "TMPDIR": workdir}
        env.pop("REPRO_TRACE_CACHE", None)
        env.pop("REPRO_AUDIT", None)
        with open(os.path.join(workdir, "daemon.log"), "wb") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.serve",
                    "--port", "0",
                    "--ready-file", ready,
                    "--trace-cache", os.path.join(workdir, "traces"),
                ],
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + 60.0
        while not os.path.exists(ready):
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("repro-serve did not become ready")
            time.sleep(0.01)
        with open(ready, encoding="utf-8") as handle:
            host, port = handle.read().split()
        # Pin every daemon thread (threads it starts later inherit the
        # mask) to the server CPU, away from the generator's.
        for tid in os.listdir(f"/proc/{self.process.pid}/task"):
            os.sched_setaffinity(int(tid), {SERVER_CPU})
        from repro.serve.client import ServeClient

        self.client = ServeClient(host, int(port), timeout=120.0)

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM: the daemon drains and exits; kill it if it does not."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def serve_one(client, spec: dict) -> dict:
    job = client.submit(spec, mode="interactive")
    return job if job["state"] == "done" else client.wait(job["job_id"])


def setup_probe(workdir: str, src_dir: str) -> float:
    """Seconds from spawning a daemon to holding the result of its first job."""
    start = time.perf_counter()
    daemon = Daemon(workdir, src_dir)
    try:
        serve_one(daemon.client, WARM_SPEC)
        return time.perf_counter() - start
    finally:
        daemon.stop()


@dataclass
class Sent:
    """One scheduled request as the generator saw it."""

    row: dict
    due_wall: float
    lag_ms: float = 0.0
    rtt_ms: float = 0.0
    status: int = 0
    job: dict | None = None
    error: str | None = None


class OpenLoop:
    """Send ``schedule`` on time through one submitter; collect with one poller."""

    def __init__(self, client, schedule: list[dict], clock: HostClock | None = None) -> None:
        self.client = client
        self.schedule = schedule
        self.clock = clock
        self.sent: list[Sent] = []
        self._pending: collections.deque[Sent] = collections.deque()
        self._cond = threading.Condition()
        self._submitting = True

    def run(self) -> list[Sent]:
        start_wall = time.time() + 0.2
        self.sent = [Sent(row, start_wall + row["due_s"]) for row in self.schedule]
        poller = threading.Thread(target=self._poll, name="bench-poller", daemon=True)
        poller.start()
        try:
            self._submit()
        finally:
            with self._cond:
                self._submitting = False
                self._cond.notify_all()
            poller.join(timeout=COLLECT_TIMEOUT_S + 10.0)
        return self.sent

    def _submit(self) -> None:
        from repro.errors import ServeError

        for item in self.sent:
            # Idle gaps long enough for a reference sample get one, so the
            # host's speed is sampled throughout the schedule.
            if self.clock is not None and item.due_wall - time.time() > REFERENCE_SLACK_S:
                self.clock.sample()
            delay = item.due_wall - time.time()
            if delay > 0:
                time.sleep(delay)
            sent_at = time.time()
            item.lag_ms = (sent_at - item.due_wall) * 1e3
            row = item.row
            try:
                job = self.client.submit(row["spec"], mode=row["mode"], priority=row["priority"])
            except ServeError as error:
                item.status, item.error = error.status, str(error)
                continue
            item.rtt_ms = (time.time() - sent_at) * 1e3
            item.status = 200
            item.job = job
            if job["state"] not in ("done", "failed", "cancelled"):
                with self._cond:
                    self._pending.append(item)
                    self._cond.notify_all()

    def _poll(self) -> None:
        from repro.errors import ServeError

        deadline = None
        while True:
            with self._cond:
                while not self._pending and self._submitting:
                    self._cond.wait(0.5)
                if not self._pending:
                    return
                item = self._pending[0]
            if not self._submitting:
                deadline = deadline or time.monotonic() + COLLECT_TIMEOUT_S
                if time.monotonic() > deadline:
                    return
            try:
                job = self.client.job(item.job["job_id"], wait=0.5)
            except ServeError as error:
                item.error = str(error)
                job = None
            if job is None or job["state"] in ("done", "failed", "cancelled"):
                if job is not None:
                    item.job = job
                with self._cond:
                    self._pending.popleft()


def completion_latency_ms(item: Sent) -> float | None:
    """Due time to the server's completion instant; None if not completed."""
    job = item.job
    if item.error or job is None or job["state"] != "done":
        return None
    finished = job["submitted_at"] + ((job["queue_ms"] or 0.0) + (job["run_ms"] or 0.0)) / 1e3
    return (finished - item.due_wall) * 1e3


def batches(sent: list[Sent]) -> dict[int, list[dict]]:
    """Completed replay passes: batch id → the jobs that rode it."""
    grouped: dict[int, list[dict]] = {}
    for item in sent:
        job = item.job
        if job and job["state"] == "done" and job["batch_id"] is not None:
            grouped.setdefault(job["batch_id"], []).append(job)
    return grouped


def executor_rate(sent: list[Sent]) -> tuple[float, float]:
    """(simulated LLC accesses per busy second, busy seconds) of the executor."""
    accesses = 0
    busy = 0.0
    for jobs in batches(sent).values():
        configs = {}
        for job in jobs:
            for entry in job["result"]["configs"]:
                configs[(entry["cache_size"], entry["line_size"])] = entry["accesses"]
        accesses += sum(configs.values())
        busy += max(job["run_ms"] for job in jobs) / 1e3
    return (accesses / busy if busy else 0.0), busy


def check_digests(sent: list[Sent], workdir: str, outcome: Outcome) -> None:
    """Every served digest must equal ``JobSpec.run`` of the same spec (CLI form)."""
    from repro.serve.jobspec import JobSpec, result_digest
    from repro.trace.cache import TraceCache

    cache = TraceCache(os.path.join(workdir, "check-traces"))
    solo: dict[str, str] = {}
    for item in sent:
        if item.status in REFUSED:
            outcome.check(False, f"request {item.row['index']} refused ({item.status})")
            continue
        job = item.job
        if item.error or job is None or job["state"] != "done":
            outcome.check(False, f"request {item.row['index']} failed: {item.error or job}")
            continue
        spec = JobSpec.from_json(item.row["spec"])
        key = spec.content_key()
        if key not in solo:
            solo[key] = result_digest(cli_run(spec, trace_cache=cache))
        outcome.check(
            job["digest"] == solo[key],
            f"request {item.row['index']} digest differs from JobSpec.run",
        )


def _timings(sent: list[Sent], clock: HostClock | None) -> dict[str, tuple]:
    """Executor rate and latency percentiles, in reference seconds with a clock.

    Each request's latency is scaled by the reference samples taken
    nearest its due time; the executor rate by the whole run's.
    """
    latencies = []
    for item in sent:
        ms = completion_latency_ms(item)
        if ms is not None:
            latencies.append(ms * (clock.scale_at(item.due_wall) if clock else 1.0))
    rate, _ = executor_rate(sent)
    return {
        "accesses_per_s": (rate / (clock.factor if clock else 1.0), "1/s", len(batches(sent))),
        "latency_p50_ms": (median(latencies), "ms", len(latencies)),
        "latency_p90_ms": (percentile(latencies, 0.9), "ms", len(latencies)),
    }


def _slo_met(sent: list[Sent]) -> tuple:
    """Share of requests sent that completed within the limit, in real time."""
    latencies = [ms for ms in map(completion_latency_ms, sent) if ms is not None]
    met = sum(ms <= inputs.SERVE_SLO_MS for ms in latencies)
    return met / len(sent), "ratio", len(sent)


def _serve_layers(sent: list[Sent], rss_mb: float, span_s: float) -> dict[str, float]:
    done = [item.job for item in sent if item.job and item.job["state"] == "done"]
    ran = [job for job in done if job["outcome"] == "completed"]
    passes = batches(sent)
    _, busy = executor_rate(sent)
    lags = [item.lag_ms for item in sent]
    return {
        "serve.submit_rtt_p50_ms": median([item.rtt_ms for item in sent if item.status == 200]),
        "serve.queue_wait_p50_ms": median([job["queue_ms"] for job in ran]),
        "serve.queue_wait_p90_ms": percentile([job["queue_ms"] for job in ran], 0.9),
        "serve.run_p50_ms": median([job["run_ms"] for job in ran]),
        "serve.jobs_per_pass": len(ran) / len(passes) if passes else 0.0,
        "serve.dedup_ratio": sum(job["outcome"] == "deduplicated" for job in done) / len(sent),
        "serve.capture_warm_ratio": (
            sum(jobs[0]["capture_warm"] for jobs in passes.values()) / len(passes)
            if passes else 0.0
        ),
        "serve.refused": float(sum(item.status in REFUSED for item in sent)),
        "serve.rss_peak_mb": rss_mb,
        "serve.busy_ratio": busy / span_s,
        "gen.lag_p90_ms": percentile(lags, 0.9),
        "gen.lag_max_ms": max(lags),
    }


#: Reference-loop samples taken on each side of a schedule (daemon idle).
CLOCK_SAMPLES = 10

#: Idle time before the next request that a reference sample may use.
REFERENCE_SLACK_S = 0.15


def _daemon_pass(
    seed: int, seconds: float, workdir: str, src_dir: str, outcome: Outcome, clock: HostClock
):
    """Serve the schedule from a fresh daemon; (sent, daemon peak RSS, span)."""
    schedule = inputs.serve_schedule(seed, seconds)
    daemon = Daemon(os.path.join(workdir, "daemon"), src_dir)
    mask = os.sched_getaffinity(0)
    try:
        serve_one(daemon.client, WARM_SPEC)  # untimed warm request
        os.sched_setaffinity(0, {SERVER_CPU})
        clock.sample(CLOCK_SAMPLES)
        os.sched_setaffinity(0, {CLIENT_CPU})
        sent = OpenLoop(daemon.client, schedule, clock).run()
        os.sched_setaffinity(0, {SERVER_CPU})
        clock.sample(CLOCK_SAMPLES)
        os.sched_setaffinity(0, mask)
        stats = daemon.client.stats()
        rss_mb = daemon.peak_rss_mb()
    finally:
        os.sched_setaffinity(0, mask)
        daemon.stop()
    outcome.check(daemon.process.returncode == 0, "daemon did not drain cleanly")
    outcome.check(stats["priority_inversions"] == 0, "priority inversion")
    return sent, rss_mb, schedule[-1]["due_s"]


def timed_run(seed: int, seconds: float, workdir: str, src_dir: str) -> dict[str, Any]:
    outcome = Outcome()
    clock = HostClock()
    sent, rss_mb, span_s = _daemon_pass(seed, seconds, workdir, src_dir, outcome, clock)
    check_digests(sent, workdir, outcome)
    requests = [
        {
            "index": item.row["index"],
            "kind": item.row["kind"],
            "latency_ms": completion_latency_ms(item),
            "lag_ms": item.lag_ms,
            "queue_ms": item.job and item.job["queue_ms"],
            "run_ms": item.job and item.job["run_ms"],
            "batch_id": item.job and item.job["batch_id"],
        }
        for item in sent
    ]
    _, busy = executor_rate(sent)
    detail = {"busy_ratio": busy / span_s, "requests": requests}
    return {
        "outcome": outcome,
        "metrics": {
            **_timings(sent, clock),
            "slo_met_ratio": _slo_met(sent),
            "peak_rss_mb": (rss_mb, "MB", 1),
        },
        "measured": {name: value for name, (value, _, _) in _timings(sent, None).items()},
        "clock": clock,
        "detail": detail,
    }


def _in_process_pass(seed: int, seconds: float, workdir: str, tracer: Tracer | None):
    """Serve the schedule from a ``JobServer`` in this process, optionally traced."""
    from repro.serve.client import ServeClient
    from repro.serve.server import JobServer
    from repro.trace.cache import TraceCache

    traces = os.path.join(workdir, f"inproc-traces-{0 if tracer is None else 1}")
    server = JobServer(trace_cache=TraceCache(traces))
    server.start_worker()
    host, port = server.start_http()
    client = ServeClient(host, port, timeout=120.0)
    try:
        serve_one(client, WARM_SPEC)
        if tracer is not None:
            layers.install(tracer, serve=True)
        try:
            return OpenLoop(client, inputs.serve_schedule(seed, seconds)).run()
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        server.drain(wait=True, timeout=COLLECT_TIMEOUT_S)
        server.shutdown()


def traced_run(seed: int, seconds: float, workdir: str, src_dir: str) -> dict[str, Any]:
    """Serve layers from the daemon's records; spans from an in-process server.

    The in-process server serves the first half of the schedule twice,
    untraced then traced, so ``trace.overhead_ratio`` compares like with
    like: executor busy time with spans over executor busy time without.
    Half keeps the whole traced run within its time limit.
    """
    outcome = Outcome()
    clock = HostClock()
    sent, rss_mb, span_s = _daemon_pass(seed, seconds, workdir, src_dir, outcome, clock)
    metrics = _serve_layers(sent, rss_mb, span_s)
    metrics["host.ref_loop_ms"] = median(clock.samples) * 1e3
    plain = _in_process_pass(seed, seconds / 2, workdir, None)
    tracer = Tracer()
    traced = _in_process_pass(seed, seconds / 2, workdir, tracer)
    _, plain_busy = executor_rate(plain)
    _, traced_busy = executor_rate(traced)
    metrics.update(layers.layer_metrics(tracer, 1))
    metrics["trace.overhead_ratio"] = traced_busy / plain_busy
    check_digests(sent + plain + traced, workdir, outcome)
    return {"outcome": outcome, "metrics": metrics, "tracer": tracer, "units": 1}
