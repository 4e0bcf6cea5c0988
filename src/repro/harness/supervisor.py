"""Fault-tolerant supervised execution of sweep grids.

``parallel_map`` fans a grid over a process pool and hopes: one worker
exception, one hung point, or one ``BrokenProcessPool`` kills the whole
sweep with nothing to show for hours of finished points.  The paper's
platform could not afford that posture — a passive FPGA snooping a live
bus *will* see faults — and neither can a long ``repro-runall``.  This
module is the harness-level counterpart of the lenient address filter:
it assumes points can fail and makes the sweep survive them.

The supervisor wraps the same process-pool machinery with

* **per-point wall-clock timeouts** — a hung worker is terminated, the
  pool respawned, and only the victim point re-queued;
* **bounded retries with exponential backoff** — transient failures
  (including injected worker crashes and hangs) are re-run up to
  ``retries`` times before the point is declared dead;
* **``BrokenProcessPool`` recovery** — a worker dying mid-sweep costs
  one pool respawn and re-runs only the points that were in flight;
* **a journaled checkpoint file** — every completed point is appended
  to a JSONL journal keyed by content (task identity + pickled item),
  so ``--resume`` skips finished work after a crash or a Ctrl-C;
* **SIGINT-safe drain** — an interrupt terminates workers, flushes the
  journal, prints a partial-results report, and raises
  :class:`~repro.errors.SweepInterrupted` so callers can exit cleanly.

The determinism contract survives supervision: results are assembled in
item order, every task is a pure function of its argument, and on a
fault-free run the returned list is exactly what ``parallel_map``
produces — byte-identical output for ``repro-runall --jobs N``.

:func:`supervise` installs an ambient :class:`SupervisorContext`; while
one is active, every ``parallel_map`` call in the process routes
through :func:`supervised_map`, so exhibit harnesses gain supervision
without threading new parameters through their signatures.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import sys
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import (
    ConfigurationError,
    DeadlineExpired,
    FaultInjectionError,
    SweepInterrupted,
    SweepPointError,
)
from repro.faults.spec import FaultSpec
from repro.governor.budget import active_governor
from repro.governor.fsshim import fault_point
from repro.governor.retry import retry_io
from repro.harness.executors.base import FabricConfig, SubmittedPoint
from repro.harness.executors.local import LocalPoolExecutor, terminate_pool
from repro.harness.parallel import resolve_jobs
from repro.serve.jobspec import CanonicalSet, canonicalize, point_content_key
from repro.telemetry import runtime as telemetry

#: Journal schema version (header line of every journal file).  v2
#: stamped every *entry* with a ``schema`` field as well, so a single
#: line pasted out of context still identifies its format; v3 adds
#: per-entry ``wall_time_s`` and ``attempts`` so a resumed or post-hoc
#: analysis can see what each point cost without re-running it.
#: Resuming a journal with a missing or unknown version is a hard
#: error, never a silent reinterpretation of old bytes.
JOURNAL_FORMAT = 3

_UNSET = object()

# Canonicalization lives with the job-spec content-key helpers now
# (:mod:`repro.serve.jobspec`), shared with the fabric ledger and the
# server's dedup map so the three key spaces can never drift; the old
# private names stay importable for callers that grew around them.
_CanonicalSet = CanonicalSet
_canonical = canonicalize


@dataclass(frozen=True)
class SupervisorPolicy:
    """How a supervised sweep treats misbehaving points.

    Attributes:
        timeout: per-point wall-clock budget in seconds (None = no
            limit).  Only enforceable with real worker processes; the
            serial path documents-and-ignores it.
        retries: re-runs granted to a failing point after its first
            attempt.
        backoff_base: first retry delay in seconds; attempt ``k`` waits
            ``backoff_base * 2**(k-1)``, capped at ``backoff_cap``.
        backoff_cap: upper bound on any single backoff delay.
        failure_value: graceful-degradation substitute for a point that
            exhausts its retries.  The sentinel default means *no*
            degradation: the sweep raises :class:`SweepPointError`.
    """

    timeout: float | None = None
    retries: int = 2
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    failure_value: Any = _UNSET

    @property
    def degrades(self) -> bool:
        """Whether exhausted points degrade instead of raising."""
        return self.failure_value is not _UNSET


class SweepJournal:
    """Append-only JSONL checkpoint of completed grid points.

    Each line records one point: a content key (task identity plus the
    pickled item, hashed) and the pickled result, base85-encoded so the
    file stays line-oriented and greppable.  Appending is crash-safe in
    the way that matters: a torn final line is detected on load and
    ignored, costing one recomputed point.
    """

    def __init__(self, path: str | os.PathLike, resume: bool = False) -> None:
        self.path = Path(path)
        self.entries: dict[str, Any] = {}
        #: Per-key cost metadata (``wall_time_s``, ``attempts``) for
        #: entries loaded on resume — kept out of ``entries`` so result
        #: payloads stay exactly what the task returned.
        self.meta: dict[str, dict] = {}
        if resume and self.path.exists():
            self._load()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        mode = "a" if resume else "w"
        self._handle = open(self.path, mode, encoding="utf-8")
        if not resume or self._handle.tell() == 0:
            self._write_line({"format": JOURNAL_FORMAT})

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            header_seen = False
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                if not header_seen:
                    header_seen = True
                    self._check_header(line)
                    continue
                try:
                    row = json.loads(line)
                    if "key" in row:
                        if row.get("schema") != JOURNAL_FORMAT:
                            raise ConfigurationError(
                                f"journal {self.path} entry carries schema "
                                f"{row.get('schema')!r}; this build reads "
                                f"{JOURNAL_FORMAT} — delete the journal or "
                                "rerun without --resume"
                            )
                        self.entries[row["key"]] = pickle.loads(
                            base64.b85decode(row["result"])
                        )
                        self.meta[row["key"]] = {
                            "wall_time_s": row.get("wall_time_s"),
                            "attempts": row.get("attempts", 1),
                        }
                except (ValueError, KeyError, pickle.UnpicklingError, EOFError):
                    continue  # torn tail line from a crash: skip it

    def _check_header(self, line: str) -> None:
        """Refuse to resume from a journal of a different schema."""
        try:
            header = json.loads(line)
            version = header.get("format") if isinstance(header, dict) else None
        except ValueError:
            version = None
        if version is None:
            raise ConfigurationError(
                f"journal {self.path} has no schema version header — it "
                "predates versioned journals or is not a sweep journal; "
                "delete it or rerun without --resume"
            )
        if version != JOURNAL_FORMAT:
            raise ConfigurationError(
                f"journal {self.path} was written with schema {version}; "
                f"this build reads {JOURNAL_FORMAT} — delete the journal "
                "or rerun without --resume"
            )

    def _write_line(self, row: dict) -> None:
        """Append one record durably: flushed *and* fsynced.

        A point only counts as journaled once the bytes are on the
        platter — a machine losing power after a buffered write would
        otherwise re-run "completed" points on resume, or worse, leave
        a torn record that silently swallows its neighbour.  The fsync
        costs microseconds per point against sweep points that cost
        seconds; durability is the whole reason the journal exists.

        Transient write errors (EIO on a flaky volume, EAGAIN) are
        retried with backoff; a retried append can at worst leave one
        torn line followed by the complete record, which the loader's
        torn-line tolerance already absorbs.
        """
        line = json.dumps(row, sort_keys=True) + "\n"

        def _write() -> None:
            fault_point("journal.append")
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())

        retry_io("journal.append", _write)

    @staticmethod
    def point_key(task: Callable, item: Any) -> str:
        """Content key of one grid point: task identity + pickled item.

        The item is canonicalized first: pickled dicts carry their
        insertion order, so ``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}``
        — the same grid point — would otherwise hash to different keys
        and ``--resume`` would re-run completed work.  A task with a
        ``point_identity`` attribute is keyed by ``point_identity(item)``
        instead: the part of the item that names the point, without
        transport details such as a temporary path.
        """
        identify = getattr(task, "point_identity", None)
        if identify is not None:
            item = identify(item)
        return point_content_key(f"{task.__module__}.{task.__qualname__}", item)

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def get(self, key: str) -> Any:
        return self.entries[key]

    def record(
        self,
        key: str,
        result: Any,
        wall_time_s: float | None = None,
        attempts: int = 1,
    ) -> None:
        """Checkpoint one completed point (idempotent per key).

        ``wall_time_s`` and ``attempts`` record what the point cost
        (v3 fields); they are metadata only and never affect what a
        resume returns for the key.
        """
        self.entries[key] = result
        self.meta[key] = {"wall_time_s": wall_time_s, "attempts": attempts}
        encoded = base64.b85encode(pickle.dumps(result, protocol=4)).decode("ascii")
        self._write_line(
            {
                "schema": JOURNAL_FORMAT,
                "key": key,
                "result": encoded,
                "wall_time_s": wall_time_s,
                "attempts": attempts,
            }
        )

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class SupervisorContext:
    """Ambient supervision state shared by every map under one sweep."""

    policy: SupervisorPolicy = field(default_factory=SupervisorPolicy)
    journal: SweepJournal | None = None
    fault_spec: FaultSpec | None = None
    #: Directory for per-point mid-run snapshots.  Tasks that advertise
    #: ``supports_checkpoint = True`` receive a per-point path under it
    #: (keyed by the point's content key), snapshot there as they run,
    #: and resume from the snapshot when a timeout, crash, or SIGKILL
    #: forces a re-run — the retry continues mid-point instead of
    #: starting over, and the result stays bit-identical.
    checkpoint_dir: str | None = None
    #: Ledger-backend fabric shape (``--executor shard``/``remote``).
    #: None keeps the classic serial/pool routing; set, every
    #: supervised map runs on the fabric driver instead
    #: (:func:`repro.harness.executors.fabric.run_fabric`).
    fabric: FabricConfig | None = None
    #: Aggregated event counters across all supervised maps:
    #: journal-skip, worker-crash, worker-hang-injected, point-timeout,
    #: point-retry, point-degraded, point-resumed, pool-respawn, plus
    #: the fabric's fabric-lease, fabric-steal, fabric-verified,
    #: fabric-quarantined, and fabric-worker-respawn.
    counts: dict[str, int] = field(default_factory=dict)
    completed: int = 0
    total: int = 0
    #: When this sweep's supervision began (monotonic); the base of the
    #: progress line's rate and ETA estimates.
    started: float = field(default_factory=time.monotonic)

    def count(self, kind: str, n: int = 1) -> None:
        if n:
            self.counts[kind] = self.counts.get(kind, 0) + n
            telemetry.counter("repro_supervisor_events_total", event=kind).inc(n)

    def describe(self) -> str:
        """One-line event summary (empty when nothing noteworthy happened)."""
        return " ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))

    def progress(self) -> None:
        """Emit one progress/ETA line to stderr (telemetry runs only).

        Byte-identity of telemetry-off runs is preserved twice over:
        nothing prints unless telemetry is enabled, and even then the
        line goes to stderr, which the CI smoke diffs never capture.
        """
        if not telemetry.enabled() or self.total <= 0:
            return
        elapsed = time.monotonic() - self.started
        rate = self.completed / elapsed if elapsed > 0 else 0.0
        remaining = self.total - self.completed
        eta = remaining / rate if rate > 0 else float("inf")
        print(
            f"sweep progress: {self.completed}/{self.total} points "
            f"({100.0 * self.completed / self.total:.0f}%), "
            f"elapsed {elapsed:.1f}s, ETA {eta:.1f}s",
            file=sys.stderr,
        )


_ACTIVE: SupervisorContext | None = None


def active_context() -> SupervisorContext | None:
    """The installed supervisor context, if a sweep is being supervised."""
    return _ACTIVE


@contextmanager
def supervise(
    policy: SupervisorPolicy | None = None,
    journal: SweepJournal | None = None,
    fault_spec: FaultSpec | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
    fabric: FabricConfig | None = None,
) -> Iterator[SupervisorContext]:
    """Install a supervisor context for the duration of a sweep.

    While active, every :func:`repro.harness.parallel.parallel_map` call
    routes through :func:`supervised_map` with this context — the
    exhibit harnesses need no new parameters to become fault-tolerant.
    """
    global _ACTIVE
    if checkpoint_dir is not None:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
    context = SupervisorContext(
        policy=policy or SupervisorPolicy(),
        journal=journal,
        fault_spec=fault_spec,
        checkpoint_dir=None if checkpoint_dir is None else str(checkpoint_dir),
        fabric=fabric,
    )
    previous = _ACTIVE
    _ACTIVE = context
    try:
        yield context
    finally:
        _ACTIVE = previous


# -- worker-side entry ---------------------------------------------------


def _run_point(
    task: Callable,
    item: Any,
    fault: str | None,
    hang_seconds: float,
    checkpoint_path: str | None = None,
):
    """Execute one grid point in a worker, applying any planned fault.

    An injected *crash* kills the worker process outright (the honest
    analog of a segfaulting host — it must surface as
    ``BrokenProcessPool``, not as a tidy exception); an injected *hang*
    stalls for ``hang_seconds`` before running the point, so an untimed
    sweep still finishes, merely late.

    ``checkpoint_path`` is forwarded only to tasks that advertise
    ``supports_checkpoint``; the task snapshots there as it runs and
    resumes from it if this attempt is not the first.
    """
    if fault == "crash":
        os._exit(73)
    elif fault == "hang":
        time.sleep(hang_seconds)
    if checkpoint_path is not None:
        return task(item, checkpoint_path=checkpoint_path)
    return task(item)


# -- the supervised map --------------------------------------------------


@dataclass
class _Flight:
    """Bookkeeping for one in-flight point."""

    index: int
    deadline: float | None
    #: Submission time (monotonic); the journal's ``wall_time_s`` for a
    #: pooled point is measured from here, so it includes queue-to-start
    #: latency inside the worker but not backoff waits between attempts.
    submitted: float = 0.0


# Historical name, kept because callers and tests grew around it; the
# implementation (with its guarded ``_processes`` access and documented
# plain-shutdown fallback) lives with the pool backend.
_terminate = terminate_pool


def supervised_map(
    task: Callable,
    items: list,
    jobs: int | None = None,
    context: SupervisorContext | None = None,
) -> list:
    """Map ``task`` over ``items`` under supervision; ordered results.

    The fault-free fast path returns exactly what ``parallel_map``
    would.  Under faults, points are retried with backoff, hung or
    crashed workers cost a pool respawn plus re-runs of only the
    affected points, completed points are journaled as they finish, and
    SIGINT drains to a partial report plus :class:`SweepInterrupted`.
    """
    context = context or active_context() or SupervisorContext()
    policy = context.policy
    work = list(items)
    n = len(work)
    context.total += n
    results: list[Any] = [_UNSET] * n

    checkpointing = context.checkpoint_dir is not None and getattr(
        task, "supports_checkpoint", False
    )
    need_keys = (
        context.journal is not None
        or context.fault_spec is not None
        or context.fabric is not None
        or checkpointing
    )
    keys = [SweepJournal.point_key(task, item) for item in work] if need_keys else None
    ckpt_paths: list[str | None] = [None] * n
    if checkpointing:
        ckpt_paths = [
            os.path.join(context.checkpoint_dir, key + ".ckpt") for key in keys
        ]

    pending: list[int] = []
    for i in range(n):
        if context.journal is not None and keys[i] in context.journal:
            results[i] = context.journal.get(keys[i])
            context.count("journal-skip")
            context.completed += 1
        else:
            pending.append(i)
    if not pending:
        return results

    if context.fabric is not None:
        # Ledger-backend sweep: shard/remote workers own execution; the
        # driver folds their records back into this ordered list.
        from repro.harness.executors.fabric import run_fabric

        run_fabric(task, work, pending, keys, ckpt_paths, results, context)
        return results

    workers = min(resolve_jobs(jobs), len(pending))
    governor = active_governor()
    if workers > 1 and governor is not None and governor.memory_pressure():
        # Worker processes are the multiplier on resident memory; under
        # a breached --mem-budget new maps run serial (the latch in the
        # governor keeps this in force for the rest of the run, and the
        # first breach left a degradation record).
        workers = 1
    if workers <= 1:
        _run_serial(task, work, pending, keys, ckpt_paths, results, context)
    else:
        _run_pool(task, work, pending, keys, ckpt_paths, results, context, workers)
    return results


def _point_fault(
    context: SupervisorContext, keys: list[str] | None, index: int, attempt: int
) -> str | None:
    """Planned harness fault for one attempt (first attempt only)."""
    if context.fault_spec is None or attempt > 0:
        return None
    fault = context.fault_spec.harness_fault(keys[index])
    if fault is not None:
        context.count(f"worker-{fault}-injected")
    return fault


def _note_resume(context: SupervisorContext, checkpoint_path: str | None) -> None:
    """Count an attempt that will pick up from a mid-point snapshot.

    A snapshot on disk at launch time means a previous attempt was cut
    down mid-run (timeout, crash, SIGKILL) after at least one
    checkpoint landed — the task resumes instead of starting over.
    """
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        context.count("point-resumed")


def _finish(
    context: SupervisorContext,
    keys: list[str] | None,
    results: list,
    index: int,
    value: Any,
    wall_time_s: float | None = None,
    attempts: int = 1,
) -> None:
    results[index] = value
    context.completed += 1
    if wall_time_s is not None:
        telemetry.histogram("repro_sweep_point_seconds").observe(wall_time_s)
    if context.journal is not None:
        context.journal.record(
            keys[index], value, wall_time_s=wall_time_s, attempts=attempts
        )
    context.progress()


def _fail(
    context: SupervisorContext,
    policy: SupervisorPolicy,
    keys: list[str] | None,
    results: list,
    index: int,
    item: Any,
    cause: BaseException,
    attempts: int,
) -> None:
    """A point exhausted its retries: degrade or raise."""
    if policy.degrades:
        context.count("point-degraded")
        _finish(
            context, keys, results, index, policy.failure_value, attempts=attempts
        )
        return
    raise SweepPointError(item, cause, attempts=attempts) from cause


def _backoff(policy: SupervisorPolicy, attempt: int) -> float:
    return min(policy.backoff_cap, policy.backoff_base * (2 ** max(0, attempt - 1)))


def check_deadline(
    context: SupervisorContext,
    results: list,
    cancel: Callable[[], None] | None = None,
) -> None:
    """Drain the sweep if the run-level ``--deadline`` has expired.

    The deadline path is SIGINT with a different exception type: cancel
    in-flight work, print the partial-results report (the journal keeps
    every completed point), raise :class:`~repro.errors.DeadlineExpired`
    — a :class:`SweepInterrupted` subclass, so everything that already
    survives Ctrl-C survives deadline expiry for free.  Checked between
    serial points, per pool-poll cycle, and per fabric cycle; a point
    already running is never cut down mid-flight (the per-point
    ``timeout`` owns that), so expiry costs at most one point's latency.
    """
    governor = active_governor()
    if governor is None or not governor.deadline_expired():
        return
    if cancel is not None:
        cancel()
    governor.note_deadline(context.completed, context.total)
    _drain_report(context, results, reason="deadline expired")
    raise DeadlineExpired(context.completed, context.total)


def _deadline_capped(wait_for: float | None) -> float | None:
    """Cap a poll timeout so the loop wakes when the deadline lands."""
    governor = active_governor()
    if governor is None:
        return wait_for
    remaining = governor.deadline_remaining()
    if remaining is None:
        return wait_for
    capped = remaining if wait_for is None else min(wait_for, remaining)
    return max(0.05, capped)


def _run_serial(
    task: Callable,
    work: list,
    pending: list[int],
    keys: list[str] | None,
    ckpt_paths: list,
    results: list,
    context: SupervisorContext,
) -> None:
    """In-process path (``jobs`` ≤ 1): retries apply, timeouts cannot.

    An injected crash becomes :class:`FaultInjectionError` here — with
    no worker process to sacrifice, the fault degenerates to an
    exception, which exercises the same retry path.
    """
    policy = context.policy
    for i in pending:
        check_deadline(context, results)
        attempt = 0
        while True:
            fault = _point_fault(context, keys, i, attempt)
            _note_resume(context, ckpt_paths[i])
            try:
                if fault == "crash":
                    raise FaultInjectionError("injected worker crash (serial mode)")
                if fault == "hang":
                    time.sleep(context.fault_spec.hang_seconds)
                begin = time.perf_counter()
                value = (
                    task(work[i], checkpoint_path=ckpt_paths[i])
                    if ckpt_paths[i] is not None
                    else task(work[i])
                )
                wall = time.perf_counter() - begin
                _finish(
                    context,
                    keys,
                    results,
                    i,
                    value,
                    wall_time_s=wall,
                    attempts=attempt + 1,
                )
                break
            except KeyboardInterrupt:
                _drain_report(context, results)
                raise SweepInterrupted(context.completed, context.total) from None
            except Exception as error:
                attempt += 1
                if attempt > policy.retries:
                    _fail(context, policy, keys, results, i, work[i], error, attempt)
                    break
                context.count("point-retry")
                time.sleep(_backoff(policy, attempt))


def _run_pool(
    task: Callable,
    work: list,
    pending: list[int],
    keys: list[str] | None,
    ckpt_paths: list,
    results: list,
    context: SupervisorContext,
    workers: int,
) -> None:
    """The supervised pool loop, driven through the ``pool`` backend."""
    policy = context.policy
    attempts = {i: 0 for i in pending}
    # (index, not-before) — backoff is enforced by the ready time.
    queue: deque[tuple[int, float]] = deque((i, 0.0) for i in pending)
    inflight: dict[Any, _Flight] = {}
    backend = LocalPoolExecutor(workers)

    def respawn() -> None:
        backend.respawn()
        context.count("pool-respawn")

    def submit_ready(now: float) -> None:
        while queue and len(inflight) < workers:
            index, ready_at = queue[0]
            if ready_at > now:
                break
            queue.popleft()
            fault = _point_fault(context, keys, index, attempts[index])
            hang_seconds = (
                context.fault_spec.hang_seconds if context.fault_spec else 0.0
            )
            _note_resume(context, ckpt_paths[index])
            handle = backend.submit(
                SubmittedPoint(
                    index=index,
                    task=task,
                    item=work[index],
                    key=keys[index] if keys is not None else None,
                    fault=fault,
                    hang_seconds=hang_seconds,
                    checkpoint_path=ckpt_paths[index],
                )
            )
            deadline = now + policy.timeout if policy.timeout else None
            inflight[handle] = _Flight(
                index=index, deadline=deadline, submitted=time.monotonic()
            )

    def requeue(index: int, *, delay: float = 0.0) -> None:
        queue.append((index, time.monotonic() + delay))

    def on_failure(index: int, cause: BaseException, kind: str) -> None:
        """Count a failed attempt; requeue with backoff or finish the point."""
        attempts[index] += 1
        if attempts[index] > policy.retries:
            _fail(
                context,
                policy,
                keys,
                results,
                index,
                work[index],
                cause,
                attempts[index],
            )
            return
        context.count(kind)
        requeue(index, delay=_backoff(policy, attempts[index]))

    try:
        while queue or inflight:
            check_deadline(context, results, cancel=backend.cancel)
            now = time.monotonic()
            submit_ready(now)
            if not inflight:
                # Nothing running: we are waiting out a backoff window.
                pause = max(0.0, min(at for _, at in queue) - now)
                capped = _deadline_capped(pause)
                time.sleep(pause if capped is None else min(pause, capped))
                continue
            wait_for = _deadline_capped(_next_wakeup(policy, queue, inflight, now))
            for event in backend.poll(wait_for):
                if event.kind == "respawn":
                    # The backend already rebuilt its broken pool; the
                    # lost/crash events around this one re-route points.
                    context.count("pool-respawn")
                    continue
                flight = inflight.pop(event.handle, None)
                if flight is None:
                    continue
                if event.kind == "done":
                    _finish(
                        context,
                        keys,
                        results,
                        flight.index,
                        event.value,
                        wall_time_s=time.monotonic() - flight.submitted,
                        attempts=attempts[flight.index] + 1,
                    )
                elif event.kind == "crash":
                    on_failure(flight.index, event.error, "worker-crash")
                elif event.kind == "error":
                    on_failure(flight.index, event.error, "point-retry")
                elif event.kind == "lost":
                    # An innocent casualty of a pool collapse: re-run
                    # without charging an attempt.
                    requeue(flight.index)
            _reap_hung(
                context, policy, inflight, requeue, on_failure, respawn
            )
    except SweepPointError:
        backend.cancel()
        raise
    except KeyboardInterrupt:
        backend.cancel()
        _drain_report(context, results)
        raise SweepInterrupted(context.completed, context.total) from None
    else:
        backend.close()


def _next_wakeup(
    policy: SupervisorPolicy,
    queue: deque,
    inflight: dict,
    now: float,
) -> float | None:
    """How long the wait may block: next deadline or next backoff expiry."""
    horizons = [
        flight.deadline - now
        for flight in inflight.values()
        if flight.deadline is not None
    ]
    if queue:
        horizons.append(queue[0][1] - now)
    if not horizons:
        return None
    return max(0.05, min(horizons))


def _reap_hung(context, policy, inflight, requeue, on_failure, respawn) -> None:
    """Kill the pool if any point overran its deadline; re-queue victims."""
    now = time.monotonic()
    expired = [
        (future, flight)
        for future, flight in inflight.items()
        if flight.deadline is not None and now > flight.deadline and not future.done()
    ]
    if not expired:
        return
    hung = {future for future, _ in expired}
    survivors = [flight.index for future, flight in inflight.items() if future not in hung]
    inflight.clear()
    respawn()
    for _, flight in expired:
        on_failure(
            flight.index,
            FaultInjectionError(
                f"point exceeded its {policy.timeout:.1f}s wall-clock budget"
            ),
            "point-timeout",
        )
    for index in survivors:
        requeue(index)


def _drain_report(
    context: SupervisorContext, results: list, reason: str = "interrupted"
) -> None:
    """The drain report (SIGINT or deadline expiry), written to stderr."""
    done = sum(1 for value in results if value is not _UNSET)
    print(
        f"\nsweep {reason}: {done}/{len(results)} points of the current "
        f"grid completed ({context.completed}/{context.total} overall)",
        file=sys.stderr,
    )
    if context.counts:
        print(f"  events: {context.describe()}", file=sys.stderr)
    if context.journal is not None:
        print(
            f"  journal: {context.journal.path} — re-run with --resume to "
            "skip completed points",
            file=sys.stderr,
        )
    if context.checkpoint_dir is not None:
        print(
            f"  checkpoints: {context.checkpoint_dir} — in-flight points "
            "left mid-run snapshots and will resume from them, not from "
            "scratch",
            file=sys.stderr,
        )
