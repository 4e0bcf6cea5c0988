"""Capture + replay: the one execution path of the co-simulation.

A design-space sweep (Figures 4-6: 4 MB-256 MB) on the hardware re-runs
the whole SoftSDV→DEX→FSB→Dragonhead pipeline per configuration —
reprogramming the FPGAs forces a fresh run — but in software that is
pure waste: everything above the bus is independent of the emulated
cache geometry.

This engine splits the pipeline at the architectural boundary the AF
FPGA defines.  :func:`capture_replay_log` runs the simulator side
*once* per (workload, cores, quantum, seed) with a recording snooper on
the bus, capturing exactly what survives the address filter: the
decoded, window-gated, core-tagged transaction stream, as compact
columnar numpy arrays plus an event table (per-slice core tags and the
instruction/cycle progress counters that drive window sampling).
:func:`replay_point` then drives a :class:`DragonheadEmulator` through
its public snoop interface — protocol messages re-encoded, data chunks
re-issued — so per-config statistics are *identical* to SoftSDV
driving the emulator on a live bus, per-core splits and 500 µs window
samples included (``tests/test_conformance.py`` holds every route to a
result to one digest).  :func:`replay` is that body on a fresh
emulator, and ``CoSimPlatform.run`` is capture followed by it: there is
no second, bus-driven copy of the emulation, checkpoint, fault or audit
logic.

:func:`replay_sweep` is the user-facing entry: capture (or load from
the content-addressed :class:`~repro.trace.cache.TraceCache`) once,
then fan the log out to N configurations, optionally across worker
processes via :func:`~repro.harness.parallel.parallel_map` — the log
travels as an on-disk path and is memory-mapped by each worker, not
pickled per task.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.audit import AUDIT_FULL, AUDIT_OFF, OracleTap, resolve_audit_mode, run_audit
from repro.audit.oracle import SAMPLE_EVERY
from repro.cache.emulator import (
    BANK_SHIFT,
    NUM_BANKS,
    AddressFilter,
    DragonheadConfig,
    DragonheadEmulator,
)
from repro.checkpoint import DeferredInterrupt, read_snapshot, write_snapshot
from repro.core.cosim import CoSimResult
from repro.core.fsb import FrontSideBus, FSBTransaction
from repro.core.softsdv import GuestWorkload, SoftSDV
from repro.errors import AuditError, CheckpointError, TraceError
from repro.faults.report import collect_run_degradation, merge_records
from repro.faults.spec import FaultSpec
from repro.telemetry import runtime as telemetry
from repro.protocol import Message, MessageCodec, MessageKind
from repro.trace.cache import (
    TraceCache,
    cache_key,
    entry_content_key,
    load_validated_entry,
)
from repro.trace.record import AccessKind, TraceChunk
from repro.harness.parallel import parallel_map, resolve_jobs

#: Event-table opcodes (first column of :attr:`ReplayLog.events`).
EVENT_DATA = 0  #: (EVENT_DATA, end_offset, core): data up to end_offset
EVENT_PROGRESS = 1  #: (EVENT_PROGRESS, instructions, cycles): counters

#: Array names used when a log is stored in a :class:`TraceCache`.
_ARRAY_NAMES = ("addresses", "kinds", "pcs", "events")

#: Snapshot interval (replayed data transactions) used when a supervised
#: sweep hands a worker a checkpoint path without an explicit interval.
DEFAULT_CHECKPOINT_EVERY = 1 << 20

#: Environment override for that interval — lets CI (and impatient
#: operators) force frequent snapshots on short runs without a per-task
#: parameter.
CHECKPOINT_EVERY_ENV = "REPRO_CHECKPOINT_EVERY"


def _checkpoint_interval() -> int:
    value = os.environ.get(CHECKPOINT_EVERY_ENV)
    return int(value) if value else DEFAULT_CHECKPOINT_EVERY


@dataclass(frozen=True)
class ReplayLog:
    """One captured pass of the simulator side of the platform.

    The columnar arrays hold every data transaction that survived the
    address filter, in bus order; ``events`` interleaves data segments
    (constant core id, no progress message inside) with the progress
    counters exactly as they appeared on the bus, which is all the
    emulator's sampler needs to reproduce its window series.
    """

    workload: str
    cores: int
    quantum: int
    boot_noise_accesses: int
    addresses: np.ndarray  # uint64 [N] byte addresses
    kinds: np.ndarray  # uint8  [N] AccessKind values
    pcs: np.ndarray  # uint64 [N] program counters
    events: np.ndarray  # uint64 [E, 3] (opcode, a, b) rows
    filtered: int  # transactions outside the emulation window
    instructions: int  # final retired-instruction counter

    @property
    def accesses(self) -> int:
        """In-window data transactions captured."""
        return len(self.addresses)

    def core_tags(self) -> np.ndarray:
        """Expand the segment table into a per-access core-id array."""
        cores = np.zeros(self.accesses, dtype=np.uint16)
        if len(self.events):
            data = self.events[self.events[:, 0] == EVENT_DATA]
            if len(data):
                ends = data[:, 1].astype(np.int64)
                lengths = np.diff(ends, prepend=0)
                cores[: int(ends[-1])] = np.repeat(
                    data[:, 2].astype(np.uint16), lengths
                )
        return cores

    def progress_table(self) -> np.ndarray:
        """Progress reports as ``(offset, instructions, cycles)`` rows.

        The batched replay path's input: for each PROGRESS event, the
        number of data accesses that preceded it (a running maximum of
        the DATA segment end offsets) plus its cumulative counters.
        """
        events = self.events
        if not len(events):
            return np.empty((0, 3), dtype=np.int64)
        opcodes = events[:, 0]
        progress_mask = opcodes == EVENT_PROGRESS
        ends = np.where(progress_mask, 0, events[:, 1]).astype(np.int64)
        offsets = np.maximum.accumulate(ends)
        table = np.empty((int(np.count_nonzero(progress_mask)), 3), dtype=np.int64)
        table[:, 0] = offsets[progress_mask]
        table[:, 1] = events[progress_mask, 1].astype(np.int64)
        table[:, 2] = events[progress_mask, 2].astype(np.int64)
        return table

    def to_chunk(self) -> TraceChunk:
        """The whole captured stream as one core-tagged trace chunk.

        For consumers outside the emulator — prefetch studies, reuse
        analysis — that want the AF-filtered traffic without replaying
        the protocol.
        """
        return TraceChunk(
            np.asarray(self.addresses),
            np.asarray(self.kinds),
            self.core_tags(),
            np.asarray(self.pcs),
        )

    # -- trace-cache serialization ------------------------------------

    def to_payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Split into the (meta, arrays) form a TraceCache stores."""
        meta = {
            "workload": self.workload,
            "cores": self.cores,
            "quantum": self.quantum,
            "boot_noise_accesses": self.boot_noise_accesses,
            "filtered": self.filtered,
            "instructions": self.instructions,
        }
        arrays = {
            "addresses": self.addresses,
            "kinds": self.kinds,
            "pcs": self.pcs,
            "events": self.events,
        }
        return meta, arrays

    @classmethod
    def from_payload(
        cls, meta: Mapping[str, object], arrays: Mapping[str, np.ndarray]
    ) -> "ReplayLog":
        missing = [name for name in _ARRAY_NAMES if name not in arrays]
        if missing:
            raise TraceError(f"replay-log payload missing arrays: {missing}")
        return cls(
            workload=str(meta["workload"]),
            cores=int(meta["cores"]),
            quantum=int(meta["quantum"]),
            boot_noise_accesses=int(meta["boot_noise_accesses"]),
            addresses=arrays["addresses"],
            kinds=arrays["kinds"],
            pcs=arrays["pcs"],
            events=arrays["events"],
            filtered=int(meta["filtered"]),
            instructions=int(meta["instructions"]),
        )


class ReplayLogRecorder:
    """A passive bus snooper that captures the AF-filtered stream.

    Mirrors the AF FPGA's front half — message decode, window gating,
    core tagging — but instead of driving cache banks it appends the
    surviving transactions to columnar buffers.  Attach to a
    :class:`~repro.core.fsb.FrontSideBus` alongside (or instead of) an
    emulator.
    """

    def __init__(self) -> None:
        self._af = AddressFilter()
        self._addresses: list[np.ndarray] = []
        self._kinds: list[np.ndarray] = []
        self._pcs: list[np.ndarray] = []
        self._events: list[tuple[int, int, int]] = []
        self._count = 0

    # -- BusSnooper interface -----------------------------------------

    def snoop(self, transaction: FSBTransaction) -> None:
        address = transaction.address
        if MessageCodec.is_message(address):
            message = self._af.handle_message(address)
            if message is not None and message.kind is MessageKind.CYCLES_COMPLETED:
                self._events.append(
                    (
                        EVENT_PROGRESS,
                        self._af.instructions_retired,
                        self._af.cycles_completed,
                    )
                )
            return
        if not self._af.emulating:
            self._af.filtered_transactions += 1
            return
        self._append(
            np.array([address], dtype=np.uint64),
            np.array([int(transaction.kind)], dtype=np.uint8),
            np.array([transaction.pc], dtype=np.uint64),
        )

    def snoop_chunk(self, chunk: TraceChunk) -> None:
        if not self._af.emulating:
            self._af.filtered_transactions += len(chunk)
            return
        if len(chunk):
            self._append(chunk.addresses, chunk.kinds, chunk.pcs)

    def _append(
        self, addresses: np.ndarray, kinds: np.ndarray, pcs: np.ndarray
    ) -> None:
        core = self._af.current_core
        self._addresses.append(addresses)
        self._kinds.append(kinds)
        self._pcs.append(pcs)
        self._count += len(addresses)
        # Extend the open data segment when nothing (core switch or
        # progress message) separates it from this batch.
        if self._events and self._events[-1][0] == EVENT_DATA and self._events[-1][2] == core:
            self._events[-1] = (EVENT_DATA, self._count, core)
        else:
            self._events.append((EVENT_DATA, self._count, core))

    # -- extraction ---------------------------------------------------

    def finish(
        self, workload: str, cores: int, quantum: int, boot_noise_accesses: int
    ) -> ReplayLog:
        """Freeze the captured buffers into an immutable log."""

        def concat(parts: list[np.ndarray], dtype) -> np.ndarray:
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        events = (
            np.array(self._events, dtype=np.uint64)
            if self._events
            else np.empty((0, 3), dtype=np.uint64)
        )
        return ReplayLog(
            workload=workload,
            cores=cores,
            quantum=quantum,
            boot_noise_accesses=boot_noise_accesses,
            addresses=concat(self._addresses, np.uint64),
            kinds=concat(self._kinds, np.uint8),
            pcs=concat(self._pcs, np.uint64),
            events=events,
            filtered=self._af.filtered_transactions,
            instructions=self._af.instructions_retired,
        )


def capture_replay_log(
    workload: GuestWorkload,
    cores: int,
    quantum: int = 4096,
    boot_noise_accesses: int = 8192,
) -> ReplayLog:
    """Run the simulator side once and capture the replayable stream.

    This is the single generation pass a whole sweep shares: workload
    trace production, DEX scheduling, and protocol encoding all happen
    here, exactly as SoftSDV drives a live bus — just with a recorder
    on the bus instead of an emulator.
    """
    bus = FrontSideBus()
    recorder = ReplayLogRecorder()
    bus.attach(recorder)
    softsdv = SoftSDV(bus, quantum=quantum, boot_noise_accesses=boot_noise_accesses)
    softsdv.run_workload(workload, cores)
    return recorder.finish(
        workload=workload.name,
        cores=cores,
        quantum=quantum,
        boot_noise_accesses=boot_noise_accesses,
    )


# -- replaying one configuration --------------------------------------


def _issue_message(port, message: Message) -> None:
    """Re-encode a protocol message onto a snoop port."""
    for address in MessageCodec.encode(message):
        port.snoop(FSBTransaction(address=address, kind=AccessKind.WRITE))


def replay_into(log: ReplayLog, port, on_event=None, resume=None) -> None:
    """Drive a snoop port with a captured log, through its public face.

    ``port`` is anything with the BusSnooper interface — usually a
    :class:`DragonheadEmulator`, optionally behind a
    :class:`~repro.faults.injector.FaultInjector`.  The protocol
    messages are re-encoded and re-decoded, so the AF's session checks,
    counter monotonicity guards, and window sampling behave exactly as
    on a live bus.

    Args:
        on_event: called after each event row with the replay position
            ``{"event_index", "start", "current_core"}`` — every event
            boundary is a consistent checkpoint point, since all state
            transitions live in the snooped emulator.
        resume: a position dict from a checkpoint.  The session opener
            (filtered-counter restore + START message) is skipped — the
            AF state it would have produced is restored separately —
            and replay continues from the recorded event.

    A bare strict :class:`DragonheadEmulator` with no event observer and
    no resume point takes the batched fast path: the whole session runs
    as one :meth:`~DragonheadEmulator.emulate_stream` call, one flush of
    the whole stream.  Wrapped ports (fault injectors), lenient
    emulators, observers, and resumed runs keep the per-event loop:
    their semantics depend on seeing each message.  That loop's data
    segments queue in the emulator and reach the banks in flushes of up
    to ``_FLUSH_BOUND`` accesses, through the same probe-and-window path
    ``emulate_stream`` ends in.  Both are bit-identical to a
    per-transaction emulator (``tests/test_harness_replay.py``,
    ``tests/test_deferred_probe.py``).
    """
    if (
        on_event is None
        and resume is None
        and isinstance(port, DragonheadEmulator)
        and port.strict
    ):
        port.emulate_stream(
            log.to_chunk(), log.progress_table(), filtered=log.filtered
        )
        return
    addresses = log.addresses
    kinds = log.kinds
    pcs = log.pcs
    if resume is None:
        # Out-of-window traffic never reaches the banks; only its count
        # is architecturally visible, so restore the counter instead of
        # replaying thousands of discarded noise transactions.  The
        # counter lives on the emulator's AF, behind whatever wraps it.
        af_owner = getattr(port, "downstream", port)
        af_owner.af.filtered_transactions += log.filtered
        _issue_message(port, Message(MessageKind.START_EMULATION))
        first_event = 0
        start = 0
        current_core: int | None = None
    else:
        first_event = int(resume["event_index"])
        start = int(resume["start"])
        core_state = resume["current_core"]
        current_core = None if core_state is None else int(core_state)
    events = log.events
    for event_index in range(first_event, len(events)):
        opcode, a, b = events[event_index]
        if int(opcode) == EVENT_DATA:
            end, core = int(a), int(b)
            if core != current_core:
                _issue_message(port, Message(MessageKind.CORE_ID, core))
                current_core = core
            port.snoop_chunk(
                TraceChunk(addresses[start:end], kinds[start:end], core, pcs[start:end])
            )
            start = end
        else:
            _issue_message(port, Message(MessageKind.INSTRUCTIONS_RETIRED, int(a)))
            _issue_message(port, Message(MessageKind.CYCLES_COMPLETED, int(b)))
        if on_event is not None:
            on_event(
                {
                    "event_index": event_index + 1,
                    "start": start,
                    "current_core": current_core,
                }
            )
    _issue_message(port, Message(MessageKind.STOP_EMULATION))


def _replay_identity(
    log: ReplayLog, config: DragonheadConfig, lenient: bool, audit_mode: str
) -> dict:
    """What a replay checkpoint must match to be resumable.

    The log's shape counters are a cheap fingerprint: resuming against
    a different captured log with the same workload label would change
    at least one of them.
    """
    return {
        "kind": "replay",
        "workload": log.workload,
        "cores": log.cores,
        "quantum": log.quantum,
        "accesses": log.accesses,
        "instructions": log.instructions,
        "filtered": log.filtered,
        "events": len(log.events),
        "config": repr(config),
        "lenient": lenient,
        "audit": audit_mode,
    }


def _scheduler_cycles(log: ReplayLog) -> int:
    """The simulation-domain cycle total: the last progress event's."""
    cycles = 0
    for opcode, _a, b in log.events:
        if int(opcode) == EVENT_PROGRESS:
            cycles = int(b)
    return cycles


def _attach_audit_oracle(emulator: DragonheadEmulator, mode: str) -> None:
    """Hook the differential LRU oracle (LRU configurations only)."""
    if mode == AUDIT_OFF or emulator.config.policy.lower() != "lru":
        return
    bank_config = emulator.config.bank_config(0)
    emulator.attach_oracle(
        OracleTap(
            num_sets=bank_config.num_sets,
            associativity=bank_config.associativity,
            num_banks=NUM_BANKS,
            bank_shift=BANK_SHIFT,
            every=1 if mode == AUDIT_FULL else SAMPLE_EVERY,
        )
    )


def replay(
    log: ReplayLog,
    config: DragonheadConfig,
    spec: FaultSpec | None = None,
    lenient: bool = False,
    audit: str | None = None,
    checkpoint_every: int | None = None,
    checkpoint_path: str | None = None,
    resume_from: str | None = None,
) -> CoSimResult:
    """One configuration's worth of a sweep: fresh emulator, one pass.

    ``lenient`` puts the emulator in resync mode; the other arguments
    are :func:`replay_point`'s.
    """
    return replay_point(
        log,
        DragonheadEmulator(config, strict=not lenient),
        spec=spec,
        audit=audit,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )


def replay_point(
    log: ReplayLog,
    emulator: DragonheadEmulator,
    spec: FaultSpec | None = None,
    audit: str | None = None,
    checkpoint_every: int | None = None,
    checkpoint_path: str | None = None,
    resume_from: str | None = None,
) -> CoSimResult:
    """Drive ``emulator`` with ``log`` and build the run's result.

    The one execution path behind :func:`replay` and
    :meth:`~repro.core.cosim.CoSimPlatform.run`; ``emulator`` is left
    holding the run's final state.  ``spec`` interposes a
    :class:`~repro.faults.injector.FaultInjector` between the replayed
    stream and the emulator's snoop port, keyed to the grid point so
    every (workload, cores, config) gets its own deterministic fault
    stream regardless of worker count or replay order.

    ``audit`` runs the end-of-run invariant audit
    (``"off"``/``"sample"``/``"full"``; None reads ``$REPRO_AUDIT``).
    ``checkpoint_every`` snapshots the emulator every N replayed data
    transactions, at the next event boundary, into ``checkpoint_path``
    (removed on completion); ``resume_from`` continues from such a
    snapshot if it exists.  The resumed replay is bit-identical to an
    uninterrupted one, and the audit report equals the fresh run's.
    """
    config = emulator.config
    lenient = not emulator.strict
    audit_mode = resolve_audit_mode(audit)
    _attach_audit_oracle(emulator, audit_mode)
    port = emulator
    injector = None
    if spec is not None and spec.touches_bus:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            emulator,
            spec,
            point=(log.workload, log.cores, config.cache_size, config.line_size),
        )
        port = injector
    if checkpoint_path is None:
        checkpoint_path = resume_from
    checkpointing = checkpoint_every is not None and checkpoint_path is not None
    if checkpoint_every is not None and checkpoint_every <= 0:
        raise CheckpointError(
            f"checkpoint_every must be positive, got {checkpoint_every}"
        )
    if checkpointing and injector is not None:
        raise CheckpointError(
            "checkpointing is not supported with bus fault injection: the "
            "injector's decision stream is positional and would diverge on "
            "resume"
        )
    identity = _replay_identity(log, config, lenient, audit_mode)
    resume_position = None
    if resume_from is not None and os.path.exists(resume_from):
        state = read_snapshot(resume_from, expect_identity=identity)
        emulator.load_state_dict(state["emulator"])
        resume_position = state["replay"]
    if checkpointing:
        guard: DeferredInterrupt | contextlib.AbstractContextManager = (
            DeferredInterrupt()
        )
    else:
        guard = contextlib.nullcontext()
    with guard as interrupt, telemetry.span("replay.point"):
        telemetry.counter("repro_replay_points_total").inc()
        if checkpointing:
            last_snapshot = (
                0 if resume_position is None else int(resume_position["start"])
            )

            def on_event(position: dict) -> None:
                nonlocal last_snapshot
                due = position["start"] - last_snapshot >= checkpoint_every
                if due or interrupt.pending:
                    write_snapshot(
                        checkpoint_path,
                        {"replay": position, "emulator": emulator.state_dict()},
                        identity,
                    )
                    last_snapshot = position["start"]
                interrupt.deliver()

            replay_into(log, port, on_event=on_event, resume=resume_position)
        else:
            replay_into(log, port, resume=resume_position)
    if injector is not None:
        injector.flush()
    performance = emulator.read_performance_data()
    degradation = collect_run_degradation(injector, performance)
    audit_report = None
    if audit_mode != AUDIT_OFF:
        audit_report = run_audit(
            emulator,
            performance,
            mode=audit_mode,
            expected_instructions=log.instructions,
            expected_cycles=_scheduler_cycles(log),
        )
        if not audit_report.ok:
            if not lenient:
                raise AuditError(audit_report)
            degradation = merge_records(
                degradation, audit_report.degradation_records()
            )
    if checkpointing:
        try:
            os.unlink(checkpoint_path)
        except OSError:
            pass
    return CoSimResult(
        workload=log.workload,
        cores=log.cores,
        performance=performance,
        instructions=log.instructions,
        accesses=performance.stats.accesses,
        filtered=performance.filtered_transactions,
        degradation=degradation,
        audit=audit_report,
    )


# -- trace-cache integration ------------------------------------------


def log_cache_key(
    workload: str,
    cores: int,
    quantum: int,
    boot_noise_accesses: int,
    extra: Mapping[str, object] | None = None,
) -> str:
    """Content address of a captured log's full identity.

    ``extra`` carries whatever parameterizes trace generation beyond
    the platform knobs — source kind, per-thread access count, footprint
    scale, seed — so two guests that would generate different traffic
    never share an entry.
    """
    fields: dict[str, object] = {
        "kind": "replay-log",
        "workload": workload,
        "cores": cores,
        "quantum": quantum,
        "boot_noise_accesses": boot_noise_accesses,
    }
    for name, value in (extra or {}).items():
        fields[f"x:{name}"] = value
    return cache_key(fields)


def load_or_capture(
    workload: GuestWorkload,
    cores: int,
    quantum: int = 4096,
    boot_noise_accesses: int = 8192,
    trace_cache: TraceCache | None = None,
    key_extra: Mapping[str, object] | None = None,
) -> tuple[ReplayLog, str | None]:
    """Fetch a captured log from the cache, generating only on miss.

    Returns ``(log, entry_dir)``; ``entry_dir`` is the on-disk home of
    the log when a cache is in use (for zero-copy process fan-out), or
    None when uncached.  On a hit, ``workload.thread_streams`` is never
    called — generation is skipped entirely, observable through the
    cache's ``stats.hits`` counter.
    """
    with telemetry.span("capture"):
        if trace_cache is None:
            return (
                capture_replay_log(workload, cores, quantum, boot_noise_accesses),
                None,
            )
        key = log_cache_key(
            workload.name, cores, quantum, boot_noise_accesses, key_extra
        )
        payload = trace_cache.load(key)
        if payload is not None:
            return ReplayLog.from_payload(*payload), str(trace_cache.entry_dir(key))
        log = capture_replay_log(workload, cores, quantum, boot_noise_accesses)
        entry = trace_cache.store(key, *log.to_payload())
        # store() returns None when the cache has latched off (the
        # governor's final ENOSPC fallback): the run continues with the
        # freshly captured in-memory log, just without a disk home.
        return log, None if entry is None else str(entry)


# -- multi-config fan-out ---------------------------------------------


@dataclass(frozen=True)
class _LogHandle:
    """Picklable reference to a log: inline arrays or an on-disk entry.

    An on-disk handle carries the entry's :func:`entry_content_key`,
    which is what a sweep journal keys the point by: a spilled log
    lands in a fresh temporary directory on every run.
    """

    log: ReplayLog | None = None
    entry_dir: str | None = None
    content: str | None = None

    def resolve(self) -> ReplayLog:
        if self.log is not None:
            return self.log
        # Full validation before memory-mapping — manifest self-CRC,
        # then per-array checksums — so a worker that loses a race with
        # a concurrent quarantine fails loudly instead of replaying a
        # damaged log.
        meta, arrays = load_validated_entry(self.entry_dir)
        return ReplayLog.from_payload(meta, arrays)


def _replay_task(
    task: tuple[_LogHandle, DragonheadConfig, FaultSpec | None, bool, str | None],
    checkpoint_path: str | None = None,
) -> CoSimResult:
    """One (log, config) replay — module-level so it crosses processes.

    ``checkpoint_path`` arrives from the sweep supervisor (see
    ``supports_checkpoint`` below): the point snapshots there as it
    runs and resumes from it after a timeout, crash, or SIGKILL.
    """
    handle, config, spec, lenient, audit = task
    # Bus fault injection and checkpointing are mutually exclusive (the
    # injector's decision stream is positional); a fault-injected sweep
    # under a checkpointing supervisor simply runs its points unresumed.
    checkpointable = checkpoint_path is not None and (
        spec is None or not spec.touches_bus
    )
    return replay(
        handle.resolve(),
        config,
        spec=spec,
        lenient=lenient,
        audit=audit,
        checkpoint_every=_checkpoint_interval() if checkpointable else None,
        checkpoint_path=checkpoint_path if checkpointable else None,
        resume_from=checkpoint_path if checkpointable else None,
    )


#: Tells the supervisor this task accepts a per-point checkpoint path.
#: A function attribute survives pickling-by-reference into workers.
_replay_task.supports_checkpoint = True  # type: ignore[attr-defined]


def _replay_point_identity(task: tuple) -> tuple:
    """What keys a replay point: the log's content, not its location."""
    handle, *rest = task
    if handle.content is None:
        return task
    return (handle.content, *rest)


#: Tells the supervisor what of a task item identifies its grid point.
_replay_task.point_identity = _replay_point_identity  # type: ignore[attr-defined]


def replay_map(
    log: ReplayLog,
    configs: Sequence[DragonheadConfig],
    jobs: int | None = None,
    entry_dir: str | None = None,
    spec: FaultSpec | None = None,
    lenient: bool = False,
    audit: str | None = None,
) -> list[CoSimResult]:
    """Fan one captured log out to every configuration.

    With ``jobs`` > 1 the configurations split across worker processes;
    when the log lives in a trace cache (``entry_dir``), workers
    memory-map it from disk instead of receiving pickled copies, so the
    log exists once no matter how wide the fan-out.  A log that is
    *not* cache-backed gets spilled into a temporary content-addressed
    cache entry first, so every fan-out rides the shared-memory
    transport: workers receive the entry key and memmap the arrays,
    never an in-band pickled copy of the trace.  ``spec`` and
    ``lenient`` ride along to every point (the injector re-seeds itself
    per grid point, so fan-out width never changes the fault stream);
    ``audit`` audits every point's result.
    """
    configs = list(configs)
    audit_mode = resolve_audit_mode(audit)
    from repro.harness.supervisor import active_context

    with telemetry.span("replay"):
        # With no supervisor installed, a serial sweep skips the map
        # machinery entirely; under supervision even a serial sweep
        # routes through the supervised map so journaling and retries
        # apply.
        if active_context() is None and (
            resolve_jobs(jobs) <= 1 or len(configs) < 2
        ):
            return [
                replay(log, config, spec=spec, lenient=lenient, audit=audit_mode)
                for config in configs
            ]
        spill_dir: str | None = None
        try:
            if entry_dir is None:
                import tempfile

                spill_dir = tempfile.mkdtemp(prefix="repro-log-spill-")
                key = log_cache_key(
                    log.workload,
                    log.cores,
                    log.quantum,
                    log.boot_noise_accesses,
                    extra={"transport": "spill", "accesses": log.accesses},
                )
                meta, arrays = log.to_payload()
                entry = TraceCache(spill_dir).store(key, meta, arrays)
                if entry is None:
                    # Spill refused (disk full even for the temp cache):
                    # fall back to pickling the log in-band.  Slower,
                    # correct, and already recorded as a degradation by
                    # the cache's ENOSPC handling.
                    handle = _LogHandle(log=log)
                    return parallel_map(
                        _replay_task,
                        [
                            (handle, config, spec, lenient, audit_mode)
                            for config in configs
                        ],
                        jobs=jobs,
                    )
                entry_dir = str(entry)
                telemetry.counter("repro_replay_log_spills_total").inc()
            handle = _LogHandle(
                entry_dir=entry_dir, content=entry_content_key(entry_dir)
            )
            return parallel_map(
                _replay_task,
                [(handle, config, spec, lenient, audit_mode) for config in configs],
                jobs=jobs,
            )
        finally:
            if spill_dir is not None:
                import shutil

                shutil.rmtree(spill_dir, ignore_errors=True)


def replay_sweep(
    workload: GuestWorkload,
    cores: int,
    configs: Sequence[DragonheadConfig],
    quantum: int = 4096,
    boot_noise_accesses: int = 8192,
    jobs: int | None = None,
    trace_cache: TraceCache | None = None,
    key_extra: Mapping[str, object] | None = None,
    spec: FaultSpec | None = None,
    lenient: bool = False,
    audit: str | None = None,
) -> list[CoSimResult]:
    """The engine's front door: one generation pass, N configurations.

    Results are index-aligned with ``configs`` and field-for-field
    identical to ``CoSimPlatform(config, quantum, boot_noise).run(...)``
    per configuration — the same capture, the same replay body.
    """
    log, entry_dir = load_or_capture(
        workload,
        cores,
        quantum=quantum,
        boot_noise_accesses=boot_noise_accesses,
        trace_cache=trace_cache,
        key_extra=key_extra,
    )
    return replay_map(
        log,
        configs,
        jobs=jobs,
        entry_dir=entry_dir,
        spec=spec,
        lenient=lenient,
        audit=audit,
    )


def size_sweep_configs(
    cache_sizes: Sequence[int],
    line_size: int = 64,
    associativity: int = 16,
    policy: str = "lru",
) -> list[DragonheadConfig]:
    """Dragonhead configurations for a cache-size sweep."""
    return [
        DragonheadConfig(
            cache_size=size,
            line_size=line_size,
            associativity=associativity,
            policy=policy,
        )
        for size in cache_sizes
    ]
