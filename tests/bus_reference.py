"""The per-transaction reference every execution route must reproduce.

SoftSDV on a :class:`~repro.core.fsb.FrontSideBus` driving a bare
:class:`PerTransactionEmulator` — the Section 3.3 composition with no
capture log in between, and with every data transaction taken one at a
time.  ``CoSimPlatform.run``, ``replay`` and every sweep route go
through capture + replay and the emulator's deferred, batched bank
probe; this reference does neither, so a differential against it stays
independent of the code under test.
"""

from __future__ import annotations

import os
import tempfile

from repro.cache.emulator import DragonheadConfig, DragonheadEmulator
from repro.core.cosim import CoSimResult
from repro.core.fsb import FrontSideBus, FSBTransaction
from repro.core.softsdv import GuestWorkload, SoftSDV
from repro.faults.report import collect_run_degradation
from repro.faults.spec import FaultSpec
from repro.harness.replay import ReplayLog, replay_point
from repro.trace.record import AccessKind, TraceChunk


class PerTransactionEmulator(DragonheadEmulator):
    """An emulator that splits every chunk into single transactions.

    Each data access goes through :meth:`snoop`, which flushes the
    (always empty) deferred queue and probes its bank with the scalar
    ``access_line``; each progress report advances the sampler with the
    live counters.  No batch probe, no deferral.
    """

    def snoop_chunk(self, chunk: TraceChunk) -> None:
        for address, kind in zip(chunk.addresses.tolist(), chunk.kinds.tolist()):
            self.snoop(FSBTransaction(address=address, kind=AccessKind(kind)))


def bus_driven_run(
    guest: GuestWorkload,
    cores: int,
    config: DragonheadConfig,
    quantum: int = 4096,
    boot_noise_accesses: int = 8192,
) -> CoSimResult:
    """One strict, unaudited run with the emulator snooping a live bus."""
    bus = FrontSideBus()
    emulator = PerTransactionEmulator(config)
    bus.attach(emulator)
    softsdv = SoftSDV(bus, quantum=quantum, boot_noise_accesses=boot_noise_accesses)
    scheduler = softsdv.run_workload(guest, cores)
    performance = emulator.read_performance_data()
    return CoSimResult(
        workload=guest.name,
        cores=cores,
        performance=performance,
        instructions=scheduler.instructions_retired,
        accesses=performance.stats.accesses,
        filtered=performance.filtered_transactions,
        degradation=collect_run_degradation(None, performance),
    )


def per_transaction_replay(
    log: ReplayLog, emulator: PerTransactionEmulator, spec: FaultSpec | None = None
) -> CoSimResult:
    """``replay_point`` of ``log`` into a :class:`PerTransactionEmulator`.

    The replay driver re-issues every protocol message and data
    segment; the emulator then takes each access on its own.  A fault
    ``spec`` interposes the same injector ``replay`` would, keyed the
    same way.  ``emulator`` is left holding the run's final state.
    """
    if emulator.strict and (spec is None or not spec.touches_bus):
        # A strict, bare emulator would take the one-call emulate_stream
        # path; a checkpoint observer that never comes due keeps it on
        # the per-event loop.
        with tempfile.TemporaryDirectory() as scratch:
            return replay_point(
                log,
                emulator,
                spec=spec,
                audit="off",
                checkpoint_every=1 << 62,
                checkpoint_path=os.path.join(scratch, "never-due.ckpt"),
            )
    return replay_point(log, emulator, spec=spec, audit="off")
