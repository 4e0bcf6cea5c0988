"""Hardware-software co-simulation: SoftSDV driving Dragonhead.

Section 3.3: "We use a new co-simulation methodology to run SoftSDV in
DEX mode while enabling it to drive a performance model through
integrated Dragonhead emulation."  The wiring is the front-side bus:
SoftSDV issues guest transactions and protocol messages on the FSB; the
Dragonhead emulator snoops them.

:class:`CoSimPlatform` assembles the three pieces and exposes one call,
:meth:`run`, which executes a workload to completion on a chosen core
count and returns the emulator's performance data, instruction-
synchronized the way the real platform computes MPKI.  ``run`` is
capture + replay: SoftSDV drives a recording snooper (the AF's front
half) once, and the captured stream drives the emulator through
:func:`repro.harness.replay.replay_point`, the body every replay runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.report import AuditReport
from repro.cache.emulator import DragonheadConfig, DragonheadEmulator, PerformanceData
from repro.cache.stats import CacheStats
from repro.core.fsb import FrontSideBus
from repro.cache.sampling import WindowSample
from repro.core.softsdv import GuestWorkload, SoftSDV
from repro.faults.report import DegradationRecord
from repro.faults.spec import FaultSpec


@dataclass(frozen=True)
class CoSimResult:
    """Outcome of one co-simulated run."""

    workload: str
    cores: int
    performance: PerformanceData
    instructions: int
    accesses: int
    filtered: int
    #: Injected faults plus recovered anomalies for this run; empty on
    #: a strict, fault-free run (the common case).
    degradation: tuple[DegradationRecord, ...] = ()
    #: End-of-run invariant audit; None when auditing was off.
    audit: AuditReport | None = None

    @property
    def llc_stats(self) -> CacheStats:
        return self.performance.stats

    @property
    def mpki(self) -> float:
        """Shared-LLC misses per 1000 instructions (the figures' metric)."""
        return self.performance.mpki

    @property
    def samples(self) -> list[WindowSample]:
        """Per-500 µs window statistics, as the host reads from CB."""
        return self.performance.samples

    @property
    def degraded(self) -> bool:
        """Whether anything was injected into or recovered during the run."""
        return bool(self.degradation)


class CoSimPlatform:
    """A complete co-simulation platform instance.

    Create one per (cache configuration, run): like the hardware, the
    emulator's cache state and counters belong to a single experiment.

    ``strict=False`` puts the emulator in lenient resync mode, and
    ``fault_spec`` interposes a :class:`~repro.faults.injector.FaultInjector`
    in front of the emulator's snoop port — together they model the
    paper's real operating point: a lossy channel in front of a filter
    built to survive it.

    :meth:`run` splits the pipeline at the AF FPGA: the simulator side
    runs once into a :class:`~repro.harness.replay.ReplayLog`, which
    then drives :attr:`emulator` through the same body
    :func:`~repro.harness.replay.replay` runs — one execution path, so
    a run and a replay of the same point are byte-identical.
    :attr:`bus` and :attr:`softsdv` stay wired to the bare emulator for
    callers that drive the platform by hand.
    """

    def __init__(
        self,
        dragonhead: DragonheadConfig,
        quantum: int = 4096,
        boot_noise_accesses: int = 8192,
        strict: bool = True,
        fault_spec: FaultSpec | None = None,
    ) -> None:
        self.fault_spec = fault_spec
        self.bus = FrontSideBus()
        self.emulator = DragonheadEmulator(dragonhead, strict=strict)
        self.bus.attach(self.emulator)
        self.softsdv = SoftSDV(
            self.bus, quantum=quantum, boot_noise_accesses=boot_noise_accesses
        )

    def run(
        self,
        workload: GuestWorkload,
        cores: int,
        *,
        checkpoint_every: int | None = None,
        checkpoint_path: str | None = None,
        resume_from: str | None = None,
        audit: str | None = None,
    ) -> CoSimResult:
        """Run ``workload`` to completion on ``cores`` virtual cores.

        Args:
            checkpoint_every: snapshot the emulator every N replayed
                data transactions (at the next replay event boundary).
                Requires ``checkpoint_path``.
            checkpoint_path: where snapshots go (atomic write-rename;
                removed once the run completes).  Defaults to
                ``resume_from`` when only that is given.
            resume_from: resume from this snapshot if it exists; the
                simulator side is re-captured (it is deterministic) and
                the resumed run is bit-identical to an uninterrupted
                one.  A missing file starts from scratch (first attempt
                of a supervised point); a damaged or mismatched one
                raises :class:`CheckpointError`.
            audit: ``"off"``/``"sample"``/``"full"`` end-of-run
                invariant audit; None reads ``$REPRO_AUDIT``.
                Violations raise :class:`AuditError` in strict mode and
                become ``audit``-source degradation records in lenient
                mode.
        """
        # Imported here: the replay engine sits above this module and
        # imports CoSimResult from it.
        from repro.harness.replay import load_or_capture, replay_point

        log, _ = load_or_capture(
            workload, cores, self.softsdv.quantum, self.softsdv.boot_noise_accesses
        )
        return replay_point(
            log,
            self.emulator,
            spec=self.fault_spec,
            audit=audit,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
        )


def cosim_cache_sweep(
    workload: GuestWorkload,
    cores: int,
    cache_sizes: list[int],
    line_size: int = 64,
    quantum: int = 4096,
) -> list[tuple[int, float]]:
    """Run one co-simulation per cache size; returns (size, MPKI) pairs.

    This is the exact-path analog of the Figure 4-6 sweeps, usable at
    the reduced scales the instrumented kernels execute at.  The
    simulator side (trace generation, DEX scheduling, protocol
    encoding) runs once; each size then replays the captured stream
    through a fresh emulator — field-for-field identical to giving each
    size its own platform (``tests/test_harness_replay.py``), minus the
    N-1 redundant generation passes.
    """
    # Imported here: the replay engine sits above this module and
    # imports CoSimResult from it.
    from repro.harness.replay import capture_replay_log, replay

    log = capture_replay_log(workload, cores, quantum=quantum)
    results: list[tuple[int, float]] = []
    for size in cache_sizes:
        config = DragonheadConfig(cache_size=size, line_size=line_size)
        results.append((size, replay(log, config).mpki))
    return results
