"""The bus-driven reference every execution route must reproduce.

SoftSDV on a :class:`~repro.core.fsb.FrontSideBus` driving a bare strict
:class:`~repro.cache.emulator.DragonheadEmulator` — the Section 3.3
composition with no capture log in between.  ``CoSimPlatform.run``,
``replay`` and every sweep route go through capture + replay; this
reference does not, so a differential against it stays independent of
the code under test.
"""

from __future__ import annotations

from repro.cache.emulator import DragonheadConfig, DragonheadEmulator
from repro.core.cosim import CoSimResult
from repro.core.fsb import FrontSideBus
from repro.core.softsdv import GuestWorkload, SoftSDV
from repro.faults.report import collect_run_degradation


def bus_driven_run(
    guest: GuestWorkload,
    cores: int,
    config: DragonheadConfig,
    quantum: int = 4096,
    boot_noise_accesses: int = 8192,
) -> CoSimResult:
    """One strict, unaudited run with the emulator snooping a live bus."""
    bus = FrontSideBus()
    emulator = DragonheadEmulator(config)
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
