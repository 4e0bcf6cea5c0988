"""SoftSDV facade: the full-system-simulator side of the platform.

SoftSDV "provides functional models that can boot real BIOS, unmodified
versions of an OS" and, in DEX mode, natively executes guest code
(Section 3.2).  Our facade models the pieces that matter to the memory
study:

* *boot* — a burst of non-workload traffic before the emulation window
  opens (BIOS/OS activity Dragonhead must ignore);
* *guest workloads* — per-thread memory-trace streams produced either
  by the instrumented mining kernels or by the calibrated synthetic
  models;
* *MP-on-UP scheduling* — delegated to :class:`~repro.core.dex.DEXScheduler`.

The paper's platform scales "from 1 to 32" virtual cores on a DP host;
:meth:`SoftSDV.run_workload` accepts any core count and raises above the
platform's 64-hardware-thread limit noted in Section 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.dex import DEXScheduler, VirtualCore
from repro.core.fsb import FrontSideBus
from repro.errors import ConfigurationError
from repro.trace.stream import TraceStream

#: "This enables the OS to be booted and workloads to be run in
#: multi-core environments with up to 64 HW threads." (Section 3.2)
MAX_HW_THREADS = 64


@dataclass(frozen=True)
class GuestWorkload:
    """A guest application, as SoftSDV sees it.

    Attributes:
        name: workload label (e.g. ``"FIMI"``).
        thread_streams: factory mapping a thread count to one trace
            stream per thread.  Implementations come from
            :mod:`repro.workloads` (instrumented kernels or synthetic
            models).
        instructions_per_access: retired instructions per memory
            transaction (the reciprocal of the memory-instruction
            fraction in Table 2).  A sequence gives per-core values —
            multiprogrammed mixes run different workloads on different
            cores.
        nominal_cpi: guest cycles per instruction used for the emulated
            clock.
    """

    name: str
    thread_streams: Callable[[int], list[TraceStream]]
    instructions_per_access: float | Sequence[float] = 2.0
    nominal_cpi: float = 1.0

    def instruction_ratio(self, core: int) -> float:
        """Instructions per access for ``core``."""
        if isinstance(self.instructions_per_access, (int, float)):
            return float(self.instructions_per_access)
        return float(self.instructions_per_access[core])


class SoftSDV:
    """Execution-driven full-system simulator facade."""

    def __init__(
        self,
        bus: FrontSideBus,
        quantum: int = 4096,
        boot_noise_accesses: int = 8192,
        frequency_hz: float = 3e9,
    ) -> None:
        self.bus = bus
        self.quantum = quantum
        self.boot_noise_accesses = boot_noise_accesses
        self.frequency_hz = frequency_hz
        self.booted = False

    def boot(self) -> None:
        """Model BIOS + OS boot: pre-window bus traffic only."""
        self.booted = True

    def run_workload(self, workload: GuestWorkload, cores: int) -> DEXScheduler:
        """Launch ``workload`` with one guest thread per virtual core.

        Returns the scheduler after it has run to completion; its
        counters give the simulated-time denominators.
        """
        if not self.booted:
            self.boot()
        if not 1 <= cores <= MAX_HW_THREADS:
            raise ConfigurationError(
                f"SoftSDV DEX supports 1-{MAX_HW_THREADS} hardware threads, got {cores}"
            )
        streams = workload.thread_streams(cores)
        if len(streams) != cores:
            raise ConfigurationError(
                f"workload {workload.name!r} produced {len(streams)} streams "
                f"for {cores} cores"
            )
        virtual_cores = [
            VirtualCore(
                core_id=i,
                stream=stream,
                instructions_per_access=workload.instruction_ratio(i),
            )
            for i, stream in enumerate(streams)
        ]
        scheduler = DEXScheduler(
            bus=self.bus,
            cores=virtual_cores,
            quantum=self.quantum,
            cycles_per_instruction=workload.nominal_cpi,
            frequency_hz=self.frequency_hz,
            os_noise_accesses=self.boot_noise_accesses,
        )
        scheduler.run()
        return scheduler
