"""DEX: direct-execution scheduling of virtual cores.

SoftSDV's DEX mode runs guest code natively and "schedule[s] MP
workloads on a UP system by time slicing the processor execution and
exposing it as an MP system to the OS" (Section 3.2).  During each time
slice Dragonhead "is aware of the core ID that is being run natively in
that time slot", because SoftSDV sends a CORE_ID message at every slice
switch (Section 3.3).

:class:`DEXScheduler` reproduces this: it owns one
:class:`VirtualCore` per simulated core, rotates through them in fixed
quanta, and brackets the run with START/STOP emulation messages.  It
also emits INSTRUCTIONS_RETIRED and CYCLES_COMPLETED messages so the
emulator can compute instruction- and time-synchronized statistics, and
optionally injects host-OS noise traffic *outside* the emulation window
to demonstrate the AF's filtering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fsb import FrontSideBus, FSBTransaction
from repro.protocol import Message, MessageCodec, MessageKind
from repro.errors import ConfigurationError
from repro.telemetry import runtime as telemetry
from repro.trace.record import AccessKind, TraceChunk
from repro.trace.stream import StreamCursor, TraceStream


@dataclass
class VirtualCore:
    """One simulated core: a core id plus its thread's memory trace.

    ``instructions_per_access`` converts transaction counts into retired
    instructions (a workload with 50% memory instructions retires two
    instructions per memory transaction).
    """

    core_id: int
    stream: TraceStream
    instructions_per_access: float = 2.0

    def __post_init__(self) -> None:
        if self.instructions_per_access < 1.0:
            raise ConfigurationError(
                "instructions_per_access must be >= 1 (every access is an instruction), "
                f"got {self.instructions_per_access}"
            )


class DEXScheduler:
    """Round-robin time-slice scheduler driving the front-side bus.

    Args:
        bus: the FSB both the guest traffic and the protocol messages go
            out on.
        cores: the virtual cores, in core-id order.
        quantum: transactions issued per time slice.  The real platform
            slices on timer interrupts; transaction count is the
            deterministic analog.
        cycles_per_instruction: nominal guest CPI used to synthesize the
            cycles-completed counter (the emulated time domain).
        frequency_hz: nominal guest clock, fixing the cycle↔time scale.
        os_noise_accesses: host/OS transactions issued *before* START
            and *after* STOP, which the emulator must filter out.
    """

    def __init__(
        self,
        bus: FrontSideBus,
        cores: list[VirtualCore],
        quantum: int = 4096,
        cycles_per_instruction: float = 1.0,
        frequency_hz: float = 3e9,
        os_noise_accesses: int = 0,
        noise_seed: int = 12345,
    ) -> None:
        if not cores:
            raise ConfigurationError("DEXScheduler needs at least one virtual core")
        if quantum <= 0:
            raise ConfigurationError(f"quantum must be positive, got {quantum}")
        ids = [c.core_id for c in cores]
        if ids != sorted(set(ids)):
            raise ConfigurationError(f"virtual core ids must be unique and sorted, got {ids}")
        self.bus = bus
        self.cores = cores
        self.quantum = quantum
        self.cycles_per_instruction = cycles_per_instruction
        self.frequency_hz = frequency_hz
        self.os_noise_accesses = os_noise_accesses
        self._noise_rng = np.random.default_rng(noise_seed)
        self.instructions_retired = 0
        self.cycles_completed = 0
        self.slices_executed = 0
        self.transactions_issued = 0

    # -- protocol helpers ---------------------------------------------------

    def _send(self, message: Message) -> None:
        for address in MessageCodec.encode(message):
            self.bus.issue(FSBTransaction(address=address, kind=AccessKind.WRITE))

    def _send_progress(self) -> None:
        self._send(Message(MessageKind.INSTRUCTIONS_RETIRED, self.instructions_retired))
        self._send(Message(MessageKind.CYCLES_COMPLETED, self.cycles_completed))

    def _issue_noise(self) -> None:
        """Host-OS traffic outside the emulation window (to be filtered)."""
        if self.os_noise_accesses <= 0:
            return
        addresses = self._noise_rng.integers(
            0x7000_0000, 0x7800_0000, size=self.os_noise_accesses, dtype=np.uint64
        )
        self.bus.issue_chunk(TraceChunk(addresses))

    # -- the run loop ----------------------------------------------------------

    def run(self) -> None:
        """Execute all virtual cores to completion.

        Emits: noise, START, then per slice [CORE_ID, data chunk,
        INSTRUCTIONS_RETIRED, CYCLES_COMPLETED], then STOP, then noise —
        the full Section 3.3 protocol.
        """
        self._issue_noise()
        self._send(Message(MessageKind.START_EMULATION))
        cursors = {core.core_id: StreamCursor(core.stream) for core in self.cores}
        by_id = {core.core_id: core for core in self.cores}
        active = [core.core_id for core in self.cores]
        rounds = 0
        slices_before = self.slices_executed
        transactions_before = self.transactions_issued
        while active:
            rounds += 1
            still_active: list[int] = []
            for core_id in active:
                piece = cursors[core_id].take(self.quantum)
                if len(piece):
                    self.transactions_issued += len(piece)
                    self._send(Message(MessageKind.CORE_ID, core_id))
                    self.bus.issue_chunk(piece.with_core(core_id))
                    self.slices_executed += 1
                    instructions = int(
                        len(piece) * by_id[core_id].instructions_per_access
                    )
                    self.instructions_retired += instructions
                    self.cycles_completed += int(
                        instructions * self.cycles_per_instruction
                    )
                    self._send_progress()
                if not cursors[core_id].done or len(piece) == self.quantum:
                    still_active.append(core_id)
            active = still_active
        self._send(Message(MessageKind.STOP_EMULATION))
        self._issue_noise()
        if telemetry.enabled():
            # Totals published once per run, outside the slice loop, so
            # the instrumented path adds nothing to the per-slice cost.
            telemetry.counter("repro_dex_rounds_total").inc(rounds)
            telemetry.counter("repro_dex_slices_total").inc(
                self.slices_executed - slices_before
            )
            telemetry.counter("repro_dex_transactions_total").inc(
                self.transactions_issued - transactions_before
            )

    @property
    def elapsed_seconds(self) -> float:
        """Guest time elapsed, from the synthesized cycle counter."""
        return self.cycles_completed / self.frequency_hz
