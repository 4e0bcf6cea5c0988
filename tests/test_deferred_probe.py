"""The deferred bank probe against the per-transaction reference.

``DragonheadEmulator`` queues window-gated data and the progress
reports behind it, and probes the CC banks once per flush.  Each case
here drives a deferred emulator and a
:class:`~tests.bus_reference.PerTransactionEmulator` (every access on
its own, probed at once) with the same traffic, then requires the same
result field for field and the same final directory in every bank.
The cases are the edges of the deferral: sessions longer than the
flush bound, checkpoints cut with data queued, scalar accesses and
lenient resynchronizations behind queued data, window interpolation
across a flush, and a statistics reset mid-stream.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.cache.emulator as emulator_module
import repro.harness.replay as replay_module
from repro.cache.emulator import DragonheadConfig, DragonheadEmulator
from repro.checkpoint import write_snapshot
from repro.core.fsb import FSBTransaction
from repro.faults.spec import parse_fault_spec
from repro.harness.replay import capture_replay_log, replay_point
from repro.protocol import Message, MessageCodec, MessageKind
from repro.serve.jobspec import BOOT_NOISE_ACCESSES, JobSpec
from repro.trace.record import AccessKind, TraceChunk
from repro.units import MB
from tests.bus_reference import PerTransactionEmulator, per_transaction_replay

CONFIG = DragonheadConfig(cache_size=1 * MB, line_size=64)

#: 100 MHz x 500 µs: the default CB window width in cycles.
WINDOW = 50_000

FAULTS = parse_fault_spec(
    "seed=7,drop-data=0.002,dup-data=0.002,drop-msg=0.02,"
    "reorder-msg=0.02,miss-window=0.3"
)


class SimulatedKill(BaseException):
    """Stands in for SIGKILL: not an Exception, so nothing catches it."""


def capture(accesses: int):
    spec = JobSpec(
        workload="FIMI",
        cores=2,
        cache=(CONFIG.cache_size,),
        quantum=512,
        source="synthetic",
        accesses=accesses,
    )
    return capture_replay_log(spec.build_guest(), 2, 512, BOOT_NOISE_ACCESSES)


def bank_states(emulator: DragonheadEmulator) -> list[dict]:
    return [bank.state_dict() for bank in emulator.banks]


def assert_same_banks(deferred: DragonheadEmulator, reference: DragonheadEmulator) -> None:
    for mine, theirs in zip(bank_states(deferred), bank_states(reference)):
        assert mine["stats"] == theirs["stats"]
        for name in ("lengths", "tags"):
            np.testing.assert_array_equal(mine["policy"][name], theirs["policy"][name])


def count_flushes(monkeypatch) -> list[int]:
    """Record the size of every bank probe the deferred emulator makes."""
    sizes: list[int] = []
    probe = DragonheadEmulator._banked_probe

    def spy(emulator, lines, kinds, cores):
        sizes.append(len(lines))
        return probe(emulator, lines, kinds, cores)

    monkeypatch.setattr(DragonheadEmulator, "_banked_probe", spy)
    return sizes


# -- replayed sessions ---------------------------------------------------


@pytest.fixture(scope="module")
def long_log():
    log = capture(140_000)
    assert log.accesses > emulator_module._FLUSH_BOUND
    return log


@pytest.fixture(scope="module")
def long_references(long_log):
    """Per-transaction results (and emulators) of the long session."""
    references = {}
    for lenient in (False, True):
        emulator = PerTransactionEmulator(CONFIG, strict=not lenient)
        spec = FAULTS if lenient else None
        references[lenient] = (
            per_transaction_replay(long_log, emulator, spec=spec),
            emulator,
        )
    return references


@pytest.mark.parametrize("lenient", (False, True), ids=("strict", "lenient"))
@pytest.mark.parametrize("bound", ("default", 4096))
def test_session_longer_than_the_flush_bound(
    long_log, long_references, lenient, bound, monkeypatch, tmp_path
):
    if bound != "default":
        monkeypatch.setattr(emulator_module, "_FLUSH_BOUND", bound)
    flushes = count_flushes(monkeypatch)
    emulator = DragonheadEmulator(CONFIG, strict=not lenient)
    if lenient:
        result = replay_point(long_log, emulator, spec=FAULTS, audit="off")
    else:
        # A checkpoint observer that never comes due keeps a strict
        # emulator on the per-event loop.
        result = replay_point(
            long_log,
            emulator,
            audit="off",
            checkpoint_every=1 << 62,
            checkpoint_path=str(tmp_path / "never-due.ckpt"),
        )
    reference, reference_emulator = long_references[lenient]
    bound_value = emulator_module._FLUSH_BOUND
    # Every flush but the session's last is the first chunk to reach
    # the bound (a chunk is at most one DEX slice, duplicates aside).
    assert len(flushes) > 1
    assert all(
        bound_value <= size < bound_value + 2 * long_log.quantum
        for size in flushes[:-1]
    )
    assert result == reference
    assert_same_banks(emulator, reference_emulator)


@pytest.mark.parametrize("lenient", (False, True), ids=("strict", "lenient"))
def test_checkpoint_cut_with_data_pending_resumes(lenient, monkeypatch, tmp_path):
    log = capture(6000)
    reference_emulator = PerTransactionEmulator(CONFIG, strict=not lenient)
    reference = per_transaction_replay(log, reference_emulator)

    queued_at_cut: list[int] = []
    state_dict = DragonheadEmulator.state_dict

    def recording(emulator):
        queued_at_cut.append(emulator._pending_count)
        return state_dict(emulator)

    def dying(snapshot_path, state, identity):
        write_snapshot(snapshot_path, state, identity)
        raise SimulatedKill()

    path = str(tmp_path / "run.ckpt")
    monkeypatch.setattr(DragonheadEmulator, "state_dict", recording)
    monkeypatch.setattr(replay_module, "write_snapshot", dying)
    with pytest.raises(SimulatedKill):
        replay_point(
            log,
            DragonheadEmulator(CONFIG, strict=not lenient),
            audit="off",
            checkpoint_every=2048,
            checkpoint_path=path,
        )
    monkeypatch.setattr(replay_module, "write_snapshot", write_snapshot)
    assert queued_at_cut and queued_at_cut[0] > 0
    resumed_emulator = DragonheadEmulator(CONFIG, strict=not lenient)
    resumed = replay_point(
        log,
        resumed_emulator,
        audit="off",
        checkpoint_every=2048,
        resume_from=path,
    )
    uninterrupted = replay_point(
        log, DragonheadEmulator(CONFIG, strict=not lenient), audit="off"
    )
    assert resumed == reference
    assert uninterrupted == reference
    assert_same_banks(resumed_emulator, reference_emulator)


# -- hand-driven sessions ------------------------------------------------


def chunk(seed: int, length: int = 600) -> TraceChunk:
    """Random lines over twice the 1 MB cache: hits, misses, evictions."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 2 * CONFIG.cache_size // CONFIG.line_size, size=length)
    return TraceChunk(
        lines.astype(np.uint64) * np.uint64(CONFIG.line_size),
        rng.integers(0, 2, size=length).astype(np.uint8),
    )


def send(emulator, kind: MessageKind, payload: int = 0) -> None:
    for address in MessageCodec.encode(Message(kind, payload)):
        emulator.snoop(FSBTransaction(address=address, kind=AccessKind.WRITE))


def progress(emulator, instructions: int, cycles: int) -> None:
    send(emulator, MessageKind.INSTRUCTIONS_RETIRED, instructions)
    send(emulator, MessageKind.CYCLES_COMPLETED, cycles)


def run_both(script, strict: bool):
    """Drive a deferred and a per-transaction emulator with ``script``.

    ``script(emulator, queued)`` issues the traffic; it calls
    ``queued()`` where the deferred emulator must be holding data.
    """
    emulators = []
    for cls in (DragonheadEmulator, PerTransactionEmulator):
        emulator = cls(CONFIG, strict=strict)

        def queued(emulator=emulator) -> None:
            if type(emulator) is DragonheadEmulator:
                assert emulator._pending_count > 0

        script(emulator, queued)
        emulators.append(emulator)
    deferred, reference = emulators
    assert deferred.read_performance_data() == reference.read_performance_data()
    assert_same_banks(deferred, reference)
    return deferred


@pytest.mark.parametrize("strict", (True, False), ids=("strict", "lenient"))
def test_single_transaction_after_pending_chunks(strict):
    def script(emulator, queued):
        send(emulator, MessageKind.START_EMULATION)
        send(emulator, MessageKind.CORE_ID, 1)
        emulator.snoop_chunk(chunk(1))
        progress(emulator, 1_000, 30_000)
        emulator.snoop_chunk(chunk(2))
        queued()
        # Re-touch a line the queued chunks hold: its hit depends on
        # the queue being probed first.
        address = int(chunk(2).addresses[-1])
        emulator.snoop(FSBTransaction(address=address, kind=AccessKind.READ))
        emulator.snoop_chunk(chunk(3))
        progress(emulator, 2_000, 60_000)
        send(emulator, MessageKind.STOP_EMULATION)

    run_both(script, strict)


@pytest.mark.parametrize("strict", (True, False), ids=("strict", "lenient"))
def test_back_to_back_sessions_with_data_pending(strict):
    def script(emulator, queued):
        send(emulator, MessageKind.START_EMULATION)
        emulator.snoop_chunk(chunk(22))
        progress(emulator, 2_000, 120_000)
        emulator.snoop_chunk(chunk(23))
        send(emulator, MessageKind.STOP_EMULATION)
        queued()
        # The next session's counters restart from zero.
        send(emulator, MessageKind.START_EMULATION)
        emulator.snoop_chunk(chunk(24))
        progress(emulator, 1_000, 30_000)
        emulator.snoop_chunk(chunk(25))
        progress(emulator, 4_000, 180_000)
        send(emulator, MessageKind.STOP_EMULATION)

    run_both(script, strict)


def orphan_stop(emulator, queued):
    send(emulator, MessageKind.START_EMULATION)
    emulator.snoop_chunk(chunk(4))
    progress(emulator, 500, 20_000)
    send(emulator, MessageKind.STOP_EMULATION)
    queued()
    send(emulator, MessageKind.STOP_EMULATION)  # orphan: dropped
    emulator.snoop_chunk(chunk(5))  # outside the window: filtered
    send(emulator, MessageKind.START_EMULATION)
    emulator.snoop_chunk(chunk(6))
    progress(emulator, 800, 70_000)
    send(emulator, MessageKind.STOP_EMULATION)


def spurious_start(emulator, queued):
    send(emulator, MessageKind.START_EMULATION)
    emulator.snoop_chunk(chunk(7))
    progress(emulator, 700, 45_000)
    emulator.snoop_chunk(chunk(8))
    queued()
    send(emulator, MessageKind.START_EMULATION)  # the STOP was lost
    emulator.snoop_chunk(chunk(9))
    progress(emulator, 1_400, 90_000)
    send(emulator, MessageKind.STOP_EMULATION)


def dropped_core_id(emulator, queued):
    send(emulator, MessageKind.START_EMULATION)
    send(emulator, MessageKind.CORE_ID, 2)
    emulator.snoop_chunk(chunk(10))
    queued()
    # CORE_ID 3 was lost: the next slice is tagged with core 2.
    emulator.snoop_chunk(chunk(11))
    progress(emulator, 900, 55_000)
    send(emulator, MessageKind.CORE_ID, 0)
    emulator.snoop_chunk(chunk(12))
    progress(emulator, 600, 40_000)  # reordered: counters keep their marks
    progress(emulator, 1_800, 110_000)
    send(emulator, MessageKind.STOP_EMULATION)


@pytest.mark.parametrize(
    "script", (orphan_stop, spurious_start, dropped_core_id), ids=lambda s: s.__name__
)
def test_lenient_resynchronization_with_data_pending(script):
    deferred = run_both(script, strict=False)
    assert deferred.af.anomalies


def test_window_interpolation_across_a_flush(monkeypatch):
    monkeypatch.setattr(emulator_module, "_FLUSH_BOUND", 1000)
    flushes = count_flushes(monkeypatch)

    def script(emulator, queued):
        send(emulator, MessageKind.START_EMULATION)
        emulator.snoop_chunk(chunk(13))
        progress(emulator, 1_000, 40_000)
        queued()
        emulator.snoop_chunk(chunk(14))  # reaches the bound: flush
        emulator.snoop_chunk(chunk(15))
        # One report across five window boundaries (missed host reads),
        # queued behind data and applied at the next flush.
        progress(emulator, 6_000, 5 * WINDOW + 10_000)
        queued()
        emulator.snoop_chunk(chunk(16))  # flush
        emulator.snoop_chunk(chunk(17))
        progress(emulator, 9_000, 8 * WINDOW + 1)
        send(emulator, MessageKind.STOP_EMULATION)

    deferred = run_both(script, strict=False)
    assert len(flushes) >= 3
    assert deferred.sampler.interpolated_windows > 0


@pytest.mark.parametrize("strict", (True, False), ids=("strict", "lenient"))
def test_reset_statistics_mid_stream(strict):
    def script(emulator, queued):
        send(emulator, MessageKind.START_EMULATION)
        emulator.snoop_chunk(chunk(18))
        progress(emulator, 1_000, 60_000)
        emulator.snoop_chunk(chunk(19))
        queued()
        emulator.reset_statistics()  # the warm-up ends here
        emulator.snoop_chunk(chunk(20))
        progress(emulator, 2_000, 120_000)
        emulator.snoop_chunk(chunk(21))
        progress(emulator, 3_000, 170_000)
        send(emulator, MessageKind.STOP_EMULATION)

    deferred = run_both(script, strict)
    # The queued chunk 19 is counted before the reset clears it.
    assert deferred.stats.accesses == 2 * 600
