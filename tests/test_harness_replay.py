"""Differential tests for the multi-config replay engine.

The engine's whole value rests on one claim: replaying a captured log
into a fresh emulator produces *exactly* the statistics SoftSDV driving
that emulator on a live bus would (``tests/bus_reference.py``) — every
field, per-core splits and 500 µs window samples included.
``CoSimResult`` is a frozen dataclass tree (PerformanceData →
CacheStats → per-core dicts, WindowSample list), so one ``==`` compares
everything at once; these tests assert it across workloads, trace
sources, and cache geometries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.emulator import DragonheadConfig
from repro.cache.fastlru import _VECTOR_MIN_BATCH, FastLRUKernel
from repro.harness import cli
from repro.harness.replay import (
    EVENT_DATA,
    EVENT_PROGRESS,
    ReplayLog,
    capture_replay_log,
    load_or_capture,
    log_cache_key,
    replay,
    replay_map,
    replay_sweep,
    size_sweep_configs,
)
from repro.trace.cache import TraceCache
from repro.units import MB
from repro.workloads.registry import get_workload
from tests.bus_reference import (
    PerTransactionEmulator,
    bus_driven_run,
    per_transaction_replay,
)

#: ≥3 workloads (different mining kernels → different trace shapes).
WORKLOADS = ("FIMI", "RSEARCH", "MDS")

#: ≥3 geometries: size, line size, and associativity all vary.
GEOMETRIES = (
    DragonheadConfig(cache_size=1 * MB, line_size=64, associativity=16),
    DragonheadConfig(cache_size=4 * MB, line_size=128, associativity=8),
    DragonheadConfig(cache_size=16 * MB, line_size=256, associativity=4),
)


class TestReplayEquivalence:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_kernel_replay_equals_fresh_runs(self, name):
        workload = get_workload(name)
        log = capture_replay_log(workload.kernel_guest(), cores=4)
        for config in GEOMETRIES:
            fresh = bus_driven_run(workload.kernel_guest(), 4, config)
            replayed = replay(log, config, audit="off")
            # Dataclass equality covers instructions, accesses, filtered
            # count, hit/miss/eviction totals, the per-core dicts, and
            # every window sample.
            assert replayed == fresh, f"{name} diverged at {config}"

    def test_synthetic_replay_equals_fresh_runs(self):
        workload = get_workload("PLSA")
        guest = workload.synthetic_guest(accesses_per_thread=8192, scale=1 / 256)
        log = capture_replay_log(guest, cores=2)
        for config in GEOMETRIES:
            guest = workload.synthetic_guest(accesses_per_thread=8192, scale=1 / 256)
            fresh = bus_driven_run(guest, 2, config)
            assert replay(log, config, audit="off") == fresh

    def test_nondefault_quantum_and_noise(self):
        workload = get_workload("FIMI")
        config = DragonheadConfig(cache_size=2 * MB)
        log = capture_replay_log(
            workload.kernel_guest(), cores=4, quantum=1024, boot_noise_accesses=512
        )
        fresh = bus_driven_run(
            workload.kernel_guest(), 4, config, quantum=1024, boot_noise_accesses=512
        )
        assert replay(log, config, audit="off") == fresh

    def test_sweep_results_align_with_configs(self):
        workload = get_workload("FIMI")
        configs = size_sweep_configs([1 * MB, 4 * MB, 16 * MB])
        results = replay_sweep(workload.kernel_guest(), 4, configs)
        assert len(results) == len(configs)
        # Misses are monotonically non-increasing in cache size.
        misses = [r.llc_stats.misses for r in results]
        assert misses == sorted(misses, reverse=True)


def _adversarial_log(bulk_segments: int = 0) -> ReplayLog:
    """A hand-built log exercising the batched pipeline's edge cases.

    Single-access segments interleave with multi-thousand-access
    batches, core ids flip between adjacent one-access segments, one
    run walks consecutive lines across all four banks, and progress
    reports land one cycle short of, exactly on, and several windows
    past the 50 000-cycle boundary — including a zero-delta repeat.
    ``bulk_segments`` appends that many 2048-access segments, cores
    alternating, at the end.
    """
    rng = np.random.default_rng(31)
    addresses: list[np.ndarray] = []
    kinds: list[np.ndarray] = []
    pcs: list[np.ndarray] = []
    events: list[tuple[int, int, int]] = []
    count = 0

    def data(length: int, core: int, lines: np.ndarray | None = None) -> None:
        nonlocal count
        if lines is None:
            lines = rng.integers(0, 1 << 18, size=length)
        base = np.asarray(lines, dtype=np.uint64) * np.uint64(64)
        addresses.append(base + rng.integers(0, 64, size=length).astype(np.uint64))
        kinds.append(rng.integers(0, 2, size=length).astype(np.uint8))
        pcs.append(rng.integers(0, 1 << 40, size=length).astype(np.uint64))
        count += length
        events.append((EVENT_DATA, count, core))

    def progress(instructions: int, cycles: int) -> None:
        events.append((EVENT_PROGRESS, instructions, cycles))

    data(1, 0)  # single accesses with a core flip between them
    data(1, 1)
    data(4096, 2)  # large batch
    progress(1_000, 49_999)  # one cycle short of the first boundary
    data(1, 2)  # same core as the previous segment: no CORE_ID reissue
    progress(2_000, 50_000)  # exactly on the boundary
    data(8, 3, lines=np.arange(8))  # a run crossing all four banks
    data(2_048, 0)
    progress(9_000, 260_000)  # one report crossing four boundaries
    data(1, 1)  # rapid flips: CORE_ID chatter around single accesses
    data(1, 0)
    data(1, 1)
    data(733, 1)  # extends the open core-1 segment
    progress(9_500, 260_000)  # zero-cycle repeat: counters hold
    data(511, 2)
    progress(12_000, 312_345)
    for segment in range(bulk_segments):
        data(2_048, segment % 2)
    return ReplayLog(
        workload="ADVERSARIAL",
        cores=4,
        quantum=4096,
        boot_noise_accesses=0,
        addresses=np.concatenate(addresses),
        kinds=np.concatenate(kinds),
        pcs=np.concatenate(pcs),
        events=np.array(events, dtype=np.uint64),
        filtered=137,
        instructions=12_000,
    )


class TestAdversarialStream:
    def test_mixed_size_stream_batched_equals_per_access(self, tmp_path):
        """Field-for-field ``CoSimResult`` equality between the batched
        fast path, the per-event message loop (forced by installing a
        checkpoint observer whose interval never comes due) and the
        per-transaction reference."""
        log = _adversarial_log()
        for config in GEOMETRIES:
            batched = replay(log, config)
            per_event = replay(
                log,
                config,
                checkpoint_every=1 << 30,
                checkpoint_path=str(tmp_path / "never-due.ckpt"),
            )
            reference = per_transaction_replay(log, PerTransactionEmulator(config))
            assert batched == per_event, f"paths diverged at {config}"
            assert batched == reference, f"paths diverged at {config}"

    def test_numpy_bank_probes_equal_per_access(self, monkeypatch):
        """The same differential with per-bank batches past the numpy
        path's threshold: the batched run probes each bank once with
        the whole stream (numpy path), the per-transaction reference
        probes every access on its own (scalar ``access_line``)."""
        log = _adversarial_log(bulk_segments=12)
        vectorized_calls = []
        probe = FastLRUKernel._probe_vectorized

        def spy(kernel, tags, sets):
            vectorized_calls.append(tags.size)
            return probe(kernel, tags, sets)

        monkeypatch.setattr(FastLRUKernel, "_probe_vectorized", spy)
        for config in GEOMETRIES:
            vectorized_calls.clear()
            batched = replay(log, config)
            assert len(vectorized_calls) == 4, "every bank should take the numpy path"
            assert min(vectorized_calls) >= _VECTOR_MIN_BATCH
            vectorized_calls.clear()
            reference = per_transaction_replay(log, PerTransactionEmulator(config))
            assert not vectorized_calls, "the reference must never batch"
            assert batched == reference, f"paths diverged at {config}"

    def test_batched_run_passes_sample_audit(self):
        """The differential LRU oracle, sampled, stays green over a
        batched run — the banks see the same access-for-access stream
        the scalar path would feed them."""
        log = _adversarial_log()
        result = replay(log, GEOMETRIES[0], audit="sample")
        assert result.audit is not None and result.audit.ok


class TestParallelFanOut:
    def test_process_fanout_matches_serial(self):
        log = capture_replay_log(get_workload("FIMI").kernel_guest(), cores=4)
        configs = size_sweep_configs([1 * MB, 2 * MB, 4 * MB, 8 * MB])
        serial = replay_map(log, configs, jobs=None)
        parallel = replay_map(log, configs, jobs=2)
        assert serial == parallel

    def test_fanout_from_cache_entry_is_memory_mapped(self, tmp_path):
        cache = TraceCache(tmp_path)
        workload = get_workload("FIMI")
        log, entry_dir = load_or_capture(
            workload.kernel_guest(), 4, trace_cache=cache
        )
        assert entry_dir is not None
        configs = size_sweep_configs([1 * MB, 4 * MB])
        from_disk = replay_map(log, configs, jobs=2, entry_dir=entry_dir)
        inline = replay_map(log, configs, jobs=None)
        assert from_disk == inline


class TestTraceCacheIntegration:
    def test_warm_cache_skips_generation(self, tmp_path):
        """Second run with the same identity never calls the workload."""
        cache = TraceCache(tmp_path)
        workload = get_workload("FIMI")
        cold, _ = load_or_capture(workload.kernel_guest(), 4, trace_cache=cache)
        assert (cache.stats.misses, cache.stats.stores) == (1, 1)

        class ExplodingGuest:
            name = workload.kernel_guest().name

            def thread_streams(self, cores):
                raise AssertionError("generation ran on a warm cache")

        warm, _ = load_or_capture(ExplodingGuest(), 4, trace_cache=cache)
        assert cache.stats.hits == 1
        assert warm.accesses == cold.accesses
        for config in (GEOMETRIES[0], GEOMETRIES[1]):
            assert replay(warm, config) == replay(cold, config)

    def test_key_separates_sources_and_parameters(self):
        base = dict(workload="FIMI", cores=4, quantum=4096, boot_noise_accesses=8192)
        kernel = log_cache_key(**base, extra={"source": "kernel"})
        synthetic = log_cache_key(
            **base, extra={"source": "synthetic", "accesses": 65536, "scale": "1/256"}
        )
        other_count = log_cache_key(
            **base, extra={"source": "synthetic", "accesses": 1024, "scale": "1/256"}
        )
        assert len({kernel, synthetic, other_count}) == 3

    def test_cli_warm_run_reports_hit(self, tmp_path, capsys):
        argv = [
            "--workload",
            "FIMI",
            "--cores",
            "2",
            "--cache",
            "1MB",
            "--trace-cache",
            str(tmp_path),
        ]
        assert cli.main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "misses=1 stores=1" in cold_out
        assert cli.main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "hits=1 misses=0 stores=0" in warm_out
        # identical readout either way, cache-counter line aside
        strip = lambda text: [
            line for line in text.splitlines() if "trace cache" not in line
        ]
        assert strip(cold_out) == strip(warm_out)

    def test_cli_sweep_over_one_captured_trace(self, tmp_path, capsys):
        argv = [
            "--workload",
            "FIMI",
            "--cores",
            "2",
            "--cache",
            "1MB,4MB",
            "--trace-cache",
            str(tmp_path),
        ]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "Cache-size sweep (2 configurations" in out
        assert "misses=1 stores=1" in out
