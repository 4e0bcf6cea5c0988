"""Benchmarks: the multi-config replay engine vs the per-config loop.

The engine's acceptance bar: a ≥7-configuration cache-size sweep
through :func:`repro.harness.replay.replay_sweep` must beat the
per-config loop — one full simulator pass (trace generation, DEX
scheduling, protocol encode, emulation) per size, which is what
``cosim_cache_sweep`` did before it was rebuilt on the engine — by
≥5x wall-clock.  That loop lives inline here now, as the measurement
baseline.  The measured ratio — plus the engine's capture/replay
throughput — is recorded into ``BENCH_cosim.json`` by the emitter in
``conftest.py``.
"""

from __future__ import annotations

import time

from repro.cache.emulator import DragonheadEmulator
from repro.core.fsb import FrontSideBus
from repro.core.softsdv import SoftSDV
from repro.harness.replay import capture_replay_log, replay, size_sweep_configs
from repro.trace.cache import TraceCache
from repro.units import MB
from repro.workloads.registry import get_workload

#: Eight doubling sizes, 1 MB-128 MB — the Figure 4-6 style design
#: space (and ≥7 configurations, per the acceptance criterion).
SWEEP_SIZES = [(1 << i) * MB for i in range(8)]

WORKLOAD = "FIMI"
CORES = 4


def _run_baseline() -> float:
    guest = get_workload(WORKLOAD).kernel_guest()
    start = time.perf_counter()
    for config in size_sweep_configs(SWEEP_SIZES):
        # SoftSDV drives the emulator over a live bus, once per size.
        bus = FrontSideBus()
        emulator = DragonheadEmulator(config)
        bus.attach(emulator)
        SoftSDV(bus).run_workload(guest, CORES)
        emulator.read_performance_data()
    return time.perf_counter() - start


def _run_engine() -> tuple[float, int]:
    guest = get_workload(WORKLOAD).kernel_guest()
    configs = size_sweep_configs(SWEEP_SIZES)
    start = time.perf_counter()
    log = capture_replay_log(guest, CORES)
    for config in configs:
        replay(log, config)
    return time.perf_counter() - start, log.accesses


def test_replay_engine_speedup_over_per_config_loop(bench_record):
    """The tentpole bar: ≥5x on a ≥7-point cache-size sweep.

    Both sides run the same workload, cores, and sizes; best-of-3
    timings on each side keep scheduler noise out of the ratio.  The
    equivalence of the two result sets is proven field-for-field by
    ``tests/test_harness_replay.py`` — this test measures only time.
    """
    engine_time, accesses = min(_run_engine() for _ in range(3))
    baseline_time = min(_run_baseline() for _ in range(3))
    speedup = baseline_time / engine_time
    bench_record(
        "replay_engine",
        workload=WORKLOAD,
        cores=CORES,
        configs=len(SWEEP_SIZES),
        accesses_per_pass=accesses,
        baseline_seconds=round(baseline_time, 4),
        engine_seconds=round(engine_time, 4),
        speedup=round(speedup, 2),
    )
    assert speedup >= 5.0, (
        f"replay engine speedup {speedup:.2f}x < 5x "
        f"(baseline {baseline_time:.3f}s, engine {engine_time:.3f}s)"
    )


def test_warm_trace_cache_sweep(tmp_path, bench_record):
    """With a warm cache the sweep skips generation entirely."""
    cache = TraceCache(tmp_path)
    from repro.harness.replay import replay_sweep

    guest = get_workload(WORKLOAD).kernel_guest()
    configs = size_sweep_configs(SWEEP_SIZES)
    replay_sweep(guest, CORES, configs, trace_cache=cache)  # populate
    assert cache.stats.stores == 1

    start = time.perf_counter()
    warm = replay_sweep(
        get_workload(WORKLOAD).kernel_guest(), CORES, configs, trace_cache=cache
    )
    warm_time = time.perf_counter() - start
    assert cache.stats.hits == 1
    assert len(warm) == len(configs)
    bench_record("replay_engine", warm_sweep_seconds=round(warm_time, 4))


def test_cosim_end_to_end_rate(bench_record):
    """The batched hot path clears the ≥10x acceptance floor.

    The pre-batching history entry recorded ``cosim_throughput`` at
    ~170k accesses/s (a full per-message single-config run); the bar
    for the batched pipeline is ≥10x that, i.e. ≥1.8M accesses/s on a
    warm replay.  Capture a ~1M-access synthetic stream once, then time
    the batched replay (one ``emulate_stream`` pass: vectorized bank
    routing, one probe batch per bank, searchsorted window
    aggregation).  ``accesses_per_second`` is the gated history metric;
    the per-event message-loop rate on the same log rides along as
    ungated context for the in-run comparison.
    """
    from repro.cache.emulator import DragonheadEmulator
    from repro.harness.replay import replay_into

    guest = get_workload(WORKLOAD).synthetic_guest(
        accesses_per_thread=262_144, scale=1.0
    )
    log = capture_replay_log(guest, CORES)
    config = size_sweep_configs([4 * MB])[0]
    replay(log, config)  # warm caches and allocator pools

    batched_time = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = replay(log, config)
        batched_time = min(batched_time, time.perf_counter() - start)
    rate = result.accesses / batched_time

    emulator = DragonheadEmulator(config)
    start = time.perf_counter()
    replay_into(log, emulator, on_event=lambda position: None)
    # The CB read flushes the last deferred probe: it is part of the run.
    performance = emulator.read_performance_data()
    per_event_time = time.perf_counter() - start
    per_event_rate = result.accesses / per_event_time
    assert performance == result.performance

    bench_record(
        "cosim_throughput",
        workload=WORKLOAD,
        cores=CORES,
        accesses=result.accesses,
        accesses_per_second=round(rate),
        per_event_loop_rate=round(per_event_rate),
        batch_speedup=round(rate / per_event_rate, 2),
    )
    assert rate >= 1_800_000, (
        f"batched rate {rate:,.0f}/s misses the 1.8M/s acceptance floor "
        f"(10x the pre-batching history entry)"
    )
