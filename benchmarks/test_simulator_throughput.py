"""Benchmarks: raw throughput of the simulation substrates.

Not a paper exhibit — these measure the engine itself (cache simulation
rate, stack-distance analysis rate, co-simulation end-to-end rate), the
numbers a user sizing an experiment needs.
"""

import time

import numpy as np

from repro.cache.cache import CacheConfig, FullyAssociativeLRU, SetAssociativeCache
from repro.cache.emulator import DragonheadConfig
from repro.cache.fastlru import FastLRUKernel
from repro.cache.replacement import LRUPolicy
from repro.core.cosim import CoSimPlatform
from repro.core.softsdv import GuestWorkload
from repro.reuse.olken import stack_distances
from repro.trace.generators import (
    Region,
    cyclic_scan,
    pointer_chase,
    sequential_scan,
    uniform_random,
    zipf_random,
)
from repro.trace.record import TraceChunk
from repro.trace.stream import chunk_stream
from repro.units import KB, MB

TRACE = uniform_random(
    Region(0, 8 * MB), count=50_000, rng=np.random.default_rng(99)
)

# A chunk-per-pattern stream shaped like the paper's workload models
# (repro.workloads.profiles): mostly stride-8 streaming and cyclic
# scans, with random probing and pointer chasing minorities.  Chunks
# come one pattern at a time, the way per-thread DEX slices reach the
# emulator, not statistically interleaved per access.
WORKLOAD_CHUNKS = [
    sequential_scan(Region(0, 4 * MB), count=50_000, stride=8),
    cyclic_scan(Region(0, 256 * KB), passes=2, stride=8),
    sequential_scan(Region(0, 512 * KB), count=50_000, stride=8, write_fraction=0.25),
    zipf_random(Region(0, 2 * MB), count=50_000, rng=np.random.default_rng(8)),
    uniform_random(Region(0, 8 * MB), count=50_000, rng=np.random.default_rng(7)),
    pointer_chase(Region(0, 4 * MB), count=50_000, rng=np.random.default_rng(9)),
]


def _replay_workload_chunks(force_seed_path: bool) -> tuple[float, "SetAssociativeCache"]:
    cache = SetAssociativeCache(CacheConfig(size=1 * MB, associativity=16))
    if force_seed_path:
        # The pre-fastlru configuration: list-based LRUPolicy driven by
        # the generic per-access loop.
        cache._policy = LRUPolicy(cache.config.num_sets, cache.config.associativity)
    start = time.perf_counter()
    for chunk in WORKLOAD_CHUNKS:
        cache.access_chunk(chunk)
    return time.perf_counter() - start, cache


def test_set_associative_cache_throughput(benchmark):
    def run():
        cache = SetAssociativeCache(CacheConfig(size=1 * MB, associativity=16))
        cache.access_chunk(TRACE)
        return cache.stats.misses

    misses = benchmark(run)
    assert misses > 0


def test_workload_chunk_throughput(benchmark):
    def run():
        _, cache = _replay_workload_chunks(force_seed_path=False)
        return cache.stats.misses

    misses = benchmark(run)
    assert misses > 0


def test_chunked_lru_speedup_over_seed_path():
    """The fastlru acceptance bar: ≥5× over the per-access seed path.

    Both paths replay the same workload-shaped chunk stream; best-of-3
    timings keep scheduler noise out of the ratio.  The two caches must
    also agree exactly — the speedup is only meaningful if the kernel
    is a drop-in.
    """
    fast_time, fast_cache = min(
        (_replay_workload_chunks(force_seed_path=False) for _ in range(3)),
        key=lambda pair: pair[0],
    )
    seed_time, seed_cache = min(
        (_replay_workload_chunks(force_seed_path=True) for _ in range(3)),
        key=lambda pair: pair[0],
    )
    fast, seed = fast_cache.stats, seed_cache.stats
    assert (fast.hits, fast.misses, fast.evictions) == (
        seed.hits,
        seed.misses,
        seed.evictions,
    )
    speedup = seed_time / fast_time
    assert speedup >= 5.0, f"chunked LRU speedup {speedup:.2f}x < 5x"


def _paths_agree(make_kernel, tags, sets, repeats: int = 3) -> tuple[float, float]:
    """Best-of-``repeats`` (loop, numpy) probe times of one batch.

    Each timing starts from a fresh ``make_kernel()``; the two paths
    must agree on hits, evictions and the final directory.
    """
    best = {}
    for vectorized in (False, True):
        runs = []
        for _ in range(repeats):
            kernel = make_kernel()
            start = time.perf_counter()
            result = kernel._batch(tags, sets, vectorized=vectorized)
            runs.append((time.perf_counter() - start, result, kernel.dump_state()))
        best[vectorized] = min(runs, key=lambda run: run[0])
    loop_time, loop_result, loop_state = best[False]
    numpy_time, numpy_result, numpy_state = best[True]
    assert np.array_equal(loop_result.hits, numpy_result.hits)
    assert loop_result.evictions == numpy_result.evictions
    for name in ("lengths", "tags"):
        assert np.array_equal(loop_state[name], numpy_state[name])
    return loop_time, numpy_time


def test_probe_path_crossover(bench_record):
    """Dict loop vs numpy path by batch size, from empty and carried.

    The numbers behind ``fastlru._VECTOR_MIN_BATCH`` and
    ``_VECTOR_MAX_RESIDENT_PER_ACCESS``: a zipf stream over 8 MB into a
    1 MB 16-way cache (1024 sets), batches of ``n`` distinct-neighbour
    accesses, once into an empty kernel and once into a full one
    (~16 k resident lines).  Reports the loop/numpy time ratio per
    size; asserts only that both paths agree.
    """
    num_sets, assoc = 1024, 16
    lines = zipf_random(
        Region(0, 8 * MB), count=300_000, rng=np.random.default_rng(21)
    ).lines(64)
    lines = lines[np.flatnonzero(np.diff(lines, prepend=lines[0] + 1))]
    warm = FastLRUKernel(num_sets, assoc)
    warm.lookup_batch(lines[:100_000], lines[:100_000] & np.uint64(num_sets - 1))
    warm_state = warm.dump_state()

    def carried() -> FastLRUKernel:
        kernel = FastLRUKernel(num_sets, assoc)
        kernel.load_state(warm_state)
        return kernel

    ratios = {}
    for n in (1024, 2048, 4096, 8192, 16384, 65536):
        batch = lines[100_000 : 100_000 + n]
        sets = batch & np.uint64(num_sets - 1)
        for label, make_kernel in (
            ("empty", lambda: FastLRUKernel(num_sets, assoc)),
            ("carried", carried),
        ):
            loop_time, numpy_time = _paths_agree(make_kernel, batch, sets)
            ratios[f"{label}_{n}_loop_over_numpy"] = round(loop_time / numpy_time, 2)
    bench_record("fastlru_crossover", resident=warm.resident_count(), **ratios)


def test_numpy_probe_on_adversarial_windows(bench_record):
    """Reuse patterns whose window scans would be quadratic.

    A cyclic A+1-line pattern in one set (every window holds A lines)
    and k lines re-referenced after a long two-line alternation (k
    windows of ~n/2 accesses each) push the numpy path onto its
    merge-sort dominance count.  Same-run timing against the dict loop;
    the ratio is reported, not gated.
    """
    assoc = 16
    cyclic = np.resize(np.arange(assoc + 1, dtype=np.uint64), 200_000)
    head = np.arange(2, 50_002, dtype=np.uint64)
    alternation = np.concatenate(
        [head, np.resize(np.array([0, 1], dtype=np.uint64), 100_000), head]
    )
    record = {}
    for name, tags in (("cyclic", cyclic), ("alternation", alternation)):
        loop_time, numpy_time = _paths_agree(
            lambda: FastLRUKernel(1, assoc), tags, None
        )
        record[f"{name}_loop_ms"] = round(loop_time * 1e3, 1)
        record[f"{name}_numpy_ms"] = round(numpy_time * 1e3, 1)
        record[f"{name}_loop_over_numpy"] = round(loop_time / numpy_time, 2)
    bench_record("fastlru_adversarial", **record)


def test_fully_associative_lru_throughput(benchmark):
    def run():
        cache = FullyAssociativeLRU(capacity_lines=16384)
        cache.access_chunk(TRACE)
        return cache.stats.misses

    misses = benchmark(run)
    assert misses > 0


def test_stack_distance_throughput(benchmark):
    distances = benchmark(stack_distances, TRACE[:20000], 64)
    assert len(distances) == 20000


class _SeedFenwick:
    """The pre-optimization list-based Fenwick tree, kept as the
    reference point for the stack-distance throughput floor."""

    __slots__ = ("tree", "size")

    def __init__(self, size: int) -> None:
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        tree = self.tree
        while i <= self.size:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        i = index + 1
        total = 0
        tree = self.tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total


def _seed_stack_distances(chunk, line_size=64):
    """The seed implementation: dict last-use probe plus two prefix
    sums and two point updates per access."""
    from repro.reuse.olken import COLD

    lines = chunk.lines(line_size)
    n = len(lines)
    result = np.empty(n, dtype=np.int64)
    fenwick = _SeedFenwick(n)
    last_time: dict[int, int] = {}
    for t in range(n):
        line = int(lines[t])
        previous = last_time.get(line)
        if previous is None:
            result[t] = COLD
        else:
            result[t] = fenwick.prefix_sum(t - 1) - fenwick.prefix_sum(previous)
            fenwick.add(previous, -1)
        fenwick.add(t, +1)
        last_time[line] = t
    return result


def test_stack_distance_speedup_over_seed_path(bench_record):
    """The Olken-optimization floor: ≥1.25x over the seed path.

    The optimized path precomputes previous occurrences vectorized,
    replaces the minuend prefix sum with a cumulative distinct count,
    and tracks superseded positions in a flat int64 Fenwick array (one
    walk + one update per warm access, nothing for cold ones).  It must
    return bit-identical distances, and do so measurably faster on a
    reuse-heavy trace; the ~1.9x typically measured is asserted at 1.25x
    to keep the floor loaded-machine-safe.
    """
    trace = TraceChunk.concatenate(
        [
            cyclic_scan(Region(0, 2 * MB), passes=2, stride=8)[:40_000],
            uniform_random(Region(0, 4 * MB), count=40_000, rng=np.random.default_rng(5)),
        ]
    )
    fast = stack_distances(trace, 64)
    assert np.array_equal(fast, _seed_stack_distances(trace, 64))
    fast_time = min(
        _timed(stack_distances, trace, 64) for _ in range(3)
    )
    seed_time = min(
        _timed(_seed_stack_distances, trace, 64) for _ in range(3)
    )
    speedup = seed_time / fast_time
    bench_record(
        "olken",
        accesses=len(trace),
        accesses_per_second=round(len(trace) / fast_time),
        speedup_over_seed=round(speedup, 2),
    )
    assert speedup >= 1.25, f"stack-distance speedup {speedup:.2f}x < 1.25x"


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_cosim_end_to_end_throughput(benchmark):
    def thread_streams(n):
        return [
            chunk_stream(
                cyclic_scan(
                    Region(0x1000_0000 + i * 0x100_0000, 256 * KB),
                    passes=2,
                    stride=64,
                )
            )
            for i in range(n)
        ]

    guest = GuestWorkload("bench", thread_streams)

    def run():
        platform = CoSimPlatform(DragonheadConfig(cache_size=1 * MB))
        return platform.run(guest, cores=4)

    result = benchmark(run)
    assert result.accesses == 4 * 4096 * 2
