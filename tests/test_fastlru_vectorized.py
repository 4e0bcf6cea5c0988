"""Differential tests: FastLRUKernel's numpy batch path vs its scalar loop.

``lookup_batch`` takes the numpy path only for batches past the
measured crossover (``_VECTOR_MIN_BATCH``), so these tests force it
through the private ``_batch(..., vectorized=True)`` and cover every
size.  After every batch they compare against a second kernel driven
one access at a time through the scalar ``lookup``: per-access hits,
the eviction count, full ``CacheStats``, and the ``dump_state()``
directory (every set's tags, LRU→MRU).
"""

from __future__ import annotations

from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import fastlru
from repro.cache.fastlru import FastLRUKernel
from repro.cache.stats import CacheStats


def kinds_and_cores(tags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic read/write mix and core tagging per access."""
    return ((tags >> np.uint64(1)) & np.uint64(1)).astype(np.uint8), (
        tags % np.uint64(3)
    ).astype(np.uint16)


class Pair:
    """A kernel fed batches on the numpy path, and its scalar twin."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.fast = FastLRUKernel(num_sets, assoc)
        self.scalar = FastLRUKernel(num_sets, assoc)
        self.fast_stats = CacheStats()
        self.scalar_stats = CacheStats()

    def warm(self, tags) -> None:
        """Drive both kernels through ``lookup`` (state to carry over)."""
        for tag in np.asarray(tags, dtype=np.uint64).tolist():
            sets = tag % self.fast.num_sets
            assert self.fast.lookup(sets, tag) == self.scalar.lookup(sets, tag)

    def batch(self, tags, with_sets: bool = True, vectorized: bool | None = True):
        """One batch on the given path (None: the one ``lookup_batch`` picks)."""
        tags = np.asarray(tags, dtype=np.uint64)
        sets = tags % np.uint64(self.fast.num_sets) if with_sets else None
        result = self.fast._batch(tags, sets, vectorized=vectorized)
        kinds, cores = kinds_and_cores(tags)
        self.fast_stats.evictions += result.evictions
        self.fast_stats.note_batch(kinds, cores, result.hits)

        hits, evictions = [], 0
        set_list = [0] * tags.size if sets is None else sets.tolist()
        for set_index, tag, kind, core in zip(
            set_list, tags.tolist(), kinds.tolist(), cores.tolist()
        ):
            hit, victim = self.scalar.lookup(set_index, tag)
            hits.append(hit)
            evictions += victim is not None
            self.scalar_stats.note_access(core, kind == 0, hit)
        self.scalar_stats.evictions += evictions

        assert result.hits.dtype == bool and result.hits.tolist() == hits
        assert result.evictions == evictions
        assert self.fast_stats == self.scalar_stats
        fast_state, scalar_state = self.fast.dump_state(), self.scalar.dump_state()
        for name in ("lengths", "tags"):
            np.testing.assert_array_equal(fast_state[name], scalar_state[name])
        assert self.fast._resident == self.fast.resident_count()
        return result


def cyclic(lines: int, count: int) -> np.ndarray:
    """``lines`` distinct lines round-robin: every reuse window is long."""
    return np.resize(np.arange(lines, dtype=np.uint64), count)


def alternation_then_rereference(k: int, span: int) -> np.ndarray:
    """``k`` lines, a ``span``-long two-line alternation, the ``k`` again.

    Each re-reference has a window of ``span + k`` accesses holding only
    ``k + 1`` distinct lines: window scans would cost ``k * span``.
    """
    head = np.arange(2, k + 2, dtype=np.uint64)
    alternation = np.resize(np.array([0, 1], dtype=np.uint64), span)
    return np.concatenate([head, alternation, head])


class TestNumpyPathExactness:
    def test_workload_batches_from_empty_and_carried(self):
        rng = np.random.default_rng(5)
        stream = np.concatenate(
            [
                np.repeat(np.arange(20_000, dtype=np.uint64), 4),  # stride scan
                rng.zipf(1.3, size=20_000).astype(np.uint64) % np.uint64(50_000),
                rng.integers(0, 1 << 16, size=20_000).astype(np.uint64),
            ]
        )
        pair = Pair(1024, 16)
        cuts = [0, 1, 7, 300, 4_000, 25_000, 60_000, stream.size]
        for lo, hi in zip(cuts, cuts[1:]):
            pair.batch(stream[lo:hi])

    def test_carried_state_from_scalar_lookups(self):
        rng = np.random.default_rng(6)
        pair = Pair(64, 4)
        pair.warm(rng.integers(0, 2_000, size=3_000))
        for _ in range(3):
            pair.batch(rng.integers(0, 2_000, size=5_000))

    @pytest.mark.parametrize("assoc", [1, 2, 3, 4])
    @pytest.mark.parametrize("with_sets", [True, False])
    def test_single_set_long_windows(self, assoc, with_sets):
        rng = np.random.default_rng(assoc)
        pair = Pair(1, assoc)
        for size in (2_000, 3_000):
            pair.batch(rng.integers(0, 9, size=size), with_sets=with_sets)

    @pytest.mark.parametrize("num_sets,assoc", [(2, 256), (1, 4096)])
    def test_ordered_dict_sets(self, num_sets, assoc):
        rng = np.random.default_rng(assoc)
        pair = Pair(num_sets, assoc)
        for _ in range(2):
            pair.batch(rng.integers(0, 3 * assoc * num_sets, size=20_000))
        assert all(
            type(ways) is OrderedDict for ways in pair.fast._sets if ways is not None
        )

    def test_wide_tags_take_the_argsort_fallback(self):
        base = np.uint64(1 << 60)
        rng = np.random.default_rng(9)
        tags = base + rng.integers(0, 5_000, size=30_000).astype(np.uint64)
        grouped, order = fastlru._group(tags)
        np.testing.assert_array_equal(order, np.argsort(tags, kind="stable"))
        np.testing.assert_array_equal(grouped, tags[order])
        pair = Pair(16, 8)
        pair.batch(tags[:10_000])
        pair.batch(tags[10_000:])

    def test_packed_keys_filling_all_64_bits(self):
        # 51-bit tags and 13-bit positions: the widest key still packed.
        tags = np.uint64(1 << 50) + cyclic(9, 6_000)
        pair = Pair(1, 8)
        pair.batch(tags, with_sets=False)

    def test_empty_batch(self):
        pair = Pair(4, 2)
        pair.warm([1, 2, 3, 5])
        result = pair.batch(np.empty(0, dtype=np.uint64))
        assert result.hits.size == 0 and result.evictions == 0 and result.misses == 0
        empty = FastLRUKernel(1, 4)._batch(np.empty(0, dtype=np.uint64), None, vectorized=True)
        assert empty.hits.size == 0 and empty.evictions == 0

    @pytest.mark.parametrize(
        "pattern",
        [
            pytest.param(cyclic(17, 40_000), id="cyclic-A+1"),
            pytest.param(alternation_then_rereference(3_000, 30_000), id="alternation"),
        ],
    )
    def test_adversarial_windows_use_the_dominance_count(self, pattern, monkeypatch):
        calls = []
        original = fastlru._dominance_counts

        def spy(*args):
            calls.append(args[0].size)
            return original(*args)

        monkeypatch.setattr(fastlru, "_dominance_counts", spy)
        pair = Pair(1, 16)
        pair.batch(pattern, with_sets=False)
        assert calls, "long windows should exceed the scan budget"

    def test_dominance_counts_match_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            values = rng.integers(0, n + 1, size=n)
            ends = np.sort(rng.integers(0, n + 1, size=(30, 2)), axis=1)
            bound = rng.integers(0, n + 2, size=30)
            got = fastlru._dominance_counts(values, ends[:, 0], ends[:, 1], bound)
            expected = [
                int(np.count_nonzero(values[lo:hi] < b))
                for (lo, hi), b in zip(ends.tolist(), bound.tolist())
            ]
            assert got.tolist() == expected

    def test_group_is_a_stable_argsort(self):
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 50, size=5_000).astype(np.uint64)
        grouped, order = fastlru._group(keys)
        np.testing.assert_array_equal(order, np.argsort(keys, kind="stable"))
        np.testing.assert_array_equal(grouped, np.sort(keys))


class TestPathChoice:
    @pytest.fixture
    def taken(self, monkeypatch):
        """Record which probe each ``lookup_batch`` call runs."""
        paths: list[str] = []
        for name in ("_probe_loop", "_probe_vectorized"):
            original = getattr(FastLRUKernel, name)

            def spy(self, *args, _name=name, _original=original):
                paths.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(FastLRUKernel, name, spy)
        return paths

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_threshold_plus_minus_one(self, taken, delta):
        count = fastlru._VECTOR_MIN_BATCH + delta
        # Steps of 1..1999 modulo 2000: reuse, but no consecutive repeat
        # to collapse, so the probed batch is exactly ``count`` long.
        steps = np.random.default_rng(delta + 2).integers(1, 2_000, size=count)
        pair = Pair(256, 16)
        pair.batch(np.cumsum(steps) % 2_000, vectorized=None)
        assert taken == ["_probe_vectorized" if delta >= 0 else "_probe_loop"]

    def test_collapsed_repeats_do_not_count(self, taken):
        count = fastlru._VECTOR_MIN_BATCH
        tags = np.repeat(np.arange(count // 2, dtype=np.uint64), 2)
        FastLRUKernel(64, 16).lookup_batch(tags, tags % np.uint64(64))
        assert taken == ["_probe_loop"]

    def test_full_cache_keeps_small_batches_on_the_loop(self, taken):
        kernel = FastLRUKernel(4096, 16)
        warm = np.arange(4096 * 16, dtype=np.uint64)
        kernel.lookup_batch(warm, warm % np.uint64(4096))
        count = fastlru._VECTOR_MIN_BATCH * 2
        batch = np.arange(10**6, 10**6 + count, dtype=np.uint64)
        kernel.lookup_batch(batch, batch % np.uint64(4096))
        # 65536 resident lines outnumber the 8192-access batch.
        assert taken == ["_probe_vectorized", "_probe_loop"]


geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8, 16]),  # num_sets
    st.integers(min_value=1, max_value=8),  # associativity
)
batch_strategy = st.lists(st.integers(min_value=0, max_value=63), max_size=300)


class TestNumpyPathProperties:
    @given(
        geometry=geometries,
        warm=st.lists(st.integers(min_value=0, max_value=63), max_size=100),
        batches=st.lists(batch_strategy, min_size=1, max_size=4),
        repeats=st.integers(min_value=1, max_value=3),
        # 0: every long window goes to the dominance count; huge: all
        # are scanned.
        scan_budget=st.sampled_from([0, fastlru._SCAN_BUDGET, 1 << 30]),
    )
    @settings(max_examples=150, deadline=None)
    def test_numpy_path_equals_scalar_loop(
        self, geometry, warm, batches, repeats, scan_budget
    ):
        num_sets, assoc = geometry
        pair = Pair(num_sets, assoc)
        pair.warm(warm)
        with mock.patch.object(fastlru, "_SCAN_BUDGET", scan_budget):
            for batch in batches:
                pair.batch([tag for tag in batch for _ in range(repeats)])

    @given(
        assoc=st.integers(min_value=1, max_value=8),
        batches=st.lists(batch_strategy, min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_set_without_set_indices(self, assoc, batches):
        pair = Pair(1, assoc)
        for batch in batches:
            pair.batch(batch, with_sets=False)
