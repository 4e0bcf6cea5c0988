"""Batched exact-LRU kernel for chunked trace replay.

The per-access simulation path (``LRUPolicy.lookup`` driven from a
Python ``for`` loop) spends most of its time on interpreter overhead:
one method call, one ``list.remove`` scan of up to ``associativity``
elements, and several numpy scalar extractions per access.
:class:`FastLRUKernel` replaces that with a kernel that processes a
whole :class:`~repro.trace.record.TraceChunk` per call:

* address-to-line and line-to-set arithmetic happens once, vectorized,
  on the chunk's numpy arrays;
* the inherently sequential recency updates run over native Python ints
  (one ``ndarray.tolist`` bulk conversion) against per-set insertion-
  ordered dicts, so every lookup, touch, and eviction is O(1) instead
  of an O(associativity) list scan;
* the per-access outcomes come back as a hit mask plus eviction count,
  so statistics accounting (:meth:`repro.cache.stats.CacheStats.
  note_batch`) is vectorized too.

The logical state is the classic timestamp matrix — ``tags[num_sets,
associativity]`` with ``stamps[num_sets, associativity]`` recording the
recency order — and :meth:`tag_matrix` / :meth:`stamp_matrix`
materialize exactly that view for inspection and tests.  Internally
each set's (tag, stamp) row is stored as one insertion-ordered dict
(LRU first, MRU last), which is the same structure with the stamps kept
implicit: CPython dicts preserve insertion order, making
delete-and-reinsert the fastest recency update available without a C
extension.

Two further optimizations matter on real chunk shapes:

* Consecutive same-line repeats are collapsed before the probe.  A
  chunk access whose (set, tag) equals the immediately-previous
  access's is always an MRU hit that leaves the LRU state untouched:
  the previous access left the tag at the MRU end, and an eviction
  never removes the tag just inserted (the victim is the LRU head, and
  a set that evicts holds at least two tags).  Strided scans — the
  dominant pattern in the paper's workloads — repeat each line
  ``line_size/stride`` times back to back, so this one vectorized
  compare removes most of their accesses from the probe.
* The per-set container is chosen by geometry.  Plain dicts are
  fastest for normal associativities, but their eviction pattern
  (delete the head, insert at the tail) leaves tombstones that
  ``next(iter(...))`` must scan past, which for huge single-set
  caches (the fully-associative oracle) degrades evictions to ~O(n)
  until the next rehash.  ``collections.OrderedDict`` keeps a real
  linked list, making head removal O(1) at any size, and accepts the
  exact same dict operations — so sets wider than
  ``_ORDERED_SET_MIN_ASSOC`` ways use it instead.

Large batches skip the dict loop: their outcomes come from reuse
windows, computed with numpy (Mattson et al. 1970; Hill & Smith 1989,
"Evaluating associativity in CPU caches").  The accesses are grouped
by set, each set's subsequence in stream order, and linked to the
previous access of the same line:

* An access to a line last used at ``p`` hits an A-way LRU set iff
  fewer than A distinct lines of that set were used in the window
  between.  A window of fewer than A accesses cannot hold A distinct
  lines, so the line is still resident: a hit, with no counting.  A
  first use is a miss.  Only the rest need the exact count — in a FIMI
  bank stream 0.03–0.08% of the accesses — which is
  ``#{j in (p, t): prev[j] < p}``, the window's first uses.
* The kernel's current contents enter as a prefix: each touched set's
  resident tags, LRU→MRU, ahead of its accesses.  Replaying them from
  an empty set rebuilds exactly that state, since at most A tags evict
  nothing and their insertion order is their recency order.
* Each touched set ends holding its last A distinct lines by last use,
  in that order, and evictions = resident before + misses − resident
  after.
* Both groupings are stable, but neither needs a stable sort: one SIMD
  sort of ``(key << b) | position`` is several times faster
  (:func:`_group`).
* Window scans cost their total length, which adversarial reuse (a
  cyclic A+1-line pattern, or lines re-referenced after a long
  two-line alternation) pushes towards O(n²).  Past
  ``_SCAN_BUDGET`` times the stream, the counts come from an offline
  merge-sort tree in O((n + q) log n) (:func:`_dominance_counts`).

The numpy path has a fixed cost per touched set and pays for the
replayed prefix, so the dict loop stays faster for small batches and
for batches that are small next to the lines already resident.  Loop
time over numpy time for one batch of distinct-neighbour accesses of a
zipf stream into a 1 MB 16-way kernel, empty or full (16 k resident
lines), best of three, two runs
(``benchmarks/test_simulator_throughput.py::test_probe_path_crossover``
on a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4):

    ========  ===========  ===========
    accesses  empty        full
    ========  ===========  ===========
    1 024     0.69-0.84x   0.22-0.30x
    2 048     0.86-1.06x   0.25-0.31x
    4 096     1.27-1.36x   0.38-0.40x
    8 192     1.77-1.80x   0.61-0.67x
    16 384    1.51-2.63x   1.03-1.87x
    65 536    2.36-4.06x   2.21-2.41x
    ========  ===========  ===========

So a batch takes the numpy path from ``_VECTOR_MIN_BATCH`` accesses
(after the repeat collapse) on, and only while the kernel holds at most
``_VECTOR_MAX_RESIDENT_PER_ACCESS`` resident lines per batch access
(a running count kept for this choice alone).  Sweeps replay a whole
capture into fresh banks (~190 k collapsed accesses per bank call) and
take the numpy path: on the repository benchmark's sweep_ladder the
probe's self time fell from 3.07 s to 0.82 s per pass.  Per-event
replay's small carried-state calls (~1 k accesses) stay on the loop.

The kernel is an exact drop-in for :class:`~repro.cache.replacement.
LRUPolicy`: identical hits, identical victims, identical order, plus
the full scalar :class:`~repro.cache.replacement.ReplacementPolicy`
interface (``lookup``/``contains``/``invalidate``/``flush``/
``resident_tags``), so the coherence, victim-cache, and write-back
layers that inspect recency order keep working unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from repro.cache.replacement import ReplacementPolicy

#: Sentinel used in the exported tag matrix for empty ways.
EMPTY_WAY = -1

#: Miss sentinel for the pop-then-reinsert hit test: stored way values
#: are always ``None``, so ``ways.pop(tag, _ABSENT) is None`` decides
#: hit/miss in a single hash probe.
_ABSENT = object()

#: Above this many ways a set uses ``OrderedDict`` instead of ``dict``:
#: plain-dict eviction cost is amortized O(associativity) (tombstone
#: scan), OrderedDict's is O(1) but each access pays a little more.
#: Measured on the throughput benchmark: dict wins 13.8ms vs 19.0ms at
#: 16 ways, OrderedDict wins 14.2ms vs 239ms at 16384 ways.
_ORDERED_SET_MIN_ASSOC = 128

#: A batch takes the numpy path when it holds at least this many
#: accesses after the repeat collapse ... (measured crossover: the
#: table in the module docstring)
_VECTOR_MIN_BATCH = 4096

#: ... and the kernel holds at most this many resident lines per batch
#: access: the numpy path replays each touched set's residents first,
#: so a small batch into a full cache pays for the whole prefix.
_VECTOR_MAX_RESIDENT_PER_ACCESS = 1

#: Long reuse windows are scanned element by element while their total
#: length stays within this many times the replayed stream; past that
#: the counts come from the O((n + q) log n) merge-sort tree.
_SCAN_BUDGET = 4


@dataclass(frozen=True, slots=True)
class BatchResult:
    """Outcome of one :meth:`FastLRUKernel.lookup_batch` call.

    Attributes:
        hits: boolean per-access hit mask, in chunk order.
        evictions: number of capacity evictions the batch caused.
    """

    hits: np.ndarray
    evictions: int

    @property
    def misses(self) -> int:
        return int(self.hits.size - np.count_nonzero(self.hits))


class FastLRUKernel(ReplacementPolicy):
    """Exact LRU with O(1) scalar operations and a batched lookup path."""

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self._set_factory = (
            OrderedDict if associativity > _ORDERED_SET_MIN_ASSOC else dict
        )
        # Per-set dicts are allocated lazily on first touch: a design-
        # space sweep replays one short trace through many large
        # geometries, and eagerly building (say) 16 k dicts per 64 MB
        # bank costs more than the replay itself.  ``None`` marks a
        # never-touched (empty) set.
        self._sets: list[dict[int, None] | None] = [None] * num_sets
        # Running count of resident lines, for the batch path choice
        # only: ``resident_count`` recounts the sets themselves.
        self._resident = 0

    # -- scalar path (ReplacementPolicy interface) ----------------------

    def lookup(self, set_index: int, tag: int) -> tuple[bool, int | None]:
        ways = self._sets[set_index]
        if ways is None:
            ways = self._sets[set_index] = self._set_factory()
        if tag in ways:
            del ways[tag]
            ways[tag] = None
            return True, None
        ways[tag] = None
        if len(ways) > self.associativity:
            victim = next(iter(ways))
            del ways[victim]
            return False, victim
        self._resident += 1
        return False, None

    def contains(self, set_index: int, tag: int) -> bool:
        ways = self._sets[set_index]
        return ways is not None and tag in ways

    def invalidate(self, set_index: int, tag: int) -> bool:
        ways = self._sets[set_index]
        if ways is not None and tag in ways:
            del ways[tag]
            self._resident -= 1
            return True
        return False

    def flush(self) -> None:
        self._sets = [None] * self.num_sets
        self._resident = 0

    def resident_tags(self, set_index: int) -> list[int]:
        """LRU→MRU tags of one set (same contract as ``LRUPolicy``)."""
        ways = self._sets[set_index]
        return [] if ways is None else list(ways)

    # -- batched path ---------------------------------------------------

    def lookup_batch(
        self, tags: np.ndarray, set_indices: np.ndarray | None = None
    ) -> BatchResult:
        """Replay a whole chunk of accesses through the LRU state.

        Args:
            tags: line numbers (``uint64``), one per access, chunk order.
            set_indices: set index per access; None means every access
                maps to set 0 (the fully-associative case).

        Returns:
            A :class:`BatchResult` whose outcomes are identical, access
            by access, to calling :meth:`lookup` in a loop.  Large
            batches take the numpy path, small ones the dict loop (see
            the module docstring for the crossover).
        """
        return self._batch(tags, set_indices, vectorized=None)

    def _batch(
        self,
        tags: np.ndarray,
        set_indices: np.ndarray | None,
        vectorized: bool | None,
    ) -> BatchResult:
        """:meth:`lookup_batch`, path forced (True/False) or chosen (None)."""
        tag_arr = np.asarray(tags)
        n = int(tag_arr.size)
        set_arr = None if set_indices is None else np.asarray(set_indices)
        # Collapse consecutive same-(set, tag) repeats: each is an MRU
        # hit with no eviction and no state change (see module docstring
        # for why), so only the first access of a run is probed.
        keep = None
        if n > 1:
            repeat = np.empty(n, dtype=bool)
            repeat[0] = False
            np.equal(tag_arr[1:], tag_arr[:-1], out=repeat[1:])
            if set_arr is not None:
                repeat[1:] &= set_arr[1:] == set_arr[:-1]
            if repeat.any():
                keep = np.flatnonzero(~repeat)
                tag_arr = tag_arr[keep]
                if set_arr is not None:
                    set_arr = set_arr[keep]
        if vectorized is None:
            m = int(tag_arr.size)
            vectorized = (
                m >= _VECTOR_MIN_BATCH
                and self._resident <= _VECTOR_MAX_RESIDENT_PER_ACCESS * m
            )
        probe = self._probe_vectorized if vectorized else self._probe_loop
        hit_arr, evictions = probe(tag_arr, set_arr)
        if keep is not None:
            full_hits = np.ones(n, dtype=bool)
            full_hits[keep] = hit_arr
            hit_arr = full_hits
        return BatchResult(hits=hit_arr, evictions=evictions)

    def _probe_loop(
        self, tag_arr: np.ndarray, set_arr: np.ndarray | None
    ) -> tuple[np.ndarray, int]:
        """The dict loop: one pop-and-reinsert per (collapsed) access."""
        tag_list = tag_arr.tolist()
        set_list = repeat(0, len(tag_list)) if set_arr is None else set_arr.tolist()
        hits: list[bool] = []
        note_hit = hits.append
        evictions = 0
        assoc = self.associativity
        sets = self._sets
        for set_index, tag in zip(set_list, tag_list):
            ways = sets[set_index]
            if ways is None:
                ways = sets[set_index] = self._set_factory()
            # pop-then-reinsert: one hash probe fewer per hit than
            # membership-test + delete + insert, same LRU order.
            if ways.pop(tag, _ABSENT) is None:
                ways[tag] = None
                note_hit(True)
            else:
                ways[tag] = None
                note_hit(False)
                if len(ways) > assoc:
                    del ways[next(iter(ways))]
                    evictions += 1
        hit_arr = np.array(hits, dtype=bool)
        self._resident += len(hits) - int(np.count_nonzero(hit_arr)) - evictions
        return hit_arr, evictions

    def _probe_vectorized(
        self, tag_arr: np.ndarray, set_arr: np.ndarray | None
    ) -> tuple[np.ndarray, int]:
        """The numpy path: reuse windows instead of per-access dict updates.

        Works on the accesses grouped by set (stably, so each set's
        subsequence keeps stream order), each touched set's resident
        tags replayed first, LRU→MRU, from an empty state.
        """
        m = int(tag_arr.size)
        if m == 0:
            return np.empty(0, dtype=bool), 0
        assoc = self.associativity
        if set_arr is None:
            set_arr = np.zeros(m, dtype=np.uint64)
        batch_sets, order = _group(set_arr)
        batch_tags = tag_arr[order].astype(np.uint64, copy=False)
        starts = np.flatnonzero(batch_sets[1:] != batch_sets[:-1]) + 1
        starts = np.concatenate(([0], starts))
        set_lengths = np.diff(starts, append=m)
        touched = batch_sets[starts]
        touched_list = touched.tolist()

        # Resident prefix: each touched set's current contents, LRU→MRU.
        sets = self._sets
        prefix_lengths = [len(sets[s] or ()) for s in touched_list]
        resident = sum(prefix_lengths)
        if resident:
            prefix_lengths = np.array(prefix_lengths, dtype=np.int64)
            # Batch access i of set k lands after set k's prefix and
            # after every earlier set's prefix and accesses.
            batch_pos = np.arange(m)
            batch_pos += np.repeat(np.cumsum(prefix_lengths), set_lengths)
            line_tags = np.empty(m + resident, dtype=np.uint64)
            line_tags[batch_pos] = batch_tags
            is_prefix = np.ones(m + resident, dtype=bool)
            is_prefix[batch_pos] = False
            line_tags[is_prefix] = np.fromiter(
                chain.from_iterable(sets[s] for s in touched_list if sets[s]),
                dtype=np.uint64,
                count=resident,
            )
            line_sets = np.repeat(touched, set_lengths + prefix_lengths)
        else:
            batch_pos = None
            line_tags, line_sets = batch_tags, batch_sets
        count = int(line_tags.size)

        # Link every access to the previous access of the same line.
        # Grouping by tag keeps the set-grouped order within a tag, so
        # adjacent equal-(tag, set) entries are consecutive uses.
        sorted_tags, by_line = _group(line_tags)
        same = sorted_tags[1:] == sorted_tags[:-1]
        if self.num_sets > 1:
            sets_by_line = line_sets[by_line]
            same &= sets_by_line[1:] == sets_by_line[:-1]
        earlier, later = by_line[:-1], by_line[1:]
        prev = np.empty(count, dtype=np.int64)
        prev[by_line[0]] = -1
        prev[later] = np.where(same, earlier, -1)
        # A window of fewer than A accesses since the previous use holds
        # fewer than A distinct lines, so the line is still resident.
        reused = prev >= 0
        gap = np.arange(count) - prev
        hits = reused & (gap <= assoc)
        long = np.flatnonzero(reused & (gap > assoc))
        if long.size:
            hits[long] = _distinct_in_windows(prev, long) < assoc

        # Final state: the last A distinct lines of each set, by last use.
        is_last = np.ones(count, dtype=bool)
        is_last[earlier] = ~same
        last = np.flatnonzero(is_last)
        last_sets = line_sets[last]
        ends = np.flatnonzero(last_sets[1:] != last_sets[:-1]) + 1
        ends = np.append(ends, last.size)
        per_set = np.diff(ends, prepend=0)
        kept = np.repeat(ends, per_set) - np.arange(last.size) <= assoc
        final_tags = line_tags[last[kept]].tolist()
        final_ends = np.cumsum(np.minimum(per_set, assoc)).tolist()
        factory = self._set_factory
        lo = 0
        for set_index, hi in zip(touched_list, final_ends):
            sets[set_index] = factory.fromkeys(final_tags[lo:hi])
            lo = hi
        final = lo

        if batch_pos is not None:
            hits = hits[batch_pos]
        misses = m - int(np.count_nonzero(hits))
        in_stream_order = np.empty(m, dtype=bool)
        in_stream_order[order] = hits
        self._resident += final - resident
        return in_stream_order, resident + misses - final

    # -- checkpointing --------------------------------------------------

    def resident_count(self) -> int:
        """Total lines currently resident across all sets."""
        return sum(len(ways) for ways in self._sets if ways)

    def dump_state(self) -> dict[str, np.ndarray]:
        """Dense numpy dump of the full directory state.

        Two arrays: ``lengths[num_sets]`` (``int64``, resident lines per
        set; never-touched sets recorded as ``-1`` so lazy allocation
        survives a round trip) and ``tags`` (``uint64``, every resident
        tag concatenated set by set, LRU→MRU within each set).  This is
        the checkpoint representation: two contiguous buffers instead of
        millions of pickled dict entries, and byte-stable for a given
        logical state.
        """
        lengths = np.empty(self.num_sets, dtype=np.int64)
        chunks: list[list[int]] = []
        for set_index, ways in enumerate(self._sets):
            if ways is None:
                lengths[set_index] = -1
            else:
                lengths[set_index] = len(ways)
                if ways:
                    chunks.append(list(ways))
        if chunks:
            tags = np.fromiter(
                (tag for chunk in chunks for tag in chunk),
                dtype=np.uint64,
                count=sum(len(chunk) for chunk in chunks),
            )
        else:
            tags = np.empty(0, dtype=np.uint64)
        return {"lengths": lengths, "tags": tags}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore the directory from a :meth:`dump_state` dump."""
        lengths = np.asarray(state["lengths"], dtype=np.int64)
        tags = np.asarray(state["tags"], dtype=np.uint64)
        if lengths.size != self.num_sets:
            from repro.errors import CheckpointError

            raise CheckpointError(
                f"checkpoint directory has {lengths.size} sets, "
                f"this kernel has {self.num_sets}"
            )
        sets: list[dict[int, None] | None] = [None] * self.num_sets
        factory = self._set_factory
        tag_list = tags.tolist()
        offset = 0
        for set_index, length in enumerate(lengths.tolist()):
            if length < 0:
                continue
            ways = factory()
            for tag in tag_list[offset : offset + length]:
                ways[tag] = None
            offset += length
            sets[set_index] = ways
        self._sets = sets
        self._resident = offset

    # -- timestamp-matrix view -----------------------------------------

    def tag_matrix(self) -> np.ndarray:
        """``tags[num_sets, associativity]``, LRU→MRU, ``EMPTY_WAY`` padded."""
        matrix = np.full((self.num_sets, self.associativity), EMPTY_WAY, dtype=np.int64)
        for set_index, ways in enumerate(self._sets):
            if ways:
                matrix[set_index, : len(ways)] = list(ways)
        return matrix

    def stamp_matrix(self) -> np.ndarray:
        """``stamps[num_sets, associativity]``: recency rank per way.

        0 is least-recently used; empty ways carry ``EMPTY_WAY``.  The
        ranks are relative (what LRU ordering needs), not absolute
        access times.
        """
        matrix = np.full((self.num_sets, self.associativity), EMPTY_WAY, dtype=np.int64)
        for set_index, ways in enumerate(self._sets):
            n = 0 if ways is None else len(ways)
            if n:
                matrix[set_index, :n] = np.arange(n, dtype=np.int64)
        return matrix

    def __repr__(self) -> str:
        resident = sum(len(ways) for ways in self._sets if ways is not None)
        return (
            f"FastLRUKernel(sets={self.num_sets}, assoc={self.associativity}, "
            f"resident={resident})"
        )


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping of non-negative integer keys: ``(sorted, order)``.

    Same result as ``order = np.argsort(keys, kind="stable")``, but
    packs ``(key << b) | position`` into one ``uint64`` and sorts that
    with numpy's default (SIMD, unstable) sort: the positions make the
    packed values unique, so the order is the stable one, ~10x faster
    than the stable argsort.  Keys too wide to pack take the argsort.
    """
    count = int(keys.size)
    shift = max(count - 1, 1).bit_length()
    if int(keys.max()).bit_length() + shift > 64:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    packed = keys.astype(np.uint64)
    packed <<= np.uint64(shift)
    packed |= np.arange(count, dtype=np.uint64)
    packed.sort()
    order = (packed & np.uint64((1 << shift) - 1)).view(np.int64)
    packed >>= np.uint64(shift)
    return packed, order


def _distinct_in_windows(prev: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Distinct lines strictly inside each query's reuse window.

    Query ``t`` reuses the line last seen at ``p = prev[t]``; the window
    ``(p, t)`` holds one first occurrence per distinct line, i.e. the
    ``j`` with ``prev[j] < p``.  Windows are scanned directly while
    their total length stays under ``_SCAN_BUDGET`` times the stream;
    past that (adversarial reuse patterns) the counts come from
    :func:`_dominance_counts` in O((n + q) log n).
    """
    p = prev[queries]
    lengths = queries - p - 1
    total = int(lengths.sum())
    if total > _SCAN_BUDGET * prev.size:
        return _dominance_counts(prev + 1, p + 1, queries, p + 1)
    # Every window holds at least A >= 1 accesses, so the segment
    # starts are strictly increasing, as ``reduceat`` needs.
    offsets = np.cumsum(lengths) - lengths
    inside = np.arange(total) + np.repeat(p + 1 - offsets, lengths)
    first = prev[inside] < np.repeat(p, lengths)
    return np.add.reduceat(first, offsets, dtype=np.int64)


def _dominance_counts(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, bound: np.ndarray
) -> np.ndarray:
    """``#{j in [lo, hi): values[j] < bound}`` per query, offline.

    ``values`` are non-negative and at most ``values.size``.  A
    merge-sort tree walked bottom-up, one level for all queries at
    once: level ``k`` holds ``values`` sorted within aligned blocks of
    ``2**k`` positions, packed as ``(block << bits) | value`` so that one
    ``searchsorted`` counts inside any block.  Each query takes at most
    two blocks per level, and the walk stops once every range is
    covered, after log2 of the longest range levels.
    """
    count = int(values.size)
    bits = (count + 1).bit_length()
    positions = np.arange(count, dtype=np.int64)
    level = positions << bits | values
    lo, hi = lo.copy(), hi.copy()
    counts = np.zeros(lo.size, dtype=np.int64)
    k = 0

    def below(block: np.ndarray, limit: np.ndarray) -> np.ndarray:
        # Rank of the packed (block, limit) minus the full blocks before.
        return np.searchsorted(level, block << bits | limit) - (block << k)

    while True:
        live = lo < hi
        if not live.any():
            return counts
        take = live & (lo & 1).astype(bool)
        counts[take] += below(lo[take], bound[take])
        lo += take
        take = live & (hi & 1).astype(bool)
        hi -= take
        counts[take] += below(hi[take], bound[take])
        lo >>= 1
        hi >>= 1
        k += 1
        # Each new block is two sorted halves: the stable sort merges.
        level &= (1 << bits) - 1
        level |= (positions >> k) << bits
        level.sort(kind="stable")
