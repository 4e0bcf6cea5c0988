"""Software model of the Dragonhead FPGA cache emulator.

Figure 1 of the paper: Dragonhead has six FPGAs — **AF** receives FSB
transactions from the logic analyzer interface and regulates them,
**CC0–CC3** are four cache controllers that process requests and
generate performance data, and **CB** configures the others and collects
statistics, which a host computer reads every 500 µs.

The model preserves that architecture:

* :class:`AddressFilter` decodes protocol messages, maintains the
  emulation window (start/stop), the current core id, and the retired-
  instruction / cycle counters, and drops traffic outside the window
  (the paper: "the SoftSDV code and the host OS will also execute
  during the simulation, and by restricting the emulation to the window
  between start and stop, these accesses are excluded").
* :class:`CacheControllerBank` is one CC FPGA: a slice of the shared
  LLC selected by low line-number bits, so the four controllers share
  the load the way address-interleaved hardware banks do.
* :class:`ControlBoard` aggregates bank counters and exposes the
  ``read_performance_data`` the host polls.

Configuration limits mirror the hardware: cache sizes 1 MB–256 MB, line
sizes 64 B–4096 B, LRU replacement (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.faults.report import RECOVERED, DegradationRecord, records_from_counts
from repro.protocol import Message, MessageCodec, MessageKind
from repro.cache.sampling import WindowSample, WindowSampler
from repro.errors import ConfigurationError, ProtocolError, RecoverableProtocolError
from repro.telemetry import runtime as telemetry
from repro.trace.record import AccessKind, TraceChunk
from repro.units import (
    DRAGONHEAD_MAX_CACHE,
    DRAGONHEAD_MAX_LINE,
    DRAGONHEAD_MIN_CACHE,
    DRAGONHEAD_MIN_LINE,
    format_size,
    is_power_of_two,
)

#: Dragonhead has four cache-controller FPGAs (CC0..CC3).
NUM_BANKS = 4


def derive_bank_shift(num_banks: int) -> int:
    """Line-number shift that folds the bank-selection bits away.

    Bank selection keeps the low ``log2(num_banks)`` line bits
    (``line % num_banks``) and the bank-local line number discards them
    (``line >> shift``).  That pair of operations only inverts cleanly
    when the bank count is a power of two; for any other count
    ``bit_length() - 1`` under-shifts and distinct lines silently
    collide inside a bank, so refuse the configuration outright.
    """
    if num_banks <= 0 or not is_power_of_two(num_banks):
        raise ConfigurationError(
            f"bank count must be a positive power of two, got {num_banks}: "
            "address-interleaved bank selection cannot fold away a "
            "non-power-of-two modulus"
        )
    return num_banks.bit_length() - 1


BANK_SHIFT = derive_bank_shift(NUM_BANKS)

#: Precomputed numpy operands for the vectorized bank-routing path.
#: ``& _BANK_MASK`` equals ``% NUM_BANKS`` exactly because
#: :func:`derive_bank_shift` guarantees a power-of-two bank count.
_BANK_MASK = np.uint64(NUM_BANKS - 1)
_BANK_SHIFT_U64 = np.uint64(BANK_SHIFT)

#: The deferred stream flushes once this many accesses are queued.
#: Bigger flushes put more of each bank's probe on the FastLRU numpy
#: path, but the queue and the probe's working set grow with them.  One
#: perfbench ``sweep_faulty`` pass (FIMI synthetic, 4 x 256 Ki accesses,
#: lenient with bus faults, 4 sizes), median of four, and the process's
#: peak RSS, one process per bound, on a 2-vCPU x86-64 VM with Python
#: 3.11 and numpy 2.4:
#:
#:     =========  ======  ========
#:     bound      pass    peak RSS
#:     =========  ======  ========
#:     2^14       2.25 s  145 MB
#:     2^16       1.48 s  145 MB
#:     2^17       1.37 s  145 MB
#:     2^18       1.31 s  145 MB
#:     2^19       1.32 s  145 MB
#:     2^20       1.40 s  174 MB
#:     unbounded  1.44 s  173 MB
#:     =========  ======  ========
#:
#: Probing every ~1 k-access chunk on arrival instead took 2.48 s at
#: 146 MB.  2^18 is the fastest bound that leaves the peak where it was.
#: ``benchmarks/test_simulator_throughput.py::test_flush_bound_tradeoff``
#: re-measures the trade-off in one process (tracemalloc peak).
_FLUSH_BOUND = 1 << 18


def _concatenate(batches: list[tuple]) -> tuple:
    """One ``(lines, kinds, cores)`` batch from queued ones.

    A lone batch passes through as is; several are joined with their
    cores expanded to per-access tags.
    """
    if len(batches) == 1:
        return batches[0]
    return (
        np.concatenate([lines for lines, _, _ in batches]),
        np.concatenate([kinds for _, kinds, _ in batches]),
        np.concatenate(
            [
                np.broadcast_to(np.asarray(cores, dtype=np.uint16), len(lines))
                for lines, _, cores in batches
            ]
        ),
    )


@dataclass(frozen=True, slots=True)
class DragonheadConfig:
    """Emulated shared-LLC configuration, within the hardware envelope."""

    cache_size: int
    line_size: int = 64
    associativity: int = 16
    policy: str = "lru"
    frequency_hz: float = 100e6  # "Dragonhead emulates a shared LLC at ... 100MHz"
    host_read_interval_us: float = 500.0

    def __post_init__(self) -> None:
        if not DRAGONHEAD_MIN_CACHE <= self.cache_size <= DRAGONHEAD_MAX_CACHE:
            raise ConfigurationError(
                f"Dragonhead supports cache sizes {format_size(DRAGONHEAD_MIN_CACHE)}"
                f"-{format_size(DRAGONHEAD_MAX_CACHE)}, got {format_size(self.cache_size)}"
            )
        if not DRAGONHEAD_MIN_LINE <= self.line_size <= DRAGONHEAD_MAX_LINE:
            raise ConfigurationError(
                f"Dragonhead supports line sizes {DRAGONHEAD_MIN_LINE}B-"
                f"{DRAGONHEAD_MAX_LINE}B, got {self.line_size}B"
            )
        if not is_power_of_two(self.line_size) or not is_power_of_two(self.cache_size):
            raise ConfigurationError("cache and line sizes must be powers of two")
        if self.cache_size % NUM_BANKS:
            raise ConfigurationError("cache size must divide across the four CC banks")

    def bank_config(self, bank: int) -> CacheConfig:
        """Geometry of one CC bank (a quarter of the LLC)."""
        bank_size = self.cache_size // NUM_BANKS
        assoc = self.associativity
        while bank_size % (self.line_size * assoc) or not is_power_of_two(
            bank_size // (self.line_size * assoc)
        ):
            assoc //= 2
            if assoc == 0:
                raise ConfigurationError(
                    f"no legal bank geometry for {format_size(self.cache_size)} / "
                    f"{self.line_size}B lines"
                )
        return CacheConfig(
            size=bank_size,
            line_size=self.line_size,
            associativity=assoc,
            policy=self.policy,
            name=f"CC{bank}",
        )


class AddressFilter:
    """The AF FPGA: message decode, window gating, core tagging.

    Two operating modes mirror the two ways to treat a lossy bus:

    * **strict** (the default, and the fault-free contract): any
      protocol anomaly raises.  De-synchronizations a lenient filter
      could survive raise :class:`RecoverableProtocolError`; outright
      malformed transactions raise plain :class:`ProtocolError`.
    * **lenient**: the filter resynchronizes instead — an unmatched
      STOP is dropped, a START while the window is already open is
      treated as the session continuing, a progress counter that moves
      backwards (a reordered message) keeps its high-water mark, and an
      undecodable message transaction is discarded.  Every recovery is
      counted in :attr:`anomalies` and surfaces in the degradation
      report.
    """

    def __init__(self, strict: bool = True) -> None:
        self.codec = MessageCodec()
        self.strict = strict
        self.emulating = False
        self.current_core = 0
        self.instructions_retired = 0
        self.cycles_completed = 0
        self.filtered_transactions = 0  # traffic dropped outside the window
        self.messages_seen = 0
        self.anomalies: dict[str, int] = {}  # recovered anomaly counts

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict[str, object]:
        """Full AF session state for a checkpoint."""
        return {
            "strict": self.strict,
            "codec": self.codec.state_dict(),
            "emulating": self.emulating,
            "current_core": self.current_core,
            "instructions_retired": self.instructions_retired,
            "cycles_completed": self.cycles_completed,
            "filtered_transactions": self.filtered_transactions,
            "messages_seen": self.messages_seen,
            "anomalies": dict(self.anomalies),
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore AF session state captured by :meth:`state_dict`.

        Restoring ``emulating=True`` directly — rather than replaying a
        START message — matters: a START resets the session counters,
        which would erase exactly the progress being resumed.
        """
        from repro.errors import CheckpointError

        if bool(state["strict"]) != self.strict:
            raise CheckpointError(
                f"checkpoint AF mode (strict={state['strict']}) does not "
                f"match this filter (strict={self.strict})"
            )
        self.codec.load_state_dict(state["codec"])  # type: ignore[arg-type]
        self.emulating = bool(state["emulating"])
        self.current_core = int(state["current_core"])  # type: ignore[arg-type]
        self.instructions_retired = int(state["instructions_retired"])  # type: ignore[arg-type]
        self.cycles_completed = int(state["cycles_completed"])  # type: ignore[arg-type]
        self.filtered_transactions = int(state["filtered_transactions"])  # type: ignore[arg-type]
        self.messages_seen = int(state["messages_seen"])  # type: ignore[arg-type]
        self.anomalies = dict(state["anomalies"])  # type: ignore[arg-type]

    def _anomaly(self, kind: str, description: str) -> bool:
        """Record one anomaly; in strict mode, raise instead.

        Returns True (lenient mode) so call sites read as
        ``if self._anomaly(...): return`` where the recovery is a drop.
        """
        if self.strict:
            raise RecoverableProtocolError(description)
        self.anomalies[kind] = self.anomalies.get(kind, 0) + 1
        return True

    def handle_message(self, address: int) -> Message | None:
        """Decode and apply one protocol message address."""
        try:
            message = self.codec.decode(address)
        except ProtocolError:
            if self.strict:
                raise
            self.anomalies["decode-error"] = self.anomalies.get("decode-error", 0) + 1
            return None
        if message is None:
            return None
        self.messages_seen += 1
        kind = message.kind
        if kind is MessageKind.START_EMULATION:
            if self.emulating:
                # Lenient recovery: the matching STOP was lost; keep the
                # window open and let the session continue.
                self._anomaly(
                    "spurious-start", "START_EMULATION while already emulating"
                )
                return message
            self.emulating = True
            # A new emulation session: the progress counters are
            # session-relative (back-to-back runs restart from zero).
            self.instructions_retired = 0
            self.cycles_completed = 0
        elif kind is MessageKind.STOP_EMULATION:
            if not self.emulating:
                # Lenient recovery: drop the unmatched STOP; the window
                # reopens on the next START.
                self._anomaly("orphan-stop", "STOP_EMULATION while not emulating")
                return message
            self.emulating = False
        elif kind is MessageKind.CORE_ID:
            self.current_core = message.payload
        elif kind is MessageKind.INSTRUCTIONS_RETIRED:
            if message.payload < self.instructions_retired:
                # Lenient recovery: a reordered counter message; keep
                # the monotone high-water mark.
                self._anomaly(
                    "counter-regression",
                    "instructions-retired counter moved backwards: "
                    f"{message.payload} < {self.instructions_retired}",
                )
                return message
            self.instructions_retired = message.payload
        elif kind is MessageKind.CYCLES_COMPLETED:
            if message.payload < self.cycles_completed:
                self._anomaly(
                    "counter-regression",
                    "cycles-completed counter moved backwards: "
                    f"{message.payload} < {self.cycles_completed}",
                )
                return message
            self.cycles_completed = message.payload
        return message


@dataclass
class PerformanceData:
    """What the host reads from the CB board."""

    config: DragonheadConfig
    stats: CacheStats
    instructions_retired: int
    cycles_completed: int
    samples: list[WindowSample] = field(default_factory=list)
    filtered_transactions: int = 0
    #: Anomalies the emulator recovered from (lenient mode only; empty
    #: on a strict, fault-free run).
    degradation: tuple[DegradationRecord, ...] = ()

    @property
    def mpki(self) -> float:
        """Misses per 1000 retired instructions, the paper's metric."""
        return self.stats.mpki(self.instructions_retired)

    @property
    def miss_ratio(self) -> float:
        return self.stats.miss_ratio


class DragonheadEmulator:
    """The full emulator: AF in front of four CC banks, CB collecting.

    Attach to a :class:`~repro.core.fsb.FrontSideBus` as a snooper, or
    feed it trace chunks directly via :meth:`snoop_chunk`.

    ``strict=False`` selects the lenient channel model: the AF
    resynchronizes over protocol anomalies and the sampler interpolates
    missed stat windows, with every recovery reported through
    :attr:`degradation` instead of an exception — how the physical
    platform, which could not raise on a flaky bus, had to behave.

    Bank probing is deferred.  The AF decodes every message and gates
    every chunk as it arrives, but window-gated data only queues, and a
    CYCLES_COMPLETED report only records its counters and the queue
    length.  One flush (:meth:`_flush`) then probes the queue in a
    single batch and replays the CB sampler from the cumulative misses
    at each recorded report.  That is exact because Dragonhead is
    passive: a bank's hits depend only on the order of its own
    accesses, and a window read needs only the counters at its report.
    The queue flushes once it holds ``_FLUSH_BOUND`` accesses, when a
    session opens, before a single-transaction data access, and before
    anything reads or replaces bank or sampler state (:attr:`banks`,
    :attr:`sampler`, :attr:`stats`, :meth:`read_performance_data`,
    :meth:`state_dict`, :meth:`reset_statistics`, ...).
    """

    def __init__(self, config: DragonheadConfig, strict: bool = True) -> None:
        self.strict = strict
        self._oracle = None
        # The deferred stream: (lines, kinds, cores) batches, and the
        # (cycles, instructions, queued accesses) of each progress
        # report that arrived behind queued data.
        self._pending: list[tuple[np.ndarray, np.ndarray, object]] = []
        self._pending_count = 0
        self._pending_progress: list[tuple[int, int, int]] = []
        self._build(config)

    def _build(self, config: DragonheadConfig) -> None:
        """(Re)program the FPGAs: fresh AF, CC banks, and CB sampler."""
        self.config = config
        self.af = AddressFilter(strict=self.strict)
        self._banks = [
            SetAssociativeCache(config.bank_config(bank)) for bank in range(NUM_BANKS)
        ]
        self._sampler = self._new_sampler()
        self._line_shift = config.line_size.bit_length() - 1

    def _new_sampler(self) -> WindowSampler:
        """A fresh CB sampler, tapped into the window stream.

        With telemetry off the tap is None and the sampler behaves as an
        untapped one; with it on, every closed 500 µs window publishes
        into the registry under this emulator's geometry label — the
        software analog of the host's periodic CB read.  Windows close
        when the deferred stream flushes, so they publish per flush.
        """
        return WindowSampler(
            frequency_hz=self.config.frequency_hz,
            interval_us=self.config.host_read_interval_us,
            interpolate=not self.strict,
            on_sample=telemetry.window_publisher(
                f"{format_size(self.config.cache_size)}/{self.config.line_size}B",
                self.config.line_size,
                self.config.frequency_hz,
            ),
        )

    @property
    def banks(self) -> list[SetAssociativeCache]:
        """The four CC banks, with every queued access probed."""
        self._flush()
        return self._banks

    @property
    def sampler(self) -> WindowSampler:
        """The CB sampler, with every queued progress report applied."""
        self._flush()
        return self._sampler

    # -- snooping -------------------------------------------------------

    def snoop(self, transaction) -> None:
        """Observe one bus transaction (message or data).

        A data transaction is probed at once, on the scalar path, after
        the queue ahead of it.
        """
        address = transaction.address
        if MessageCodec.is_message(address):
            self._apply_message(address)
            return
        if not self.af.emulating:
            self.af.filtered_transactions += 1
            return
        if self._oracle is not None:
            self._oracle.observe(
                np.array([address >> self._line_shift], dtype=np.uint64)
            )
        self._flush()
        self._access(address, transaction.kind, self.af.current_core)

    def snoop_chunk(self, chunk: TraceChunk) -> None:
        """Observe a chunk of data transactions.

        Chunks never span DEX slice boundaries (the scheduler emits
        CORE_ID messages between slices), so the AF's current core id
        applies to the whole chunk.  The AF gates and tags the chunk
        now (and an attached oracle sees it now); the banks see it at
        the next flush.
        """
        if not self.af.emulating:
            self.af.filtered_transactions += len(chunk)
            return
        if not len(chunk):
            return
        self._enqueue(chunk, self.af.current_core)

    def snoop_batch(self, chunk: TraceChunk) -> None:
        """Observe a core-tagged batch of data transactions.

        Unlike :meth:`snoop_chunk`, the chunk's per-access ``cores``
        tags are honoured, so one batch may span what would otherwise
        be several CORE_ID-delimited chunks.  Per-bank access order is
        the stream order (stable grouping), so CC bank state evolves
        exactly as it would under per-chunk dispatch.
        """
        if not self.af.emulating:
            self.af.filtered_transactions += len(chunk)
            return
        if not len(chunk):
            return
        self._enqueue(chunk, chunk.cores)

    def _enqueue(self, chunk: TraceChunk, cores) -> None:
        """Queue window-gated data for the next flush."""
        lines = chunk.lines(self.config.line_size)
        if self._oracle is not None:
            self._oracle.observe(lines)
        self._pending.append((lines, chunk.kinds, cores))
        self._pending_count += len(lines)
        if self._pending_count >= _FLUSH_BOUND:
            self._flush()

    def _flush(self) -> None:
        """Probe the queued stream and replay the sampler over it.

        One :meth:`_banked_probe` call covers the whole queue, with
        per-access core tags; each queued progress report then advances
        the sampler with the counters it would have read live: the
        bank totals before the flush plus the accesses and misses
        queued ahead of it.
        """
        if not self._pending_count and not self._pending_progress:
            return
        pending, self._pending = self._pending, []
        progress, self._pending_progress = self._pending_progress, []
        self._pending_count = 0
        base_accesses = sum(bank.stats.accesses for bank in self._banks)
        base_misses = sum(bank.stats.misses for bank in self._banks)
        hits = (
            self._banked_probe(*_concatenate(pending))
            if pending
            else np.empty(0, dtype=bool)
        )
        if not progress:
            return
        rows = np.array(progress, dtype=np.int64)
        offsets = rows[:, 2]
        cumulative_misses = np.concatenate(([0], np.cumsum(~hits, dtype=np.int64)))
        accesses = base_accesses + offsets
        misses = base_misses + cumulative_misses[offsets]
        sampler = self._sampler
        if not sampler.interpolate:
            sampler.advance_series(rows[:, 0], rows[:, 1], accesses, misses)
            return
        for cycles, instructions, at_accesses, at_misses in zip(
            rows[:, 0].tolist(), rows[:, 1].tolist(), accesses.tolist(), misses.tolist()
        ):
            sampler.advance(
                cycles,
                instructions,
                CacheStats(
                    accesses=at_accesses, hits=at_accesses - at_misses, misses=at_misses
                ),
            )

    def _banked_probe(self, lines, kinds, cores) -> np.ndarray:
        """Route one line batch to the CC banks, vectorized.

        One stable argsort groups the batch by bank; ``searchsorted``
        over the sorted bank indices yields each bank's contiguous
        slice, probed with a single batch call.  The stable sort
        preserves per-bank access order, which is all LRU state depends
        on — so this is bit-identical to per-access dispatch.

        ``cores`` may be a scalar (whole batch one core) or a
        per-access array.  Returns the per-access hit mask in stream
        order.
        """
        bank_index = (lines & _BANK_MASK).astype(np.uint8)
        order = np.argsort(bank_index, kind="stable")
        sorted_banks = bank_index[order]
        bounds = np.searchsorted(
            sorted_banks, np.arange(NUM_BANKS + 1, dtype=np.uint8), side="left"
        )
        sorted_lines = lines[order] >> _BANK_SHIFT_U64
        sorted_kinds = kinds[order]
        per_access_cores = not np.isscalar(cores) and getattr(cores, "ndim", 0) > 0
        sorted_cores = cores[order] if per_access_cores else cores
        hits_sorted = np.empty(len(lines), dtype=bool)
        for b in range(NUM_BANKS):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            if lo == hi:
                continue
            bank_cores = sorted_cores[lo:hi] if per_access_cores else sorted_cores
            hits_sorted[lo:hi] = self._banks[b].probe_lines_batch(
                sorted_lines[lo:hi], sorted_kinds[lo:hi], bank_cores
            )
        hits = np.empty(len(lines), dtype=bool)
        hits[order] = hits_sorted
        return hits

    def emulate_stream(
        self, chunk: TraceChunk, progress: np.ndarray, filtered: int = 0
    ) -> None:
        """Run one whole emulation session as a single batched pass.

        Equivalent — counter for counter, window for window, LRU state
        for LRU state — to issuing START, then interleaving CORE_ID
        switches, data chunks, and INSTRUCTIONS_RETIRED /
        CYCLES_COMPLETED progress messages per ``progress``, then STOP.

        Args:
            chunk: the full core-tagged data stream of the session.
            progress: int array of shape ``(P, 3)`` — rows of
                ``(offset, instructions, cycles)`` meaning "after
                ``offset`` data accesses, a progress report carrying
                these cumulative counters arrived".  Offsets and both
                counters must be non-decreasing, as any AF-captured
                session satisfies.
            filtered: out-of-window transaction count to restore (what
                the AF dropped before/around the captured session).

        The AF's counters are reconstructed arithmetically; the stream
        and the progress rows then go through the same flush as the
        per-event route, as one queue however long: one probe per
        bank, and the 500 µs windows aggregated by ``searchsorted``
        over the progress series instead of a per-message clock check.
        Only available on a strict emulator: the lenient channel model
        (anomaly resynchronization, window interpolation) needs to see
        each message.
        """
        if not self.strict:
            raise ConfigurationError(
                "emulate_stream requires a strict emulator; lenient runs "
                "keep the per-message path"
            )
        af = self.af
        if af.emulating:
            raise RecoverableProtocolError("START_EMULATION while already emulating")
        progress = np.asarray(progress, dtype=np.int64).reshape(-1, 3)
        n = len(chunk)
        offsets = progress[:, 0]
        instructions = progress[:, 1]
        cycles = progress[:, 2]
        if len(progress):
            if (
                int(offsets[0]) < 0
                or int(offsets[-1]) > n
                or np.any(np.diff(offsets) < 0)
            ):
                raise ConfigurationError(
                    "progress offsets must be non-decreasing and within the stream"
                )
            if np.any(np.diff(instructions) < 0) or int(instructions[0]) < 0:
                raise RecoverableProtocolError(
                    "instructions-retired counter moved backwards"
                )
            if np.any(np.diff(cycles) < 0) or int(cycles[0]) < 0:
                raise RecoverableProtocolError(
                    "cycles-completed counter moved backwards"
                )
        # The session opener: what an earlier session queued is probed
        # before this one's counters restart.
        self._flush()
        af.filtered_transactions += int(filtered)
        af.emulating = True
        af.instructions_retired = 0
        af.cycles_completed = 0
        # The whole session is one queue, whatever the bound: its reports
        # go in first, so a flush the data triggers applies them.
        self._pending_progress = list(
            zip(cycles.tolist(), instructions.tolist(), offsets.tolist())
        )
        core_messages = 0
        if n:
            self._enqueue(chunk, chunk.cores)
            af.current_core = int(chunk.cores[-1])
            core_messages = 1 + int(
                np.count_nonzero(chunk.cores[1:] != chunk.cores[:-1])
            )
            telemetry.counter("repro_cosim_batched_accesses_total").inc(n)
        self._flush()
        if len(progress):
            af.instructions_retired = int(instructions[-1])
            af.cycles_completed = int(cycles[-1])
        # START + STOP + two counter messages per progress report +
        # one CORE_ID per core run (continuation words of wide payloads
        # decode to None and never count).
        af.messages_seen += 2 + 2 * len(progress) + core_messages
        af.emulating = False

    def _access(self, address: int, kind: AccessKind, core: int) -> None:
        line = address >> self._line_shift
        bank = self._banks[line % NUM_BANKS]
        bank.access_line(line >> BANK_SHIFT, kind, core)

    def _apply_message(self, address: int) -> None:
        af = self.af
        message = af.handle_message(address)
        if message is None:
            return
        if message.kind is MessageKind.START_EMULATION:
            # A new session restarts the progress counters; the queued
            # reports belong to the old one.
            self._flush()
        elif message.kind is MessageKind.CYCLES_COMPLETED:
            if self._pending_count:
                self._pending_progress.append(
                    (af.cycles_completed, af.instructions_retired, self._pending_count)
                )
            else:
                self._sampler.advance(
                    af.cycles_completed, af.instructions_retired, self.stats
                )

    # -- audit oracle -----------------------------------------------------

    def attach_oracle(self, tap) -> None:
        """Hook a differential-oracle tap into the snoop path.

        The tap sees exactly the line-number stream the CC banks see —
        after the AF's window gating, so the oracle and the banks stay
        access-for-access aligned.  Pass ``None`` to detach.
        """
        self._oracle = tap

    @property
    def oracle(self):
        """The attached differential-oracle tap, if any."""
        return self._oracle

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> dict[str, object]:
        """Full emulator state (AF + CC banks + CB sampler + oracle).

        The deferred stream is flushed first, so a checkpoint never
        holds queued data.
        """
        self._flush()
        state: dict[str, object] = {
            "config": self.config,
            "af": self.af.state_dict(),
            "banks": [bank.state_dict() for bank in self._banks],
            "sampler": self._sampler.state_dict(),
        }
        if self._oracle is not None:
            state["oracle"] = self._oracle.state_dict()
        return state

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore emulator state captured by :meth:`state_dict`."""
        from repro.errors import CheckpointError

        if state["config"] != self.config:
            raise CheckpointError(
                f"checkpoint emulator config {state['config']!r} does not "
                f"match this emulator's {self.config!r}"
            )
        self._flush()
        self.af.load_state_dict(state["af"])  # type: ignore[arg-type]
        banks = state["banks"]
        if len(banks) != len(self._banks):  # type: ignore[arg-type]
            raise CheckpointError(
                f"checkpoint has {len(banks)} CC banks, expected {len(self._banks)}"  # type: ignore[arg-type]
            )
        for bank, bank_state in zip(self._banks, banks):  # type: ignore[arg-type]
            bank.load_state_dict(bank_state)
        self._sampler.load_state_dict(state["sampler"])  # type: ignore[arg-type]
        if self._oracle is not None:
            if "oracle" not in state:
                raise CheckpointError(
                    "checkpoint was written without an audit oracle but this "
                    "run audits; rerun without --audit or from scratch"
                )
            self._oracle.load_state_dict(state["oracle"])

    # -- control-board interface -----------------------------------------

    @property
    def stats(self) -> CacheStats:
        """Aggregate counters across the four CC banks (what CB collects)."""
        self._flush()
        total = CacheStats()
        for bank in self._banks:
            total = total.merge(bank.stats)
        return total

    @property
    def degradation(self) -> tuple[DegradationRecord, ...]:
        """Recovered-anomaly records from the AF and the CB sampler."""
        self._flush()
        counts = dict(self.af.anomalies)
        if self._sampler.interpolated_windows:
            counts["window-interpolated"] = self._sampler.interpolated_windows
        return records_from_counts(counts, RECOVERED)

    def read_performance_data(self) -> PerformanceData:
        """The host's CB read: configuration, counters, window samples."""
        stats = self.stats
        self._sampler.finalize(
            self.af.cycles_completed, self.af.instructions_retired, stats
        )
        return PerformanceData(
            config=self.config,
            stats=stats,
            instructions_retired=self.af.instructions_retired,
            cycles_completed=self.af.cycles_completed,
            samples=list(self._sampler.samples),
            filtered_transactions=self.af.filtered_transactions,
            degradation=self.degradation,
        )

    def reset_statistics(self) -> None:
        """Clear the CB counters, keeping cache residency.

        The host uses this to exclude warm-up: run a prefix of the
        workload, clear, then measure steady-state behaviour.  The
        queued prefix is probed (and counted) before the clear.
        """
        self._flush()
        for bank in self._banks:
            bank.reset_stats()
        self._sampler = self._new_sampler()

    def reconfigure(self, config: DragonheadConfig) -> None:
        """Reprogram the FPGAs with a new cache configuration.

        Rebuilds the AF, the CC banks, and the CB sampler explicitly
        (rather than re-running ``__init__`` on a live object), so no
        emulation state — counters, residency, window samples, or the
        AF's session flags — can survive a reconfiguration.  The old
        geometry's queued stream is flushed into it first.
        """
        self._flush()
        self._build(config)
