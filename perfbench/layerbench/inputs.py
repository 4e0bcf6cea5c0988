"""Seeded inputs: the job specs and the open-loop schedule each workload sends.

Everything here is a pure function of ``--seed`` (and, for the
schedule, of the run length), built with :class:`random.Random` keyed by
the workload name and seed, so the same seed yields byte-identical
inputs and the program under test receives only these generated specs
and schedules.  :func:`canonical` is the byte form the tests compare.
"""

from __future__ import annotations

import json
import math
import random
from typing import Any

MB = 1 << 20

#: The paper's Dragonhead design-space ladder: 1 MB to 128 MB, doubling.
LADDER_MB = (1, 2, 4, 8, 16, 32, 64, 128)

#: Stream shape shared by both sweep workloads (FIMI synthetic, 4 x 256 Ki,
#: the CLI's default quantum).  The seed changes nothing that sets the
#: amount of work: a pass over the same configurations costs the same
#: whatever order they come in or where the faults land.
SWEEP_STREAM = {
    "workload": "FIMI",
    "cores": 4,
    "source": "synthetic",
    "accesses": 262144,
    "quantum": 4096,
}

#: Bus faults injected on ``sweep_faulty``: every channel the lenient
#: emulator recovers from, at rates that fire hundreds of times per pass.
FAULT_RATES = "drop-data=0.001,dup-data=0.001,drop-msg=0.005,miss-window=0.05"

#: Sizes a ``sweep_faulty`` pass sweeps: every other rung of the ladder.
FAULTY_MB = (2, 8, 32, 128)

#: Open-loop offered load on ``serve_open`` (requests per second).
SERVE_RATE = 10.0

#: Latency limit a served request must meet to count in ``slo_met_ratio``.
SERVE_SLO_MS = 500.0

#: A sweep pass that takes longer than this misses its latency limit.
SWEEP_SLO_MS = {"sweep_ladder": 12000.0, "sweep_faulty": 9000.0}

#: Share of serve requests that repeat an earlier spec exactly.
REPEAT_SHARE = 0.2

#: Share of serve requests that arrive together with a fresh request of
#: the same capture group (and so ride its replay pass).
RIDER_SHARE = 0.2

#: Capture groups on ``serve_open``: one trace each (workload, cores, accesses).
SERVE_GROUPS = tuple(
    (workload, cores, accesses)
    for workload in ("FIMI", "SNP", "SVM-RFE", "RSEARCH")
    for cores, accesses in ((2, 8192), (4, 8192), (2, 16384))
)

#: Overlapping two-size ladders a served request sweeps (MB).
SERVE_PAIRS = ((1, 2), (2, 4), (4, 8), (8, 16), (16, 32), (1, 4), (2, 8), (4, 16), (8, 32))
SERVE_LINES = (64, 128, 256)


def canonical(value: Any) -> bytes:
    """The byte form generated inputs are compared in."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _order(rng: random.Random, seed: int, sizes_mb: tuple[int, ...]) -> list[int]:
    """Cache sizes in bytes: ascending for seed 0, a seeded permutation otherwise."""
    order = list(sizes_mb) if seed == 0 else rng.sample(sizes_mb, len(sizes_mb))
    return [mb * MB for mb in order]


def ladder_spec(seed: int) -> dict[str, Any]:
    """``sweep_ladder``: the full 1-128 MB ladder, strict, one batched pass."""
    rng = _rng("sweep_ladder", seed)
    return {**SWEEP_STREAM, "cache": _order(rng, seed, LADDER_MB), "audit": "off"}


def faulty_spec(seed: int) -> dict[str, Any]:
    """``sweep_faulty``: lenient, seeded bus faults, sampled audit, 4 sizes."""
    rng = _rng("sweep_faulty", seed)
    return {
        **SWEEP_STREAM,
        "cache": _order(rng, seed, FAULTY_MB),
        "lenient": True,
        "inject": f"seed={rng.randrange(1 << 16)},{FAULT_RATES}",
        "audit": "sample",
    }


def _stratified_gaps(rng: random.Random, count: int, rate: float) -> list[float]:
    """Exponential inter-arrival gaps at ``rate``, one per stratum, shuffled.

    Gap ``i`` is the exponential quantile at ``(i + 0.5) / count``, so
    every schedule has exactly the exponential gap distribution (a
    Poisson process's) and the same span; the seed decides the order.
    This keeps run-to-run spread down to what the system does rather
    than what one unlucky draw of a Poisson count does.
    """
    gaps = [-math.log(1.0 - (i + 0.5) / count) / rate for i in range(count)]
    rng.shuffle(gaps)
    return gaps


def serve_schedule(seed: int, seconds: float) -> list[dict[str, Any]]:
    """``serve_open``: an open-loop schedule of ``SERVE_RATE * seconds`` requests.

    Requests arrive in events whose gaps are exponential.  An event is a
    fresh request, a fresh request with riders (same capture group,
    other sizes, due at the same instant, so they coalesce into one
    replay pass), or an exact repeat of an earlier spec (answered from
    the result store once that one completed).  Fresh requests draw a
    (size pair, line) without replacement, so only the planned repeats
    coincide.  Capture groups are introduced progressively: cold
    captures and trace-cache stores happen throughout the run, followed
    by warm loads.
    """
    rng = _rng("serve_open", seed)
    count = max(20, round(SERVE_RATE * seconds))
    repeats = round(REPEAT_SHARE * count)
    riders = round(RIDER_SHARE * count)
    fresh_total = count - repeats - riders
    # Events: each fresh request carries 0-2 riders; repeats stand alone.
    carried = [0] * fresh_total
    for _ in range(riders):
        carried[rng.choice([i for i, n in enumerate(carried) if n < 2])] += 1
    events: list[tuple[str, int]] = [("fresh", n) for n in carried]
    events += [("repeat", 0)] * repeats
    rng.shuffle(events)
    first = next(i for i, event in enumerate(events) if event[0] == "fresh")
    events[0], events[first] = events[first], events[0]
    gaps = _stratified_gaps(rng, len(events), SERVE_RATE * len(events) / count)
    modes = ["interactive", "batch"] * (count // 2 + 1)
    rng.shuffle(modes)

    groups = list(SERVE_GROUPS)
    rng.shuffle(groups)
    combos = {
        group: rng.sample(
            [(pair, line) for pair in SERVE_PAIRS for line in SERVE_LINES],
            len(SERVE_PAIRS) * len(SERVE_LINES),
        )
        for group in groups
    }
    block = max(1, fresh_total // len(groups))

    def fresh_spec(group) -> dict[str, Any]:
        pool = combos[group]
        (small, large), line = pool.pop() if pool else (rng.choice(SERVE_PAIRS), 64)
        workload, cores, accesses = group
        return {
            "workload": workload,
            "cores": cores,
            "source": "synthetic",
            "accesses": accesses,
            "cache": [small * MB, large * MB],
            "line": line,
            "audit": "off",
        }

    rows: list[dict[str, Any]] = []
    fresh_specs: list[dict[str, Any]] = []
    due = 0.0

    def add(kind: str, spec: dict[str, Any]) -> None:
        index = len(rows)
        rows.append(
            {
                "index": index,
                "due_s": round(due, 6),
                "mode": modes[index],
                "priority": rng.randrange(3),
                "kind": kind,
                "spec": spec,
            }
        )

    for (kind, rider_count), gap in zip(events, gaps):
        due += gap
        if kind == "repeat":
            add(kind, dict(rng.choice(fresh_specs)))
            continue
        n = len(fresh_specs)
        newest = min(len(groups) - 1, n // block)
        # A block opens with its new group's cold capture; the rest of
        # the block mixes it with groups already captured.  Only a run
        # far longer than the pools allow repeats a combination.
        def fits(group) -> bool:
            return len(combos[group]) > rider_count

        opened = [group for group in groups[: newest + 1] if fits(group)]
        if fits(groups[newest]) and (n % block == 0 or rng.random() < 0.5):
            group = groups[newest]
        elif opened:
            group = rng.choices(opened, weights=[len(combos[g]) for g in opened])[0]
        else:
            group = rng.choice([g for g in groups if fits(g)] or groups)
        fresh_specs.append(fresh_spec(group))
        add(kind, fresh_specs[-1])
        for _ in range(rider_count):
            add("rider", fresh_spec(group))
    return rows
