"""Degradation records: what was injected, what was recovered.

Every fault the platform survives leaves a record — either at the
injection site (the :class:`~repro.faults.injector.FaultInjector`
counting what it did to the bus) or at the recovery site (the lenient
address filter, the interpolating window sampler, the trace cache's
quarantine, the sweep supervisor's retry loop).  The records flow into
:class:`~repro.core.cosim.CoSimResult` and up to the CLIs, which render
them as the degradation report — the software analog of the error
counters a hardware bring-up team reads after a flaky run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

#: Record sources.
INJECTED = "injected"
RECOVERED = "recovered"
#: A lenient-mode run whose end-of-run audit found violated invariants
#: (strict mode raises :class:`~repro.errors.AuditError` instead).
AUDIT = "audit"
#: A resource budget fired and the run degraded instead of dying: a
#: trace-cache store fell back to cache-off, a supervised map clamped
#: to serial under memory pressure, a deadline drained the sweep.
GOVERNOR = "governor"


@dataclass(frozen=True, slots=True)
class DegradationRecord:
    """One counted anomaly class from one source.

    Attributes:
        kind: taxonomy key (e.g. ``"msg-drop"``, ``"orphan-stop"``;
            see the table in ``docs/architecture.md``).
        source: :data:`INJECTED` (a fault plan put it on the bus) or
            :data:`RECOVERED` (a lenient component resynchronized over
            it).
        count: occurrences.
        detail: optional human-readable context.
    """

    kind: str
    source: str
    count: int
    detail: str = ""


def records_from_counts(
    counts: Mapping[str, int], source: str, detail: str = ""
) -> tuple[DegradationRecord, ...]:
    """Lift a ``{kind: count}`` counter dict into records (zeros dropped)."""
    return tuple(
        DegradationRecord(kind=kind, source=source, count=count, detail=detail)
        for kind, count in sorted(counts.items())
        if count
    )


def collect_run_degradation(injector, performance) -> tuple[DegradationRecord, ...]:
    """One run's degradation: injection-site plus recovery-site records.

    The single counting path of the replay body every run goes through
    (:func:`repro.harness.replay.replay_point`): the injector's records
    merged with the :class:`~repro.cache.emulator.PerformanceData`
    degradation.  ``injector`` may be None (no fault plan on the bus).
    """
    injected = injector.records if injector is not None else ()
    return merge_records(injected, performance.degradation)


def merge_records(
    *groups: Iterable[DegradationRecord],
) -> tuple[DegradationRecord, ...]:
    """Combine record groups, summing counts per (kind, source, detail).

    The result is sorted, so merged reports are deterministic no matter
    which order the sources were collected in — a requirement for the
    same-seed-identical-stats contract.
    """
    totals: dict[tuple[str, str, str], int] = {}
    for group in groups:
        for record in group:
            key = (record.kind, record.source, record.detail)
            totals[key] = totals.get(key, 0) + record.count
    return tuple(
        DegradationRecord(kind=kind, source=source, count=count, detail=detail)
        for (kind, source, detail), count in sorted(totals.items())
        if count
    )
