"""Order statistics the benchmark reports timings with.

Every timing is a median plus the highest percentile its sample can
support.  A percentile "can be supported" when at least
:data:`MIN_BEYOND` samples lie strictly beyond its nearest rank: with
fewer, the reported value is one or two outliers, not a percentile.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a percentile's rank for it to be reported.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Raised when a percentile has fewer than ``MIN_BEYOND`` samples beyond it."""


def nearest_rank(values: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-quantile (0 < q <= 1) and its 1-based rank.

    The value is the smallest sample such that at least ``q`` of the
    sample is at or below it; no interpolation, so the result is always
    one of the measured values.
    """
    if not values:
        raise InsufficientSamples("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], rank


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile, refused unless ``min_beyond`` samples exceed its rank."""
    value, rank = nearest_rank(values, q)
    beyond = len(values) - rank
    if beyond < min_beyond:
        raise InsufficientSamples(
            f"p{q * 100:g} of {len(values)} samples has {beyond} beyond it; "
            f"at least {min_beyond} are needed"
        )
    return value


def median(values: Sequence[float]) -> float:
    """The sample median (mean of the two middle values for even counts)."""
    if not values:
        raise InsufficientSamples("no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
