"""Host-speed calibration: a fixed reference loop timed alongside the workload.

The 2-vCPU Xeon VM this benchmark was first measured on (shared with other tenants)
switches between speed regimes that last minutes: the same sweep pass
took 2.4 s for several minutes, then 3.7 s for the next several, and a
run-level median cannot average over that.  So every run also times a
fixed reference loop — the same kind of work the simulator does: a
Python loop of dict pops and inserts, like the LRU probe, and a stable
numpy argsort, like bank routing — between its units of work, and
reports its timings in *reference seconds*:

    reported = measured * REFERENCE_NOMINAL_S / median(reference samples)

A sweep pass is scaled by the samples taken just before and after it; a
served request by the samples taken nearest its due time.  On a host that runs the loop in ``REFERENCE_NOMINAL_S`` the two agree;
on a host that is uniformly slower by some factor, the reported value
does not move.  A change to the program leaves the loop untouched, so it
moves the reported value exactly as it moves the measured one.  The
measured values and the loop's median are reported as well.
"""

from __future__ import annotations

import time

import numpy as np

from layerbench.stats import median

#: The loop's time on the reference host: a 2-vCPU Xeon VM, Python 3.11, numpy 2.4.
REFERENCE_NOMINAL_S = 0.055

_KEYS = [(k * 7) & 8191 for k in range(160_000)]
_LINES = np.random.default_rng(1).integers(0, 1 << 30, 1 << 19).astype(np.uint64)


def reference_loop() -> float:
    """Seconds one fixed unit of probe-like work takes on this host, now."""
    start = time.perf_counter()
    ways: dict[int, None] = {}
    for key in _KEYS:
        if ways.pop(key, None) is None:
            ways[key] = None
    np.argsort(_LINES & np.uint64(3), kind="stable")
    return time.perf_counter() - start


class HostClock:
    """Collects reference samples during a run and converts times to reference seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.taken_at: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(reference_loop())
            self.taken_at.append(time.time())

    def scale_at(self, when: float, nearest: int = 6) -> float:
        """Reference seconds per measured second around wall time ``when``."""
        order = sorted(range(len(self.samples)), key=lambda i: abs(self.taken_at[i] - when))
        return self.scale([self.samples[i] for i in order[:nearest]])

    @staticmethod
    def scale(samples: list[float]) -> float:
        """Reference seconds per measured second, judged from ``samples``."""
        return REFERENCE_NOMINAL_S / median(samples)

    @property
    def factor(self) -> float:
        """Reference seconds per measured second over the whole run."""
        return self.scale(self.samples)
