"""Host facts: the machine stamp every result carries, and peak memory."""

from __future__ import annotations

import os
import platform
import resource


def machine_stamp() -> dict[str, object]:
    """Who measured: ratios are only taken between results with equal stamps."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")
