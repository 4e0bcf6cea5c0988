"""Checkpoint/resume for long co-simulation points.

The sweep supervisor makes sweeps survive crashed *points*; this
package makes a single point survive its own death.  Every run —
``CoSimPlatform.run`` and ``replay`` alike — executes as capture +
replay, and snapshots are taken only at replay event boundaries.  The
captured log is deterministic, so a snapshot holds just the replay
position and the emulator: the AF's protocol session state (including
the codec's stashed wide-payload words), the CC banks' full directory
contents as dense numpy dumps, the CB sampler's window accumulators,
and the audit oracle's shadow directories.  A resumed run re-captures
(or re-loads) the log and continues *bit-identically* to one that was
never interrupted (a differential test enforces field-for-field
`CoSimResult` equality).

Snapshots are versioned and CRC-32 guarded, written atomically
(tmp + rename), and carry an identity block so a checkpoint can never
be resumed against a different workload, core count, or cache
configuration.
"""

from __future__ import annotations

from repro.checkpoint.snapshot import (
    SNAPSHOT_VERSION,
    DeferredInterrupt,
    read_snapshot,
    write_snapshot,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "DeferredInterrupt",
    "read_snapshot",
    "write_snapshot",
]
