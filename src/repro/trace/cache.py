"""Content-addressed on-disk cache for captured trace artifacts.

The expensive half of the co-simulation path is everything *above* the
front-side bus: running the instrumented mining kernels (or the
synthetic generators), DEX-scheduling their per-thread streams, and
encoding the Section 3.3 message protocol.  All of that is a pure
function of the workload identity and the platform parameters, so its
output — the replay log :mod:`repro.harness.replay` captures — can be
cached on disk and reused across processes and invocations.

This module provides the storage layer only; it knows nothing about
replay logs.  An *entry* is a JSON-able metadata dict plus a set of
named numpy arrays:

* the key is the SHA-256 of the canonical JSON of the caller's key
  fields (workload name, trace source, model parameters, thread count,
  seed, access count, scheduling quantum, ...) — content addressing
  means invalidation is automatic: change any field and you address a
  different entry;
* each entry is a directory ``root/ab/cdef.../`` holding one ``.npy``
  file per array plus ``manifest.json`` recording dtype, shape, byte
  size, and a CRC-32 of every array file for integrity checking — the
  checksum catches in-place bit corruption that leaves sizes and
  headers intact, which is exactly what a flaky disk or an injected
  fault produces;
* writers build the entry in a private temp directory and publish it
  with one atomic :func:`os.rename`, so concurrent ``--jobs`` workers
  (or concurrent CI shards sharing a cache volume) can race on the same
  key without ever exposing a half-written entry — the losers simply
  discard their copy;
* readers validate the manifest against the files and treat *any*
  damage (truncated manifest, missing or short array file, dtype or
  shape drift, checksum mismatch) as a miss, so a corrupted cache
  regenerates instead of crashing; the damaged entry is *quarantined*
  to a sibling ``....corrupt`` directory rather than deleted, so the
  evidence survives for diagnosis while the key becomes free for a
  clean republish.

Loads memory-map the arrays by default, so fanning one captured log out
to N worker processes shares pages instead of duplicating the log.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import uuid
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.governor.budget import active_governor
from repro.governor.fsshim import fault_point
from repro.governor.retry import retry_io
from repro.telemetry import runtime as telemetry

#: Manifest file name inside every entry directory.
MANIFEST_NAME = "manifest.json"

#: Manifest schema version; bump on incompatible layout changes (old
#: entries then simply miss and regenerate).  v2 added per-array CRC-32
#: checksums; v3 added the manifest's own CRC-32, verified before any
#: array file is even stat'ed, closing the window where a concurrently
#: quarantined (or torn) manifest steered a reader at the wrong files.
FORMAT_VERSION = 3

#: Suffix appended to a damaged entry's directory when it is moved
#: aside instead of deleted.
QUARANTINE_SUFFIX = ".corrupt"

#: Environment variable consulted when no explicit directory is given.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: Values (case-insensitive) that disable the cache when passed as a
#: ``--trace-cache`` argument or via :data:`TRACE_CACHE_ENV`.
OFF_VALUES = frozenset({"", "0", "off", "none", "disabled"})

#: Directory (under the cache root) holding reader pins.  A pin marks a
#: key as in-use for the validate-and-mmap window so the quota evictor
#: (:mod:`repro.governor.gc`) will not yank the entry mid-read.
PINS_DIR = ".pins"

#: How many single-entry evictions one :meth:`TraceCache.store` may
#: trigger while fighting ENOSPC before giving up and going cache-off.
ENOSPC_EVICT_LIMIT = 8


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists but is not ours (or an exotic platform)
    return True


@contextmanager
def pin_entry(root: Path, key: str) -> Iterator[None]:
    """Pin ``key`` against eviction for the duration of the block.

    The pin is a file in ``root/.pins`` whose name carries the key and
    the owning pid; the evictor skips pinned keys and deletes pins
    whose pid is dead (a reader that crashed mid-load must not pin its
    entry forever).  Pinning is best-effort — on a read-only cache
    volume the pin silently does not happen, which only widens the
    (already survivable) reader-vs-evictor race back to what it was.
    """
    pin: Path | None = None
    try:
        pins = root / PINS_DIR
        pins.mkdir(exist_ok=True)
        pin = pins / f"{key}.{os.getpid()}.{uuid.uuid4().hex[:8]}.pin"
        pin.write_text(str(os.getpid()), encoding="utf-8")
    except OSError:
        pin = None
    try:
        yield
    finally:
        if pin is not None:
            try:
                pin.unlink()
            except OSError:
                pass


def pinned_keys(root: Path) -> set[str]:
    """Keys currently pinned by a *live* process; stale pins are reaped.

    A pin whose recorded pid no longer exists belongs to a crashed
    reader — it is deleted on sight so one dead process cannot shield
    an entry from eviction forever.
    """
    keys: set[str] = set()
    try:
        pins = list((root / PINS_DIR).iterdir())
    except OSError:
        return keys
    for pin in pins:
        parts = pin.name.split(".")
        if len(parts) < 4 or parts[-1] != "pin":
            continue
        try:
            pid = int(parts[-3])
        except ValueError:
            continue
        if _pid_alive(pid):
            keys.add(parts[0])
        else:
            try:
                pin.unlink()
            except OSError:
                pass
    return keys


@dataclass
class TraceCacheStats:
    """Observable counters for one :class:`TraceCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    quarantined: int = 0
    #: Governance counters (PR 9).  Kept out of :meth:`describe` unless
    #: nonzero so un-governed runs print byte-identical stats lines.
    evictions: int = 0
    enospc: int = 0
    gc_quarantined: int = 0
    gc_orphans: int = 0
    gc_checkpoints: int = 0

    def describe(self) -> str:
        line = (
            f"hits={self.hits} misses={self.misses} "
            f"stores={self.stores} corrupt={self.corrupt} "
            f"quarantined={self.quarantined}"
        )
        extras = " ".join(
            f"{name}={getattr(self, name)}"
            for name in (
                "evictions",
                "enospc",
                "gc_quarantined",
                "gc_orphans",
                "gc_checkpoints",
            )
            if getattr(self, name)
        )
        return f"{line} {extras}" if extras else line

    def count(self, event: str) -> None:
        """Bump one counter, mirroring it into the telemetry registry.

        ``event`` is one of the field names above.  The attribute stays
        the source the CLI's ``trace cache:`` line prints; the mirrored
        ``repro_trace_cache_events_total{event=}`` counter is what the
        profile's hit-rate readout consumes.
        """
        setattr(self, event, getattr(self, event) + 1)
        telemetry.counter("repro_trace_cache_events_total", event=event).inc()


def _file_crc32(path: Path) -> int:
    """Streaming CRC-32 of one file (small constant memory)."""
    crc = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            crc = zlib.crc32(chunk, crc)
    return crc


def _manifest_crc(manifest: Mapping[str, object]) -> int:
    """Self-checksum of a manifest: CRC-32 over its canonical JSON
    (excluding the ``crc`` field itself)."""
    body = {name: value for name, value in manifest.items() if name != "crc"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def _read_entry(
    entry: Path, mmap: bool, expect_key: str | None
) -> tuple[dict, dict[str, np.ndarray]]:
    """Validate and load one entry directory; raises on any damage.

    The manifest's own CRC-32 is verified *first* — before any array
    file is stat'ed, checksummed, or memory-mapped — so a torn or
    tampered manifest can never steer the reader at the wrong files.
    """
    with open(entry / MANIFEST_NAME, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("crc") != _manifest_crc(manifest):
        raise ValueError("manifest self-checksum mismatch")
    if manifest.get("format") != FORMAT_VERSION:
        raise ValueError("manifest schema mismatch")
    if expect_key is not None and manifest.get("key") != expect_key:
        raise ValueError("manifest key mismatch")
    arrays: dict[str, np.ndarray] = {}
    for name, spec in manifest["arrays"].items():
        path = entry / spec["file"]
        if path.stat().st_size != spec["file_bytes"]:
            raise ValueError(f"array file {name!r} size mismatch")
        if _file_crc32(path) != spec["crc32"]:
            raise ValueError(f"array file {name!r} checksum mismatch")
        array = np.load(path, mmap_mode="r" if mmap else None)
        if str(array.dtype) != spec["dtype"] or list(array.shape) != list(
            spec["shape"]
        ):
            raise ValueError(f"array {name!r} header mismatch")
        arrays[name] = array
    return manifest["meta"], arrays


def load_validated_entry(
    entry_dir: str | os.PathLike, mmap: bool = True
) -> tuple[dict, dict[str, np.ndarray]]:
    """Validate and load an entry by directory path (no cache object).

    The sweep-worker path: fan-out workers receive an entry *path* and
    memory-map it directly, without constructing a :class:`TraceCache`.
    Runs the identical validation :meth:`TraceCache.load` runs —
    manifest self-CRC first, then per-array size/checksum/header — and
    raises :class:`~repro.errors.TraceError` on any damage instead of
    silently mapping a concurrently quarantined or corrupted entry.
    """
    entry = Path(entry_dir)
    try:
        return _read_entry(entry, mmap, expect_key=None)
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise TraceError(
            f"trace-cache entry {entry} failed validation: {error}"
        ) from error


def entry_content_key(entry_dir: str | os.PathLike) -> str:
    """Address of what an entry holds, wherever and under whatever key.

    A :func:`cache_key` of the manifest's metadata and its per-array
    dtype, shape, size and CRC-32 — not the entry's key or directory —
    so the same arrays spilled to a fresh temporary cache or stored in
    a persistent one share it.  The CRC-32s make it an identity for
    bookkeeping (sweep-journal points), not an authentication.
    """
    with open(Path(entry_dir) / MANIFEST_NAME, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    arrays = {
        name: {field: value for field, value in spec.items() if field != "file"}
        for name, spec in manifest["arrays"].items()
    }
    return cache_key({"meta": manifest["meta"], "arrays": arrays})


def cache_key(fields: Mapping[str, object]) -> str:
    """Content address of a key-field mapping (hex SHA-256).

    Fields must be JSON-serializable; canonical form (sorted keys, no
    whitespace) makes the address independent of insertion order.
    """
    canonical = json.dumps(dict(fields), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TraceCache:
    """A content-addressed store of (metadata, numpy arrays) entries."""

    def __init__(
        self, root: str | os.PathLike, disk_quota: int | None = None
    ) -> None:
        if disk_quota is not None and disk_quota <= 0:
            raise ConfigurationError(
                f"trace-cache disk quota must be positive, got {disk_quota}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = TraceCacheStats()
        #: Bytes the cache may occupy; stores over it trigger LRU
        #: eviction (:func:`repro.governor.gc.enforce_quota`).
        self.disk_quota = disk_quota
        #: Latched final fallback: after persistent ENOSPC with nothing
        #: left to evict, stores become no-ops (loads keep working — a
        #: full disk does not invalidate what is already cached).
        self.off = False

    # -- addressing ---------------------------------------------------

    def entry_dir(self, key: str) -> Path:
        """Directory an entry with ``key`` lives in (two-level fan-out)."""
        if len(key) < 3:
            raise ConfigurationError(f"trace-cache key too short: {key!r}")
        return self.root / key[:2] / key[2:]

    def contains(self, key: str) -> bool:
        """Whether a (superficially) complete entry exists for ``key``."""
        return (self.entry_dir(key) / MANIFEST_NAME).is_file()

    # -- reading ------------------------------------------------------

    def load(
        self, key: str, mmap: bool = True
    ) -> tuple[dict, dict[str, np.ndarray]] | None:
        """Return ``(meta, arrays)`` for ``key``, or None on miss.

        Any integrity failure — unreadable or truncated manifest, wrong
        schema, missing array file, byte-size/dtype/shape mismatch, or a
        CRC-32 checksum miscompare — is reported as a miss (and counted
        in ``stats.corrupt``) so callers regenerate rather than crash on
        a damaged cache.  The damaged entry is quarantined to
        ``<entry>.corrupt`` (counted in ``stats.quarantined``), keeping
        the evidence while freeing the key for a clean republish.
        """
        entry = self.entry_dir(key)
        try:
            with pin_entry(self.root, key):
                if not (entry / MANIFEST_NAME).is_file():
                    # No manifest means no entry at all — a clean miss,
                    # not damage (the manifest is written last on store).
                    self.stats.count("misses")
                    return None

                def _attempt() -> tuple[dict, dict[str, np.ndarray]]:
                    fault_point("trace-cache.load")
                    return _read_entry(entry, mmap, expect_key=key)

                meta, arrays = retry_io("trace-cache.load", _attempt)
        except FileNotFoundError as error:
            if not (entry / MANIFEST_NAME).is_file():
                # The whole entry vanished between the manifest check
                # and the read: a concurrent evictor won the race
                # before our pin landed.  A clean miss — regenerate,
                # don't count corruption.
                self.stats.count("misses")
                return None
            # Manifest still present but an array file is gone: that
            # is damage, handled by the quarantine path below.
            self.stats.count("corrupt")
            self.stats.count("misses")
            self._quarantine(entry)
            del error
            return None
        except (OSError, ValueError, KeyError, TypeError) as error:
            # A present-but-damaged entry: count it, move it aside so
            # the next store can republish cleanly, and miss.
            self.stats.count("corrupt")
            self.stats.count("misses")
            self._quarantine(entry)
            del error
            return None
        self.stats.count("hits")
        try:
            # Refresh the LRU stamp: entry-dir mtime is the eviction
            # rank, so a hit marks the entry recently used.
            os.utime(entry)
        except OSError:
            pass
        return meta, arrays

    def _quarantine(self, entry: Path) -> None:
        """Move a damaged entry to ``<entry>.corrupt`` (best effort).

        A previous quarantine for the same key is replaced — one
        specimen of the damage is enough.  If the move itself fails the
        wreck is deleted instead, so the key always ends up free.
        """
        target = entry.with_name(entry.name + QUARANTINE_SUFFIX)
        try:
            shutil.rmtree(target, ignore_errors=True)
            os.rename(entry, target)
            self.stats.count("quarantined")
        except OSError:
            shutil.rmtree(entry, ignore_errors=True)

    # -- writing ------------------------------------------------------

    def store(
        self, key: str, meta: Mapping[str, object], arrays: Mapping[str, np.ndarray]
    ) -> Path | None:
        """Publish an entry for ``key``; returns its directory.

        Safe under concurrent writers: the entry is assembled in a
        process-private temp directory and published with one atomic
        rename.  If another writer published the same key first, this
        writer's copy is discarded (content addressing makes the two
        copies interchangeable).

        Degrades instead of crashing on a full disk: ENOSPC triggers
        LRU eviction of one entry and a retry (up to
        :data:`ENOSPC_EVICT_LIMIT` times); when nothing evictable
        remains the cache latches *off* for stores — this call and all
        later ones return None, loads keep serving what is already
        cached, and a governor degradation record marks the fallback.
        Transient write errors (EIO and friends) are retried with
        backoff before any of that.
        """
        if self.off:
            return None
        from repro.governor import gc as governor_gc

        evictions = 0
        while True:
            try:
                final = retry_io(
                    "trace-cache.store", lambda: self._store_once(key, meta, arrays)
                )
                break
            except OSError as error:
                if error.errno != errno.ENOSPC:
                    raise
                self.stats.count("enospc")
                evictions += 1
                if evictions <= ENOSPC_EVICT_LIMIT and governor_gc.evict_for_enospc(
                    self, protect={key}
                ):
                    continue
                # Nothing left to evict (or we are thrashing): go
                # cache-off for stores and record the degradation.
                self.off = True
                governor = active_governor()
                if governor is not None:
                    governor.record(
                        "cache-off",
                        detail=f"persistent ENOSPC storing {key[:12]}…; "
                        "trace-cache stores disabled for this run",
                    )
                return None
        self.stats.count("stores")
        if self.disk_quota is not None:
            governor_gc.enforce_quota(self, self.disk_quota, protect={key})
        return final

    def _store_once(
        self, key: str, meta: Mapping[str, object], arrays: Mapping[str, np.ndarray]
    ) -> Path:
        """One build-and-publish attempt (the pre-governor store body)."""
        final = self.entry_dir(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.root / f".tmp-{key[:8]}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        tmp.mkdir()
        try:
            fault_point("trace-cache.store")
            specs: dict[str, dict] = {}
            for name, array in arrays.items():
                file_name = f"{name}.npy"
                array = np.ascontiguousarray(array)
                np.save(tmp / file_name, array)
                specs[name] = {
                    "file": file_name,
                    "dtype": str(array.dtype),
                    "shape": list(array.shape),
                    "file_bytes": (tmp / file_name).stat().st_size,
                    "crc32": _file_crc32(tmp / file_name),
                }
            manifest = {
                "format": FORMAT_VERSION,
                "key": key,
                "meta": dict(meta),
                "arrays": specs,
            }
            manifest["crc"] = _manifest_crc(manifest)
            # Manifest last: its presence marks the entry complete.
            with open(tmp / MANIFEST_NAME, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, sort_keys=True)
            try:
                os.rename(tmp, final)
            except OSError:
                # Lost the publish race (or a stale entry is in the
                # way).  If a valid entry exists we are done; otherwise
                # clear the wreck and retry once.
                if not (final / MANIFEST_NAME).is_file():
                    shutil.rmtree(final, ignore_errors=True)
                    os.rename(tmp, final)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return final


def resolve_trace_cache(
    directory: str | None = None,
    environ: Mapping[str, str] | None = None,
    disk_quota: int | None = None,
) -> TraceCache | None:
    """Resolve the trace-cache knob: explicit flag, else environment.

    ``directory`` comes from ``--trace-cache DIR``; when None, the
    :data:`TRACE_CACHE_ENV` variable is consulted.  The off switch —
    any value in :data:`OFF_VALUES` — returns None, as does an unset
    knob, so the cache is strictly opt-in.  ``disk_quota`` (from
    ``--disk-quota``) arms LRU eviction on the resolved cache.
    """
    if directory is None:
        env = os.environ if environ is None else environ
        directory = env.get(TRACE_CACHE_ENV)
    if directory is None or directory.strip().lower() in OFF_VALUES:
        return None
    return TraceCache(directory, disk_quota=disk_quota)
