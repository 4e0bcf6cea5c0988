"""Conformance gate: every route to a result gives the same bytes.

One table of grid points — three workloads × two cache geometries —
and one digest per point.  Each route below must reproduce the digest
of the per-transaction reference (SoftSDV on a live bus driving a bare
strict emulator that takes every data transaction on its own,
``tests/bus_reference.py``):

* ``CoSimPlatform.run``;
* batched ``replay`` (one ``emulate_stream`` pass);
* per-event ``replay``, forced by a checkpoint observer that never
  comes due;
* a ``CoSimPlatform.run`` killed after its first snapshot and resumed;
* ``replay_map(jobs=2)`` under ``supervise`` (worker processes);
* supervised ``JobSpec.run`` on a single configuration.

A fault row holds the lenient, fault-injected platform run to the
fault-injected replay of the same point: there is one fault key.  A
second fault row holds that replay, whose emulator defers and batches
its bank probes, to the same replay into a per-transaction emulator:
the injector draws per chunk upstream of the emulator, so both see the
same faults.
"""

from __future__ import annotations

import functools

import pytest

import repro.harness.replay as replay_module
from repro.cache.emulator import DragonheadConfig, DragonheadEmulator
from repro.checkpoint import write_snapshot
from repro.core.cosim import CoSimPlatform
from repro.faults.spec import parse_fault_spec
from repro.harness.replay import capture_replay_log, replay, replay_map, replay_point
from repro.harness.supervisor import SupervisorPolicy, supervise
from repro.serve.jobspec import BOOT_NOISE_ACCESSES, JobSpec, result_digest
from repro.units import MB
from tests.bus_reference import (
    PerTransactionEmulator,
    bus_driven_run,
    per_transaction_replay,
)

WORKLOADS = ("FIMI", "RSEARCH", "MDS")
GEOMETRIES = (
    DragonheadConfig(cache_size=1 * MB, line_size=64),
    DragonheadConfig(cache_size=2 * MB, line_size=128),
)
GEOMETRY_IDS = ("1MB-64B", "2MB-128B")
CORES = 2
QUANTUM = 512
ACCESSES = 6000


class SimulatedKill(BaseException):
    """Stands in for SIGKILL: not an Exception, so nothing catches it."""


def job_spec(workload: str, config: DragonheadConfig) -> JobSpec:
    return JobSpec(
        workload=workload,
        cores=CORES,
        cache=(config.cache_size,),
        line=config.line_size,
        quantum=QUANTUM,
        source="synthetic",
        accesses=ACCESSES,
        audit="off",
    )


def guest(workload: str):
    """A fresh guest per route: routes must not share generator state."""
    return job_spec(workload, GEOMETRIES[0]).build_guest()


def platform(config: DragonheadConfig, **kwargs) -> CoSimPlatform:
    return CoSimPlatform(
        config, quantum=QUANTUM, boot_noise_accesses=BOOT_NOISE_ACCESSES, **kwargs
    )


def capture(workload: str):
    return capture_replay_log(guest(workload), CORES, QUANTUM, BOOT_NOISE_ACCESSES)


def digest(result) -> str:
    return result_digest([result])


@functools.lru_cache(maxsize=None)
def fanned_out(workload: str) -> tuple[str, ...]:
    """Digests of one supervised two-worker fan-out over every geometry."""
    with supervise(SupervisorPolicy()):
        results = replay_map(capture(workload), GEOMETRIES, jobs=2, audit="off")
    return tuple(digest(result) for result in results)


def killed_and_resumed(workload, config, path, monkeypatch):
    real = write_snapshot

    def dying(snapshot_path, state, identity):
        real(snapshot_path, state, identity)
        raise SimulatedKill()

    monkeypatch.setattr(replay_module, "write_snapshot", dying)
    with pytest.raises(SimulatedKill):
        platform(config).run(
            guest(workload), CORES, checkpoint_every=2048,
            checkpoint_path=path, audit="off",
        )
    monkeypatch.setattr(replay_module, "write_snapshot", real)
    return platform(config).run(
        guest(workload), CORES, checkpoint_every=2048, resume_from=path,
        audit="off",
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "index", range(len(GEOMETRIES)), ids=GEOMETRY_IDS
)
def test_every_route_gives_the_reference_digest(
    workload, index, tmp_path, monkeypatch
):
    config = GEOMETRIES[index]
    reference = digest(
        bus_driven_run(
            guest(workload), CORES, config, QUANTUM, BOOT_NOISE_ACCESSES
        )
    )
    log = capture(workload)
    with supervise(SupervisorPolicy()):
        (served,) = job_spec(workload, config).run()
    routes = {
        "CoSimPlatform.run": platform(config).run(
            guest(workload), CORES, audit="off"
        ),
        "batched replay": replay(log, config, audit="off"),
        "per-event replay": replay(
            log,
            config,
            audit="off",
            checkpoint_every=1 << 30,
            checkpoint_path=str(tmp_path / "never-due.ckpt"),
        ),
        "kill and resume": killed_and_resumed(
            workload, config, str(tmp_path / "run.ckpt"), monkeypatch
        ),
        "supervised JobSpec.run": served,
    }
    digests = {name: digest(result) for name, result in routes.items()}
    digests["replay_map(jobs=2)"] = fanned_out(workload)[index]
    assert digests == {name: reference for name in digests}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_faulted_platform_run_equals_faulted_replay(workload):
    spec = parse_fault_spec("seed=3,drop-data=0.01")
    config = GEOMETRIES[0]
    live = platform(config, strict=False, fault_spec=spec).run(
        guest(workload), CORES, audit="off"
    )
    replayed = replay(capture(workload), config, spec=spec, lenient=True, audit="off")
    assert live.degraded
    assert digest(live) == digest(replayed)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "index", range(len(GEOMETRIES)), ids=GEOMETRY_IDS
)
def test_faulted_replay_equals_per_transaction_faulted_replay(workload, index):
    spec = parse_fault_spec(
        "seed=11,drop-data=0.01,dup-data=0.01,drop-msg=0.05,"
        "reorder-msg=0.05,miss-window=0.3"
    )
    config = GEOMETRIES[index]
    log = capture(workload)
    deferred = replay_point(
        log, DragonheadEmulator(config, strict=False), spec=spec, audit="off"
    )
    reference = per_transaction_replay(
        log, PerTransactionEmulator(config, strict=False), spec=spec
    )
    kinds = {record.kind for record in deferred.degradation}
    assert {"data-drop", "data-dup", "msg-drop", "window-miss"} <= kinds
    assert digest(deferred) == digest(reference)
