"""Checkpoint/resume: an interrupted run equals an uninterrupted one.

The contract under test is bit-identity: a run killed mid-flight (the
in-process analog of SIGKILL — a ``BaseException`` no handler can eat,
raised *after* a snapshot has landed on disk, exactly the state a killed
process leaves behind thanks to the atomic write-rename) and resumed in
a fresh platform must produce a ``CoSimResult`` equal field-for-field to
a run that was never interrupted — window samples, per-core splits, and
audit report included.
"""

import os

import numpy as np
import pytest

import repro.harness.replay as replay_module
from repro.cache.emulator import DragonheadConfig
from repro.checkpoint import read_snapshot, write_snapshot
from repro.checkpoint.snapshot import MAGIC
from repro.core.cosim import CoSimPlatform
from repro.errors import CheckpointError
from repro.faults.spec import parse_fault_spec
from repro.harness.replay import capture_replay_log, replay, replay_map
from repro.harness.supervisor import SupervisorPolicy, supervise
from repro.units import MB
from repro.workloads.registry import get_workload


class SimulatedKill(BaseException):
    """Stands in for SIGKILL: not an Exception, so nothing catches it."""


WORKLOADS = ("FIMI", "RSEARCH", "MDS")
GEOMETRIES = (
    {"cache_size": 1 * MB, "line_size": 64},
    {"cache_size": 2 * MB, "line_size": 128},
)


def small_guest(name: str):
    return get_workload(name).synthetic_guest(
        accesses_per_thread=6000, scale=1 / 256
    )


def kill_after(monkeypatch, module, snapshots: int):
    """Patch ``module.write_snapshot`` to die after N snapshots land."""
    real = write_snapshot
    count = {"n": 0}

    def dying(path, state, identity):
        real(path, state, identity)
        count["n"] += 1
        if count["n"] >= snapshots:
            raise SimulatedKill()

    monkeypatch.setattr(module, "write_snapshot", dying)
    return count


class TestLiveRunResume:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=("1MB-64B", "2MB-128B"))
    def test_killed_and_resumed_equals_uninterrupted(
        self, tmp_path, monkeypatch, workload, geometry
    ):
        config = DragonheadConfig(**geometry)
        path = str(tmp_path / "run.ckpt")
        fresh = CoSimPlatform(config, quantum=512).run(
            small_guest(workload), 2, audit="full"
        )

        count = kill_after(monkeypatch, replay_module, 2)
        with pytest.raises(SimulatedKill):
            CoSimPlatform(config, quantum=512).run(
                small_guest(workload),
                2,
                checkpoint_every=2048,
                checkpoint_path=path,
                audit="full",
            )
        assert count["n"] == 2 and os.path.exists(path)

        monkeypatch.setattr(replay_module, "write_snapshot", write_snapshot)
        resumed = CoSimPlatform(config, quantum=512).run(
            small_guest(workload),
            2,
            checkpoint_every=2048,
            resume_from=path,
            audit="full",
        )
        assert resumed == fresh
        assert resumed.audit is not None and resumed.audit.ok
        assert not os.path.exists(path)  # removed on completion

    def test_checkpoint_removed_after_clean_run(self, tmp_path):
        path = str(tmp_path / "clean.ckpt")
        CoSimPlatform(DragonheadConfig(cache_size=1 * MB), quantum=512).run(
            small_guest("FIMI"), 2, checkpoint_every=2048, checkpoint_path=path
        )
        assert not os.path.exists(path)

    def test_missing_resume_file_starts_from_scratch(self, tmp_path):
        config = DragonheadConfig(cache_size=1 * MB)
        fresh = CoSimPlatform(config, quantum=512).run(small_guest("FIMI"), 2)
        cold = CoSimPlatform(config, quantum=512).run(
            small_guest("FIMI"),
            2,
            checkpoint_every=1 << 30,
            resume_from=str(tmp_path / "never-written.ckpt"),
        )
        assert cold == fresh

    def test_nonpositive_interval_rejected(self, tmp_path):
        platform = CoSimPlatform(DragonheadConfig(cache_size=1 * MB))
        with pytest.raises(CheckpointError, match="positive"):
            platform.run(
                small_guest("FIMI"),
                2,
                checkpoint_every=0,
                checkpoint_path=str(tmp_path / "x.ckpt"),
            )

    def test_bus_fault_injection_excludes_checkpointing(self, tmp_path):
        spec = parse_fault_spec("seed=3,drop-data=0.01")
        platform = CoSimPlatform(
            DragonheadConfig(cache_size=1 * MB), strict=False, fault_spec=spec
        )
        with pytest.raises(CheckpointError, match="fault injection"):
            platform.run(
                small_guest("FIMI"),
                2,
                checkpoint_every=1024,
                checkpoint_path=str(tmp_path / "x.ckpt"),
            )


class TestReplayResume:
    def test_killed_and_resumed_replay_equals_fresh(self, tmp_path, monkeypatch):
        log = capture_replay_log(small_guest("FIMI"), 2, quantum=512)
        config = DragonheadConfig(cache_size=1 * MB)
        path = str(tmp_path / "replay.ckpt")
        fresh = replay(log, config, audit="sample")

        kill_after(monkeypatch, replay_module, 2)
        with pytest.raises(SimulatedKill):
            replay(
                log,
                config,
                audit="sample",
                checkpoint_every=2048,
                checkpoint_path=path,
            )
        assert os.path.exists(path)

        monkeypatch.setattr(replay_module, "write_snapshot", write_snapshot)
        resumed = replay(
            log,
            config,
            audit="sample",
            checkpoint_every=2048,
            resume_from=path,
        )
        assert resumed == fresh
        assert not os.path.exists(path)

    def test_mid_batch_snapshot_resumes_to_batched_result(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint cut strictly inside the access stream — mid-way
        through what the batched pipeline processes as one pass — must
        resume (on the per-event path) to the exact result the batched
        one-shot replay produces: same windows, same per-core splits,
        same audit verdict."""
        log = capture_replay_log(small_guest("FIMI"), 2, quantum=512)
        config = DragonheadConfig(cache_size=1 * MB)
        path = str(tmp_path / "midbatch.ckpt")
        batched = replay(log, config, audit="sample")  # fast path: one batch

        kill_after(monkeypatch, replay_module, 1)
        with pytest.raises(SimulatedKill):
            replay(
                log, config, audit="sample", checkpoint_every=1024,
                checkpoint_path=path,
            )
        snapshot = read_snapshot(path)
        position = int(snapshot["replay"]["start"])
        assert 0 < position < log.accesses  # genuinely mid-stream

        monkeypatch.setattr(replay_module, "write_snapshot", write_snapshot)
        resumed = replay(
            log, config, audit="sample", checkpoint_every=1024, resume_from=path
        )
        assert resumed == batched
        assert resumed.audit is not None and resumed.audit.ok

    def test_resume_against_different_config_rejected(self, tmp_path, monkeypatch):
        log = capture_replay_log(small_guest("FIMI"), 2, quantum=512)
        path = str(tmp_path / "replay.ckpt")
        kill_after(monkeypatch, replay_module, 1)
        with pytest.raises(SimulatedKill):
            replay(
                log,
                DragonheadConfig(cache_size=1 * MB),
                checkpoint_every=2048,
                checkpoint_path=path,
            )
        monkeypatch.setattr(replay_module, "write_snapshot", write_snapshot)
        with pytest.raises(CheckpointError, match="identity"):
            replay(
                log,
                DragonheadConfig(cache_size=2 * MB),
                checkpoint_every=2048,
                resume_from=path,
            )


class TestSnapshotDamage:
    def _checkpoint(self, tmp_path, monkeypatch) -> str:
        path = str(tmp_path / "victim.ckpt")
        kill_after(monkeypatch, replay_module, 1)
        with pytest.raises(SimulatedKill):
            CoSimPlatform(DragonheadConfig(cache_size=1 * MB), quantum=512).run(
                small_guest("FIMI"), 2, checkpoint_every=2048, checkpoint_path=path
            )
        monkeypatch.setattr(replay_module, "write_snapshot", write_snapshot)
        return path

    def _resume(self, path):
        return CoSimPlatform(DragonheadConfig(cache_size=1 * MB), quantum=512).run(
            small_guest("FIMI"), 2, checkpoint_every=2048, resume_from=path
        )

    def test_bad_magic_rejected(self, tmp_path, monkeypatch):
        path = self._checkpoint(tmp_path, monkeypatch)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(b"XXXX" + data[len(MAGIC):])
        with pytest.raises(CheckpointError, match="magic"):
            self._resume(path)

    def test_truncation_rejected(self, tmp_path, monkeypatch):
        path = self._checkpoint(tmp_path, monkeypatch)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            self._resume(path)

    def test_payload_bit_flip_rejected(self, tmp_path, monkeypatch):
        path = self._checkpoint(tmp_path, monkeypatch)
        data = bytearray(open(path, "rb").read())
        data[-10] ^= 0x40  # flip one payload bit; the CRC must notice
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(CheckpointError, match="CRC-32"):
            self._resume(path)

    def test_read_snapshot_roundtrip(self, tmp_path):
        path = str(tmp_path / "roundtrip.ckpt")
        state = {"arr": np.arange(5, dtype=np.uint64), "n": 7}
        write_snapshot(path, state, {"who": "test"})
        back = read_snapshot(path, expect_identity={"who": "test"})
        assert back["n"] == 7
        np.testing.assert_array_equal(back["arr"], state["arr"])
        with pytest.raises(CheckpointError, match="identity"):
            read_snapshot(path, expect_identity={"who": "someone-else"})


class TestSupervisedResume:
    def test_point_resumes_mid_run_after_worker_death(
        self, tmp_path, monkeypatch
    ):
        log = capture_replay_log(small_guest("FIMI"), 2, quantum=512)
        config = DragonheadConfig(cache_size=1 * MB)
        fresh = replay(log, config)

        monkeypatch.setattr(replay_module, "DEFAULT_CHECKPOINT_EVERY", 2048)
        real = write_snapshot
        count = {"n": 0}

        def dying(path, state, identity):
            real(path, state, identity)
            count["n"] += 1
            if count["n"] == 2:
                raise RuntimeError("simulated worker death")

        monkeypatch.setattr(replay_module, "write_snapshot", dying)
        policy = SupervisorPolicy(retries=2, backoff_base=0.0)
        with supervise(policy, checkpoint_dir=tmp_path / "ckpts") as ctx:
            results = replay_map(log, [config], jobs=1)
        assert results[0] == fresh
        assert ctx.counts.get("point-retry") == 1
        # The retry picked up the snapshot instead of starting over.
        assert ctx.counts.get("point-resumed") == 1
        assert not any(os.scandir(tmp_path / "ckpts"))

    def test_checkpointing_skipped_under_bus_faults(self, tmp_path):
        log = capture_replay_log(small_guest("FIMI"), 2, quantum=512)
        config = DragonheadConfig(cache_size=1 * MB)
        spec = parse_fault_spec("seed=5,drop-data=0.005")
        with supervise(
            SupervisorPolicy(retries=0), checkpoint_dir=tmp_path / "ckpts"
        ):
            results = replay_map(log, [config], jobs=1, spec=spec, lenient=True)
        # The point ran (unresumed) rather than erroring out.
        assert results[0].degraded
