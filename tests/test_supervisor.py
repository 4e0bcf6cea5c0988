"""Tests for the fault-tolerant sweep supervisor.

The contract under test: fault-free supervised runs return exactly what
``parallel_map`` returns; under faults — worker crashes, hangs, flaky
exceptions, SIGINT — the supervisor retries with backoff, respawns the
pool, journals completed points for ``--resume``, and either degrades
gracefully or fails loudly with the offending grid point attached.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.errors import ConfigurationError, SweepInterrupted, SweepPointError
from repro.faults.spec import FaultSpec
from repro.harness.parallel import parallel_map
from repro.harness.supervisor import (
    JOURNAL_FORMAT,
    SupervisorContext,
    SupervisorPolicy,
    SweepJournal,
    supervise,
    supervised_map,
)


# -- module-level tasks (they cross process boundaries) -----------------


def square(item):
    return item * item


def flaky_crash(item):
    """Dies hard (kills its worker) until a marker file exists."""
    value, marker_dir = item
    marker = os.path.join(marker_dir, f"crash-{value}")
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(9)
    return value * 10


def flaky_raise(item):
    """Raises until a marker file exists."""
    value, marker_dir = item
    marker = os.path.join(marker_dir, f"raise-{value}")
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise ValueError(f"transient failure at {value}")
    return value + 1


def hang_once(item):
    """Stalls one specific point on its first attempt only."""
    value, marker_dir = item
    marker = os.path.join(marker_dir, f"hang-{value}")
    if value == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(60)
    return value + 100


def always_fails(item):
    raise RuntimeError(f"point {item} is broken")


def dict_total(item):
    return sum(item.values())


def interrupts(item):
    if item == 1:
        raise KeyboardInterrupt
    return item


class TestFaultFreeParity:
    def test_matches_parallel_map_serial_and_pooled(self):
        items = list(range(8))
        expected = parallel_map(square, items)
        assert supervised_map(square, items, jobs=None) == expected
        assert supervised_map(square, items, jobs=3) == expected

    def test_parallel_map_delegates_under_supervise(self):
        with supervise() as context:
            assert parallel_map(square, [1, 2, 3], jobs=2) == [1, 4, 9]
        assert context.completed == 3

    def test_empty_items(self):
        assert supervised_map(square, [], jobs=4) == []


class TestRetries:
    def test_transient_exception_is_retried(self, tmp_path):
        context = SupervisorContext(
            policy=SupervisorPolicy(retries=2, backoff_base=0.01)
        )
        items = [(i, str(tmp_path)) for i in range(4)]
        assert supervised_map(flaky_raise, items, jobs=2, context=context) == [
            1,
            2,
            3,
            4,
        ]
        assert context.counts["point-retry"] == 4

    def test_exhausted_point_raises_sweep_point_error(self):
        context = SupervisorContext(
            policy=SupervisorPolicy(retries=1, backoff_base=0.01)
        )
        with pytest.raises(SweepPointError) as info:
            supervised_map(always_fails, [7], jobs=2, context=context)
        assert info.value.point == 7
        assert info.value.attempts == 2
        assert isinstance(info.value.cause, RuntimeError)

    def test_exhausted_point_degrades_when_policy_allows(self):
        context = SupervisorContext(
            policy=SupervisorPolicy(
                retries=0, backoff_base=0.01, failure_value=None
            )
        )
        out = supervised_map(always_fails, [1, 2], jobs=2, context=context)
        assert out == [None, None]
        assert context.counts["point-degraded"] == 2


class TestCrashRecovery:
    def test_broken_pool_respawns_and_completes(self, tmp_path):
        context = SupervisorContext(
            policy=SupervisorPolicy(retries=2, backoff_base=0.01)
        )
        items = [(i, str(tmp_path)) for i in (1, 2, 3)]
        out = supervised_map(flaky_crash, items, jobs=2, context=context)
        assert out == [10, 20, 30]
        assert context.counts["pool-respawn"] >= 1
        assert context.counts["worker-crash"] >= 1

    def test_injected_crash_first_attempt_only(self):
        spec = FaultSpec(seed=5, crash=1.0)
        context = SupervisorContext(
            policy=SupervisorPolicy(retries=1, backoff_base=0.01), fault_spec=spec
        )
        assert supervised_map(square, [2, 3], jobs=2, context=context) == [4, 9]
        assert context.counts["worker-crash-injected"] == 2

    def test_injected_crash_serial_degenerates_to_retry(self):
        spec = FaultSpec(seed=5, crash=1.0)
        context = SupervisorContext(
            policy=SupervisorPolicy(retries=1, backoff_base=0.01), fault_spec=spec
        )
        assert supervised_map(square, [2, 3], jobs=None, context=context) == [4, 9]


class TestTimeouts:
    def test_hung_point_is_killed_and_retried(self, tmp_path):
        context = SupervisorContext(
            policy=SupervisorPolicy(timeout=1.0, retries=2, backoff_base=0.01)
        )
        items = [(i, str(tmp_path)) for i in (1, 2, 3)]
        start = time.monotonic()
        out = supervised_map(hang_once, items, jobs=2, context=context)
        elapsed = time.monotonic() - start
        assert out == [101, 102, 103]
        assert context.counts["point-timeout"] == 1
        assert elapsed < 30  # nowhere near the 60 s sleep


class TestJournalResume:
    def test_completed_points_are_skipped_on_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            context = SupervisorContext(journal=journal)
            first = supervised_map(square, [1, 2, 3], jobs=None, context=context)
        with SweepJournal(path, resume=True) as journal:
            context = SupervisorContext(journal=journal)
            second = supervised_map(square, [1, 2, 3], jobs=None, context=context)
        assert first == second
        assert context.counts["journal-skip"] == 3

    def test_partial_journal_reruns_only_missing_points(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            context = SupervisorContext(journal=journal)
            supervised_map(square, [1, 2], jobs=None, context=context)
        with SweepJournal(path, resume=True) as journal:
            context = SupervisorContext(journal=journal)
            out = supervised_map(square, [1, 2, 3, 4], jobs=None, context=context)
        assert out == [1, 4, 9, 16]
        assert context.counts["journal-skip"] == 2

    def test_torn_tail_line_is_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            context = SupervisorContext(journal=journal)
            supervised_map(square, [1, 2, 3], jobs=None, context=context)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "deadbeef", "result": "truncat')  # no newline
        with SweepJournal(path, resume=True) as journal:
            context = SupervisorContext(journal=journal)
            out = supervised_map(square, [1, 2, 3], jobs=None, context=context)
        assert out == [1, 4, 9]
        assert context.counts["journal-skip"] == 3

    def test_point_key_depends_on_task_and_item(self):
        assert SweepJournal.point_key(square, 1) == SweepJournal.point_key(square, 1)
        assert SweepJournal.point_key(square, 1) != SweepJournal.point_key(square, 2)
        assert SweepJournal.point_key(square, 1) != SweepJournal.point_key(
            always_fails, 1
        )

    def test_point_key_ignores_container_ordering(self):
        """Pickle serializes dicts/sets in iteration order; the key must
        not — equal grid points get equal keys however they were built."""
        assert SweepJournal.point_key(square, {"a": 1, "b": 2}) == (
            SweepJournal.point_key(square, {"b": 2, "a": 1})
        )
        assert SweepJournal.point_key(square, {"a": 1, "b": 2}) != (
            SweepJournal.point_key(square, {"a": 2, "b": 1})
        )
        nested = {"geometry": {"size": 1, "lines": 64}, "flags": ["x"]}
        reordered = {"flags": ["x"], "geometry": {"lines": 64, "size": 1}}
        assert SweepJournal.point_key(square, nested) == (
            SweepJournal.point_key(square, reordered)
        )
        assert SweepJournal.point_key(square, {3, 1, 2}) == (
            SweepJournal.point_key(square, {2, 3, 1})
        )
        # A set is not the tuple of its members.
        assert SweepJournal.point_key(square, {1, 2}) != (
            SweepJournal.point_key(square, (1, 2))
        )

    def test_resume_skips_reordered_dict_points(self, tmp_path):
        """--resume must not re-run a completed point whose dict item
        was rebuilt with a different insertion order."""
        path = tmp_path / "journal.jsonl"
        first_grid = [{"a": 1, "b": 2}, {"b": 30, "a": 10}]
        with SweepJournal(path) as journal:
            context = SupervisorContext(journal=journal)
            first = supervised_map(dict_total, first_grid, jobs=None, context=context)
        reordered_grid = [{"b": 2, "a": 1}, {"a": 10, "b": 30}]
        with SweepJournal(path, resume=True) as journal:
            context = SupervisorContext(journal=journal)
            second = supervised_map(
                dict_total, reordered_grid, jobs=None, context=context
            )
        assert first == second == [3, 40]
        assert context.counts["journal-skip"] == 2


    def test_uncached_sweep_resumes_from_its_journal(self, tmp_path, capsys):
        """An uncached sweep spills its log to a fresh temporary
        directory on every run; the journal keys its points by the
        log's content, so ``--resume`` skips them all and prints the
        same report."""
        from repro.harness import cli

        path = tmp_path / "journal.jsonl"
        argv = [
            "--workload", "FIMI", "--cores", "2", "--source", "synthetic",
            "--accesses", "8192", "--cache", "1MB,2MB", "--trace-cache", "off",
            "--journal", str(path),
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        records = path.read_text().splitlines()
        assert cli.main([*argv, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert path.read_text().splitlines() == records
        assert "journal-skip=2" in resumed
        strip = lambda text: [
            line for line in text.splitlines() if "supervisor events" not in line
        ]
        assert strip(resumed) == strip(first)


class TestInterrupt:
    def test_sigint_drains_to_sweep_interrupted(self, capsys):
        context = SupervisorContext(policy=SupervisorPolicy(backoff_base=0.01))
        with pytest.raises(SweepInterrupted):
            supervised_map(interrupts, [0, 1, 2], jobs=None, context=context)
        assert "sweep interrupted" in capsys.readouterr().err

    def test_sigint_in_worker_drains_pool(self, capsys):
        context = SupervisorContext(policy=SupervisorPolicy(backoff_base=0.01))
        with pytest.raises(SweepInterrupted):
            supervised_map(interrupts, [0, 1, 2], jobs=2, context=context)
        assert "sweep interrupted" in capsys.readouterr().err


class TestJournalDurability:
    def test_every_append_is_fsynced(self, tmp_path, monkeypatch):
        """A point counts as journaled only once the bytes hit the
        platter — record() must fsync, not merely flush."""
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        with SweepJournal(tmp_path / "journal.jsonl") as journal:
            before = len(synced)
            journal.record("k1", 42)
            assert len(synced) == before + 1
            assert synced[-1] == journal._handle.fileno()

    def test_mid_record_kill_loses_only_the_torn_point(self, tmp_path):
        """SIGKILL delivered mid-``write(2)``: the journal keeps every
        record appended before the kill and drops only the torn tail.

        A child process journals two points, starts a third record but
        is killed after only part of its line reaches the file, exactly
        what a power cut or OOM kill leaves behind.
        """
        import signal
        import subprocess
        import sys
        import textwrap

        path = tmp_path / "journal.jsonl"
        script = textwrap.dedent(
            f"""
            import os, signal
            from repro.harness.supervisor import SweepJournal
            journal = SweepJournal({str(path)!r})
            journal.record(SweepJournal.point_key(abs, 1), 1)
            journal.record(SweepJournal.point_key(abs, 2), 4)
            # Begin a third record but die with only half its bytes
            # written (bypassing record(), whose write is atomic from
            # Python's side — the torn state is what the *kernel* has).
            journal._handle.write('{{"schema": 3, "key": "half-a-rec')
            journal._handle.flush()
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env)
        assert proc.returncode == -signal.SIGKILL
        with SweepJournal(path, resume=True) as journal:
            assert journal.entries == {
                SweepJournal.point_key(abs, 1): 1,
                SweepJournal.point_key(abs, 2): 4,
            }


class TestTerminateFallback:
    def test_pool_processes_reads_a_real_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.harness.executors.local import pool_processes

        with ProcessPoolExecutor(max_workers=1) as pool:
            pool.submit(square, 2).result()
            assert all(p.is_alive() for p in pool_processes(pool))

    def test_pool_processes_guards_missing_private_attribute(self):
        """CPython renaming ``_processes`` must degrade the helper to
        an empty list, never an AttributeError in the drain path."""
        from repro.harness.executors.local import pool_processes

        class NoProcesses:
            pass

        class NoneProcesses:
            _processes = None

        class HostileProcesses:
            class _processes:  # .values() raises like a retyped attr
                @staticmethod
                def values():
                    raise TypeError("not a mapping anymore")

        assert pool_processes(NoProcesses()) == []
        assert pool_processes(NoneProcesses()) == []
        assert pool_processes(HostileProcesses()) == []

    def test_terminate_falls_back_to_plain_shutdown(self):
        """With no enumerable workers, _terminate still shuts the pool
        down instead of crashing — the documented fallback."""
        from repro.harness.supervisor import _terminate

        calls = []

        class ShutdownOnly:
            def shutdown(self, wait, cancel_futures):
                calls.append((wait, cancel_futures))

        _terminate(ShutdownOnly())
        assert calls == [(False, True)]


class TestReapHung:
    def test_reaps_expired_flights_and_requeues_survivors(self):
        """Direct exercise of ``_reap_hung``: the expired flight is
        charged a timeout failure, the innocent one re-queued free, and
        the pool respawned exactly once."""
        from repro.harness.supervisor import _Flight, _reap_hung

        class StuckFuture:
            def done(self):
                return False

        context = SupervisorContext(policy=SupervisorPolicy(timeout=0.5))
        hung, innocent = StuckFuture(), StuckFuture()
        now = time.monotonic()
        inflight = {
            hung: _Flight(index=0, deadline=now - 1.0),
            innocent: _Flight(index=1, deadline=now + 60.0),
        }
        requeued, failed, respawns = [], [], []
        _reap_hung(
            context,
            context.policy,
            inflight,
            lambda index: requeued.append(index),
            lambda index, cause, kind: failed.append((index, kind, str(cause))),
            lambda: respawns.append(True),
        )
        assert inflight == {}
        assert respawns == [True]
        assert requeued == [1]
        assert len(failed) == 1
        index, kind, message = failed[0]
        assert (index, kind) == (0, "point-timeout")
        assert "0.5s wall-clock budget" in message

    def test_no_deadline_means_no_reaping(self):
        from repro.harness.supervisor import _Flight, _reap_hung

        class StuckFuture:
            def done(self):
                return False

        context = SupervisorContext()
        inflight = {StuckFuture(): _Flight(index=0, deadline=None)}
        boom = lambda *a: pytest.fail("nothing should be reaped")  # noqa: E731
        _reap_hung(context, context.policy, inflight, boom, boom, boom)
        assert len(inflight) == 1


class TestJournalV3:
    """The v3 schema: per-entry wall_time_s and attempts cost metadata."""

    def test_entries_carry_wall_time_and_attempts(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            context = SupervisorContext(journal=journal)
            supervised_map(square, [1, 2], jobs=None, context=context)
        rows = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert rows[0] == {"format": JOURNAL_FORMAT}
        for row in rows[1:]:
            assert row["schema"] == JOURNAL_FORMAT
            assert row["attempts"] == 1
            assert isinstance(row["wall_time_s"], float)
            assert row["wall_time_s"] >= 0.0

    def test_retried_point_records_its_attempt_count(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            context = SupervisorContext(
                policy=SupervisorPolicy(retries=2, backoff_base=0.01),
                journal=journal,
            )
            supervised_map(flaky_raise, [(5, str(tmp_path))], jobs=None, context=context)
        rows = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert rows[-1]["attempts"] == 2  # one failure, then success

    def test_resume_loads_cost_metadata(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            context = SupervisorContext(journal=journal)
            supervised_map(square, [1, 2, 3], jobs=None, context=context)
        with SweepJournal(path, resume=True) as journal:
            assert len(journal.meta) == 3
            for meta in journal.meta.values():
                assert meta["attempts"] == 1
                assert meta["wall_time_s"] >= 0.0

    def test_v2_journal_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"format": 2}\n', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="schema 2"):
            SweepJournal(path, resume=True)
