"""Tests for the self-healing fleet supervisor (repro.runners.supervisor).

Covers the failure ladder end to end: worker crashes survived by pool
rebuilds (bit-identical results), poison-task quarantine without
aborting siblings, degradation to serial execution when the pool is
persistently unhealthy, and the interrupt/resume contract (checkpoint
flushed, campaign row stamped ``interrupted``, rerun merges
bit-identically) — each also with several tasks per pool future — and
the dispatch shape that batches small tasks.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.runners import (
    PoisonedTask,
    RetryExhaustedError,
    SimTask,
    SweepRunner,
    spawn_seeds,
)
from repro.runners.supervisor import FleetSupervisor
from repro.service import ResultsDB
from repro.service.chaos import run_campaign, spec_for


def _square(x: int, seed: int = 0) -> int:
    return x * x


def _noop(seed: int = 0) -> None:
    return None


def _nap(seconds: float, seed: int = 0) -> float:
    time.sleep(seconds)
    return seconds


def _bad_cell(seed: int = 0) -> None:
    raise ValueError("bad cell")


def _unpicklable(seed: int = 0) -> threading.Lock:
    return threading.Lock()


def _read(path: str, seed: int = 0) -> str:
    with open(path) as handle:
        return handle.read()


def _nap_failing_once(marker: str, fail: bool, seed: int = 0) -> int:
    """Naps 10 ms; with `fail`, raises on its first call (marked on disk)."""
    time.sleep(0.01)
    if fail and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("transient failure")
    return seed


def _kill_self(seed: int = 0) -> None:
    """Poison task: unconditionally SIGKILLs its worker, every attempt."""
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def submitted(monkeypatch) -> list[tuple[SimTask, ...]]:
    """The tasks of every pool future, in submission order."""
    batches: list[tuple[SimTask, ...]] = []
    submit = ProcessPoolExecutor.submit

    def spy(self, fn, /, *args, **kwargs):
        batches.append(args[0])
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
    return batches


@pytest.fixture
def breaks(monkeypatch, submitted) -> list[tuple[int, int]]:
    """Per pool break: the tasks in flight, and the futures submitted."""
    blamed: list[tuple[int, int]] = []
    on_break = FleetSupervisor._on_break

    def spy(self, broken, *args):
        blamed.append((len(broken), len(submitted)))
        return on_break(self, broken, *args)

    monkeypatch.setattr(FleetSupervisor, "_on_break", spy)
    return blamed


def _sim_tasks(backend: str, n: int = 6) -> list[SimTask]:
    """A small real-simulation batch (seeded, backend-parametrised)."""
    from repro.experiments.chaos import _chaos_once

    return [
        SimTask.call(
            _chaos_once,
            seed=s,
            kind="burst_upsets",
            intensity=0.0,
            forward_probability=0.75,
            side=3,
            max_rounds=16,
            backend=backend,
        )
        for s in spawn_seeds(11, n)
    ]


class TestKillStorm:
    def test_sigkilled_workers_complete_bit_identical(self, engine_backend):
        """A sweep losing >= 3 workers to SIGKILL matches the clean run."""
        outcome = run_campaign(
            spec_for("worker_kill", 0.5, chaos_seed=7),
            n_tasks=10,
            n_workers=4,
            backend=engine_backend,
            seed=7,
        )
        assert outcome.strikes >= 3
        assert outcome.pool_rebuilds >= 1
        assert outcome.lost == 0
        assert outcome.identical
        assert outcome.intact
        assert pickle.dumps(outcome.results) == pickle.dumps(
            outcome.reference
        )

    def test_kill_storm_with_batches_in_flight(
        self, engine_backend, submitted, breaks
    ):
        """Kills that strike batches of several tasks lose nothing."""
        outcome = run_campaign(
            spec_for("worker_kill", 0.1, chaos_seed=7),
            n_tasks=64,
            n_workers=2,
            backend=engine_backend,
            seed=7,
        )
        assert outcome.strikes >= 2
        assert outcome.lost == 0
        assert outcome.intact
        assert pickle.dumps(outcome.results) == pickle.dumps(
            outcome.reference
        )
        # Two futures in flight blamed more than two tasks: a batch.
        (blamed, at), *_ = breaks
        assert blamed > 2
        # After the first break every future carries one task.
        assert {len(batch) for batch in submitted[at:]} == {1}

    def test_corrupted_payload_fails_only_its_task(self, engine_backend):
        outcome = run_campaign(
            spec_for("corrupt_payload", 0.5),
            n_tasks=64,
            n_workers=2,
            backend=engine_backend,
        )
        assert outcome.strikes > 0
        assert outcome.intact
        # One retry per strike: no batch-mate of a struck task reruns.
        assert outcome.tasks_retried == outcome.strikes

    def test_serial_and_pooled_runs_agree(self, engine_backend):
        tasks = _sim_tasks(engine_backend)
        serial = SweepRunner().run(tasks)
        pooled = SweepRunner(n_workers=4).run(tasks)
        assert pickle.dumps(pooled) == pickle.dumps(serial)


class TestQuarantine:
    def test_poison_task_convicted_without_aborting_siblings(self, tmp_path):
        db = ResultsDB(tmp_path / "results.db")
        runner = SweepRunner(
            n_workers=2,
            max_attempts=3,
            retry_backoff_s=0.0,
            db=db,
        )
        tasks = [
            SimTask.call(_square, x=2),
            SimTask.call(_kill_self),
            SimTask.call(_square, x=3),
        ]
        results = runner.run(tasks)
        assert results[0] == 4
        assert results[2] == 9
        poisoned = results[1]
        assert isinstance(poisoned, PoisonedTask)
        assert poisoned.crashes >= runner.max_attempts
        assert "alone" in poisoned.reason
        assert runner.tasks_poisoned == 1
        assert runner.pool_rebuilds >= runner.max_attempts

        (run,) = db.runs()
        assert run["status"] == "completed"
        rows = db.query(
            "SELECT task_index, status, source FROM tasks ORDER BY task_index"
        )
        assert [row["status"] for row in rows] == ["ok", "poisoned", "ok"]
        assert all(row["source"] == "executed" for row in rows)
        db.close()

    def test_poison_mid_batch_convicted_alone(self, submitted, breaks):
        tasks = [SimTask.call(_square, x=n) for n in range(60)]
        tasks.insert(30, SimTask.call(_kill_self))
        runner = SweepRunner(n_workers=2, max_attempts=3, retry_backoff_s=0.0)
        results = runner.run(tasks)
        poisoned = results.pop(30)
        assert isinstance(poisoned, PoisonedTask)
        assert poisoned.crashes == runner.max_attempts
        assert "alone" in poisoned.reason
        assert results == [n * n for n in range(60)]
        assert runner.tasks_poisoned == 1
        (blamed, at), *_ = breaks
        assert blamed > 2  # the first crash struck a batch
        assert {len(batch) for batch in submitted[at:]} == {1}

    def test_quarantine_is_never_cached(self, tmp_path):
        """A rerun must retry the poison task, not replay its conviction."""
        cache_dir = str(tmp_path / "cache")

        def build() -> SweepRunner:
            # The timeout keeps even a singleton batch on the pool path
            # — the kill task must never run in the test process.
            return SweepRunner(
                n_workers=2,
                cache_dir=cache_dir,
                max_attempts=2,
                retry_backoff_s=0.0,
                task_timeout_s=60.0,
            )

        tasks = [SimTask.call(_kill_self), SimTask.call(_square, x=5)]
        runner = build()
        results = runner.run(list(tasks))
        assert isinstance(results[0], PoisonedTask)
        assert results[1] == 25

        rerun = build()
        again = rerun.run(list(tasks))
        assert isinstance(again[0], PoisonedTask)  # re-convicted, not replayed
        assert again[1] == 25
        assert rerun.cache_hits == 1  # only the sibling served from cache
        assert rerun.tasks_poisoned == 1


class TestDegradation:
    def test_unhealthy_pool_degrades_to_serial(self):
        runner = SweepRunner(
            n_workers=2,
            max_attempts=2,
            retry_backoff_s=0.0,
            max_pool_rebuilds=0,
            # A timeout keeps the singleton batch on the pool path.
            task_timeout_s=60.0,
        )
        with pytest.warns(RuntimeWarning, match="persistently unhealthy"):
            [result] = runner.run([SimTask.call(_kill_self)])
        # The crash suspect is quarantined, never risked in-process.
        assert isinstance(result, PoisonedTask)
        assert "degraded to serial" in result.reason
        assert runner.tasks_poisoned == 1
        assert runner.pool_rebuilds == 0  # the break degraded instead

    def test_degradation_still_runs_clean_tasks(self):
        runner = SweepRunner(
            n_workers=2,
            max_attempts=2,
            retry_backoff_s=0.0,
            max_pool_rebuilds=0,
        )
        tasks = [SimTask.call(_square, x=n) for n in range(6)]
        tasks.append(SimTask.call(_kill_self))
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            results = runner.run(tasks)
        # The crasher is always quarantined; a sibling that happened to
        # share the in-flight window with the crash may be co-blamed and
        # quarantined too (never risked in-process), but every clean
        # task that does run serially produces the right answer.
        assert isinstance(results[-1], PoisonedTask)
        poisoned = sum(1 for r in results if isinstance(r, PoisonedTask))
        assert poisoned <= 2  # the crasher plus at most one co-suspect
        for n, result in enumerate(results[:-1]):
            assert result == n * n or isinstance(result, PoisonedTask)


class TestBatchedDispatch:
    def test_small_tasks_share_futures(self, submitted):
        tasks = [SimTask.call(_noop, seed=n) for n in range(512)]
        assert SweepRunner(n_workers=2).run(tasks) == [None] * 512
        assert len(submitted) <= 64
        assert sorted(task.seed for batch in submitted for task in batch) == (
            list(range(512))
        )

    @pytest.mark.parametrize(
        ("n_tasks", "n_workers"),
        [(10, 4), (8, 4)],
        ids=["chaos-service", "certify"],
    )
    def test_short_queues_go_one_task_per_future(
        self, submitted, n_tasks, n_workers
    ):
        tasks = [SimTask.call(_square, x=n) for n in range(n_tasks)]
        results = SweepRunner(n_workers=n_workers).run(tasks)
        assert results == [n * n for n in range(n_tasks)]
        assert [len(batch) for batch in submitted] == [1] * n_tasks

    def test_duration_is_the_tasks_own_time(self, submitted):
        """A task behind a 50 ms batch-mate still reports its own 50 ms."""
        naps = {7, 8}
        tasks = [
            SimTask.call(_nap, seconds=0.05, seed=n)
            if n in naps
            else SimTask.call(_square, x=n)
            for n in range(42)
        ]
        completions: list = []
        SweepRunner(n_workers=2).run(tasks, on_result=completions.append)
        assert any(
            sum(task.fn.endswith(":_nap") for task in batch) == 2
            for batch in submitted
        )
        durations = [c.duration_s for c in completions if c.index in naps]
        assert len(durations) == 2
        assert all(0.05 <= seconds < 0.1 for seconds in durations)

    def test_a_task_error_fails_only_its_task(self):
        tasks = [SimTask.call(_square, x=n) for n in range(40)]
        tasks[30] = SimTask.call(_bad_cell)
        completions: list = []
        with pytest.raises(RetryExhaustedError) as excinfo:
            SweepRunner(n_workers=2).run(tasks, on_result=completions.append)
        assert excinfo.value.task.fn.endswith(":_bad_cell")
        assert excinfo.value.attempts == 1
        error = excinfo.value.last_error
        assert type(error) is ValueError and str(error) == "bad cell"
        assert "in _bad_cell" in str(error.__cause__)  # remote traceback
        assert all(c.value == c.index**2 for c in completions)

    def test_a_batch_failing_whole_reruns_one_task_per_future(self, submitted):
        """A result that does not pickle fails its batch as a whole; the
        rerun, one task per future, pins the error on its own task."""
        tasks = [SimTask.call(_square, x=n) for n in range(40)]
        tasks[20] = SimTask.call(_unpicklable)
        with pytest.raises(RetryExhaustedError) as excinfo:
            SweepRunner(n_workers=2, max_attempts=2).run(tasks)
        assert excinfo.value.task.fn.endswith(":_unpicklable")
        assert excinfo.value.attempts == 1  # the whole-batch failure is free
        first, *reruns = [len(batch) for batch in submitted if tasks[20] in batch]
        assert first > 1
        assert reruns == [1]

    @pytest.mark.parametrize("max_attempts", [1, 2])
    def test_a_task_os_error_is_not_pool_trouble(
        self, tmp_path, submitted, max_attempts
    ):
        """A task's own OSError fails (or retries) that task on the pool;
        the sweep does not degrade to serial."""
        tasks = [SimTask.call(_square, x=n) for n in range(20)]
        tasks[10] = SimTask.call(_read, path=str(tmp_path / "missing"))
        runner = SweepRunner(
            n_workers=2, max_attempts=max_attempts, retry_backoff_s=0.01
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RetryExhaustedError) as excinfo:
                runner.run(tasks)
        assert type(excinfo.value.__cause__) is FileNotFoundError
        assert excinfo.value.attempts == max_attempts
        assert runner.tasks_retried == max_attempts - 1
        # Every attempt was a pool submission, none ran in-process.
        assert sum(tasks[10] in batch for batch in submitted) == max_attempts

    def test_a_retry_backoff_does_not_idle_the_pool(self, tmp_path):
        """Eight retries of 0.2 s each wait side by side, not in turn."""
        def tasks(folder: str, fail: bool) -> list[SimTask]:
            (tmp_path / folder).mkdir()
            return [
                SimTask.call(
                    _nap_failing_once,
                    marker=str(tmp_path / folder / str(n)),
                    fail=fail and n % 5 == 0,
                    seed=n,
                )
                for n in range(40)
            ]

        runner = SweepRunner(
            n_workers=2, max_attempts=2, retry_backoff_s=0.2, retry_jitter=0
        )
        started = time.perf_counter()
        results = runner.run(tasks("flaky", True))
        elapsed = time.perf_counter() - started
        clean = SweepRunner().run(tasks("clean", False))
        assert pickle.dumps(results) == pickle.dumps(clean)
        assert runner.tasks_retried == 8
        # The backoff is still honoured, but not 8 x 0.2 s in a row.
        assert 0.2 <= elapsed < 1.2

    def test_pool_trouble_at_submit_loses_no_task(self, monkeypatch):
        """A submit that cannot start a worker degrades with every task."""
        submit = ProcessPoolExecutor.submit
        calls: list = []

        def flaky(self, fn, /, *args, **kwargs):
            calls.append(fn)
            if len(calls) == 3:
                raise OSError("cannot fork")
            return submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", flaky)
        tasks = [SimTask.call(_square, x=n) for n in range(8)]
        with pytest.warns(RuntimeWarning, match="cannot fork"):
            results = SweepRunner(n_workers=2).run(tasks)
        assert results == [n * n for n in range(8)]

    def test_interrupt_checkpoints_the_batch_mates(self, tmp_path, submitted):
        """An interrupt inside a batch's emits still flushes the batch."""
        cache_dir = str(tmp_path / "cache")
        tasks = [SimTask.call(_square, x=n) for n in range(64)]
        seen: list[SimTask] = []

        def boom(completion) -> None:
            seen.append(completion.task)
            if len(seen) == 5:
                raise KeyboardInterrupt

        crashed = SweepRunner(n_workers=2, cache_dir=cache_dir)
        with pytest.raises(KeyboardInterrupt):
            crashed.run(tasks, on_result=boom)
        (batch,) = [batch for batch in submitted if seen[4] in batch]
        assert len(batch) > 1
        assert set(batch) <= set(seen)

        resumed = SweepRunner(cache_dir=cache_dir)
        assert resumed.run(tasks) == [n * n for n in range(64)]
        assert resumed.cache_hits == len(seen)


class TestInterruptAndResume:
    def test_serial_interrupt_stamps_run_and_keeps_checkpoint(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        db = ResultsDB(tmp_path / "results.db")
        tasks = [SimTask.call(_square, x=n) for n in range(4)]
        seen: list = []

        def boom(completion) -> None:
            seen.append(completion)
            if len(seen) == 2:
                raise KeyboardInterrupt

        crashed = SweepRunner(cache_dir=cache_dir, db=db)
        with pytest.raises(KeyboardInterrupt):
            crashed.run(tasks, on_result=boom)
        (run,) = db.runs()
        assert run["status"] == "interrupted"

        resumed = SweepRunner(cache_dir=cache_dir, db=db)
        assert resumed.run(tasks) == [0, 1, 4, 9]
        assert resumed.cache_hits == 2  # the interrupted run's checkpoint
        assert resumed.tasks_executed == 2
        assert [r["status"] for r in db.runs()] == [
            "interrupted",
            "completed",
        ]
        db.close()

    def test_pooled_resume_after_interrupt_is_bit_identical(
        self, tmp_path, engine_backend
    ):
        """Kill a pooled campaign mid-flight; the restart merges cached
        and fresh cells into results bit-identical to an undisturbed run."""
        tasks = _sim_tasks(engine_backend)
        reference = SweepRunner().run(list(tasks))

        cache_dir = str(tmp_path / "cache")
        db = ResultsDB(tmp_path / "results.db")
        seen: list = []

        def boom(completion) -> None:
            seen.append(completion)
            if len(seen) == 2:
                raise KeyboardInterrupt

        crashed = SweepRunner(n_workers=2, cache_dir=cache_dir, db=db)
        with pytest.raises(KeyboardInterrupt):
            crashed.run(list(tasks), on_result=boom)
        assert db.runs()[-1]["status"] == "interrupted"

        resumed = SweepRunner(n_workers=2, cache_dir=cache_dir, db=db)
        merged = resumed.run(list(tasks))
        assert pickle.dumps(merged) == pickle.dumps(reference)
        assert resumed.cache_hits >= 2  # interrupted cells were flushed
        assert db.runs()[-1]["status"] == "completed"
        db.close()
