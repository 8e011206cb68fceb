"""Tests for the sweep runner's fault tolerance (retry, quarantine, resume)."""

import os
import time

import pytest

from repro.runners import (
    ResultCache,
    RetryExhaustedError,
    SimTask,
    SweepRunner,
)
from repro.runners.supervisor import backoff_delay


def _flaky_task(counter_path: str, fail_times: int, seed: int = 0) -> str:
    """Fails its first `fail_times` invocations, then succeeds.

    Module-level (workers import it by qualified name) and stateful via
    an on-disk counter, so attempts are countable across retries and
    across runner instances.
    """
    calls = 0
    if os.path.exists(counter_path):
        with open(counter_path) as handle:
            calls = int(handle.read())
    with open(counter_path, "w") as handle:
        handle.write(str(calls + 1))
    if calls < fail_times:
        raise RuntimeError(f"transient failure {calls + 1}/{fail_times}")
    return f"ok after {calls} failure(s), seed={seed}"


def _slow_task(marker_path: str, slow_s: float, seed: int = 0) -> str:
    """Sleeps on its first invocation only (marked via `marker_path`)."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("first attempt")
        time.sleep(slow_s)
        return "slow"
    return "fast"


def _square(x: int, seed: int = 0) -> int:
    return x * x


def _invalid_cell(counter_path: str, error: str, seed: int = 0) -> None:
    """Counts its invocations, then raises a deterministic task error."""
    calls = 0
    if os.path.exists(counter_path):
        with open(counter_path) as handle:
            calls = int(handle.read())
    with open(counter_path, "w") as handle:
        handle.write(str(calls + 1))
    raise {"ValueError": ValueError, "TypeError": TypeError}[error](
        f"invalid cell (call {calls + 1})"
    )


class TestRetry:
    def test_raise_twice_then_succeed_completes_via_retry(self, tmp_path):
        counter = str(tmp_path / "counter")
        runner = SweepRunner(max_attempts=3, retry_backoff_s=0.0)
        [result] = runner.run(
            [SimTask.call(_flaky_task, counter_path=counter, fail_times=2)]
        )
        assert result == "ok after 2 failure(s), seed=0"
        assert runner.tasks_retried == 2
        assert runner.tasks_executed == 1

    def test_exhausted_attempts_raise_with_context(self, tmp_path):
        counter = str(tmp_path / "counter")
        runner = SweepRunner(max_attempts=2, retry_backoff_s=0.0)
        task = SimTask.call(_flaky_task, counter_path=counter, fail_times=5)
        with pytest.raises(RetryExhaustedError) as excinfo:
            runner.run([task])
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last_error, RuntimeError)
        assert "_flaky_task" in str(excinfo.value)

    def test_default_is_fail_fast(self, tmp_path):
        counter = str(tmp_path / "counter")
        runner = SweepRunner()
        with pytest.raises(RetryExhaustedError) as excinfo:
            runner.run(
                [SimTask.call(_flaky_task, counter_path=counter, fail_times=1)]
            )
        assert excinfo.value.attempts == 1
        assert runner.tasks_retried == 0

    def test_backoff_grows_exponentially(self):
        runner = SweepRunner(
            max_attempts=4, retry_backoff_s=0.1, retry_jitter=0.0
        )
        delays = [backoff_delay(runner, k) for k in (1, 2, 3)]
        assert delays == pytest.approx([0.1, 0.2, 0.4])

    def test_backoff_is_capped_at_30_s(self):
        runner = SweepRunner(retry_backoff_s=0.5, retry_jitter=0.25)
        assert backoff_delay(runner, 7) <= 30.0  # 0.5 * 2**6 = 32
        assert backoff_delay(runner, 20) == 30.0

    def test_jitter_bounds(self):
        runner = SweepRunner(
            max_attempts=2, retry_backoff_s=1.0, retry_jitter=0.5
        )
        for _ in range(50):
            assert 1.0 <= backoff_delay(runner, 1) <= 1.5

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("error", ["ValueError", "TypeError"])
    def test_deterministic_error_fails_on_first_attempt(
        self, tmp_path, n_workers, error
    ):
        counter = str(tmp_path / "counter")
        runner = SweepRunner(
            n_workers=n_workers, max_attempts=5, retry_backoff_s=0.0
        )
        tasks = [
            SimTask.call(_invalid_cell, counter_path=counter, error=error),
            SimTask.call(_square, x=3),
        ]
        with pytest.raises(RetryExhaustedError) as excinfo:
            runner.run(tasks)
        assert excinfo.value.attempts == 1
        assert type(excinfo.value.last_error).__name__ == error
        assert excinfo.value.__cause__ is excinfo.value.last_error
        assert runner.tasks_retried == 0
        with open(counter) as handle:
            assert handle.read() == "1"

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_missing_task_function_fails_on_first_attempt(self, n_workers):
        runner = SweepRunner(
            n_workers=n_workers, max_attempts=5, retry_backoff_s=0.0
        )
        missing = SimTask(fn="repro.runners.runner:no_such_task")
        with pytest.raises(RetryExhaustedError, match="not found") as excinfo:
            runner.run([missing, SimTask.call(_square, x=3)])
        assert excinfo.value.attempts == 1
        assert runner.tasks_retried == 0

    def test_pooled_retry(self, tmp_path):
        counter = str(tmp_path / "counter")
        runner = SweepRunner(n_workers=2, max_attempts=3, retry_backoff_s=0.0)
        results = runner.run(
            [
                SimTask.call(_flaky_task, counter_path=counter, fail_times=1),
                SimTask.call(_square, x=3),
            ]
        )
        assert results[0].startswith("ok after 1")
        assert results[1] == 9

    def test_pooled_timeout_retries_on_a_fresh_worker(self, tmp_path):
        marker = str(tmp_path / "marker")
        runner = SweepRunner(
            n_workers=2,
            max_attempts=2,
            retry_backoff_s=0.0,
            task_timeout_s=0.5,
        )
        # slow_s bounds the pool-shutdown wait for the abandoned worker,
        # so keep it short while still far beyond the deadline.
        [result] = runner.run(
            [SimTask.call(_slow_task, marker_path=marker, slow_s=2.0)]
        )
        # First attempt hangs past the deadline and is abandoned; the
        # resubmission finds the marker and returns immediately.
        assert result == "fast"
        assert runner.tasks_retried == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SweepRunner(max_attempts=0)
        with pytest.raises(ValueError):
            SweepRunner(retry_backoff_s=-1.0)
        with pytest.raises(ValueError):
            SweepRunner(retry_jitter=-0.1)
        with pytest.raises(ValueError):
            SweepRunner(task_timeout_s=0.0)


class TestQuarantine:
    def test_truncated_entry_is_quarantined_and_recomputed(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        task = SimTask.call(_square, x=7)
        warm = SweepRunner(cache_dir=cache_dir)
        assert warm.run([task]) == [49]

        # Truncate the entry behind the cache's back.
        entry = warm.cache.path_for(task.cache_key())
        entry.write_bytes(entry.read_bytes()[:3])

        runner = SweepRunner(cache_dir=cache_dir)
        assert runner.run([task]) == [49]
        assert runner.cache_hits == 0  # the damaged entry did not serve
        assert runner.tasks_executed == 1
        assert runner.cache.quarantined == 1
        assert runner.cache.quarantine_path_for(task.cache_key()).exists()
        # The recomputed result overwrote the entry: next run is a hit.
        rerun = SweepRunner(cache_dir=cache_dir)
        assert rerun.run([task]) == [49]
        assert rerun.cache_hits == 1

    def test_quarantine_logs_a_warning(self, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        cache.path_for("deadbeef").write_bytes(b"not a pickle")
        with caplog.at_level("WARNING", logger="repro.runners.cache"):
            hit, _ = cache.lookup("deadbeef")
        assert not hit
        assert any("corrupt cache entry" in r.message for r in caplog.records)

    def test_clear_removes_quarantined_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("deadbeef").write_bytes(b"junk")
        cache.lookup("deadbeef")
        assert cache.quarantine_path_for("deadbeef").exists()
        cache.clear()
        assert not cache.quarantine_path_for("deadbeef").exists()


class TestCheckpointResume:
    def test_completed_cells_survive_a_mid_batch_failure(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        counter = str(tmp_path / "counter")
        tasks = [
            SimTask.call(_square, x=2),
            SimTask.call(_square, x=3),
            SimTask.call(_flaky_task, counter_path=counter, fail_times=1),
        ]
        first = SweepRunner(cache_dir=cache_dir)
        with pytest.raises(RetryExhaustedError):
            first.run(tasks)
        # The two cells that completed before the crash were checkpointed.
        assert first.tasks_executed == 2

        resumed = SweepRunner(cache_dir=cache_dir)
        assert resumed.run(tasks) == [4, 9, "ok after 1 failure(s), seed=0"]
        assert resumed.cache_hits == 2
        assert resumed.tasks_executed == 1  # only the failed cell reran

    def test_warm_cache_executes_nothing(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        tasks = [SimTask.call(_square, x=n) for n in range(5)]
        SweepRunner(cache_dir=cache_dir).run(tasks)
        rerun = SweepRunner(cache_dir=cache_dir)
        assert rerun.run(tasks) == [0, 1, 4, 9, 16]
        assert rerun.tasks_executed == 0
        assert rerun.cache_hits == 5

    def test_pooled_run_checkpoints_incrementally(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        tasks = [SimTask.call(_square, x=n) for n in range(6)]
        pooled = SweepRunner(n_workers=3, cache_dir=cache_dir)
        assert pooled.run(tasks) == [0, 1, 4, 9, 16, 25]
        serial = SweepRunner(cache_dir=cache_dir)
        assert serial.run(tasks) == [0, 1, 4, 9, 16, 25]
        assert serial.tasks_executed == 0
