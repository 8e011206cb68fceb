"""Tests for repro.service's asyncio JobQueue front-end."""

from __future__ import annotations

import asyncio
import pickle
import time

import pytest

from repro.core.theory import simulate_rumor_spread
from repro.runners import RetryExhaustedError, SimTask, SweepRunner
from repro.service import JobQueue, JobState, ResultsDB

#: Execution-order log written by _record_cell (in-process, serial runs).
ORDER: list[str] = []


def _record_cell(tag: str, seed: int | None = None) -> str:
    ORDER.append(tag)
    return tag


def _slow_cell(index: int, seed: int | None = None) -> int:
    time.sleep(0.02)
    return index


def _tasks(count: int, n: int = 8, rounds: int = 3) -> list[SimTask]:
    return [
        SimTask.call(simulate_rumor_spread, n=n, rounds=rounds, seed=1000 + i)
        for i in range(count)
    ]


def _run(coro):
    return asyncio.run(coro)


class TestSubmitAndResult:
    def test_results_match_blocking_runner(self):
        tasks = _tasks(6)

        async def scenario():
            async with JobQueue(SweepRunner(n_workers=1)) as queue:
                job_id = await queue.submit(tasks, label="six")
                return await queue.result(job_id)

        assert _run(scenario()) == SweepRunner().run(tasks)

    def test_chunking_never_changes_results(self):
        tasks = _tasks(7)
        blocking = SweepRunner().run(tasks)

        async def scenario(chunk_size):
            async with JobQueue(chunk_size=chunk_size) as queue:
                return await queue.result(await queue.submit(tasks))

        for chunk_size in (1, 3, 100):
            assert _run(scenario(chunk_size)) == blocking

    def test_batch_global_seeding_matches_one_run_call(self):
        # Unseeded tasks: seeds must be assigned over the whole batch at
        # submit time, not per chunk.
        def unseeded():
            return [
                SimTask.call(simulate_rumor_spread, n=8, rounds=3)
                for _ in range(6)
            ]

        blocking = SweepRunner(base_seed=42).run(unseeded())

        async def scenario():
            runner = SweepRunner(base_seed=42)
            async with JobQueue(runner, chunk_size=2) as queue:
                return await queue.result(await queue.submit(unseeded()))

        assert _run(scenario()) == blocking

    def test_empty_submission_is_an_error(self):
        async def scenario():
            async with JobQueue() as queue:
                with pytest.raises(ValueError, match="empty"):
                    await queue.submit([])

        _run(scenario())

    def test_unknown_job_id_raises(self):
        async def scenario():
            async with JobQueue() as queue:
                with pytest.raises(KeyError, match="unknown job id"):
                    queue.status("job-9999")

        _run(scenario())

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            JobQueue(chunk_size=0)


class TestLifecycle:
    def test_status_reaches_completed(self):
        async def scenario():
            async with JobQueue() as queue:
                job_id = await queue.submit(_tasks(3), label="tracked")
                assert queue.status(job_id).state in (
                    JobState.QUEUED, JobState.RUNNING
                )
                await queue.result(job_id)
                status = queue.status(job_id)
                assert status.state is JobState.COMPLETED
                assert status.state.terminal
                assert status.n_done == status.n_tasks == 3
                assert status.label == "tracked"
                assert status.error is None
                assert [s.job_id for s in queue.jobs()] == [job_id]

        _run(scenario())

    def test_failed_job_surfaces_its_error(self):
        bad = [SimTask.call(simulate_rumor_spread, n=-1, seed=0)]

        async def scenario():
            async with JobQueue() as queue:
                job_id = await queue.submit(bad)
                with pytest.raises(RetryExhaustedError, match="n must be >= 1"):
                    await queue.result(job_id)
                status = queue.status(job_id)
                assert status.state is JobState.FAILED
                assert "n must be >= 1" in status.error

        _run(scenario())

    def test_priority_order_with_fifo_ties(self):
        ORDER.clear()

        async def scenario():
            async with JobQueue() as queue:
                # Three submits without yielding to the loop: all three
                # are queued before the worker pops anything.
                a = await queue.submit(
                    [SimTask.call(_record_cell, tag="a", seed=0)]
                )
                b = await queue.submit(
                    [SimTask.call(_record_cell, tag="b", seed=0)]
                )
                c = await queue.submit(
                    [SimTask.call(_record_cell, tag="c", seed=0)],
                    priority=5,
                )
                await queue.join()
                return a, b, c

        _run(scenario())
        # Highest priority first; FIFO within the tied priority level.
        assert ORDER == ["c", "a", "b"]


class TestStreaming:
    def test_stream_replays_for_late_subscribers(self):
        tasks = _tasks(5)

        async def scenario():
            async with JobQueue() as queue:
                job_id = await queue.submit(tasks)
                await queue.result(job_id)  # job fully done before streaming
                completions = [c async for c in queue.stream(job_id)]
                return completions

        completions = _run(scenario())
        assert [c.index for c in completions] == list(range(5))
        assert [c.value for c in completions] == SweepRunner().run(tasks)
        assert all(c.source == "executed" for c in completions)

    def test_live_stream_sees_every_completion_in_order(self):
        tasks = _tasks(6)

        async def scenario():
            async with JobQueue(chunk_size=2) as queue:
                job_id = await queue.submit(tasks)
                return [c.index async for c in queue.stream(job_id)]

        assert _run(scenario()) == list(range(6))

    def test_stream_raises_for_failed_jobs(self):
        bad = [SimTask.call(simulate_rumor_spread, n=-1, seed=0)]

        async def scenario():
            async with JobQueue() as queue:
                job_id = await queue.submit(bad)
                with pytest.raises(RetryExhaustedError, match="n must be >= 1"):
                    async for _ in queue.stream(job_id):
                        pass

        _run(scenario())


class TestCancellation:
    def test_queued_job_cancels_instantly(self):
        async def scenario():
            async with JobQueue() as queue:
                blocker = await queue.submit(
                    [SimTask.call(_slow_cell, index=i, seed=0)
                     for i in range(4)]
                )
                victim = await queue.submit(_tasks(3))
                assert await queue.cancel(victim)
                assert queue.status(victim).state is JobState.CANCELLED
                with pytest.raises(asyncio.CancelledError):
                    await queue.result(victim)
                await queue.result(blocker)
                # Terminal jobs are no longer cancellable.
                assert not await queue.cancel(victim)
                assert not await queue.cancel(blocker)

        _run(scenario())

    def test_running_job_stops_at_chunk_boundary_and_resumes(
        self, cache_dir
    ):
        tasks = [
            SimTask.call(_slow_cell, index=i, seed=0) for i in range(10)
        ]

        async def cancel_mid_run():
            runner = SweepRunner(cache_dir=cache_dir)
            async with JobQueue(runner, chunk_size=2) as queue:
                job_id = await queue.submit(tasks)
                while queue.status(job_id).n_done < 2:
                    await asyncio.sleep(0.002)
                assert await queue.cancel(job_id)
                await queue.join()
                status = queue.status(job_id)
                assert status.state is JobState.CANCELLED
                return status.n_done

        done = _run(cancel_mid_run())
        assert 2 <= done < 10

        async def resume():
            runner = SweepRunner(cache_dir=cache_dir)
            async with JobQueue(runner, chunk_size=2) as queue:
                job_id = await queue.submit(tasks)
                result = await queue.result(job_id)
                return result, queue.status(job_id)

        result, status = _run(resume())
        assert result == list(range(10))
        assert status.state is JobState.COMPLETED
        # The checkpointed cells come back from the cache, unexecuted.
        assert status.n_cached >= done

    def test_cancel_races_chunk_boundary_without_orphan_db_rows(
        self, cache_dir, tmp_path
    ):
        """Cancel mid-chunk while ResultsDB write-through is in flight.

        The cancel request lands while a chunk is still executing (its
        task rows are being appended to the database).  The job must
        stop at the chunk boundary leaving the store consistent — the
        campaign row stamped ``cancelled``, exactly one task row per
        delivered completion, none orphaned on a ``running`` run — and
        a resubmission over the same cache must resume bit-identically.
        """
        db_path = tmp_path / "race.db"
        tasks = [
            SimTask.call(_slow_cell, index=i, seed=0) for i in range(10)
        ]

        async def cancel_mid_chunk():
            runner = SweepRunner(cache_dir=cache_dir, db=db_path)
            async with JobQueue(runner, chunk_size=3) as queue:
                job_id = await queue.submit(tasks, label="race")
                # Wait for the first write-through, i.e. mid-chunk: the
                # chunk has started delivering but has not finished.
                while queue.status(job_id).n_done < 1:
                    await asyncio.sleep(0.002)
                assert await queue.cancel(job_id)
                await queue.join()
                status = queue.status(job_id)
                assert status.state is JobState.CANCELLED
                return status.n_done

        done = _run(cancel_mid_chunk())
        # The in-flight chunk ran to its boundary; nothing after it did.
        assert 1 <= done < 10
        assert done % 3 == 0

        with ResultsDB(db_path) as db:
            (run,) = db.runs()
            assert run["status"] == "cancelled"
            assert run["finished_at"] is not None
            rows = db.query(
                "SELECT task_index, source FROM tasks ORDER BY task_index"
            )
            # One row per delivered completion — no orphans from the
            # cancelled tail, no rows outside the campaign.
            assert [row["task_index"] for row in rows] == list(range(done))
            orphans = db.query(
                "SELECT COUNT(*) AS n FROM tasks WHERE run_id NOT IN "
                "(SELECT run_id FROM runs)"
            )
            assert orphans[0]["n"] == 0

        async def resume():
            runner = SweepRunner(cache_dir=cache_dir, db=db_path)
            async with JobQueue(runner, chunk_size=3) as queue:
                job_id = await queue.submit(tasks, label="race resume")
                result = await queue.result(job_id)
                return result, queue.status(job_id)

        result, status = _run(resume())
        assert result == list(range(10))  # bit-identical to a clean run
        assert status.n_cached >= done  # checkpointed cells not re-run

        with ResultsDB(db_path) as db:
            statuses = [run["status"] for run in db.runs()]
            assert statuses == ["cancelled", "completed"]
            full = db.query(
                "SELECT COUNT(*) AS n FROM tasks t JOIN runs r "
                "ON t.run_id = r.run_id WHERE r.status = 'completed'"
            )
            assert full[0]["n"] == 10


class TestDatabaseParity:
    def test_nine_cell_campaign_matches_legacy_pickle_path(
        self, tmp_path
    ):
        cells = [
            SimTask.call(simulate_rumor_spread, n=n, rounds=4, seed=seed)
            for n in (8, 16, 32)
            for seed in (1, 2, 3)
        ]
        legacy_cache = tmp_path / "legacy_cache"
        legacy_cache.mkdir()
        legacy = SweepRunner(cache_dir=legacy_cache).run(cells)

        db_path = tmp_path / "campaign.db"

        async def scenario():
            async with JobQueue(SweepRunner(db=db_path)) as queue:
                job_id = await queue.submit(cells, label="nine-cell")
                return await queue.result(job_id)

        service = _run(scenario())
        assert pickle.dumps(service) == pickle.dumps(legacy)

        with ResultsDB(db_path) as db:
            (run,) = db.runs()
            assert run["status"] == "completed"
            stored = db.results_for_run(run["run_id"])
            assert pickle.dumps(stored) == pickle.dumps(legacy)
            # SQL coverage: every cell present, keys matching the pickle
            # cache's content hashes.
            rows = db.query(
                "SELECT cache_key FROM tasks ORDER BY task_index"
            )
            assert [row["cache_key"] for row in rows] == [
                task.cache_key() for task in cells
            ]

    def test_thousand_cell_campaign_is_bit_identical(self, tmp_path):
        cells = [
            SimTask.call(simulate_rumor_spread, n=8, rounds=2, seed=seed)
            for seed in range(1000)
        ]
        legacy = SweepRunner().run(cells)
        db_path = tmp_path / "big.db"

        async def scenario():
            runner = SweepRunner(db=db_path)
            async with JobQueue(runner, chunk_size=128) as queue:
                job_id = await queue.submit(cells, label="thousand-cell")
                result = await queue.result(job_id)
                return result, queue.status(job_id)

        service, status = _run(scenario())
        assert status.n_done == 1000
        assert pickle.dumps(service) == pickle.dumps(legacy)
        with ResultsDB(db_path) as db:
            (count,) = db.query("SELECT COUNT(*) AS n FROM tasks")
            assert count["n"] == 1000
            (run,) = db.runs()
            assert pickle.dumps(db.results_for_run(run["run_id"])) == (
                pickle.dumps(legacy)
            )
