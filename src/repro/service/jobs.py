"""``JobQueue`` — asynchronous campaign submission over ``SweepRunner``.

The sweep runner is a blocking, one-campaign-at-a-time API: callers hand
it a batch and wait.  ``JobQueue`` puts an asyncio front-end on it so
many clients can submit campaigns concurrently and watch them finish:

* :meth:`JobQueue.submit` enqueues a batch of :class:`SimTask` and
  returns a job id immediately;
* jobs execute one at a time on a background worker, highest
  ``priority`` first (FIFO within a priority level), each batch running
  on the shared :class:`~repro.runners.SweepRunner` in a thread so the
  event loop stays free;
* :meth:`JobQueue.status` is a cheap snapshot; :meth:`JobQueue.stream`
  is an async generator of per-task :class:`TaskCompletion` events —
  late subscribers replay from the first completion, several consumers
  can stream the same job;
* :meth:`JobQueue.cancel` removes a queued job instantly and stops a
  running one at its next chunk boundary.

**Determinism and resume.**  Seeds are assigned over the *whole* batch
at submit time (:meth:`SweepRunner.assign_seeds`), then the job executes
in cancellable chunks — so a job's results are bit-identical to one
blocking :meth:`SweepRunner.run` call over the same tasks, regardless of
chunk size.  Because every completed cell is checkpointed to the
runner's cache (and written through to its :class:`ResultsDB` when one
is attached, the runner's retry machinery underneath), resubmitting a
cancelled or crashed job resumes from the completed cells: they return
as ``source="cache"`` completions without re-executing.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, AsyncIterator, Iterable

from repro.runners import SimTask, SweepRunner, TaskCompletion

__all__ = ["JobQueue", "JobState", "JobStatus"]


class JobState(str, Enum):
    """Lifecycle of a submitted job.

    ``QUEUED -> RUNNING -> COMPLETED | FAILED | CANCELLED`` (a queued
    job may also go straight to ``CANCELLED``).
    """

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the job will never transition again."""
        return self in (
            JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED
        )


@dataclass(frozen=True)
class JobStatus:
    """A point-in-time snapshot of one job.

    Attributes:
        job_id: the handle :meth:`JobQueue.submit` returned.
        label: free-form campaign label.
        state: current :class:`JobState`.
        priority: higher runs earlier.
        n_tasks: batch size.
        n_done: completions so far (cache hits and quarantined tasks
            included).
        n_cached: completions served from the pickle cache.
        n_poisoned: tasks quarantined by the fleet supervisor after
            repeatedly crashing their worker (``source="poisoned"``
            completions; see ``docs/operations.md``).
        error: ``repr`` of the failure for ``FAILED`` jobs, else ``None``.
    """

    job_id: str
    label: str
    state: JobState
    priority: int
    n_tasks: int
    n_done: int
    n_cached: int
    n_poisoned: int = 0
    error: str | None = None


@dataclass
class _Job:
    """Internal mutable job record (callers see :class:`JobStatus`)."""

    job_id: str
    label: str
    priority: int
    tasks: list[SimTask]
    state: JobState = JobState.QUEUED
    completions: list[TaskCompletion] = field(default_factory=list)
    error: BaseException | None = None
    cancel_requested: bool = False
    changed: asyncio.Event = field(default_factory=asyncio.Event)

    def snapshot(self) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            label=self.label,
            state=self.state,
            priority=self.priority,
            n_tasks=len(self.tasks),
            n_done=len(self.completions),
            n_cached=sum(
                1 for c in self.completions if c.source == "cache"
            ),
            n_poisoned=sum(
                1 for c in self.completions if c.source == "poisoned"
            ),
            error=repr(self.error) if self.error is not None else None,
        )

    def _mark_changed(self) -> None:
        """Wake streamers/waiters, then re-arm the event."""
        self.changed.set()
        self.changed = asyncio.Event()


class JobQueue:
    """An asyncio job queue in front of one :class:`SweepRunner`.

    Args:
        runner: the shared runner jobs execute on — its worker count,
            cache, results database and retry settings apply to every
            job; ``None`` builds a serial one with neither cache nor
            database.
        chunk_size: tasks per cancellable :meth:`SweepRunner.run` call;
            defaults to ``4 * runner.n_workers``.  Smaller chunks cancel
            sooner, larger ones amortise pool startup better.  Chunking
            never changes results (seeds are batch-global).

    Use as an async context manager (or call :meth:`start` /
    :meth:`close` explicitly)::

        runner = SweepRunner(n_workers=4, db="campaign.db")
        async with JobQueue(runner) as queue:
            job_id = await queue.submit(tasks, priority=1)
            async for completion in queue.stream(job_id):
                ...
    """

    def __init__(
        self,
        runner: SweepRunner | None = None,
        *,
        chunk_size: int | None = None,
    ) -> None:
        if runner is None:
            runner = SweepRunner()
        self.runner = runner
        if chunk_size is None:
            chunk_size = 4 * runner.n_workers
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self._jobs: dict[str, _Job] = {}
        self._heap: list[tuple[int, int, str]] = []  # (-priority, seq, id)
        self._seq = itertools.count()
        self._submitted = asyncio.Event()
        self._worker: asyncio.Task | None = None
        self._idle = asyncio.Event()
        self._idle.set()

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> "JobQueue":
        """Spawn the background worker (idempotent)."""
        if self._worker is None or self._worker.done():
            self._worker = asyncio.create_task(
                self._work_loop(), name="repro-job-queue"
            )
        return self

    async def close(self) -> None:
        """Stop the worker after the running chunk; queued jobs stay
        QUEUED (a later :meth:`start` on a new queue can resubmit)."""
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None

    async def __aenter__(self) -> "JobQueue":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ----------------------------------------------------------------- api

    async def submit(
        self,
        tasks: Iterable[SimTask],
        *,
        priority: int = 0,
        label: str = "",
    ) -> str:
        """Enqueue a campaign; returns its job id immediately.

        Seeds are assigned over the whole batch now (batch-position
        seeding), so results are bit-identical to a single blocking
        :meth:`SweepRunner.run` over the same tasks.
        """
        batch = self.runner.assign_seeds(tasks)
        if not batch:
            raise ValueError("cannot submit an empty job")
        seq = next(self._seq)
        job = _Job(
            job_id=f"job-{seq:04d}",
            label=label,
            priority=priority,
            tasks=batch,
        )
        self._jobs[job.job_id] = job
        heapq.heappush(self._heap, (-priority, seq, job.job_id))
        self._submitted.set()
        await self.start()
        return job.job_id

    def status(self, job_id: str) -> JobStatus:
        """A snapshot of one job (raises ``KeyError`` for unknown ids)."""
        return self._require(job_id).snapshot()

    def jobs(self) -> list[JobStatus]:
        """Snapshots of every known job, in submission order."""
        return [job.snapshot() for job in self._jobs.values()]

    async def cancel(self, job_id: str) -> bool:
        """Cancel a job; returns True if it was still cancellable.

        A QUEUED job is cancelled instantly.  A RUNNING job stops at its
        next chunk boundary — already-completed cells remain
        checkpointed (cache + DB), so resubmitting the same tasks
        resumes rather than recomputes.  Terminal jobs return False.
        """
        job = self._require(job_id)
        if job.state.terminal:
            return False
        job.cancel_requested = True
        if job.state is JobState.QUEUED:
            job.state = JobState.CANCELLED
            job._mark_changed()
        return True

    async def stream(self, job_id: str) -> AsyncIterator[TaskCompletion]:
        """Yield the job's per-task completions as they land.

        Replays from the first completion for late subscribers, then
        follows live until the job reaches a terminal state.  Raises the
        job's error at the end of the stream for FAILED jobs.
        """
        job = self._require(job_id)
        cursor = 0
        while True:
            while cursor < len(job.completions):
                yield job.completions[cursor]
                cursor += 1
            if job.state.terminal:
                break
            changed = job.changed
            await changed.wait()
        if job.state is JobState.FAILED and job.error is not None:
            raise job.error

    async def join(self) -> None:
        """Wait until every submitted job has reached a terminal state."""
        while True:
            live = [
                job for job in self._jobs.values() if not job.state.terminal
            ]
            if not live:
                return
            waiters = [
                asyncio.ensure_future(job.changed.wait()) for job in live
            ]
            try:
                await asyncio.wait(
                    waiters, return_when=asyncio.FIRST_COMPLETED
                )
            finally:
                for waiter in waiters:
                    waiter.cancel()

    async def result(self, job_id: str) -> list[Any]:
        """Wait for the job and return its results in task order.

        Raises the job's error for FAILED jobs and
        ``asyncio.CancelledError`` for cancelled ones.
        """
        job = self._require(job_id)
        while not job.state.terminal:
            await job.changed.wait()
        if job.state is JobState.FAILED and job.error is not None:
            raise job.error
        if job.state is JobState.CANCELLED:
            raise asyncio.CancelledError(f"{job_id} was cancelled")
        ordered: list[Any] = [None] * len(job.tasks)
        for completion in job.completions:
            ordered[completion.index] = completion.value
        return ordered

    # ------------------------------------------------------------- worker

    def _require(self, job_id: str) -> _Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            known = ", ".join(self._jobs) or "none"
            raise KeyError(
                f"unknown job id {job_id!r} (known: {known})"
            ) from None

    def _next_job(self) -> _Job | None:
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self._jobs[job_id]
            if job.state is JobState.QUEUED:
                return job
        return None

    async def _work_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                self._idle.set()
                self._submitted.clear()
                await self._submitted.wait()
                continue
            self._idle.clear()
            await self._run_job(job)

    async def _run_job(self, job: _Job) -> None:
        loop = asyncio.get_running_loop()
        job.state = JobState.RUNNING
        job._mark_changed()
        # One campaign row spans the whole job, not one per chunk; the
        # queue owns its lifecycle and the chunks append into it.
        db = self.runner.db
        run_id = (
            db.begin_run(label=job.label or job.job_id,
                         n_tasks=len(job.tasks))
            if db is not None
            else None
        )

        def deliver(completion: TaskCompletion, base: int) -> None:
            # Called from the runner thread: re-index chunk-local
            # completions into batch coordinates and hand off to the loop.
            rebased = TaskCompletion(
                index=base + completion.index,
                task=completion.task,
                value=completion.value,
                source=completion.source,
                duration_s=completion.duration_s,
            )
            loop.call_soon_threadsafe(self._post, job, rebased)

        try:
            for start in range(0, len(job.tasks), self.chunk_size):
                if job.cancel_requested:
                    break
                chunk = job.tasks[start:start + self.chunk_size]
                await asyncio.to_thread(
                    self.runner.run,
                    chunk,
                    on_result=lambda c, base=start: deliver(c, base),
                    run_id=run_id,
                    index_base=start,
                )
        except asyncio.CancelledError:
            # The queue itself is closing; leave the job as-is so a new
            # queue can resubmit and resume from the checkpointed cells.
            if db is not None:
                db.finish_run(run_id, status="cancelled")
            job.state = JobState.QUEUED
            job._mark_changed()
            raise
        except Exception as error:  # noqa: BLE001 - surfaced via status/stream
            job.error = error
            job.state = JobState.FAILED
        else:
            job.state = (
                JobState.CANCELLED
                if job.cancel_requested
                else JobState.COMPLETED
            )
        if db is not None:
            db.finish_run(run_id, status=job.state.value)
        job._mark_changed()

    def _post(self, job: _Job, completion: TaskCompletion) -> None:
        job.completions.append(completion)
        job._mark_changed()
