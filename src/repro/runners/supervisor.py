"""``FleetSupervisor`` — the self-healing process-pool execution layer.

The historical pool path of :class:`~repro.runners.SweepRunner` treated
the ``ProcessPoolExecutor`` as infallible: one worker dying (OOM kill,
segfaulting native library, ``kill -9``) raised ``BrokenProcessPool``
and aborted the whole campaign.  This module applies the paper's
fault-tolerance discipline to the harness itself:

* **pool rebuild** — a broken pool is torn down and rebuilt with capped
  exponential backoff; the tasks that were in flight are re-derived from
  the runner's incremental checkpoint discipline (they were simply never
  emitted) and resubmitted.  Task seeds are explicit on every spec, so
  the recovered campaign is bit-identical to an undisturbed one.
* **poison-task quarantine** — a task that repeatedly takes its worker
  down is isolated instead of retry-looping the fleet to death.  Blame
  is assigned to every task in flight when the pool breaks; a task whose
  blame count crosses the suspicion threshold is re-run *alone*, so one
  more crash convicts it with certainty and innocent bystanders are
  exonerated by a single clean solo run.  A convicted task completes as
  a :class:`PoisonedTask` diagnostics value (``TaskCompletion.source ==
  "poisoned"``, a ``status='poisoned'`` row in ``ResultsDB``) and its
  siblings keep running.
* **graceful degradation** — when the pool breaks more than
  ``max_pool_rebuilds`` times, the supervisor stops fighting: it emits a
  loud ``RuntimeWarning`` and finishes the remaining tasks serially
  in-process.  Crash-suspect tasks are quarantined rather than risked in
  the coordinating process (a poison task run in-process would take the
  whole campaign down — the one failure mode serial execution cannot
  absorb).
* **clean interrupt** — ``KeyboardInterrupt`` flushes every
  already-finished future through the checkpoint (cache + DB) before the
  pool is reaped with ``cancel_futures=True``, so a Ctrl-C'd campaign
  resumes from everything that actually completed.

The supervisor preserves the runner's existing retry/timeout semantics
(bounded attempts with exponential backoff, per-task wall-clock budgets
with abandoned-worker resubmission) and its serial fallback for
environments without working process pools.  ``repro.service.chaos``
attacks this layer deliberately and certifies its tolerance envelope;
``docs/operations.md`` is the failure-mode runbook.
"""

from __future__ import annotations

import logging
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.runners.runner import SimTask, TaskCompletion, _execute_task

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.runners.runner import SweepRunner

__all__ = ["POISONED", "FleetSupervisor", "PoisonedTask"]

logger = logging.getLogger(__name__)

#: ``TaskCompletion.source`` of a quarantined task.
POISONED = "poisoned"

#: Worker-death blames after which a co-blamed task only runs alone.
#: Two is the smallest count that cannot be explained by a single
#: unlucky co-location with a genuine poison task.
_SUSPECT_AFTER = 2

#: Ceiling on the capped-exponential pool-rebuild delay.
_MAX_REBUILD_DELAY_S = 30.0


@dataclass(frozen=True)
class PoisonedTask:
    """Diagnostics standing in for the result of a quarantined task.

    Attributes:
        task: the quarantined :class:`SimTask` (seed filled in), so the
            exact failing spec can be replayed in isolation.
        crashes: worker deaths attributed to the task before conviction.
        reason: one-line human-readable conviction rationale.
    """

    task: SimTask
    crashes: int
    reason: str

    def to_json_dict(self) -> dict:
        """Deterministic JSON form (feeds the ``result_json`` column)."""
        return {
            "poisoned": True,
            "fn": self.task.fn,
            "label": self.task.label,
            "seed": self.task.seed,
            "crashes": self.crashes,
            "reason": self.reason,
        }


class _PoolBroken(Exception):
    """Internal control flow: the pool died under these in-flight tasks."""

    def __init__(self, states: list["_TaskState"]) -> None:
        super().__init__(
            f"process pool broke under {len(states)} in-flight task(s)"
        )
        self.states = states


class _PoolUnhealthy(Exception):
    """Internal control flow: the rebuild budget is exhausted."""

    def __init__(self, breaks: int) -> None:
        super().__init__(f"process pool broke {breaks} time(s)")
        self.breaks = breaks


@dataclass
class _TaskState:
    """One not-yet-completed task's mutable supervision record.

    Attributes:
        index: position in the submitted batch.
        task: the spec.
        key: content-hash cache key (``None`` when caching is off).
        attempt: ordinary-failure attempt counter (exceptions/timeouts),
            bounded by the runner's ``max_attempts``.
        blames: worker deaths this task was in flight for.
        solo: whether the most recent blame was exact (the task was the
            only one in flight when the pool died).
    """

    index: int
    task: SimTask
    key: str | None
    attempt: int = 1
    blames: int = 0
    solo: bool = False


class FleetSupervisor:
    """Drives one pooled sweep batch with crash supervision.

    One instance supervises one :meth:`SweepRunner.run` batch: it owns
    the ``ProcessPoolExecutor``, rebuilds it when workers die, assigns
    crash blame, quarantines poison tasks and degrades to serial
    execution when the pool is beyond saving.  All knobs and counters
    live on the runner (``max_pool_rebuilds``, ``rebuild_backoff_s``,
    ``pool_rebuilds``, ``tasks_poisoned``), so callers keep a single
    configuration surface.
    """

    def __init__(self, runner: "SweepRunner") -> None:
        self.runner = runner
        self._pool: ProcessPoolExecutor | None = None
        self._breaks = 0
        self._workers = runner.n_workers

    # ------------------------------------------------------------------ api

    def execute(
        self,
        pending: list[tuple[int, SimTask, str | None]],
        emit: Callable[[TaskCompletion, str | None], None],
    ) -> None:
        """Run `pending` to completion, surviving worker crashes.

        Every task ends in exactly one of three ways: emitted with its
        result, emitted as a :class:`PoisonedTask`, or the sweep aborts
        (``RetryExhaustedError`` / an unexpected error / interrupt).
        """
        runner = self.runner
        if runner.task_timeout_s is None:
            self._workers = min(runner.n_workers, len(pending))
        else:
            # Abandoned (timed-out) workers stay busy until their task
            # finishes on its own; clamping to the batch size would let
            # one hung task starve its own retries.
            self._workers = runner.n_workers
        ready: deque[_TaskState] = deque(
            _TaskState(index, task, key) for index, task, key in pending
        )
        probes: deque[_TaskState] = deque()
        try:
            while ready or probes:
                solo = not ready
                queue = deque([probes.popleft()]) if solo else ready
                try:
                    pool = self._ensure_pool()
                    self._drive(pool, queue, emit, limit=1 if solo else None)
                except _PoolBroken as broken:
                    self._teardown(cancel=True)
                    self._classify(broken.states, ready, probes, emit)
                    self._rebuild_backoff()
                except (OSError, PermissionError, ImportError):
                    # _drive requeued its in-flight states into `queue`;
                    # merge a probe batch back before degrading.
                    if solo:
                        probes.extendleft(queue)
                    raise
        except (OSError, PermissionError, ImportError) as error:
            self._teardown(cancel=True)
            warnings.warn(
                f"process pool unavailable ({error}); running sweep serially",
                RuntimeWarning,
                stacklevel=5,
            )
            self._degrade(list(ready) + list(probes), emit)
            return
        except _PoolUnhealthy as unhealthy:
            self._teardown(cancel=True)
            warnings.warn(
                f"process pool persistently unhealthy (broke "
                f"{unhealthy.breaks} times, rebuild budget "
                f"{runner.max_pool_rebuilds}); degrading to serial "
                "in-process execution for the remaining tasks",
                RuntimeWarning,
                stacklevel=5,
            )
            self._degrade(list(ready) + list(probes), emit)
            return
        except BaseException:
            # Interrupts and task failures alike: reap the pool without
            # waiting on stragglers (completed futures were already
            # flushed by _drive).
            self._teardown(cancel=True)
            raise
        # Clean finish: wait so abandoned (timed-out) workers are reaped
        # before returning, exactly like the historical context manager.
        self._teardown(wait=True)

    # ----------------------------------------------------------- pool state

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The live pool, building a fresh one after a teardown."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        return self._pool

    def _teardown(self, *, wait: bool = False, cancel: bool = False) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=cancel)
            self._pool = None

    def _rebuild_backoff(self) -> None:
        """Account one pool break; sleep before the rebuild.

        Raises:
            _PoolUnhealthy: the break count exceeded the runner's
                ``max_pool_rebuilds`` budget.
        """
        runner = self.runner
        self._breaks += 1
        runner.pool_rebuilds += 1
        if self._breaks > runner.max_pool_rebuilds:
            raise _PoolUnhealthy(self._breaks)
        delay = min(
            runner.rebuild_backoff_s * (2 ** (self._breaks - 1)),
            _MAX_REBUILD_DELAY_S,
        )
        logger.warning(
            "worker pool broke (%d/%d tolerated); rebuilding in %.2fs",
            self._breaks,
            runner.max_pool_rebuilds,
            delay,
        )
        if delay > 0:
            time.sleep(delay)

    # ------------------------------------------------------------- driving

    def _drive(
        self,
        pool: ProcessPoolExecutor,
        queue: deque[_TaskState],
        emit: Callable[[TaskCompletion, str | None], None],
        *,
        limit: int | None = None,
    ) -> None:
        """Pump `queue` through `pool` until it (and all flights) drain.

        Submission is bounded by the worker count, so the in-flight set
        is a tight superset of what is actually *running* — which is
        what makes crash blame (see :meth:`_classify`) meaningful.
        Raises :class:`_PoolBroken` with the in-flight states on worker
        death; requeues in-flight states and re-raises on pool
        *infrastructure* errors (``OSError`` family) so the caller can
        degrade to serial execution.
        """
        runner = self.runner
        timeout = runner.task_timeout_s
        limit = self._workers if limit is None else limit
        #: future -> (state, deadline, submitted_at)
        inflight: dict[Future, tuple[_TaskState, float | None, float]] = {}

        def submit(state: _TaskState) -> None:
            try:
                future = pool.submit(_execute_task, state.task)
            except BrokenProcessPool:
                survivors = [state] + [s for s, _, _ in inflight.values()]
                inflight.clear()
                raise _PoolBroken(survivors) from None
            now = time.monotonic()
            deadline = now + timeout if timeout is not None else None
            inflight[future] = (state, deadline, now)

        def requeue_for_retry(state: _TaskState, error: BaseException | None):
            runner._retry_or_raise(state.task, state.attempt, error)
            state.attempt += 1
            queue.append(state)

        try:
            while queue or inflight:
                while queue and len(inflight) < limit:
                    submit(queue.popleft())
                poll = 0.1 if timeout is not None else None
                done, _ = wait(
                    inflight, timeout=poll, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                # Successful results first: a dying worker fails every
                # other in-flight future at once, but results that
                # landed before the crash are good — checkpoint them
                # before assigning blame for the break.
                failures: list[tuple[Future, _TaskState, BaseException]] = []
                for future in done:
                    state, _, submitted = inflight[future]
                    error = future.exception()
                    if error is None:
                        inflight.pop(future)
                        emit(
                            TaskCompletion(
                                state.index,
                                state.task,
                                future.result(),
                                "executed",
                                now - submitted,
                            ),
                            state.key,
                        )
                    else:
                        failures.append((future, state, error))
                for future, state, error in failures:
                    if future not in inflight:
                        continue  # swept up by an earlier _PoolBroken
                    if isinstance(error, BrokenProcessPool):
                        survivors = [s for s, _, _ in inflight.values()]
                        inflight.clear()
                        raise _PoolBroken(survivors) from None
                    inflight.pop(future)
                    if isinstance(
                        error, (OSError, PermissionError, ImportError)
                    ):
                        # Pool infrastructure trouble, not a task
                        # failure: requeue the survivors and surface it
                        # so the supervisor degrades to serial.
                        queue.appendleft(state)
                        queue.extend(s for s, _, _ in inflight.values())
                        inflight.clear()
                        raise error
                    requeue_for_retry(state, error)
                if timeout is None:
                    continue
                for future in list(inflight):
                    state, deadline, _ = inflight[future]
                    if deadline is None or now < deadline:
                        continue
                    if future.running() or not future.cancel():
                        # Can't preempt a running worker: abandon the
                        # future (its eventual result is discarded) and
                        # retry the task on a fresh submission.
                        inflight.pop(future)
                        future.add_done_callback(lambda f: f.exception())
                    else:
                        inflight.pop(future)
                    requeue_for_retry(state, None)
        except KeyboardInterrupt:
            # Clean drain: flush everything that already finished into
            # the checkpoint before the supervisor reaps the pool.
            self._flush_finished(inflight, emit)
            raise

    def _flush_finished(
        self,
        inflight: dict[Future, tuple[_TaskState, float | None, float]],
        emit: Callable[[TaskCompletion, str | None], None],
    ) -> None:
        """Emit every already-completed in-flight future (non-blocking)."""
        done, _ = wait(inflight, timeout=0)
        now = time.monotonic()
        for future in done:
            state, _, submitted = inflight.pop(future)
            if future.exception() is None:
                emit(
                    TaskCompletion(
                        state.index,
                        state.task,
                        future.result(),
                        "executed",
                        now - submitted,
                    ),
                    state.key,
                )

    # ------------------------------------------------------ blame & poison

    def _classify(
        self,
        states: list[_TaskState],
        ready: deque[_TaskState],
        probes: deque[_TaskState],
        emit: Callable[[TaskCompletion, str | None], None],
    ) -> None:
        """Assign blame for one pool break and route survivors.

        Every task in flight at the moment of death is blamed once; the
        blame is *exact* when the task was alone.  Routing rules:

        * blamed ``max_attempts`` times with an exact final blame —
          convicted, quarantined as poisoned;
        * blamed while co-located (``_SUSPECT_AFTER`` times, or past the
          attempt budget) — suspect: re-run alone via the probe queue,
          where one clean run exonerates and one more crash convicts;
        * otherwise — back into the general queue for an ordinary retry.
        """
        exact = len(states) == 1
        for state in states:
            state.blames += 1
            state.solo = exact
        for state in states:
            if state.blames >= self.runner.max_attempts and state.solo:
                self._quarantine(
                    state,
                    emit,
                    reason=(
                        f"worker crashed {state.blames} time(s), "
                        "the last with this task running alone"
                    ),
                )
            elif (
                exact
                or state.blames >= _SUSPECT_AFTER
                or state.blames >= self.runner.max_attempts
            ):
                probes.append(state)
            else:
                ready.append(state)

    def _quarantine(
        self,
        state: _TaskState,
        emit: Callable[[TaskCompletion, str | None], None],
        *,
        reason: str,
    ) -> None:
        """Complete `state` as poisoned: diagnostics instead of a result.

        The :class:`PoisonedTask` flows through the ordinary completion
        path (results list, ``on_result``, a ``status='poisoned'`` DB
        row) but is never written to the pickle cache — a rerun must
        retry the task, not replay its quarantine.
        """
        self.runner.tasks_poisoned += 1
        diagnostics = PoisonedTask(
            task=state.task, crashes=state.blames, reason=reason
        )
        logger.warning(
            "quarantined poison task %s (seed=%s) after %d worker "
            "crash(es): %s",
            state.task.label or state.task.fn,
            state.task.seed,
            state.blames,
            reason,
        )
        emit(
            TaskCompletion(state.index, state.task, diagnostics, POISONED),
            state.key,
        )

    # ---------------------------------------------------------- degradation

    def _degrade(
        self,
        states: list[_TaskState],
        emit: Callable[[TaskCompletion, str | None], None],
    ) -> None:
        """Finish `states` serially in-process (the pool is gone).

        Tasks that were ever blamed for a worker death are quarantined
        instead of executed: serial execution has no process isolation,
        so running a crash suspect here could take the coordinator (and
        the whole campaign record) down with it.
        """
        clean: list[Any] = []
        for state in sorted(states, key=lambda s: s.index):
            if state.blames:
                self._quarantine(
                    state,
                    emit,
                    reason=(
                        f"pool degraded to serial after {state.blames} "
                        "crash blame(s); a crash suspect is not risked "
                        "in the coordinating process"
                    ),
                )
            else:
                clean.append((state.index, state.task, state.key))
        self.runner._execute_serial(clean, emit)
