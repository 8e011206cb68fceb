"""``FleetSupervisor`` — the failure state machine of every sweep batch.

:meth:`SweepRunner.run <repro.runners.SweepRunner.run>` hands each batch
of uncached tasks to :meth:`FleetSupervisor.execute`, which runs it
in-process (``n_workers == 1``, or one task without a timeout) or on a
``ProcessPoolExecutor``.  Both paths carry one :class:`_TaskState` per
task and consult one pure function, :func:`transition`, on every
failure.

On the pool path one future carries a *batch* of tasks, run in order by
:func:`_execute_batch`, which times each task and returns one outcome
per task; every task is then emitted, retried or blamed on its own.  A
batch holds ``min(ceil(queued / (4 * workers)), max(1,
floor(_BATCH_TARGET_S / mean task time)))`` tasks, so each worker still
gets at least four batches and a batch carries about 50 ms of work;
cells of 50 ms or more go one per future.  A batch is one task until
the first result lands, always when ``task_timeout_s`` is set (the
timeout is per task, and a task inside a batch cannot be preempted),
and for the rest of an :meth:`~FleetSupervisor.execute` call once its
pool broke or a batch failed as a whole.

The table applies the paper's fault-tolerance discipline to the harness
itself, one response per fault kind:

* a deterministic error (``ValueError``/``TypeError``) fails at once;
  any other exception, or a pool task past ``task_timeout_s``, is
  retried after :func:`backoff_delay`, up to ``max_attempts`` in total.
  On the pool path the retry waits in a side heap while the other
  tasks keep running; in-process, nothing else can run, so it sleeps;
* a worker death (``BrokenProcessPool``) blames every task of every
  batch in flight, and the pool is rebuilt after the same backoff.  The
  in-flight tasks were never emitted, so they are resubmitted; seeds
  are explicit on every spec, so the recovered campaign is
  bit-identical;
* a task blamed twice, or alone, is re-run *alone*: one more crash
  convicts it with certainty, one clean run exonerates a bystander.  A
  convicted task completes as a :class:`PoisonedTask` (source
  ``"poisoned"``, a ``status='poisoned'`` ``ResultsDB`` row) and its
  siblings keep running;
* a pool that cannot start, or breaks more than ``max_pool_rebuilds``
  times, degrades to in-process execution with a ``RuntimeWarning``.
  Tasks keep their attempt counts; crash suspects are quarantined, never
  risked in the coordinating process;
* ``KeyboardInterrupt`` flushes every finished batch through the
  checkpoint (cache + DB) before the pool is reaped.

``repro.service.chaos`` certifies the tolerance envelope;
``docs/operations.md`` is the runbook and prints the transition table.
"""

from __future__ import annotations

import enum
import heapq
import logging
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool, _ExceptionWithTraceback
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.runners.runner import RetryExhaustedError, SimTask, TaskCompletion

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

#: Task errors no retry can fix: the same spec raises them every time.
_DETERMINISTIC = (ValueError, TypeError)

#: Errors that mean the process pool itself is unusable, not the task,
#: when a submit or a whole future raises them.  From one task of a
#: batch only an ``ImportError`` does (the worker cannot import the
#: task's module); any other is the task's own, for :func:`transition`.
_POOL_TROUBLE = (OSError, ImportError)

#: Ceiling on every backoff delay, task retries and pool rebuilds alike.
_MAX_BACKOFF_S = 30.0

#: Worker time one pool future should carry.  Against a ~2 ms
#: submit-to-result round trip this keeps dispatch a few percent of a
#: batch, and a task of this length or more goes one per future.
_BATCH_TARGET_S = 0.05

#: One task's outcome from a worker: its result (``None`` on failure),
#: the exception it raised (``None`` on success) and its seconds.
_Outcome = tuple[Any, BaseException | None, float]


def _execute_batch(tasks: tuple[SimTask, ...]) -> list[_Outcome]:
    """Worker-side trampoline of one pool future: run `tasks` in order.

    Each task is timed around its call, as the in-process path times
    it, and an exception fails only its own task.  The exception is
    wrapped the way ``ProcessPoolExecutor`` wraps a failed future's, so
    the coordinator sees the same type, message and remote traceback.
    """
    outcomes: list[_Outcome] = []
    for task in tasks:
        started = time.perf_counter()
        try:
            value, error = task.execute(), None
        except Exception as raised:  # noqa: BLE001 - the coordinator decides
            value, error = None, _ExceptionWithTraceback(
                raised, raised.__traceback__
            )
        outcomes.append((value, error, time.perf_counter() - started))
    return outcomes


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


@dataclass(slots=True)
class _TaskState:
    """One not-yet-completed task's supervision record.

    Attributes:
        index: position in the submitted batch.
        task: the spec.
        key: content-hash cache key (``None`` when caching is off).
        attempt: the current attempt; only exceptions and timeouts
            advance it, bounded by the runner's ``max_attempts``.
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


class Event(enum.Enum):
    """A failure that befell one task."""

    RAISED = "raised"
    TIMED_OUT = "timed out"
    POOL_BROKE = "pool broke"
    POOL_DEGRADED = "pool degraded"


class Action(enum.Enum):
    """The supervisor's response to one :class:`Event`."""

    RETRY = "retry"
    PROBE = "probe alone"
    QUARANTINE = "quarantine"
    FAIL = "fail"


def transition(
    state: _TaskState,
    event: Event,
    *,
    max_attempts: int,
    error: BaseException | None = None,
    alone: bool = False,
) -> tuple[Action, _TaskState]:
    """The failure state machine: one task's response to one event.

    Pure: no I/O, no clock.  The first matching row wins; ``b`` is the
    blame count after a break is counted (``blames + 1``, and ``solo``
    becomes `alone`).  A break never advances ``attempt``.

    ============= ================================== ==========
    event         guard                              action
    ============= ================================== ==========
    raised        `error` is a ValueError/TypeError  fail
    raised/timed  ``attempt >= max_attempts``        fail
    raised/timed  otherwise (``attempt + 1``)        retry
    pool broke    ``b >= max_attempts`` and `alone`  quarantine
    pool broke    `alone` or ``b >= min(2, max)``    probe
    pool broke    otherwise                          retry
    pool degraded ``blames > 0``                     quarantine
    pool degraded otherwise                          retry
    ============= ================================== ==========

    *retry* re-runs the task in its current mode, *probe* re-runs it as
    the only task in flight, *quarantine* completes it as a
    :class:`PoisonedTask`, and *fail* aborts the sweep with
    :class:`~repro.runners.RetryExhaustedError` after ``attempt`` tries.
    """
    if event is Event.POOL_BROKE:
        state = replace(state, blames=state.blames + 1, solo=alone)
        if state.blames >= max_attempts and state.solo:
            return Action.QUARANTINE, state
        if alone or state.blames >= min(_SUSPECT_AFTER, max_attempts):
            return Action.PROBE, state
        return Action.RETRY, state
    if event is Event.POOL_DEGRADED:
        return (Action.QUARANTINE if state.blames else Action.RETRY), state
    if isinstance(error, _DETERMINISTIC) or state.attempt >= max_attempts:
        return Action.FAIL, state
    return Action.RETRY, replace(state, attempt=state.attempt + 1)


def backoff_delay(runner: "SweepRunner", k: int) -> float:
    """Seconds to wait before retry (or pool rebuild) number `k`.

    ``retry_backoff_s * 2**(k-1)``, times up to ``1 + retry_jitter`` of
    uniform jitter, capped at 30 s.  Jitter draws come from the runner's
    dedicated ``base_seed``-seeded stream — never the module-global
    :mod:`random` — so retry timing is reproducible for seeded sweeps.
    """
    delay = runner.retry_backoff_s * (2 ** (k - 1))
    if runner.retry_jitter:
        delay *= 1.0 + runner.retry_jitter * runner._retry_rng.random()
    return min(delay, _MAX_BACKOFF_S)


class FleetSupervisor:
    """Drives one sweep batch through :func:`transition`.

    One instance supervises one :meth:`SweepRunner.run` batch: it runs
    the tasks in-process or owns the ``ProcessPoolExecutor``, rebuilds
    the pool when workers die, quarantines poison tasks and degrades to
    in-process execution when the pool is beyond saving.  All knobs and
    counters live on the runner (``max_attempts``, ``max_pool_rebuilds``,
    ``tasks_retried``, ``pool_rebuilds``, ``tasks_poisoned``), so callers
    keep a single configuration surface.
    """

    def __init__(self, runner: "SweepRunner") -> None:
        self.runner = runner
        self._pool: ProcessPoolExecutor | None = None
        self._breaks = 0
        self._workers = runner.n_workers
        # Batch sizing: off under a timeout, and for good once a pool
        # breaks or a batch fails as a whole; sized from the running
        # mean of the worker-measured task times.
        self._batching = runner.task_timeout_s is None
        self._timed_s = 0.0
        self._timed = 0

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
        ready = deque(_TaskState(index, task, key) for index, task, key in pending)
        # A single pending task skips the pool — unless a timeout is
        # set, which only the pool path can enforce (the in-process path
        # cannot preempt a running task).
        if runner.n_workers == 1 or (
            len(ready) == 1 and runner.task_timeout_s is None
        ):
            self._run_inline(ready, emit)
            return
        # Only without a timeout: abandoned (timed-out) workers stay busy
        # until their task finishes on its own, so clamping to the batch
        # size would let one hung task starve its own retries.
        if runner.task_timeout_s is None:
            self._workers = min(runner.n_workers, len(ready))
        probes: deque[_TaskState] = deque()
        degraded: str | None = None
        try:
            while (ready or probes) and degraded is None:
                solo = not ready
                queue = deque([probes.popleft()]) if solo else ready
                try:
                    broken = self._drive(
                        self._ensure_pool(), queue, emit, limit=1 if solo else None
                    )
                except _POOL_TROUBLE:
                    # _drive requeued its in-flight states into `queue`;
                    # merge a probe batch back before degrading.
                    if solo:
                        probes.extendleft(queue)
                    raise
                if broken:
                    degraded = self._on_break(broken, ready, probes, emit)
        except _POOL_TROUBLE as error:
            degraded = f"process pool unavailable ({error}); running sweep serially"
        except BaseException:
            # Interrupts and task failures alike: reap the pool without
            # waiting on stragglers (completed futures were already
            # flushed by _drive).
            self._teardown(cancel=True)
            raise
        if degraded is None:
            # Clean finish: wait so abandoned (timed-out) workers are
            # reaped before returning.
            self._teardown(wait=True)
            return
        self._teardown(cancel=True)
        warnings.warn(degraded, RuntimeWarning, stacklevel=3)
        self._degrade([*ready, *probes], emit)

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

    def _on_break(
        self,
        broken: list[_TaskState],
        ready: deque[_TaskState],
        probes: deque[_TaskState],
        emit: Callable[[TaskCompletion, str | None], None],
    ) -> str | None:
        """Route the tasks in flight at one pool break; back off.

        Returns:
            the degradation warning once the break count exceeds the
            runner's ``max_pool_rebuilds``; otherwise ``None`` after
            sleeping the rebuild backoff.
        """
        runner = self.runner
        self._teardown(cancel=True)
        # From here on one task per future, so blame is as exact as it
        # was before batching.
        self._batching = False
        alone = len(broken) == 1
        for state in broken:
            action, state = transition(
                state,
                Event.POOL_BROKE,
                max_attempts=runner.max_attempts,
                alone=alone,
            )
            if action is Action.QUARANTINE:
                self._quarantine(state, Event.POOL_BROKE, emit)
            elif action is Action.PROBE:
                probes.append(state)
            else:
                ready.append(state)
        self._breaks += 1
        if self._breaks > runner.max_pool_rebuilds:
            return (
                f"process pool persistently unhealthy (broke "
                f"{self._breaks} times, rebuild budget "
                f"{runner.max_pool_rebuilds}); degrading to serial "
                "in-process execution for the remaining tasks"
            )
        runner.pool_rebuilds += 1
        delay = backoff_delay(runner, self._breaks)
        logger.warning(
            "worker pool broke (%d/%d tolerated); rebuilding in %.2fs",
            self._breaks,
            runner.max_pool_rebuilds,
            delay,
        )
        if delay > 0:
            time.sleep(delay)
        return None

    # ------------------------------------------------------------- driving

    def _retry(
        self, state: _TaskState, event: Event, error: BaseException | None
    ) -> tuple[_TaskState, float]:
        """Apply a *raised* / *timed out* event: back off, or abort.

        Returns:
            the state of the next attempt, and the seconds it must wait
            before it starts.

        Raises:
            RetryExhaustedError: the table said *fail* (chained to
                `error`; ``None`` for a timeout).
        """
        runner = self.runner
        action, retried = transition(
            state, event, max_attempts=runner.max_attempts, error=error
        )
        if action is Action.FAIL:
            raise RetryExhaustedError(state.task, state.attempt, error) from error
        runner.tasks_retried += 1
        return retried, backoff_delay(runner, state.attempt)

    def _run_inline(
        self,
        states: Iterable[_TaskState],
        emit: Callable[[TaskCompletion, str | None], None],
    ) -> None:
        """In-process execution, one task at a time, in batch order."""
        for state in states:
            while True:
                started = time.perf_counter()
                try:
                    value = state.task.execute()
                except Exception as error:  # noqa: BLE001 - the table decides
                    state, delay = self._retry(state, Event.RAISED, error)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                elapsed = time.perf_counter() - started
                completion = TaskCompletion(
                    state.index, state.task, value, "executed", elapsed
                )
                emit(completion, state.key)
                break

    def _batch_size(self, queued: int) -> int:
        """Tasks the next pool future carries, with `queued` waiting."""
        if not self._batching or not self._timed:
            return 1
        share = -(-queued // (4 * self._workers))
        fits = int(_BATCH_TARGET_S * self._timed / max(self._timed_s, 1e-9))
        return max(1, min(share, fits))

    def _land(
        self,
        batch: list[_TaskState],
        outcomes: list[_Outcome],
        emit: Callable[[TaskCompletion, str | None], None],
    ) -> list[tuple[_TaskState, BaseException]]:
        """Emit a finished batch's results; return the tasks that raised.

        An interrupt raised by one ``emit`` is re-raised only after the
        rest of the batch is emitted: its batch-mates finished too, and
        belong in the checkpoint.
        """
        raised = []
        interrupt: KeyboardInterrupt | None = None
        for state, (value, error, elapsed) in zip(batch, outcomes):
            self._timed_s += elapsed
            self._timed += 1
            if error is not None:
                raised.append((state, error))
                continue
            completion = TaskCompletion(
                state.index, state.task, value, "executed", elapsed
            )
            try:
                emit(completion, state.key)
            except KeyboardInterrupt as stop:
                interrupt = interrupt or stop
        if interrupt is not None:
            raise interrupt
        return raised

    def _drive(
        self,
        pool: ProcessPoolExecutor,
        queue: deque[_TaskState],
        emit: Callable[[TaskCompletion, str | None], None],
        *,
        limit: int | None = None,
    ) -> list[_TaskState]:
        """Pump `queue` through `pool` until it (and all flights) drain.

        Each future carries a batch of :meth:`_batch_size` tasks.
        In-flight futures are bounded by the worker count, so the
        in-flight tasks are a tight superset of what is actually
        *running* — which is what makes crash blame meaningful.  A
        retried task waits out its backoff in a side heap, not on this
        thread: it rejoins `queue` once due, and the wait for results
        is bounded by the earliest due time, so the other workers keep
        busy meanwhile.  Requeues in-flight and waiting states and
        re-raises on pool *infrastructure* errors (``_POOL_TROUBLE``)
        so the caller can degrade to in-process execution.

        Returns:
            every task of every batch in flight when a worker death
            broke the pool, or ``[]`` once everything drained.
        """
        timeout = self.runner.task_timeout_s
        limit = self._workers if limit is None else limit
        #: future -> (its batch, deadline)
        inflight: dict[Future, tuple[list[_TaskState], float | None]] = {}
        #: (due time, index, state) of each retry waiting out its backoff
        waiting: list[tuple[float, int, _TaskState]] = []

        def in_flight() -> list[_TaskState]:
            return [state for batch, _ in inflight.values() for state in batch]

        def unwait() -> None:
            """Move every waiting retry to `queue`, earliest due first."""
            queue.extend(state for _, _, state in sorted(waiting))
            waiting.clear()

        def requeue(states: list[_TaskState]) -> None:
            """Put `states`, then everything in flight or waiting, back
            in `queue`."""
            queue.extendleft(reversed(states))
            queue.extend(in_flight())
            inflight.clear()
            unwait()

        def retry(
            state: _TaskState, event: Event, error: BaseException | None
        ) -> None:
            state, delay = self._retry(state, event, error)
            if delay > 0:
                due = time.monotonic() + delay
                heapq.heappush(waiting, (due, state.index, state))
            else:
                queue.append(state)

        try:
            while queue or inflight or waiting:
                if waiting:
                    now = time.monotonic()
                    while waiting and waiting[0][0] <= now:
                        queue.append(heapq.heappop(waiting)[2])
                while queue and len(inflight) < limit:
                    size = self._batch_size(len(queue))
                    batch = [queue.popleft() for _ in range(size)]
                    try:
                        future = pool.submit(
                            _execute_batch, tuple(s.task for s in batch)
                        )
                    except BrokenProcessPool:
                        unwait()
                        return [*batch, *in_flight()]
                    except _POOL_TROUBLE:
                        requeue(batch)
                        raise
                    deadline = (
                        time.monotonic() + timeout if timeout is not None else None
                    )
                    inflight[future] = (batch, deadline)
                poll = 0.1 if timeout is not None else None
                if waiting:
                    until = max(0.0, waiting[0][0] - time.monotonic())
                    if not inflight:
                        # Every worker is idle: nothing to collect.
                        time.sleep(until)
                        continue
                    poll = until if poll is None else min(poll, until)
                done, _ = wait(
                    inflight, timeout=poll, return_when=FIRST_COMPLETED
                )
                # Successful results first: a dying worker fails every
                # other in-flight future at once, but results that
                # landed before the crash are good — checkpoint them
                # before assigning blame for the break.  Each failure
                # carries whether it means pool trouble.
                failures: list[tuple[list[_TaskState], BaseException, bool]] = []
                broke = False
                for future in done:
                    error = future.exception()
                    if isinstance(error, BrokenProcessPool):
                        broke = True
                        continue
                    batch, _ = inflight.pop(future)
                    if error is None:
                        raised = self._land(batch, future.result(), emit)
                        failures += [
                            ([state], e, isinstance(e, ImportError))
                            for state, e in raised
                        ]
                    else:
                        failures.append(
                            (batch, error, isinstance(error, _POOL_TROUBLE))
                        )
                for position, (batch, error, trouble) in enumerate(failures):
                    if trouble:
                        # Pool infrastructure trouble, not a task
                        # failure: requeue the survivors and surface it
                        # so the supervisor degrades to in-process.
                        requeue(
                            [s for b, _, _ in failures[position:] for s in b]
                        )
                        raise error
                    if len(batch) > 1:
                        # The batch failed as a whole (say, a result
                        # that does not pickle): rerun its tasks one per
                        # future, where the error lands on its own
                        # task.  No attempt is charged.
                        self._batching = False
                        queue.extendleft(reversed(batch))
                    else:
                        retry(batch[0], Event.RAISED, error)
                if broke:
                    unwait()
                    return in_flight()
                if timeout is None:
                    continue
                now = time.monotonic()
                for future in list(inflight):
                    batch, deadline = inflight[future]
                    if now < deadline:
                        continue
                    inflight.pop(future)
                    if future.running() or not future.cancel():
                        # Can't preempt a running worker: abandon the
                        # future (its eventual result is discarded) and
                        # retry the task on a fresh submission.
                        future.add_done_callback(lambda f: f.exception())
                    for state in batch:
                        retry(state, Event.TIMED_OUT, None)
        except KeyboardInterrupt:
            # Clean drain: flush everything that already finished into
            # the checkpoint before the supervisor reaps the pool.
            self._flush_finished(inflight, emit)
            raise
        return []

    def _flush_finished(
        self,
        inflight: dict[Future, tuple[list[_TaskState], float | None]],
        emit: Callable[[TaskCompletion, str | None], None],
    ) -> None:
        """Emit every already-finished in-flight batch (non-blocking)."""
        done, _ = wait(inflight, timeout=0)
        for future in done:
            batch, _ = inflight.pop(future)
            if future.exception() is None:
                self._land(batch, future.result(), emit)

    # ------------------------------------------------ quarantine & degrade

    def _quarantine(
        self,
        state: _TaskState,
        event: Event,
        emit: Callable[[TaskCompletion, str | None], None],
    ) -> None:
        """Complete `state` as poisoned: diagnostics instead of a result.

        The :class:`PoisonedTask` flows through the ordinary completion
        path (results list, ``on_result``, a ``status='poisoned'`` DB
        row) but is never written to the pickle cache — a rerun must
        retry the task, not replay its quarantine.
        """
        if event is Event.POOL_BROKE:
            reason = (
                f"worker crashed {state.blames} time(s), "
                "the last with this task running alone"
            )
        else:
            reason = (
                f"pool degraded to serial after {state.blames} crash "
                "blame(s); a crash suspect is not risked in the "
                "coordinating process"
            )
        self.runner.tasks_poisoned += 1
        logger.warning(
            "quarantined poison task %s (seed=%s) after %d worker "
            "crash(es): %s",
            state.task.label or state.task.fn,
            state.task.seed,
            state.blames,
            reason,
        )
        emit(
            TaskCompletion(
                state.index,
                state.task,
                PoisonedTask(task=state.task, crashes=state.blames, reason=reason),
                POISONED,
            ),
            state.key,
        )

    def _degrade(
        self,
        states: list[_TaskState],
        emit: Callable[[TaskCompletion, str | None], None],
    ) -> None:
        """Finish `states` in-process, in batch order (the pool is gone).

        Each task keeps its attempt count, so degradation never grants
        a task more than ``max_attempts`` attempts in total.
        """
        clean: list[_TaskState] = []
        for state in sorted(states, key=lambda s: s.index):
            action, state = transition(
                state, Event.POOL_DEGRADED, max_attempts=self.runner.max_attempts
            )
            if action is Action.QUARANTINE:
                self._quarantine(state, Event.POOL_DEGRADED, emit)
            else:
                clean.append(state)
        self._run_inline(clean, emit)
