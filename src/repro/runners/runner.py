"""The process-parallel, fault-tolerant sweep runner.

Every thesis figure is a Monte-Carlo sweep — repetitions x fault levels x
forward probabilities — whose individual simulations are independent.
:class:`SweepRunner` executes such a sweep as a batch of
:class:`SimTask` specs:

* **parallel** — tasks fan out over a ``ProcessPoolExecutor`` when
  ``n_workers > 1``, with a transparent serial fallback when process
  pools are unavailable (sandboxes without ``/dev/shm``, missing
  ``sem_open``, …);
* **deterministic** — a task's result depends only on its spec.  Task
  functions receive an explicit ``seed`` (either carried by the spec or
  derived from the runner's ``base_seed`` via
  ``numpy.random.SeedSequence.spawn`` by task *index*), so results are
  bit-identical regardless of worker count or completion order;
* **memoized** — with a ``cache_dir``, completed tasks are stored on
  disk keyed by a content hash of the spec (function, parameters, seed);
  a warm-cache rerun of a sweep executes zero new simulations, which the
  :attr:`SweepRunner.tasks_executed` counter makes checkable;
* **fault-tolerant** — every batch of uncached tasks is executed by
  :class:`repro.runners.supervisor.FleetSupervisor`, whose one
  transition table decides each failure: a deterministic task error
  (``ValueError``/``TypeError``) fails at once; any other exception
  (or, on the pool path, a task past ``task_timeout_s``) is retried
  with capped exponential backoff plus jitter, up to ``max_attempts``;
  the final failure surfaces as :class:`RetryExhaustedError` naming the
  task.  On the pool path a worker death rebuilds the pool, a task that
  repeatedly crashes its worker is quarantined as *poisoned* instead of
  aborting its siblings, and a pool that cannot start or keeps breaking
  degrades to in-process execution with a loud warning (see
  ``docs/operations.md``).  Results are **checkpointed
  incrementally**: each completed cell is written to the cache the
  moment it finishes, so an interrupted campaign resumes without
  rerunning finished work;
* **recorded** — with a ``db`` (a :class:`repro.service.ResultsDB` or a
  path to one), every completed task — executed or served from cache —
  is written through to the SQLite results/provenance store under the
  same content hash the pickle cache uses, and every :meth:`run` call
  opens/closes a campaign row.  A :meth:`run`'s cache hits are written
  in one transaction, before anything executes; executed and poisoned
  tasks are written one row at a time, as each lands.  The pickle cache
  stays the hot read path; the database is the durable, SQL-queryable
  record (see ``docs/service.md``).  Per-task completion callbacks
  (``on_result``) let a service layer stream results as they land.

Task functions must be module-level (importable by qualified name, so
workers can unpickle them) and pure given their parameters and seed: no
reads of global mutable state, no dependence on execution order.
"""

from __future__ import annotations

import importlib
import random
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.service.db import ResultsDB

import numpy as np

from repro.runners.cache import ResultCache
from repro.runners.hashing import digest

#: Bump when the task execution semantics change in a way that makes old
#: cached results unreplayable (participates in every cache key).
CACHE_SCHEMA_VERSION = 1


class RetryExhaustedError(RuntimeError):
    """A sweep task failed on every allowed attempt.

    Attributes:
        task: the failing :class:`SimTask`.
        attempts: how many times it was tried.
        last_error: the exception of the final attempt (also the
            ``__cause__``), or ``None`` when the final attempt timed out.
    """

    def __init__(
        self, task: "SimTask", attempts: int, last_error: BaseException | None
    ) -> None:
        reason = (
            f"{type(last_error).__name__}: {last_error}"
            if last_error is not None
            else "timed out"
        )
        super().__init__(
            f"sweep task {task.fn!r} (label={task.label!r}, "
            f"seed={task.seed}) failed after {attempts} attempt(s): {reason}"
        )
        self.task = task
        self.attempts = attempts
        self.last_error = last_error


def _qualified_name(fn: Callable[..., Any]) -> str:
    name = f"{fn.__module__}:{fn.__qualname__}"
    if "<" in name or "." in fn.__qualname__:
        raise ValueError(
            f"task functions must be module-level (picklable by qualified "
            f"name); got {name!r}"
        )
    return name


@dataclass(frozen=True)
class SimTask:
    """One picklable, content-hashable unit of sweep work.

    Attributes:
        fn: the task function as ``"module:function"`` — resolved by
            import in the worker process, so the spec itself stays tiny.
        params: keyword arguments for the call.  Values must be
            canonicalisable by :mod:`repro.runners.hashing` (primitives,
            containers, dataclasses, ``SimConfig``/``Topology``/…).
        seed: explicit RNG seed passed to the function as ``seed=``;
            ``None`` lets the runner derive one from its ``base_seed``
            (or call the function without a seed argument if the runner
            has no ``base_seed`` either).
        label: free-form display tag; excluded from the cache key.
    """

    fn: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int | None = None
    label: str = ""

    @classmethod
    def call(
        cls,
        fn: Callable[..., Any],
        *,
        seed: int | None = None,
        label: str = "",
        **params: Any,
    ) -> "SimTask":
        """Spec the call ``fn(**params, seed=seed)``.

        >>> from repro.core.theory import simulate_rumor_spread
        >>> task = SimTask.call(simulate_rumor_spread, n=64, seed=3)
        >>> task.fn
        'repro.core.theory:simulate_rumor_spread'
        """
        return cls(
            fn=_qualified_name(fn), params=dict(params), seed=seed, label=label
        )

    def resolve(self) -> Callable[..., Any]:
        """Import and return the task function."""
        module_name, _, attr = self.fn.partition(":")
        module = importlib.import_module(module_name)
        try:
            return getattr(module, attr)
        except AttributeError:
            raise ValueError(
                f"task function {self.fn!r} not found; sweep task functions "
                "must be module-level"
            ) from None

    def execute(self) -> Any:
        """Run the task in the current process."""
        kwargs = dict(self.params)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return self.resolve()(**kwargs)

    def cache_key(self) -> str:
        """Content hash of (schema version, function, params, seed)."""
        return digest(
            (CACHE_SCHEMA_VERSION, self.fn, dict(self.params), self.seed)
        )

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimTask):
            return NotImplemented
        return (
            self.fn == other.fn
            and dict(self.params) == dict(other.params)
            and self.seed == other.seed
        )


@dataclass(frozen=True)
class TaskCompletion:
    """One finished sweep cell, as delivered to ``on_result`` callbacks.

    Attributes:
        index: the task's position in the submitted batch (results keep
            this order; completions may arrive in any order).
        task: the completed :class:`SimTask`, seed filled in.
        value: its result — or a
            :class:`repro.runners.supervisor.PoisonedTask` diagnostics
            record when ``source == "poisoned"``.
        source: ``"executed"`` (a simulation ran), ``"cache"`` (served
            from the on-disk pickle cache) or ``"poisoned"`` (the task
            was quarantined after repeatedly crashing its worker; its
            value is the diagnostics record, never cached).
        duration_s: wall-clock of the successful attempt, measured
            around the task's call on both paths (on the pool path by
            the worker, so it excludes queueing and batch-mates);
            ``None`` for cache hits and poisoned tasks.
    """

    index: int
    task: SimTask
    value: Any
    source: str
    duration_s: float | None = None


def spawn_seeds(base_seed: int | None, n: int) -> list[int]:
    """Derive `n` independent task seeds from one base seed.

    Uses ``numpy.random.SeedSequence.spawn``: child *i*'s stream is
    statistically independent of every sibling and depends only on
    ``(base_seed, i)`` — never on worker count or scheduling — so a sweep
    seeded this way is reproducible bit-for-bit in serial and parallel.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    children = np.random.SeedSequence(base_seed).spawn(n)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]


class SweepRunner:
    """Executes batches of :class:`SimTask` with caching, parallelism and
    bounded retries.

    Args:
        n_workers: process-pool size; ``1`` (the default) runs serially
            in-process, so existing callers see unchanged behavior.
        cache_dir: directory for the on-disk result cache; ``None``
            disables memoization.  With a cache, every completed task is
            written the moment it finishes (not at batch end), so the
            cache doubles as a campaign checkpoint: an interrupted sweep
            rerun with the same tasks resumes from the completed cells.
        base_seed: root of the ``SeedSequence`` used to fill in seeds for
            tasks that do not carry one.
        max_attempts: times a failing task is tried before the sweep
            aborts with :class:`RetryExhaustedError` (default 1 — fail
            fast, the historical behavior).  A ``ValueError`` or
            ``TypeError`` fails on its first attempt regardless.
        retry_backoff_s: base delay before a retry; attempt *k* waits
            ``retry_backoff_s * 2**(k-1)`` seconds, plus jitter, capped
            at 30 s.  Pool rebuilds back off by the same rule.
        retry_jitter: uniform multiplicative jitter on the backoff
            (0.25 = up to +25 %), decorrelating retry storms when many
            workers fail at once.
        task_timeout_s: per-task wall-clock budget on the **pool** path;
            a task still running past it counts as a failed attempt and
            is resubmitted (the stuck worker is abandoned to finish or
            die on its own).  ``None`` disables timeouts.  The serial
            path cannot preempt a running task and ignores this knob.
        max_pool_rebuilds: worker-pool breaks (``BrokenProcessPool``)
            tolerated per batch before the supervisor declares the pool
            unhealthy and degrades to serial in-process execution
            (default 5).  ``0`` degrades on the first break.
        db: write-through results/provenance store — a
            :class:`repro.service.ResultsDB` or a path to open one.
            ``None`` (the default) records nothing.
        run_label: default campaign label for :meth:`run`'s DB rows.

    Attributes:
        tasks_submitted: total tasks handed to :meth:`run`.
        tasks_executed: tasks that actually ran a simulation (cache
            misses); a warm-cache rerun leaves this at 0.
        cache_hits: tasks satisfied from the on-disk cache.
        tasks_retried: failed/timed-out attempts that were retried.
        pool_rebuilds: pools rebuilt after a worker-pool break (a
            break that degrades instead is not counted).
        tasks_poisoned: tasks quarantined after crashing their workers.
    """

    def __init__(
        self,
        n_workers: int = 1,
        cache_dir: str | None = None,
        base_seed: int | None = None,
        *,
        max_attempts: int = 1,
        retry_backoff_s: float = 0.5,
        retry_jitter: float = 0.25,
        task_timeout_s: float | None = None,
        max_pool_rebuilds: int = 5,
        db: "ResultsDB | str | None" = None,
        run_label: str = "",
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}"
            )
        if retry_jitter < 0:
            raise ValueError(f"retry_jitter must be >= 0, got {retry_jitter}")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be > 0 or None, got {task_timeout_s}"
            )
        if max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}"
            )
        self.n_workers = n_workers
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.base_seed = base_seed
        self.max_attempts = max_attempts
        self.retry_backoff_s = retry_backoff_s
        self.retry_jitter = retry_jitter
        self.task_timeout_s = task_timeout_s
        self.max_pool_rebuilds = max_pool_rebuilds
        # Jitter draws come from a dedicated stream seeded by
        # `base_seed`: retry timing is reproducible for seeded sweeps
        # and never perturbs (or is perturbed by) the module-global
        # `random` state.
        self._retry_rng = random.Random(base_seed)
        if db is not None and not hasattr(db, "record_task"):
            from repro.service.db import as_results_db

            db = as_results_db(db)
        self.db = db
        self.run_label = run_label
        self.tasks_submitted = 0
        self.tasks_executed = 0
        self.cache_hits = 0
        self.tasks_retried = 0
        self.pool_rebuilds = 0
        self.tasks_poisoned = 0

    # ------------------------------------------------------------------ api

    def run(
        self,
        tasks: Iterable[SimTask],
        *,
        run_label: str | None = None,
        on_result: Callable[[TaskCompletion], None] | None = None,
        run_id: int | None = None,
        index_base: int = 0,
    ) -> list[Any]:
        """Execute `tasks`, returning results in task order.

        Cached results are loaded without executing anything; the rest
        run serially or on the process pool.  Results are always ordered
        like the input regardless of completion order, and each result
        is cached the moment its task completes, so an aborted run
        checkpoints every finished cell.

        Args:
            tasks: the batch to execute.
            run_label: label for this batch's campaign row when a ``db``
                is attached (defaults to the runner's ``run_label``).
            on_result: called in the coordinating process with a
                :class:`TaskCompletion` for every finished task — cache
                hits first (in batch order), then executions in
                completion order.  Exceptions propagate and abort the
                sweep.
            run_id: record into this existing campaign row instead of
                opening (and closing) one — for callers like
                :class:`repro.service.JobQueue` that execute one logical
                campaign as several ``run()`` calls.  The caller owns
                the row's lifecycle (``begin_run``/``finish_run``).
            index_base: offset added to the recorded ``task_index`` of
                every task when appending into an existing `run_id`.

        Raises:
            RetryExhaustedError: a task failed ``max_attempts`` times,
                or once with a ``ValueError`` / ``TypeError``.
        """
        ordered = self.assign_seeds(tasks)
        self.tasks_submitted += len(ordered)
        results: list[Any] = [None] * len(ordered)

        recording = self.db is not None
        owns_run = recording and run_id is None
        if owns_run:
            run_id = self.db.begin_run(
                label=self.run_label if run_label is None else run_label,
                n_tasks=len(ordered),
            )

        def emit(completion: TaskCompletion, key: str | None) -> None:
            """Checkpoint, record and deliver one finished task."""
            if completion.source == "cache":
                self.cache_hits += 1
            elif completion.source == "poisoned":
                # Quarantine diagnostics are never cached: a rerun must
                # retry the task, not replay its conviction.
                pass
            else:
                self.tasks_executed += 1
                if key is not None and self.cache is not None:
                    self.cache.put(key, completion.value)
            results[completion.index] = completion.value
            if recording:
                poisoned = completion.source == "poisoned"
                self.db.record_task(
                    run_id,
                    index_base + completion.index,
                    completion.task,
                    completion.value,
                    key=key,
                    source="executed" if poisoned else completion.source,
                    duration_s=completion.duration_s,
                    status="poisoned" if poisoned else "ok",
                )
            if on_result is not None:
                on_result(completion)

        hits: list[tuple[TaskCompletion, str]] = []
        pending: list[tuple[int, SimTask, str | None]] = []
        try:
            for index, task in enumerate(ordered):
                key = (
                    task.cache_key()
                    if self.cache is not None or recording
                    else None
                )
                if self.cache is not None:
                    hit, value = self.cache.lookup(key)
                    if hit:
                        hits.append(
                            (TaskCompletion(index, task, value, "cache"), key)
                        )
                        continue
                pending.append((index, task, key))

            # The hits' rows share one transaction; executed rows below
            # still commit one by one, each the moment its task lands.
            with self.db.batch() if recording and hits else nullcontext():
                for completion, key in hits:
                    emit(completion, key)

            if pending:
                from repro.runners.supervisor import FleetSupervisor

                FleetSupervisor(self).execute(pending, emit)
        except KeyboardInterrupt:
            # Completed cells were flushed through `emit` as they
            # landed; stamp the campaign row so a resumed run can tell
            # an interrupt from a genuine failure.
            if owns_run:
                self.db.finish_run(run_id, status="interrupted")
            raise
        except BaseException:
            if owns_run:
                self.db.finish_run(run_id, status="failed")
            raise
        if owns_run:
            self.db.finish_run(run_id, status="completed")
        return results

    def assign_seeds(self, tasks: Iterable[SimTask]) -> list[SimTask]:
        """Fill in missing task seeds from ``base_seed``, by batch index.

        Seeds are a function of (base_seed, position in the batch) only,
        so the same batch always gets the same seeds — independent of
        worker count, scheduling, or which results were cached.

        :meth:`run` seeds every batch through this; it is public for
        callers that split a campaign into several :meth:`run` calls
        (the job queue executes cancellable chunks): seeding the *whole*
        batch up front keeps every task's seed a function of its
        position in the full campaign, so chunked and single-call
        execution stay bit-identical.
        """
        tasks = list(tasks)
        if self.base_seed is None or all(t.seed is not None for t in tasks):
            return tasks
        derived = spawn_seeds(self.base_seed, len(tasks))
        return [
            task if task.seed is not None else replace(task, seed=derived[i])
            for i, task in enumerate(tasks)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = self.cache.root if self.cache is not None else None
        return (
            f"SweepRunner(n_workers={self.n_workers}, cache_dir={cache!r}, "
            f"executed={self.tasks_executed}, hits={self.cache_hits}, "
            f"retried={self.tasks_retried})"
        )
