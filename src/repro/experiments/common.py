"""Shared sweep plumbing for the experiment harnesses.

Every ``experiments.*.run(...)`` accepts one execution keyword::

    run(..., options=ExperimentOptions(n_workers=4, cache_dir="cache"))

:class:`ExperimentOptions` is the frozen bundle of every execution knob
— how to run (``runner``/``n_workers``/``cache_dir``), which engine
(``backend``), whether to instrument (``collect_metrics``), and where to
record provenance (``db``, a :class:`repro.service.ResultsDB` or a path
to one).  It is the only way to pass execution settings to a harness,
and pure execution plumbing: the object is never hashed into a task, so
the cache keys of the submitted tasks do not depend on it.

Instrumented sweeps (``ExperimentOptions(collect_metrics=True)``, see
``docs/observability.md``): task functions take an optional
``collect_metrics`` parameter and, when it is set, append a
:class:`repro.metrics.RunMetrics` to their result tuple.  Because the
flag is a task *parameter* it participates in the cache key, so
instrumented and uninstrumented runs never alias in the on-disk cache.
:func:`split_metrics` and :func:`summarize_metrics` are the shared
plumbing for unpacking and reducing those results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.metrics import MetricsSummary, RunMetrics, aggregate_metrics
from repro.runners import SweepRunner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.db import ResultsDB


@dataclass(frozen=True)
class ExperimentOptions:
    """Every execution knob of an experiment harness, in one object.

    Attributes:
        runner: a pre-built :class:`~repro.runners.SweepRunner` shared
            across calls (its cache, DB and counters are then shared
            too).  When set, ``n_workers`` and ``cache_dir`` are ignored.
        n_workers: process-pool size (default 1: serial, the historical
            behavior).  Results are bit-identical for any worker count.
        cache_dir: on-disk memoization directory (default None: off).
        backend: engine backend for harnesses that support it
            (``"fast"`` for the vectorised engine; results are
            bit-identical, only wall-clock changes).
        collect_metrics: record per-round :class:`repro.metrics`
            time series on harnesses that support it.  Participates in
            task cache keys (instrumented tasks hash separately).
        db: write-through results/provenance store — a
            :class:`repro.service.ResultsDB` or a path to one.  Every
            completed task is recorded there while the pickle cache
            stays the hot read path (see ``docs/service.md``).
        max_attempts: times a failing task is tried before the sweep
            aborts (default 1: fail fast, the historical behavior).
            Also the fleet supervisor's poison-conviction bar (see
            ``docs/operations.md``).
        retry_backoff_s: base delay before a retry (exponential).
        task_timeout_s: per-task wall-clock budget on the pool path;
            ``None`` (the default) disables timeouts.

    Like ``n_workers``/``cache_dir``, the retry/timeout knobs are
    ignored when a pre-built ``runner`` is set — the runner's own
    configuration wins.

    The object is frozen: share it freely across harness calls.  It is
    never hashed into a task, so two sweeps differing only in options
    plumbing (worker count, cache location, DB) share cache entries —
    while ``backend``/``collect_metrics``, which *do* change the task
    parameters, enter the keys through :func:`backend_params` /
    :func:`metrics_params`.
    """

    runner: SweepRunner | None = None
    n_workers: int = 1
    cache_dir: str | None = None
    backend: str = "object"
    collect_metrics: bool = False
    db: "ResultsDB | str | None" = None
    max_attempts: int = 1
    retry_backoff_s: float = 0.5
    task_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.runner is not None and not isinstance(
            self.runner, SweepRunner
        ):
            raise TypeError(
                f"runner must be a SweepRunner or None, got "
                f"{type(self.runner).__name__}"
            )
        if self.n_workers < 1:
            raise ValueError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be > 0 or None, got "
                f"{self.task_timeout_s}"
            )
        from repro.noc.backends import KNOWN_BACKENDS

        if self.backend not in KNOWN_BACKENDS:
            known = ", ".join(repr(name) for name in KNOWN_BACKENDS)
            raise ValueError(
                f"backend must be one of {known}, got {self.backend!r}"
            )

    def make_runner(self) -> SweepRunner:
        """The runner this sweep executes on.

        Returns the pre-built ``runner`` when one is set (attaching the
        ``db`` to it if the runner has none), else builds a fresh
        :class:`SweepRunner` from the scalar knobs.
        """
        if self.runner is not None:
            if self.db is not None and self.runner.db is None:
                from repro.service.db import as_results_db

                self.runner.db = as_results_db(self.db)
            return self.runner
        return SweepRunner(
            n_workers=self.n_workers,
            cache_dir=self.cache_dir,
            db=self.db,
            max_attempts=self.max_attempts,
            retry_backoff_s=self.retry_backoff_s,
            task_timeout_s=self.task_timeout_s,
        )

    def with_runner(self, runner: SweepRunner) -> "ExperimentOptions":
        """A copy pinned to `runner` — for harnesses delegating to
        sub-harnesses that must share one pool/cache/DB."""
        return replace(self, runner=runner)


def resolve_options(
    options: ExperimentOptions | None = None,
    *,
    supports: tuple[str, ...] = (),
) -> ExperimentOptions:
    """A harness's ``options=`` argument, defaulted and checked.

    Args:
        options: the caller's options object, or None for the defaults.
        supports: which of the result-affecting knobs
            (``"collect_metrics"``, ``"backend"``) this harness honors;
            a non-default value for an unsupported knob raises
            ``ValueError`` instead of being silently ignored.
    """
    if options is None:
        return ExperimentOptions()
    defaults = ExperimentOptions()
    for knob in ("collect_metrics", "backend"):
        if knob in supports:
            continue
        if getattr(options, knob) != getattr(defaults, knob):
            raise ValueError(
                f"this harness does not support {knob}= (it has no "
                f"instrumented/vectorised path); leave it at its default"
            )
    return options


def per_cell(
    cells: Sequence[Any], outcomes: Sequence[Any], repetitions: int
) -> Iterator[tuple[Any, Sequence[Any]]]:
    """Pair each cell with the outcomes of its `repetitions` tasks.

    Harnesses submit a whole grid as one flat batch (``for cell in
    cells for rep in range(repetitions)``) so parallel workers stay
    busy across cell boundaries; this regroups the ordered results.
    """
    for i, cell in enumerate(cells):
        yield cell, outcomes[i * repetitions : (i + 1) * repetitions]


def backend_params(backend: str) -> dict[str, str]:
    """The extra task params of a non-default engine-backend run.

    Mirrors :func:`metrics_params`: object-backend tasks omit the
    parameter entirely, so their cache keys are byte-identical to
    pre-backend sweeps and existing on-disk caches stay valid, while
    ``backend="fast"`` tasks carry the parameter and hash separately —
    backend provenance is auditable even though both backends produce
    bit-identical results (see ``docs/performance.md``).
    """
    from repro.noc.backends import KNOWN_BACKENDS, OBJECT_BACKEND

    if backend not in KNOWN_BACKENDS:
        known = ", ".join(repr(name) for name in KNOWN_BACKENDS)
        raise ValueError(f"backend must be one of {known}, got {backend!r}")
    return {"backend": backend} if backend != OBJECT_BACKEND else {}


def metrics_params(collect_metrics: bool) -> dict[str, bool]:
    """The extra task params of an instrumented run.

    Uninstrumented tasks omit the flag entirely, keeping their cache
    keys identical to pre-observability sweeps; instrumented tasks carry
    ``collect_metrics=True`` and therefore hash (and cache) separately.
    """
    return {"collect_metrics": True} if collect_metrics else {}


def split_metrics(
    outcomes: Sequence[tuple], collect_metrics: bool
) -> tuple[list[tuple], list[RunMetrics] | None]:
    """Split task outcomes into plain results and their `RunMetrics`.

    Instrumented task functions return their historical tuple with a
    :class:`repro.metrics.RunMetrics` appended; this strips the metrics
    off so the downstream statistics code sees the unchanged shape.
    Returns ``(plain_outcomes, metrics_or_None)``.
    """
    if not collect_metrics:
        return list(outcomes), None
    return (
        [outcome[:-1] for outcome in outcomes],
        [outcome[-1] for outcome in outcomes],
    )


def summarize_metrics(
    runs: Sequence[Any] | None,
) -> MetricsSummary | None:
    """Aggregate a cell's `RunMetrics` (None/empty passes through)."""
    if not runs:
        return None
    return aggregate_metrics(runs)
