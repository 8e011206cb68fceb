"""Shared sweep plumbing for the experiment harnesses.

Every ``experiments.*.run(...)`` accepts one execution keyword::

    runner = SweepRunner(n_workers=4, cache_dir="cache")
    run(..., options=ExperimentOptions(runner=runner))

The :class:`~repro.runners.SweepRunner` holds every execution setting
(worker count, cache directory, results database, retries, timeout);
:class:`ExperimentOptions` carries that runner plus the two knobs that
change what a task computes — which engine (``backend``) and whether to
instrument (``collect_metrics``).  The options object is never hashed
into a task, so the cache keys of the submitted tasks do not depend on
the runner.

Every grid-shaped harness is one :func:`sweep_cells` call: the kernel
resolves the options, validates ``repetitions``, submits the whole
``cells x repetitions`` grid as one flat batch seeded ``seed + stride *
rep`` and hands each cell its outcomes back, so task order, seeds and
regrouping are a property of this module, not of each harness.

Instrumented sweeps (``ExperimentOptions(collect_metrics=True)``, see
``docs/observability.md``): task functions take an optional
``collect_metrics`` parameter and, when it is set, append a
:class:`repro.metrics.RunMetrics` to their result tuple.  Because the
flag is a task *parameter* it participates in the cache key, so
instrumented and uninstrumented runs never alias in the on-disk cache.
:func:`sweep_cells` adds the parameter and strips the metrics back off;
:func:`summarize_metrics` reduces them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.apps.base import run_on_noc
from repro.core.protocol import StochasticProtocol
from repro.faults import FaultConfig, FaultInjector
from repro.metrics import MetricsSummary, RunMetrics, aggregate_metrics
from repro.mp3.parallel import ParallelMp3App
from repro.noc.engine import NocSimulator, SimulationResult
from repro.noc.topology import Mesh2D, Topology
from repro.runners import SimTask, SweepRunner

@dataclass(frozen=True)
class ExperimentOptions:
    """How an experiment harness runs, in one object.

    Attributes:
        runner: the :class:`~repro.runners.SweepRunner` the sweep
            executes on — it alone holds the execution settings (worker
            count, cache directory, results database, retries, timeout)
            and its counters.  ``None`` (the default) runs on a fresh
            serial runner with no cache and no database.
        backend: engine backend for harnesses that support it
            (``"fast"`` for the vectorised engine; results are
            bit-identical, only wall-clock changes).
        collect_metrics: record per-round :class:`repro.metrics`
            time series on harnesses that support it.  Participates in
            task cache keys (instrumented tasks hash separately).

    The object is frozen: share it freely across harness calls (they
    then share the runner's pool settings, cache, DB and counters).  It
    is never hashed into a task, so two sweeps differing only in their
    runner share cache entries — while ``backend``/``collect_metrics``,
    which *do* change the task parameters, enter the keys as the task
    parameters :func:`sweep_cells` adds.
    """

    runner: SweepRunner | None = None
    backend: str = "object"
    collect_metrics: bool = False

    def __post_init__(self) -> None:
        if self.runner is not None and not isinstance(
            self.runner, SweepRunner
        ):
            raise TypeError(
                f"runner must be a SweepRunner or None, got "
                f"{type(self.runner).__name__}"
            )
        from repro.noc.backends import check_backend

        check_backend(self.backend)


def resolve_options(
    options: ExperimentOptions | None = None,
    *,
    supports: tuple[str, ...] = (),
) -> ExperimentOptions:
    """A harness's ``options=`` argument, defaulted and checked.

    The result always carries a runner: a fresh serial
    :class:`SweepRunner` when the caller gave none, so a harness that
    delegates to sub-harnesses passes the resolved options on and every
    sub-sweep runs on that one runner.

    Args:
        options: the caller's options object, or None for the defaults.
        supports: which of the result-affecting knobs
            (``"collect_metrics"``, ``"backend"``) this harness honors;
            a non-default value for an unsupported knob raises
            ``ValueError`` instead of being silently ignored.
    """
    if options is None:
        options = ExperimentOptions()
    defaults = ExperimentOptions()
    for knob in ("collect_metrics", "backend"):
        if knob in supports:
            continue
        if getattr(options, knob) != getattr(defaults, knob):
            raise ValueError(
                f"this harness does not support {knob}= (it has no "
                f"instrumented/vectorised path); leave it at its default"
            )
    if options.runner is None:
        options = replace(options, runner=SweepRunner())
    return options


def backend_params(backend: str) -> dict[str, str]:
    """The extra task params of a non-default engine-backend run.

    Object-backend tasks omit the parameter entirely, so their cache
    keys are byte-identical to pre-backend sweeps and existing on-disk
    caches stay valid, while ``backend="fast"`` tasks carry the
    parameter and hash separately — backend provenance is auditable even
    though both backends produce bit-identical results (see
    ``docs/performance.md``).
    """
    from repro.noc.backends import OBJECT_BACKEND, check_backend

    check_backend(backend)
    return {"backend": backend} if backend != OBJECT_BACKEND else {}


def sweep_cells(
    fn: Callable[..., Any],
    cells: Iterable[Any],
    *,
    params: Callable[[Any], Mapping[str, Any]],
    repetitions: int,
    seed: int,
    stride: int = 1,
    label: Callable[[Any, int], str],
    options: ExperimentOptions | None,
    supports: tuple[str, ...] = (),
) -> list[tuple[Any, list, list[RunMetrics] | None]]:
    """Run `repetitions` seeded tasks of `fn` per cell, as one batch.

    The whole grid is submitted at once (``for cell in cells for rep in
    range(repetitions)``) so parallel workers stay busy across cell
    boundaries, and the ordered results are regrouped per cell.

    Args:
        fn: the module-level task function.
        cells: the grid, in presentation order.
        params: a cell's task parameters (everything but ``seed``).
        repetitions: Monte-Carlo repetitions per cell (>= 1).
        seed: seed root; repetition ``rep`` of every cell runs at
            ``seed + stride * rep``, so cells are paired observations.
        stride: the harness's historical per-repetition seed stride.
        label: display tag of the task of ``(cell, rep)``.
        options: the harness's ``options=`` argument, unresolved.
        supports: the result knobs (``"collect_metrics"``,
            ``"backend"``) `fn` takes as parameters.  A supported
            non-default knob becomes a task parameter and so enters the
            cache key; at its default it is omitted, keeping the keys
            of uninstrumented object-backend tasks unchanged.

    Returns:
        One ``(cell, outcomes, run_metrics)`` per cell: the cell's
        `repetitions` results in repetition order and, on an
        instrumented sweep, the :class:`repro.metrics.RunMetrics` each
        task appended to its tuple (stripped from `outcomes`), else
        ``None``.
    """
    opts = resolve_options(options, supports=supports)
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    cells = list(cells)
    knobs = {"collect_metrics": True} if opts.collect_metrics else {}
    knobs.update(backend_params(opts.backend))
    results = opts.runner.run(
        SimTask.call(
            fn,
            **params(cell),
            **knobs,
            seed=seed + stride * rep,
            label=label(cell, rep),
        )
        for cell in cells
        for rep in range(repetitions)
    )
    grouped = []
    for index, cell in enumerate(cells):
        outcomes = results[index * repetitions : (index + 1) * repetitions]
        run_metrics = None
        if opts.collect_metrics:
            run_metrics = [outcome[-1] for outcome in outcomes]
            outcomes = [outcome[:-1] for outcome in outcomes]
        grouped.append((cell, outcomes, run_metrics))
    return grouped


def summarize_metrics(
    runs: Sequence[Any] | None,
) -> MetricsSummary | None:
    """Aggregate a cell's `RunMetrics` (None/empty passes through)."""
    if not runs:
        return None
    return aggregate_metrics(runs)


def column_mean(outcomes: Sequence[Sequence[Any]], index: int) -> float:
    """Mean of field `index` over a cell's outcome tuples."""
    return sum(outcome[index] for outcome in outcomes) / len(outcomes)


def completion_pool(outcomes: Sequence[tuple]) -> tuple[float, Sequence[tuple]]:
    """Completion rate of a cell, and the runs its latency is read from.

    Outcomes lead with a ``completed`` flag.  Latency and energy are
    averaged over the finished runs only — over every run when none
    finished, so a dead cell reports its round budget, not a hole.
    """
    finished = [outcome for outcome in outcomes if outcome[0]]
    return len(finished) / len(outcomes), finished if finished else outcomes


def run_crashed(
    app: Any,
    topology: Topology,
    forward_probability: float,
    seed: int,
    max_rounds: int,
    *,
    n_dead_tiles: int = 0,
    n_dead_links: int = 0,
    **simulator_kwargs: Any,
) -> SimulationResult:
    """Run `app` on a chip with exact crash counts until `app.complete`.

    The crash map is drawn from `seed` (so repetitions sharing a seed
    share it) and never kills the app's critical tiles; `app.complete`
    says whether the run finished inside `max_rounds`.
    """
    injector = FaultInjector(
        FaultConfig.fault_free(), np.random.default_rng(seed)
    )
    plan = injector.crash_plan_with_exact_counts(
        topology.tile_ids,
        topology.links,
        n_dead_tiles=n_dead_tiles,
        n_dead_links=n_dead_links,
        protected_tiles=app.critical_tiles,
    )
    simulator = NocSimulator(
        topology,
        StochasticProtocol(forward_probability),
        seed=seed,
        crash_plan=plan,
        **simulator_kwargs,
    )
    app.deploy(simulator)
    return simulator.run(max_rounds, until=lambda sim: app.complete)


def mp3_run(
    forward_probability: float,
    fault_config: FaultConfig,
    default_ttl: int,
    n_frames: int,
    granule: int,
    seed: int,
    max_rounds: int,
) -> tuple[ParallelMp3App, SimulationResult]:
    """One parallel MP3 encoding on the 4x4 mesh: the app and its result."""
    app = ParallelMp3App(n_frames=n_frames, granule=granule, seed=seed)
    simulator = NocSimulator(
        Mesh2D(4, 4),
        StochasticProtocol(forward_probability),
        fault_config,
        seed=seed,
        default_ttl=default_ttl,
    )
    return app, run_on_noc(app, simulator, max_rounds=max_rounds)
