"""Fig 4-4: latency and energy vs tile crash failures, four protocols.

The thesis compares flooding (p = 1) against stochastic communication at
p in {0.75, 0.50, 0.25} on the two case studies — Master-Slave pi (5x5)
and the 2-D FFT (4x4) — sweeping the number of crashed tiles.  Expected
shapes: latency barely moves with tile crashes; lower p trades rounds for
roughly proportionally lower energy; flooding's latency is the Manhattan
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.apps.fft2d import Fft2dApp
from repro.apps.master_slave import MasterSlavePiApp
from repro.experiments.common import (
    ExperimentOptions,
    column_mean,
    completion_pool,
    run_crashed,
    summarize_metrics,
    sweep_cells,
)
from repro.metrics import MetricsCollector, MetricsSummary
from repro.noc.topology import Mesh2D, Topology

#: The result knobs this harness's task functions take.
SUPPORTS = ("collect_metrics",)

#: The thesis' four protocol variants.
PROBABILITIES = (1.0, 0.75, 0.50, 0.25)


@dataclass(frozen=True)
class CrashSweepPoint:
    """One (protocol, crash count) cell of the Fig 4-4 grid.

    Attributes:
        application: "master_slave" or "fft2d".
        forward_probability: protocol parameter p.
        n_dead_tiles: crashed tiles in the run.
        completion_rate: fraction of repetitions that finished.
        latency_rounds: mean rounds over completed runs.
        energy_j: mean Eq. 3 energy over completed runs.
        metrics: aggregated per-round mean/CI time series of the cell's
            repetitions when swept with
            ``ExperimentOptions(collect_metrics=True)``, else ``None``.
    """

    application: str
    forward_probability: float
    n_dead_tiles: int
    completion_rate: float
    latency_rounds: float
    energy_j: float
    metrics: MetricsSummary | None = None


def _crash_outcome(
    app: Any, topology: Topology,
    p: float, n_dead: int, seed: int, max_rounds: int, collect_metrics: bool,
) -> tuple:
    """``(completed, rounds, energy_j[, RunMetrics])`` of one crashed run."""
    collector = MetricsCollector() if collect_metrics else None
    result = run_crashed(
        app, topology, p, seed, max_rounds,
        n_dead_tiles=n_dead, observer=collector,
    )
    outcome = app.complete, result.rounds, result.energy_j
    if collector is not None:
        return (*outcome, collector.metrics())
    return outcome


def _run_master_slave(
    p: float, n_dead: int, seed: int, max_rounds: int,
    collect_metrics: bool = False,
) -> tuple:
    app = MasterSlavePiApp.default_5x5(n_slaves=8, duplicate=True, n_terms=400)
    return _crash_outcome(
        app, Mesh2D(5, 5), p, n_dead, seed, max_rounds, collect_metrics
    )


def _run_fft2d(
    p: float, n_dead: int, seed: int, max_rounds: int,
    collect_metrics: bool = False,
) -> tuple:
    image = np.random.default_rng(seed).normal(size=(8, 8))
    app = Fft2dApp(image, duplicate=True)
    return _crash_outcome(
        app, Mesh2D(4, 4), p, n_dead, seed, max_rounds, collect_metrics
    )


_RUNNERS = {
    "master_slave": _run_master_slave,
    "fft2d": _run_fft2d,
}


def run(
    application: str = "master_slave",
    dead_tile_counts: tuple[int, ...] = (0, 1, 2, 4),
    probabilities: tuple[float, ...] = PROBABILITIES,
    repetitions: int = 5,
    seed: int = 0,
    max_rounds: int = 400,
    options: ExperimentOptions | None = None,
) -> list[CrashSweepPoint]:
    """Sweep (p x crash count) for one application.

    With ``options=ExperimentOptions(collect_metrics=True)`` every
    repetition records a per-round :class:`repro.metrics.RunMetrics` and
    each sweep point carries the cell's aggregated mean/CI summary in
    its ``metrics`` field.
    """
    if application not in _RUNNERS:
        raise ValueError(
            f"unknown application {application!r}; expected one of "
            f"{sorted(_RUNNERS)}"
        )
    points = []
    for (p, n_dead), outcomes, run_metrics in sweep_cells(
        _RUNNERS[application],
        [(p, n_dead) for p in probabilities for n_dead in dead_tile_counts],
        params=lambda cell: dict(
            p=cell[0], n_dead=cell[1], max_rounds=max_rounds
        ),
        repetitions=repetitions,
        seed=seed,
        stride=977,
        label=lambda cell, rep: (
            f"fig4_4[{application}] p={cell[0]} dead={cell[1]} rep={rep}"
        ),
        options=options,
        supports=SUPPORTS,
    ):
        completion_rate, pool = completion_pool(outcomes)
        points.append(
            CrashSweepPoint(
                application=application,
                forward_probability=p,
                n_dead_tiles=n_dead,
                completion_rate=completion_rate,
                latency_rounds=column_mean(pool, 1),
                energy_j=column_mean(pool, 2),
                metrics=summarize_metrics(run_metrics),
            )
        )
    return points
