"""Gossip saturation on grids vs the complete graph (§3.1's open question).

The classical rumor-spreading analysis (Eq. 1, S_n = log2 n + ln n) holds
on the complete graph; the thesis' experiments are "the first evidence
that gossip protocols can be applied" to grid-based NoCs, but the theory
there is left open.  This harness measures broadcast-saturation rounds on
meshes, tori and the complete graph at matched node counts — quantifying
how much the grid's constrained connectivity costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.packet import BROADCAST
from repro.core.protocol import StochasticProtocol
from repro.experiments.common import (
    ExperimentOptions,
    resolve_options,
    summarize_metrics,
    sweep_cells,
)
from repro.metrics import MetricsCollector, MetricsSummary, RunMetrics
from repro.noc.engine import NocSimulator, SimulationResult
from repro.noc.tile import IPCore, TileContext
from repro.noc.topology import FullyConnected, Mesh2D, Topology, Torus2D

#: The result knobs this harness's task function takes.
SUPPORTS = ("collect_metrics", "backend")


class _BroadcastSeed(IPCore):
    """Emits a single broadcast packet at round 0."""

    def __init__(self, ttl: int) -> None:
        self.ttl = ttl
        self.sent = False

    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor", ttl=self.ttl)
        self.sent = True

    @property
    def complete(self) -> bool:
        return self.sent


def saturate(
    topology: Topology,
    protocol: Any,
    seed: int,
    max_rounds: int,
    origin: int = 0,
    **simulator_kwargs: Any,
) -> tuple[SimulationResult, float]:
    """Broadcast one rumor from `origin` until every tile is informed.

    The rumor's TTL is the round budget, so it never ages out first —
    under upsets scrambled copies must be replaced by retransmissions,
    which takes that headroom.  Returns the result and the final
    coverage (fraction of tiles informed).
    """
    n = topology.n_tiles
    simulator = NocSimulator(
        topology,
        protocol,
        seed=seed,
        default_ttl=max_rounds,
        **simulator_kwargs,
    )
    simulator.mount(origin, _BroadcastSeed(ttl=max_rounds))
    result = simulator.run(
        max_rounds, until=lambda sim: len(sim.informed_tiles()) == n
    )
    return result, len(simulator.informed_tiles()) / n


@dataclass(frozen=True)
class SpreadMeasurement:
    """Saturation statistics for one topology.

    Attributes:
        topology_name: label.
        n_tiles: node count.
        saturation_rounds_mean / _std: rounds until every tile is informed
            (over the seeded repetitions; failed runs excluded).
        completion_rate: fraction of runs that saturated within budget.
        informed_curve: mean informed-tiles count per round.
        run_metrics: one :class:`repro.metrics.RunMetrics` per
            repetition when measured with
            ``ExperimentOptions(collect_metrics=True)``, else ``None``.
        metrics: the aggregated mean/CI summary of ``run_metrics``
            (``None`` when uninstrumented).
    """

    topology_name: str
    n_tiles: int
    saturation_rounds_mean: float
    saturation_rounds_std: float
    completion_rate: float
    informed_curve: list[float]
    run_metrics: tuple[RunMetrics, ...] | None = None
    metrics: MetricsSummary | None = None


def _spread_once(
    topology: Topology,
    forward_probability: float,
    origin: int,
    seed: int,
    max_rounds: int,
    collect_metrics: bool = False,
    backend: str = "object",
) -> tuple:
    """One broadcast run; returns (completed, rounds, informed curve).

    With ``collect_metrics=True`` a :class:`repro.metrics.RunMetrics`
    per-round time series is appended to the tuple.  ``backend`` picks
    the engine (bit-identical results either way).
    """
    collector = MetricsCollector() if collect_metrics else None
    result, _ = saturate(
        topology,
        StochasticProtocol(forward_probability),
        seed,
        max_rounds,
        origin,
        observer=collector,
        backend=backend,
    )
    curve = []
    informed = 1
    for round_index in range(result.rounds + 1):
        informed += result.stats.per_round_informed.get(round_index, 0)
        curve.append(float(informed))
    if collector is not None:
        return result.completed, result.rounds, curve, collector.metrics()
    return result.completed, result.rounds, curve


def measure_spread(
    topology: Topology,
    forward_probability: float = 0.5,
    origin: int = 0,
    repetitions: int = 5,
    seed: int = 0,
    max_rounds: int = 200,
    name: str | None = None,
    options: ExperimentOptions | None = None,
) -> SpreadMeasurement:
    """Broadcast from `origin` and measure rounds to full saturation.

    With ``options=ExperimentOptions(collect_metrics=True)`` each
    repetition records a :class:`repro.metrics.RunMetrics` time series;
    the measurement then carries the per-repetition series
    (``run_metrics``) and their mean/CI aggregate (``metrics``).  The
    options' ``backend`` selects the engine backend for every repetition
    (``"fast"`` for the vectorised engine; results are bit-identical,
    only wall-clock changes).
    """
    name = name or repr(topology)
    [(_, outcomes, run_metrics)] = sweep_cells(
        _spread_once,
        [topology],
        params=lambda topology: dict(
            topology=topology,
            forward_probability=forward_probability,
            origin=origin,
            max_rounds=max_rounds,
        ),
        repetitions=repetitions,
        seed=seed,
        label=lambda _, rep: f"grid_spread {name} rep={rep}",
        options=options,
        supports=SUPPORTS,
    )
    saturation_rounds = []
    curves = []
    completions = 0
    for completed, rounds, curve in outcomes:
        curves.append(curve)
        if completed:
            completions += 1
            saturation_rounds.append(rounds)
    horizon = max(len(c) for c in curves)
    mean_curve = [
        float(
            np.mean([c[t] if t < len(c) else c[-1] for c in curves])
        )
        for t in range(horizon)
    ]
    pool = saturation_rounds if saturation_rounds else [float(max_rounds)]
    return SpreadMeasurement(
        topology_name=name,
        n_tiles=topology.n_tiles,
        saturation_rounds_mean=float(np.mean(pool)),
        saturation_rounds_std=float(np.std(pool)),
        completion_rate=completions / repetitions,
        informed_curve=mean_curve,
        run_metrics=tuple(run_metrics) if run_metrics is not None else None,
        metrics=summarize_metrics(run_metrics),
    )


def run(
    side: int = 5,
    forward_probability: float = 0.5,
    repetitions: int = 5,
    seed: int = 0,
    options: ExperimentOptions | None = None,
) -> list[SpreadMeasurement]:
    """Compare mesh / torus / complete-graph saturation at n = side^2."""
    n = side * side
    opts = resolve_options(options, supports=SUPPORTS)
    return [
        measure_spread(
            topology,
            forward_probability,
            repetitions=repetitions,
            seed=seed,
            name=name,
            options=opts,
        )
        for topology, name in (
            (FullyConnected(n), "fully connected"),
            (Torus2D(side, side), "torus"),
            (Mesh2D(side, side), "mesh"),
        )
    ]
