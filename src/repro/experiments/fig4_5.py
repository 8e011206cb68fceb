"""Fig 4-5: latency surface over (defective tiles x data upsets).

The thesis' 3-D plot for the case studies: tile crashes barely move the
latency, while data upsets dominate once p_upset exceeds ~0.5 — yet the
algorithm "does not give up" and terminates even at 90 % upsets, merely
taking many more rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.master_slave import MasterSlavePiApp
from repro.experiments.common import (
    ExperimentOptions,
    column_mean,
    completion_pool,
    run_crashed,
    sweep_cells,
)
from repro.faults import FaultConfig
from repro.noc.topology import Mesh2D


@dataclass(frozen=True)
class SurfacePoint:
    """One (crashes, p_upset) cell of the latency surface."""

    n_dead_tiles: int
    p_upset: float
    completion_rate: float
    latency_rounds: float


def _run_surface_rep(
    n_dead: int,
    p_upset: float,
    forward_probability: float,
    seed: int,
    max_rounds: int,
) -> tuple[bool, int]:
    """One Master-Slave run at one (crashes, p_upset) cell."""
    app = MasterSlavePiApp.default_5x5(n_slaves=8, duplicate=True, n_terms=200)
    result = run_crashed(
        app,
        Mesh2D(5, 5),
        forward_probability,
        seed,
        max_rounds,
        n_dead_tiles=n_dead,
        fault_config=FaultConfig(p_upset=p_upset),
        # Heavy upsets need persistent packets: the protocol survives by
        # retransmitting, which takes TTL headroom.
        default_ttl=max_rounds,
    )
    return app.complete, result.rounds


def run(
    dead_tile_counts: tuple[int, ...] = (0, 2, 4),
    upset_levels: tuple[float, ...] = (0.0, 0.3, 0.5, 0.7, 0.9),
    forward_probability: float = 0.5,
    repetitions: int = 3,
    seed: int = 0,
    max_rounds: int = 2500,
    options: ExperimentOptions | None = None,
) -> list[SurfacePoint]:
    """Sweep the two failure axes on the Master-Slave study."""
    points = []
    for (n_dead, p_upset), outcomes, _ in sweep_cells(
        _run_surface_rep,
        [(n_dead, p_upset) for n_dead in dead_tile_counts for p_upset in upset_levels],
        params=lambda cell: dict(
            n_dead=cell[0],
            p_upset=cell[1],
            forward_probability=forward_probability,
            max_rounds=max_rounds,
        ),
        repetitions=repetitions,
        seed=seed,
        stride=7919,
        label=lambda cell, rep: f"fig4_5 dead={cell[0]} upset={cell[1]} rep={rep}",
        options=options,
    ):
        completion_rate, pool = completion_pool(outcomes)
        points.append(
            SurfacePoint(
                n_dead_tiles=n_dead,
                p_upset=p_upset,
                completion_rate=completion_rate,
                latency_rounds=column_mean(pool, 1),
            )
        )
    return points
