"""Extension experiment: link-crash sweep.

The Ch. 2 fault model includes ``p_link`` (crashed links) but Fig 4-4
only sweeps dead *tiles*.  This harness completes the picture: the
Master-Slave workload under increasing numbers of dead directed links,
measuring completion rate and latency.  Expected shape: links are the
gentler failure mode — a dead link removes one path while a dead tile
removes up to four and a compute resource — so latency degrades more
slowly per failed element.
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
from repro.noc.topology import Mesh2D


@dataclass(frozen=True)
class LinkCrashPoint:
    """One dead-link count of the sweep."""

    n_dead_links: int
    completion_rate: float
    latency_rounds: float
    dead_link_drops: float


def _run_link_crash_rep(
    n_dead_links: int,
    forward_probability: float,
    n_terms: int,
    seed: int,
    max_rounds: int,
) -> tuple[bool, int, int]:
    """One Master-Slave run with exactly n_dead_links crashed links."""
    app = MasterSlavePiApp.default_5x5(n_terms=n_terms)
    result = run_crashed(
        app,
        Mesh2D(5, 5),
        forward_probability,
        seed,
        max_rounds,
        n_dead_links=n_dead_links,
        default_ttl=24,
    )
    return app.complete, result.rounds, result.stats.dead_link_drops


def run(
    dead_link_counts: tuple[int, ...] = (0, 4, 8, 16, 24),
    forward_probability: float = 0.5,
    repetitions: int = 4,
    n_terms: int = 300,
    seed: int = 0,
    max_rounds: int = 400,
    options: ExperimentOptions | None = None,
) -> list[LinkCrashPoint]:
    """Sweep dead directed links on the 5x5 Master-Slave study."""
    points = []
    for n_dead, outcomes, _ in sweep_cells(
        _run_link_crash_rep,
        dead_link_counts,
        params=lambda n_dead: dict(
            n_dead_links=n_dead,
            forward_probability=forward_probability,
            n_terms=n_terms,
            max_rounds=max_rounds,
        ),
        repetitions=repetitions,
        seed=seed,
        stride=4999,
        label=lambda n_dead, rep: f"link_crashes dead={n_dead} rep={rep}",
        options=options,
    ):
        completion_rate, pool = completion_pool(outcomes)
        points.append(
            LinkCrashPoint(
                n_dead_links=n_dead,
                completion_rate=completion_rate,
                latency_rounds=column_mean(pool, 1),
                dead_link_drops=column_mean(outcomes, 2),
            )
        )
    return points
