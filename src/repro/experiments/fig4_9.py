"""Fig 4-9: MP3 energy dissipation vs the forwarding probability p.

Eq. 3 makes energy proportional to total transmissions, which the RND
circuits scale almost linearly with p — the thesis plots a near-linear
rise from p ~ 0.1 to p = 1, the designer's half of the latency/energy
trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.protocol import StochasticProtocol
from repro.experiments.common import ExperimentOptions, sweep_cells
from repro.mp3.parallel import ParallelMp3App
from repro.noc.engine import NocSimulator
from repro.noc.topology import Mesh2D


@dataclass(frozen=True)
class EnergyPoint:
    """One p sample of the Fig 4-9 curve."""

    forward_probability: float
    energy_j: float
    transmissions: float
    latency_rounds: float


def _run_energy_rep(
    forward_probability: float,
    n_frames: int,
    granule: int,
    seed: int,
    max_rounds: int,
) -> tuple[float, int, int]:
    """One MP3 run at one p; returns (energy_j, transmissions, rounds)."""
    app = ParallelMp3App(n_frames=n_frames, granule=granule, seed=seed)
    simulator = NocSimulator(
        Mesh2D(4, 4),
        StochasticProtocol(forward_probability),
        seed=seed,
        # Low p needs patience: fix the TTL across the sweep so the
        # energy comparison is apples-to-apples.
        default_ttl=40,
    )
    app.deploy(simulator)
    # Energy is a per-message lifetime quantity: run until every buffered
    # copy has aged out, not merely until the app's logical completion,
    # so each p is charged its full gossip cost (this is what makes
    # Fig 4-9 ~linear in p).
    result = simulator.run(
        max_rounds=max_rounds,
        until=lambda sim: sim.application_complete()
        and not any(tile.send_buffer for tile in sim.tiles.values()),
    )
    return result.energy_j, result.stats.transmissions_delivered, result.rounds


def run(
    probabilities: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0),
    n_frames: int = 6,
    granule: int = 144,
    repetitions: int = 2,
    seed: int = 0,
    max_rounds: int = 2500,
    options: ExperimentOptions | None = None,
) -> list[EnergyPoint]:
    """Measure energy (and latency) across p, fault-free."""
    return [
        EnergyPoint(
            forward_probability=p,
            energy_j=float(np.mean([r[0] for r in reps])),
            transmissions=float(np.mean([r[1] for r in reps])),
            latency_rounds=float(np.mean([r[2] for r in reps])),
        )
        for p, reps, _ in sweep_cells(
            _run_energy_rep,
            probabilities,
            params=lambda p: dict(
                forward_probability=p,
                n_frames=n_frames,
                granule=granule,
                max_rounds=max_rounds,
            ),
            repetitions=repetitions,
            seed=seed,
            stride=613,
            label=lambda p, rep: f"fig4_9 p={p} rep={rep}",
            options=options,
        )
    ]
