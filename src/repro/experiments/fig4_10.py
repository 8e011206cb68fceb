"""Fig 4-10: impact of buffer overflows and synchronization errors on the
MP3 latency.

Left panel: latency vs the packet-drop (overflow) probability — flat until
very high levels, then the encoding fails outright (point A at > 80 %:
every copy of some granule died and no tile kept one).
Right panel: latency vs sigma_synchr — the mean barely moves but the
variance (jitter) grows; synchronization errors never prevent completion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import run_on_noc
from repro.core.protocol import StochasticProtocol
from repro.experiments.common import (
    ExperimentOptions,
    per_cell,
    resolve_options,
)
from repro.faults import FaultConfig
from repro.mp3.parallel import ParallelMp3App
from repro.noc.engine import NocSimulator
from repro.noc.topology import Mesh2D
from repro.runners import SimTask


@dataclass(frozen=True)
class FailureImpactPoint:
    """One x-axis sample of either Fig 4-10 panel.

    Attributes:
        axis: "overflow" or "synchronization".
        level: p_overflow or sigma_synchr.
        completion_rate: runs whose bitstream was complete.
        latency_rounds_mean / latency_rounds_std: rounds to finish, over
            completed runs (std is the jitter the right panel shows).
    """

    axis: str
    level: float
    completion_rate: float
    latency_rounds_mean: float
    latency_rounds_std: float


def _run_impact_rep(
    fault_config: FaultConfig,
    n_frames: int,
    granule: int,
    seed: int,
    max_rounds: int,
) -> tuple[bool, int]:
    """One MP3 run under one fault configuration."""
    app = ParallelMp3App(n_frames=n_frames, granule=granule, seed=seed)
    simulator = NocSimulator(
        Mesh2D(4, 4),
        StochasticProtocol(0.5),
        fault_config,
        seed=seed,
        default_ttl=30,
    )
    result = run_on_noc(app, simulator, max_rounds=max_rounds)
    report = app.report()
    return report.encoding_complete, result.rounds


def _aggregate(axis: str, level: float, outcomes: list) -> FailureImpactPoint:
    finished = [o for o in outcomes if o[0]]
    pool = finished if finished else outcomes
    rounds = np.array([o[1] for o in pool], dtype=float)
    return FailureImpactPoint(
        axis=axis,
        level=level,
        completion_rate=len(finished) / len(outcomes),
        latency_rounds_mean=float(rounds.mean()),
        latency_rounds_std=float(rounds.std()),
    )


def _sweep_axis(
    axis: str,
    configs: list[tuple[float, FaultConfig]],
    n_frames: int,
    granule: int,
    repetitions: int,
    seed: int,
    max_rounds: int,
    opts: ExperimentOptions,
) -> list[FailureImpactPoint]:
    sweep = opts.make_runner()
    outcomes = sweep.run(
        SimTask.call(
            _run_impact_rep,
            fault_config=config,
            n_frames=n_frames,
            granule=granule,
            seed=seed + 31 * rep,
            max_rounds=max_rounds,
            label=f"fig4_10 {axis}={level} rep={rep}",
        )
        for level, config in configs
        for rep in range(repetitions)
    )
    return [
        _aggregate(axis, level, reps)
        for (level, _), reps in per_cell(configs, outcomes, repetitions)
    ]


def run_overflow(
    levels: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9),
    n_frames: int = 6,
    granule: int = 144,
    repetitions: int = 3,
    seed: int = 0,
    max_rounds: int = 1500,
    options: ExperimentOptions | None = None,
) -> list[FailureImpactPoint]:
    """The left panel: latency vs buffer-overflow drop probability."""
    opts = resolve_options(options)
    return _sweep_axis(
        "overflow",
        [(level, FaultConfig(p_overflow=level)) for level in levels],
        n_frames,
        granule,
        repetitions,
        seed,
        max_rounds,
        opts,
    )


def run_synchronization(
    levels: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 0.75),
    n_frames: int = 6,
    granule: int = 144,
    repetitions: int = 3,
    seed: int = 0,
    max_rounds: int = 1500,
    options: ExperimentOptions | None = None,
) -> list[FailureImpactPoint]:
    """The right panel: latency vs sigma_synchr (jitter, not failure)."""
    opts = resolve_options(options)
    return _sweep_axis(
        "synchronization",
        [(level, FaultConfig(sigma_synchr=level)) for level in levels],
        n_frames,
        granule,
        repetitions,
        seed,
        max_rounds,
        opts,
    )
