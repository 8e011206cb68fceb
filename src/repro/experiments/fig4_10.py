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
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.experiments.common import (
    ExperimentOptions,
    completion_pool,
    mp3_run,
    sweep_cells,
)
from repro.faults import FaultConfig


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


#: Panel -> the :class:`FaultConfig` field its x-axis sweeps.
PANELS = {"overflow": "p_overflow", "synchronization": "sigma_synchr"}


def sweep_panel(
    figure: str,
    run_rep: Callable[..., tuple],
    stride: int,
    aggregate: Callable[[str, float, list], Any],
    panel: str,
    levels: tuple[float, ...],
    n_frames: int,
    granule: int,
    repetitions: int,
    seed: int,
    max_rounds: int,
    options: ExperimentOptions | None,
) -> list:
    """One panel of the two-panel MP3 figures (Fig 4-10 and Fig 4-11).

    Sweeps the panel's fault level, running `run_rep` per repetition
    (seeded ``seed + stride * rep``) and reducing each level with
    `aggregate`.
    """
    return [
        aggregate(panel, level, outcomes)
        for level, outcomes, _ in sweep_cells(
            run_rep,
            levels,
            params=lambda level: dict(
                fault_config=FaultConfig(**{PANELS[panel]: level}),
                n_frames=n_frames,
                granule=granule,
                max_rounds=max_rounds,
            ),
            repetitions=repetitions,
            seed=seed,
            stride=stride,
            label=lambda level, rep: f"{figure} {panel}={level} rep={rep}",
            options=options,
        )
    ]


def _run_impact_rep(
    fault_config: FaultConfig,
    n_frames: int,
    granule: int,
    seed: int,
    max_rounds: int,
) -> tuple[bool, int]:
    """One MP3 run under one fault configuration."""
    app, result = mp3_run(
        0.5, fault_config, 30, n_frames, granule, seed, max_rounds
    )
    return app.report().encoding_complete, result.rounds


def _aggregate(axis: str, level: float, outcomes: list) -> FailureImpactPoint:
    completion_rate, pool = completion_pool(outcomes)
    rounds = np.array([o[1] for o in pool], dtype=float)
    return FailureImpactPoint(
        axis=axis,
        level=level,
        completion_rate=completion_rate,
        latency_rounds_mean=float(rounds.mean()),
        latency_rounds_std=float(rounds.std()),
    )


_panel = partial(sweep_panel, "fig4_10", _run_impact_rep, 31, _aggregate)


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
    return _panel(
        "overflow", levels, n_frames, granule, repetitions, seed, max_rounds,
        options,
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
    return _panel(
        "synchronization", levels, n_frames, granule, repetitions, seed,
        max_rounds, options,
    )
