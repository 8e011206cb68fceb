"""Fig 4-8: MP3 encoding latency over the (p x p_upset) plane.

The thesis' contour plot: lowest latency at p = 1 / p_upset = 0 (~62
rounds in their setup), rising toward p -> 0 and p_upset -> 1 until the
encoding cannot finish.  The absolute round counts depend on the stream
length; the contour *shape* — monotone in both axes, exploding past
p_upset ~ 0.7 — is the reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    ExperimentOptions,
    column_mean,
    completion_pool,
    mp3_run,
    sweep_cells,
)
from repro.faults import FaultConfig


@dataclass(frozen=True)
class LatencyCell:
    """One (p, p_upset) cell of the Fig 4-8 contour."""

    forward_probability: float
    p_upset: float
    completion_rate: float
    latency_rounds: float
    frames_lost: float


def _run_cell_rep(
    forward_probability: float,
    p_upset: float,
    n_frames: int,
    granule: int,
    seed: int,
    max_rounds: int,
) -> tuple[bool, int, int]:
    """One MP3 encoding run at one (p, p_upset) cell."""
    # Upset survival needs TTL headroom (copies are consumed by
    # scrambling and must be replaced by retransmissions): TTL 40.
    app, result = mp3_run(
        forward_probability,
        FaultConfig(p_upset=p_upset),
        40,
        n_frames,
        granule,
        seed,
        max_rounds,
    )
    report = app.report()
    return report.encoding_complete, result.rounds, report.frames_lost


def run(
    probabilities: tuple[float, ...] = (1.0, 0.75, 0.5, 0.25),
    upset_levels: tuple[float, ...] = (0.0, 0.3, 0.6),
    n_frames: int = 6,
    granule: int = 144,
    repetitions: int = 2,
    seed: int = 0,
    max_rounds: int = 1200,
    options: ExperimentOptions | None = None,
) -> list[LatencyCell]:
    """Sweep the (p x p_upset) grid.

    The whole grid — every cell's repetitions — is submitted as one task
    batch, so parallel workers stay busy across cell boundaries.
    """
    cells = []
    for (p, p_upset), outcomes, _ in sweep_cells(
        _run_cell_rep,
        [(p, p_upset) for p in probabilities for p_upset in upset_levels],
        params=lambda cell: dict(
            forward_probability=cell[0],
            p_upset=cell[1],
            n_frames=n_frames,
            granule=granule,
            max_rounds=max_rounds,
        ),
        repetitions=repetitions,
        seed=seed,
        stride=104_729,
        label=lambda cell, rep: f"fig4_8 p={cell[0]} upset={cell[1]} rep={rep}",
        options=options,
    ):
        completion_rate, pool = completion_pool(outcomes)
        cells.append(
            LatencyCell(
                forward_probability=p,
                p_upset=p_upset,
                completion_rate=completion_rate,
                latency_rounds=column_mean(pool, 1),
                frames_lost=column_mean(outcomes, 2),
            )
        )
    return cells
