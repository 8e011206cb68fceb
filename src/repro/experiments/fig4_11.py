"""Fig 4-11: output bit-rate under buffer overflows and sync errors.

The thesis monitors the encoder's continuous output bit-rate: sustained up
to ~60 % dropped packets, and essentially unaffected by even severe
synchronization errors (the error bars — jitter — grow slightly).  Our
version also reports reconstruction SNR via the decoder, quantifying the
"graceful degradation in quality" the thesis claims but could not measure.
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
from repro.mp3.decoder import Mp3Decoder, reconstruction_snr_db
from repro.mp3.parallel import ParallelMp3App
from repro.noc.engine import NocSimulator
from repro.noc.topology import Mesh2D
from repro.runners import SimTask


@dataclass(frozen=True)
class BitratePoint:
    """One x-axis sample of either Fig 4-11 panel.

    Attributes:
        axis: "overflow" or "synchronization".
        level: p_overflow or sigma_synchr.
        bitrate_bps_mean / bitrate_bps_std: measured output bit-rate.
        frames_lost_mean: average granules missing from the bitstream.
        snr_db_mean: decoder-side reconstruction SNR (our extension).
    """

    axis: str
    level: float
    bitrate_bps_mean: float
    bitrate_bps_std: float
    frames_lost_mean: float
    snr_db_mean: float


def _run_bitrate_rep(
    fault_config: FaultConfig,
    n_frames: int,
    granule: int,
    seed: int,
    max_rounds: int,
) -> tuple[float, int, float]:
    """One MP3 run; returns (bitrate_bps, frames_lost, snr_db)."""
    app = ParallelMp3App(n_frames=n_frames, granule=granule, seed=seed)
    simulator = NocSimulator(
        Mesh2D(4, 4),
        StochasticProtocol(0.5),
        fault_config,
        seed=seed,
        default_ttl=30,
    )
    run_on_noc(app, simulator, max_rounds=max_rounds)
    report = app.report()
    decoder = Mp3Decoder(granule)
    reconstruction = decoder.decode(app.output.frames, n_frames)
    snr = reconstruction_snr_db(app.source.all_frames(), reconstruction)
    return report.bitrate_bps, report.frames_lost, float(snr)


def _aggregate(axis: str, level: float, outcomes: list) -> BitratePoint:
    bitrate_array = np.array([o[0] for o in outcomes], dtype=float)
    finite_snrs = [o[2] for o in outcomes if np.isfinite(o[2])]
    return BitratePoint(
        axis=axis,
        level=level,
        bitrate_bps_mean=float(bitrate_array.mean()),
        bitrate_bps_std=float(bitrate_array.std()),
        frames_lost_mean=float(np.mean([o[1] for o in outcomes])),
        snr_db_mean=float(np.mean(finite_snrs)) if finite_snrs else float("-inf"),
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
) -> list[BitratePoint]:
    sweep = opts.make_runner()
    outcomes = sweep.run(
        SimTask.call(
            _run_bitrate_rep,
            fault_config=config,
            n_frames=n_frames,
            granule=granule,
            seed=seed + 53 * rep,
            max_rounds=max_rounds,
            label=f"fig4_11 {axis}={level} rep={rep}",
        )
        for level, config in configs
        for rep in range(repetitions)
    )
    return [
        _aggregate(axis, level, reps)
        for (level, _), reps in per_cell(configs, outcomes, repetitions)
    ]


def run_overflow(
    levels: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8),
    n_frames: int = 6,
    granule: int = 144,
    repetitions: int = 3,
    seed: int = 0,
    max_rounds: int = 1500,
    options: ExperimentOptions | None = None,
) -> list[BitratePoint]:
    """Bit-rate vs overflow drop probability (left panel)."""
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
    levels: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75),
    n_frames: int = 6,
    granule: int = 144,
    repetitions: int = 3,
    seed: int = 0,
    max_rounds: int = 1500,
    options: ExperimentOptions | None = None,
) -> list[BitratePoint]:
    """Bit-rate vs sigma_synchr (right panel)."""
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
