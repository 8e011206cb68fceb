"""Fig 4-11: output bit-rate under buffer overflows and sync errors.

The thesis monitors the encoder's continuous output bit-rate: sustained up
to ~60 % dropped packets, and essentially unaffected by even severe
synchronization errors (the error bars — jitter — grow slightly).  Our
version also reports reconstruction SNR via the decoder, quantifying the
"graceful degradation in quality" the thesis claims but could not measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.experiments.common import ExperimentOptions, mp3_run
from repro.experiments.fig4_10 import sweep_panel
from repro.faults import FaultConfig
from repro.mp3.decoder import Mp3Decoder, reconstruction_snr_db


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
    app, _ = mp3_run(0.5, fault_config, 30, n_frames, granule, seed, max_rounds)
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


_panel = partial(sweep_panel, "fig4_11", _run_bitrate_rep, 53, _aggregate)


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
    return _panel(
        "overflow", levels, n_frames, granule, repetitions, seed, max_rounds,
        options,
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
    return _panel(
        "synchronization", levels, n_frames, granule, repetitions, seed,
        max_rounds, options,
    )
