"""Synthetic PCM signal acquisition.

The thesis fed real audio through LAME; spectral *content* is all the
pipeline cares about, so a seeded generator producing controlled mixtures
of tones, chirps and noise exercises the same code paths — tonal content
drives the masking model, noise drives the rate loop — without any audio
assets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Granule size: spectral lines per frame (MP3 long-block granule).
GRANULE = 576
#: Nominal sample rate used for bit-rate accounting.
SAMPLE_RATE_HZ = 44_100


def synthesize_signal(
    n_samples: int,
    kind: str = "mixture",
    seed: int | None = None,
    amplitude: float = 0.5,
) -> np.ndarray:
    """Generate a float PCM signal in [-1, 1].

    Args:
        n_samples: length in samples.
        kind: ``"tone"`` (880 Hz sine), ``"chirp"`` (100 Hz -> 8 kHz sweep),
            ``"noise"`` (white), or ``"mixture"`` (tones + chirp + noise —
            the default torture test).
        seed: RNG seed for the noise components.
        amplitude: peak amplitude of the dominant component.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not 0.0 < amplitude <= 1.0:
        raise ValueError(f"amplitude must be in (0, 1], got {amplitude}")
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / SAMPLE_RATE_HZ
    if kind == "tone":
        signal = amplitude * np.sin(2 * np.pi * 880.0 * t)
    elif kind == "chirp":
        f0, f1 = 100.0, 8000.0
        duration = n_samples / SAMPLE_RATE_HZ
        phase = 2 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2 * duration))
        signal = amplitude * np.sin(phase)
    elif kind == "noise":
        signal = amplitude * rng.standard_normal(n_samples) / 3.0
    elif kind == "mixture":
        signal = (
            amplitude * 0.6 * np.sin(2 * np.pi * 440.0 * t)
            + amplitude * 0.3 * np.sin(2 * np.pi * 1320.0 * t)
            + amplitude * 0.2 * np.sin(2 * np.pi * (200.0 + 2000.0 * t) * t)
            + amplitude * 0.1 * rng.standard_normal(n_samples) / 3.0
        )
    else:
        raise ValueError(
            f"unknown signal kind {kind!r}; expected tone/chirp/noise/mixture"
        )
    return np.clip(signal, -1.0, 1.0)


def frames_from_signal(signal: np.ndarray, granule: int = GRANULE) -> np.ndarray:
    """Split a signal into fixed-size granules, zero-padding the tail.

    Returns an (n_frames, granule) array.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {signal.shape}")
    if granule < 1:
        raise ValueError(f"granule must be >= 1, got {granule}")
    n_frames = -(-len(signal) // granule)
    padded = np.zeros(n_frames * granule)
    padded[: len(signal)] = signal
    return padded.reshape(n_frames, granule)


@dataclass
class PcmSource:
    """The Signal Acquisition stage of Fig 4-7, as a frame iterator.

    Attributes:
        n_frames: frames to produce.
        kind: signal family (see :func:`synthesize_signal`).
        seed: synthesis seed.
        granule: samples per frame.
    """

    n_frames: int
    kind: str = "mixture"
    seed: int = 0
    granule: int = GRANULE

    def __post_init__(self) -> None:
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        signal = synthesize_signal(
            self.n_frames * self.granule, self.kind, self.seed
        )
        self._frames = frames_from_signal(signal, self.granule)

    def frame(self, index: int) -> np.ndarray:
        """The `index`-th granule of samples."""
        if not 0 <= index < self.n_frames:
            raise IndexError(f"frame {index} of {self.n_frames}")
        return self._frames[index]

    def all_frames(self) -> np.ndarray:
        """(n_frames, granule) view of the whole signal."""
        return self._frames
