"""Bit-level corruption models (thesis §2).

For an n-bit message the error vector is ``e = (e1, ..., en)`` with
``e_i = 1`` when bit *i* is flipped.  The thesis relates the packet-level
upset probability ``p_upset`` to the per-vector / per-bit probabilities:

* **random error vector**: all ``2^n - 1`` non-null vectors equally likely,
  so ``p_v ≈ p_upset / 2^n``;
* **random bit error**: i.i.d. flips, ``p_upset = 1 - (1 - p_b)^n ≈ n·p_b``,
  so ``p_b ≈ p_upset / n``.

Both models are implemented as samplers that, *given* that an upset occurs,
draw the error vector to XOR onto the payload.  This matters for CRC realism:
a random-error-vector scramble escapes a w-bit CRC with probability ~2^-w,
while a single-bit error never escapes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


def error_vector_probability(p_upset: float, n_bits: int) -> float:
    """Per-vector probability ``p_v`` in the random error vector model.

    Exact form: ``p_upset = (2^n - 1) * p_v``.

    >>> error_vector_probability(0.75, 2)
    0.25
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be positive, got {n_bits}")
    if not 0.0 <= p_upset <= 1.0:
        raise ValueError(f"p_upset must be in [0, 1], got {p_upset}")
    return p_upset / (2**n_bits - 1)


def bit_error_probability(p_upset: float, n_bits: int) -> float:
    """Per-bit probability ``p_b`` in the random bit error model.

    Exact inversion of ``p_upset = 1 - (1 - p_b)^n``.

    >>> round(bit_error_probability(0.75, 2), 3)
    0.5
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be positive, got {n_bits}")
    if not 0.0 <= p_upset <= 1.0:
        raise ValueError(f"p_upset must be in [0, 1], got {p_upset}")
    if p_upset == 1.0:
        return 1.0
    return 1.0 - (1.0 - p_upset) ** (1.0 / n_bits)


class ErrorModel(ABC):
    """Samples error vectors to apply to packets that suffered an upset."""

    @abstractmethod
    def corrupt(self, payload: bytes, rng: np.random.Generator) -> bytes:
        """Return a corrupted copy of `payload` (same length).

        The returned bytes must differ from the input whenever the model is
        conditioned on "an upset occurred" — a corruption that changes
        nothing is not an upset.
        """

    @property
    @abstractmethod
    def name(self) -> str:
        """Catalogue name, one of ``"vector"`` or ``"bit"``."""


class RandomErrorVector(ErrorModel):
    """All non-null error vectors equally likely (thesis §2).

    Equivalent to replacing the payload with uniform random bytes,
    resampling in the (vanishingly rare) case the draw equals the original.
    """

    @property
    def name(self) -> str:
        return "vector"

    def corrupt(self, payload: bytes, rng: np.random.Generator) -> bytes:
        if not payload:
            return payload
        while True:
            scrambled = rng.integers(
                0, 256, size=len(payload), dtype=np.uint8
            ).tobytes()
            if scrambled != payload:
                return scrambled


class RandomBitError(ErrorModel):
    """Independent per-bit flips, conditioned on at least one flip.

    Args:
        p_bit: marginal flip probability per bit.  When 0, exactly one
            uniformly-chosen bit is flipped (the minimal non-null vector),
            which is the correct conditional limit of the model.
    """

    def __init__(self, p_bit: float = 0.0) -> None:
        if not 0.0 <= p_bit <= 1.0:
            raise ValueError(f"p_bit must be in [0, 1], got {p_bit}")
        self.p_bit = p_bit

    @property
    def name(self) -> str:
        return "bit"

    def corrupt(self, payload: bytes, rng: np.random.Generator) -> bytes:
        if not payload:
            return payload
        n_bits = 8 * len(payload)
        data = bytearray(payload)
        if self.p_bit > 0.0:
            flips = np.nonzero(rng.random(n_bits) < self.p_bit)[0]
            if flips.size == 0:
                flips = np.array([rng.integers(0, n_bits)])
        else:
            flips = np.array([rng.integers(0, n_bits)])
        for bit in flips:
            data[int(bit) // 8] ^= 1 << (int(bit) % 8)
        return bytes(data)


def make_error_model(name: str, p_bit: float = 0.0) -> ErrorModel:
    """Instantiate an error model by catalogue name."""
    if name == "vector":
        return RandomErrorVector()
    if name == "bit":
        return RandomBitError(p_bit)
    raise ValueError(f"unknown error model {name!r}; expected 'vector' or 'bit'")
