"""Batched uniform port sampling, draw for draw what numpy's scalar calls do.

Push-pull picks ``fanout`` distinct ports per buffered packet with
``rng.choice(degree, size=fanout, replace=False)`` and one pull target
per uninformed tile with ``rng.integers(degree)``.  :func:`sample_ports`
reproduces a whole round of those calls from one ``uint32`` block, so the
fast engine backend can batch the round and still leave the generator
exactly where the per-row calls would.

What one row consumes (numpy >= 1.24, checked by ``tests/test_sampling.py``
against the installed release):

* ``degree <= size`` — every port, no draw (``rng.integers(1)`` included;
  a row that sits the round out is passed as degree 0 and takes none);
* otherwise ``2 * size - 1`` consecutive 32-bit draws: ``size`` Floyd
  picks with bounds ``degree - size + 1 … degree``, each resolved by
  Lemire's multiply-shift ``(u * bound) >> 32`` and replaced by its
  ``j = bound - 1`` when it collides with an earlier pick, then the
  ``size - 1`` draws of ``choice``'s result shuffle, which only move the
  stream (callers use the picks as a set).

Lemire's method rejects a draw — and takes another — when
``(u * bound) & 0xFFFFFFFF < (2**32 - bound) % bound``, with probability
below ``bound / 2**32``.  A rejection shifts every later row by one draw;
instead of patching that up, the helper restores the generator and
returns None, and the caller runs that round through the scalar calls.
"""

from __future__ import annotations

import numpy as np

#: ``Generator.choice`` switches from Floyd's algorithm to a tail shuffle
#: above this population size; such rows are left to the scalar call.
_FLOYD_MAX_POPULATION = 10_000


def _rejected(products: np.ndarray, bounds: np.ndarray) -> bool:
    """Would Lemire's method redraw any of these ``u * bound`` products?"""
    thresholds = (np.uint64(1 << 32) - bounds) % bounds
    return bool(((products & np.uint64(0xFFFFFFFF)) < thresholds).any())


def sample_ports(
    rng: np.random.Generator,
    degrees: np.ndarray,
    size: int,
    width: int | None = None,
) -> np.ndarray | None:
    """`size` distinct uniform ports per row, as a boolean port mask.

    Row ``i`` of the ``(len(degrees), width)`` result marks what
    ``rng.choice(degrees[i], size=size, replace=False)`` (for
    ``size == 1`` equally ``rng.integers(degrees[i])``) would pick, rows
    taken in order, and `rng` ends where those calls would leave it.
    Returns None — with `rng` untouched — when the batch cannot be
    reproduced from one block (see the module docstring).

    Args:
        rng: the simulation's generator.
        degrees: port count per row (int64).
        size: ports to pick per row, >= 1.
        width: columns of the mask; defaults to the largest degree.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if width is None:
        width = int(degrees.max(initial=0))
    mask = np.arange(width)[None, :] < degrees[:, None]
    sampled = np.nonzero(degrees > size)[0]
    if sampled.size == 0:
        return mask
    deg = degrees[sampled]
    if int(deg.max()) > _FLOYD_MAX_POPULATION:
        return None
    # Per-row bounds of the 2*size - 1 draws: Floyd picks, then shuffle.
    bounds = np.empty((sampled.size, 2 * size - 1), dtype=np.uint64)
    bounds[:, :size] = (deg - size + 1)[:, None] + np.arange(size)
    bounds[:, size:] = np.arange(size, 1, -1)
    bit_generator = rng.bit_generator
    saved = bit_generator.state
    draws = rng.integers(0, 1 << 32, size=bounds.size, dtype=np.uint32)
    products = draws.reshape(bounds.shape).astype(np.uint64) * bounds
    if _rejected(products, bounds):
        bit_generator.state = saved
        return None
    picks = (products[:, :size] >> np.uint64(32)).astype(np.int64)
    chosen = np.zeros((sampled.size, width), dtype=bool)
    rows = np.arange(sampled.size)
    for i in range(size):
        pick = picks[:, i]
        if i:
            # Floyd: a value already taken is replaced by j, the largest
            # value this step could draw (never taken before).
            pick = np.where(chosen[rows, pick], deg - size + i, pick)
        chosen[rows, pick] = True
    mask[sampled] = chosen
    return mask
