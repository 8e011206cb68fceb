"""An independent model of retain-mode Bernoulli gossip, from the spec.

Written from ``docs/protocol.md`` alone, in numpy: nothing here imports
the engine, its policies or its fault model, so a bug in code both
engine backends share (port order, the fault injector, TTL handling)
shows up as a difference in distribution against this model.

The model runs `replicates` independent broadcasts at once, one rumor
from `source` on an L x L mesh or torus.  Each round, in order:

1. **receive** — a tile latches the copies sent to it last round; a
   scrambled copy fails the CRC and is dropped; the first intact copy
   of a message the tile has never seen is buffered with the TTL it
   carries (retain mode: a tile never takes the message twice);
2. **compute** — in round 0 the source originates the message with TTL
   `ttl`;
3. **age** — every buffered copy's TTL decrements, and a copy reaching
   0 is dropped;
4. **send** — for every buffered copy and every output port a
   Bernoulli(`p`) draw decides whether a copy goes out, carrying the
   sender's TTL; each copy on the link is scrambled with probability
   `p_upset`.

A tile is informed once it has buffered or originated the message.  The
saturation round is the first round after whose compute phase every
tile is informed, or `max_rounds` when that never happens.
"""

from __future__ import annotations

import numpy as np


def grid_neighbors(side: int, torus: bool) -> np.ndarray:
    """``(side * side, 4)`` neighbor ids (N, S, W, E); -1 where none."""
    row, col = np.divmod(np.arange(side * side), side)
    table = []
    for d_row, d_col in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        r, c = row + d_row, col + d_col
        if torus:
            table.append((r % side) * side + c % side)
        else:
            inside = (r >= 0) & (r < side) & (c >= 0) & (c < side)
            table.append(np.where(inside, r * side + c, -1))
    return np.stack(table, axis=1)


def saturation_rounds(
    side: int,
    *,
    torus: bool,
    p: float,
    p_upset: float,
    ttl: int,
    max_rounds: int,
    replicates: int,
    seed: int,
    source: int = 0,
) -> np.ndarray:
    """Each replicate's saturation round (`max_rounds` if it never saturates)."""
    rng = np.random.default_rng(seed)
    nbr = grid_neighbors(side, torus)
    n = side * side
    has_port = nbr >= 0
    targets = np.where(has_port, nbr, 0)
    held = np.zeros((replicates, n), dtype=np.int64)  # buffered TTL, 0 = none
    informed = np.zeros((replicates, n), dtype=bool)
    arriving = np.zeros((replicates, n), dtype=np.int64)  # best intact TTL
    saturated = np.full(replicates, max_rounds, dtype=np.int64)
    for round_index in range(max_rounds):
        # receive: retain mode buffers a message once, ever.
        fresh = (arriving > 0) & ~informed
        held[fresh] = arriving[fresh]
        informed |= fresh
        # compute
        if round_index == 0:
            held[:, source] = ttl
            informed[:, source] = True
        done = informed.all(axis=1) & (saturated == max_rounds)
        saturated[done] = round_index
        # age
        held = np.maximum(held - 1, 0)
        # send
        shape = (replicates, n, nbr.shape[1])
        sent = (held[:, :, None] > 0) & has_port & (rng.random(shape) < p)
        intact = sent & (rng.random(shape) >= p_upset)
        arriving = np.zeros((replicates, n), dtype=np.int64)
        rep, tile, port = np.nonzero(intact)
        np.maximum.at(arriving, (rep, targets[tile, port]), held[rep, tile])
    return saturated


def ks_2samp(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    The p-value is the Kolmogorov distribution's tail at
    ``(sqrt(ne) + 0.12 + 0.11 / sqrt(ne)) * D`` with ``ne = n m / (n + m)``
    (Stephens' small-sample correction).  On discrete data it is
    conservative: ties can only shrink D.
    """
    a, b = np.sort(np.asarray(a)), np.sort(np.asarray(b))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.abs(cdf_a - cdf_b).max())
    root = np.sqrt(a.size * b.size / (a.size + b.size))
    lam = (root + 0.12 + 0.11 / root) * d
    if lam < 1e-3:
        return d, 1.0
    j = np.arange(1, 101)
    tail = 2.0 * np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * (j * lam) ** 2))
    return d, float(min(max(tail, 0.0), 1.0))


def holm(pvalues, alpha: float) -> np.ndarray:
    """Holm's step-down rejections at family-wise level `alpha`."""
    pvalues = np.asarray(pvalues, dtype=float)
    m = pvalues.size
    rejected = np.zeros(m, dtype=bool)
    for rank, index in enumerate(np.argsort(pvalues)):
        if pvalues[index] > alpha / (m - rank):
            break
        rejected[index] = True
    return rejected
