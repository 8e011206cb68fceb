"""Feedback termination: the duplicate-counting stopping rule.

Randomized rumor spreading has no natural "stop" — a Bernoulli gossiper
re-offers every buffered packet to the RND circuits forever, so the
paper's energy metric depends on an arbitrary round budget.  The
rumor-spreading literature's fix (Karp et al.'s median-counter rule;
Doerr et al., arXiv:1209.6158) is *feedback termination*: every intact
duplicate copy a tile receives is an acknowledgement that its
neighborhood already knows the message, and after ``k`` such
acknowledgements the tile writes the rumor's death certificate and falls
silent.

:class:`FeedbackTermination` packages that rule as a reusable component:
:class:`repro.policies.counter.CounterGossipPolicy` composes it with
Bernoulli pushing, and :class:`repro.policies.pushpull.PushPullPolicy`
composes it (via ``feedback_k``) with push–pull rounds.  It is not a
:class:`~repro.policies.base.ForwardingPolicy` itself — it only counts
duplicates and answers silencing queries; the owning policy decides what
"silenced" means for its traffic (push–pull tiles, for example, stop
*pushing* but still answer pull requests).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

#: A packet identity: ``(source tile, message id)``.
Key = tuple[int, int]


class FeedbackTermination:
    """Count duplicate acknowledgements; silence ``(tile, key)`` after k.

    Args:
        k: intact duplicate receptions after which a tile is silenced
            for a message (k = 1: the first echo silences it; larger k
            trades extra redundancy for fault tolerance).
    """

    __slots__ = ("k", "_duplicates")

    def __init__(self, k: int = 2) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = int(k)
        #: (tile_id, packet key) -> intact duplicate copies received.
        self._duplicates: dict[tuple[int, Key], int] = defaultdict(int)

    # ------------------------------------------------------------ observing

    def reset(self) -> None:
        """Clear all per-run duplicate counts."""
        self._duplicates.clear()

    def observe(self, tile_id: int, key: Key) -> None:
        """`tile_id` received (and suppressed) an intact duplicate."""
        self._duplicates[(tile_id, key)] += 1

    def observe_batch(
        self,
        tile_ids: np.ndarray,
        sources: np.ndarray,
        message_ids: np.ndarray,
    ) -> None:
        """Vectorised :meth:`observe` (fast-backend receive phase)."""
        duplicates = self._duplicates
        for tile_id, source, message_id in zip(
            tile_ids.tolist(), sources.tolist(), message_ids.tolist()
        ):
            duplicates[(tile_id, (source, message_id))] += 1

    # ------------------------------------------------------------- querying

    def duplicates_seen(self, tile_id: int, key: Key) -> int:
        """Intact duplicate copies of `key` received at `tile_id` so far."""
        return self._duplicates.get((tile_id, key), 0)

    def is_silenced(self, tile_id: int, key: Key) -> bool:
        """Has `tile_id` written the death certificate for `key`?"""
        return self.duplicates_seen(tile_id, key) >= self.k

    def silenced_rows(
        self,
        tile_ids: np.ndarray,
        sources: np.ndarray,
        message_ids: np.ndarray,
    ) -> list[int]:
        """Row indices (into the parallel arrays) that are silenced."""
        if not self._duplicates:
            return []
        get = self._duplicates.get
        k = self.k
        return [
            row
            for row, (tile_id, source, message_id) in enumerate(
                zip(
                    tile_ids.tolist(),
                    sources.tolist(),
                    message_ids.tolist(),
                )
            )
            if get((tile_id, (source, message_id)), 0) >= k
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FeedbackTermination(k={self.k}, "
            f"tracked={len(self._duplicates)})"
        )
