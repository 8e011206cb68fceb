"""Counter-based ("death certificate") gossip.

The classic randomized rumor-spreading optimisation (arXiv:1209.6158 and
the median-counter rule of Karp et al.): a node keeps pushing a rumor only
until it has *heard it back* often enough.  Each intact duplicate copy a
tile receives is evidence its neighborhood already knows the message;
after ``k`` such receptions the tile writes the rumor's death certificate
and stops offering it to the RND circuits.  Saturated regions of the chip
fall silent instead of re-flooding every round, cutting transmissions (and
energy) while the spreading frontier keeps full redundancy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.policies.base import (
    BatchDecisionView,
    ForwardingPolicy,
    register_policy,
)
from repro.policies.termination import FeedbackTermination

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packet import Packet


@register_policy
class CounterGossipPolicy(ForwardingPolicy):
    """Forward like Bernoulli(p) until k duplicate receptions, then stop.

    Args:
        k: duplicate receptions after which a tile stops forwarding a
            message (k = 1: the first echo silences it; larger k trades
            extra redundancy for fault tolerance).
        forward_probability: the Bernoulli *p* applied while the message
            is still alive at the tile (1.0 = flood-until-silenced, the
            classic counter rule).
    """

    kind = "counter"

    def __init__(self, k: int = 2, forward_probability: float = 1.0) -> None:
        if not 0.0 < forward_probability <= 1.0:
            raise ValueError(
                "forward_probability must be in (0, 1], got "
                f"{forward_probability}"
            )
        # The duplicate-counting stopping rule itself lives in the
        # reusable FeedbackTermination component (shared with push-pull).
        self._termination = FeedbackTermination(k)
        self.forward_probability = float(forward_probability)

    @property
    def k(self) -> int:
        """Duplicate receptions after which a tile falls silent."""
        return self._termination.k

    def spec_params(self) -> dict[str, Any]:
        return {"k": self.k, "forward_probability": self.forward_probability}

    # ----------------------------------------------------------------- hooks

    def reset(self) -> None:
        self._termination.reset()

    def on_duplicate_received(
        self, tile_id: int, packet: "Packet", round_index: int
    ) -> None:
        del round_index
        self._termination.observe(tile_id, packet.key)

    def on_duplicates_batch(
        self,
        tile_ids: np.ndarray,
        sources: np.ndarray,
        message_ids: np.ndarray,
        round_index: int,
    ) -> None:
        del round_index
        self._termination.observe_batch(tile_ids, sources, message_ids)

    # ------------------------------------------------------------- decisions

    def is_silenced(self, tile_id: int, key: tuple[int, int]) -> bool:
        """Has `tile_id` written the death certificate for `key`?"""
        return self._termination.is_silenced(tile_id, key)

    def decisions(
        self,
        packet: "Packet",
        neighbors: tuple[int, ...],
        rng: np.random.Generator,
        *,
        tile_id: int,
        round_index: int,
        buffer_occupancy: int = 0,
        buffer_capacity: int | None = None,
    ) -> list[bool]:
        if self.is_silenced(tile_id, packet.key):
            return [False] * len(neighbors)
        p = self.forward_probability
        if p == 1.0:
            return [True] * len(neighbors)
        return (rng.random(len(neighbors)) < p).tolist()

    def decide_batch(self, batch: BatchDecisionView) -> np.ndarray:
        # Silenced (tile, message) rows get p = 0 (no draw, matching the
        # draw-free `decisions` early-out); live rows behave like Bernoulli.
        out = np.full(len(batch), self.forward_probability)
        silenced = self._termination.silenced_rows(
            batch.tile_ids, batch.sources, batch.message_ids
        )
        if silenced:
            out[silenced] = 0.0
        return out
