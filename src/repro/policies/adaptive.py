"""Congestion- and fault-adaptive forwarding.

Inspired by the adaptive fault-tolerant NoC routing literature
(arXiv:1811.11262): instead of one chip-wide *p*, every tile modulates
its forwarding probability from two purely local signals —

* **buffer occupancy** (congestion): a filling send-buffer means the
  neighborhood is saturated with traffic, so the tile throttles down and
  stops amplifying the storm;
* **observed dead-link drops** (faults): transmissions vanishing on a
  tile's output links mean part of its connectivity is gone, so the tile
  boosts *p* on the surviving links to restore path redundancy.

Both signals need no global knowledge, no routing tables and no extra
wires — exactly the on-chip constraints of the thesis — and the policy
degrades gracefully: with no faults and an empty buffer it behaves like
plain Bernoulli(p_base).
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.policies.base import (
    BatchDecisionView,
    ForwardingPolicy,
    register_policy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packet import Packet


@register_policy
class AdaptiveProbabilityPolicy(ForwardingPolicy):
    """Per-tile Bernoulli(p_eff) with locally adapted p_eff.

    For a tile with send-buffer occupancy ``b`` (capacity ``C``) and
    decayed dead-link drop score ``d``::

        occupancy = b / C                 (b / soft_capacity if unbounded)
        p_eff = clip(p_base * (1 - congestion_weight * occupancy)
                     + fault_boost * min(1, d),
                     p_min, p_max)

    Args:
        p_base: the fault-free, uncongested operating point.
        p_min / p_max: clamp range; p_min > 0 keeps every link usable so
            rumors cannot be throttled to death.
        congestion_weight: fractional reduction of p_base at a full
            buffer (0 disables congestion adaptation).
        fault_boost: additive probability boost at drop score >= 1
            (0 disables fault adaptation).
        drop_decay: per-round multiplicative decay of each tile's drop
            score — recent drops matter, ancient history fades.
        soft_capacity: occupancy normalisation for unbounded buffers.
    """

    kind = "adaptive"

    def __init__(
        self,
        p_base: float = 0.5,
        p_min: float = 0.1,
        p_max: float = 1.0,
        congestion_weight: float = 0.5,
        fault_boost: float = 0.4,
        drop_decay: float = 0.5,
        soft_capacity: int = 16,
    ) -> None:
        if not 0.0 < p_base <= 1.0:
            raise ValueError(f"p_base must be in (0, 1], got {p_base}")
        if not 0.0 < p_min <= p_max <= 1.0:
            raise ValueError(
                f"need 0 < p_min <= p_max <= 1, got p_min={p_min}, "
                f"p_max={p_max}"
            )
        if not 0.0 <= congestion_weight <= 1.0:
            raise ValueError(
                f"congestion_weight must be in [0, 1], got {congestion_weight}"
            )
        if fault_boost < 0.0:
            raise ValueError(f"fault_boost must be >= 0, got {fault_boost}")
        if not 0.0 <= drop_decay < 1.0:
            raise ValueError(
                f"drop_decay must be in [0, 1), got {drop_decay}"
            )
        if soft_capacity < 1:
            raise ValueError(f"soft_capacity must be >= 1, got {soft_capacity}")
        self.p_base = float(p_base)
        self.p_min = float(p_min)
        self.p_max = float(p_max)
        self.congestion_weight = float(congestion_weight)
        self.fault_boost = float(fault_boost)
        self.drop_decay = float(drop_decay)
        self.soft_capacity = int(soft_capacity)
        #: tile -> exponentially decayed count of dead-link drops.
        self._drop_score: dict[int, float] = defaultdict(float)

    def spec_params(self) -> dict[str, Any]:
        return {
            "p_base": self.p_base,
            "p_min": self.p_min,
            "p_max": self.p_max,
            "congestion_weight": self.congestion_weight,
            "fault_boost": self.fault_boost,
            "drop_decay": self.drop_decay,
            "soft_capacity": self.soft_capacity,
        }

    # ----------------------------------------------------------------- hooks

    def reset(self) -> None:
        self._drop_score.clear()

    def on_round_begin(self, round_index: int) -> None:
        if not self._drop_score:
            return
        decay = self.drop_decay
        faded = [tid for tid, score in self._drop_score.items()
                 if score * decay < 1e-6]
        for tile_id in self._drop_score:
            self._drop_score[tile_id] *= decay
        for tile_id in faded:
            del self._drop_score[tile_id]

    def on_dead_link(self, src: int, dst: int, round_index: int) -> None:
        del dst, round_index
        self._drop_score[src] += 1.0

    # ------------------------------------------------------------- decisions

    def drop_score(self, tile_id: int) -> float:
        """The tile's current (decayed) dead-link drop score."""
        return self._drop_score.get(tile_id, 0.0)

    def effective_probability(
        self, tile_id: int, buffer_occupancy: int, buffer_capacity: int | None
    ) -> float:
        """The adapted per-tile forwarding probability (see class doc)."""
        scale = (
            buffer_capacity
            if buffer_capacity is not None
            else self.soft_capacity
        )
        occupancy = min(1.0, buffer_occupancy / scale) if scale else 1.0
        p = self.p_base * (1.0 - self.congestion_weight * occupancy)
        p += self.fault_boost * min(1.0, self.drop_score(tile_id))
        return min(self.p_max, max(self.p_min, p))

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
        # p_eff is per (tile, round), not per port: compute once, then
        # draw the per-port coins as one block.
        p = self.effective_probability(
            tile_id, buffer_occupancy, buffer_capacity
        )
        if p >= 1.0:
            return [True] * len(neighbors)
        return (rng.random(len(neighbors)) < p).tolist()

    def decide_batch(self, batch: BatchDecisionView) -> np.ndarray:
        # p_eff is a pure function of the owning tile's occupancy and
        # drop score this round, so compute it once per distinct tile and
        # broadcast to that tile's rows.
        out = np.empty(len(batch))
        cache: dict[int, float] = {}
        capacity = batch.buffer_capacity
        for row, (tile_id, occupancy) in enumerate(
            zip(batch.tile_ids.tolist(), batch.buffer_occupancy.tolist())
        ):
            p = cache.get(tile_id)
            if p is None:
                p = self.effective_probability(tile_id, occupancy, capacity)
                cache[tile_id] = p
            out[row] = p
        return out
