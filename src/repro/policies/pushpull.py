"""Push-pull rumor spreading (Doerr et al., arXiv:1209.6158).

The paper's Bernoulli gossip is a pure *push* protocol: informed tiles
offer every buffered packet to every output port each round.  The
rumor-spreading literature's robust optimum adds a *pull* half: every
uninformed tile also asks one uniformly random neighbor for the rumor
each round, so saturation accelerates from "informed frontier grows" to
"uninformed remainder shrinks" — the combination completes a broadcast
in Theta(log n) rounds with O(n log log n) messages, and stays robust to
adversarial node failures.

:class:`PushPullPolicy` maps that protocol onto the NoC engine:

* **push** — each round an informed tile forwards every buffered packet
  to ``fanout`` uniformly random neighbors (address-oblivious, like the
  paper's RND circuit, but one port instead of a coin per port);
* **pull** — each round an uninformed tile sends a small pull request
  (``pull_request_bits`` of priced control traffic) to one uniformly
  random neighbor; an informed neighbor answers with its buffered
  packets.  The engine runs this as a dedicated phase
  (:meth:`repro.noc.engine.NocSimulator._pull_phase`) gated on
  :attr:`~repro.policies.base.ForwardingPolicy.uses_pull`;
* **feedback termination** (optional) — with ``feedback_k`` set, a tile
  that has received ``k`` duplicate acknowledgements of a message stops
  *pushing* it (:class:`repro.policies.termination.FeedbackTermination`,
  the median-counter rule), while still answering pull requests: pulls
  are demand-driven, so serving them never wastes energy on a saturated
  neighborhood.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.policies.base import (
    BatchDecisionView,
    ForwardDecision,
    ForwardingPolicy,
    register_policy,
)
from repro.policies.sampling import sample_ports
from repro.policies.termination import FeedbackTermination

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packet import Packet


@register_policy
class PushPullPolicy(ForwardingPolicy):
    """Doerr-style push-pull rounds with optional feedback termination.

    Args:
        fanout: random neighbors each buffered packet is pushed to per
            round (1 = the classic protocol; the tile's full degree
            degenerates to flooding).
        feedback_k: duplicate acknowledgements after which a tile stops
            pushing a message (None disables termination — the push half
            then only stops at TTL expiry, like Bernoulli gossip).
        pull_request_bits: size of the pull-request control packet, in
            bits, priced through the Eq. 3 energy model.
    """

    kind = "push_pull"
    uses_pull = True

    def __init__(
        self,
        fanout: int = 1,
        feedback_k: int | None = None,
        pull_request_bits: int = 64,
    ) -> None:
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        if pull_request_bits < 0:
            raise ValueError(
                f"pull_request_bits must be >= 0, got {pull_request_bits}"
            )
        self.fanout = int(fanout)
        self.pull_request_bits = int(pull_request_bits)
        # FeedbackTermination validates k >= 1 itself.
        self._termination = (
            None if feedback_k is None else FeedbackTermination(feedback_k)
        )

    @property
    def feedback_k(self) -> int | None:
        """Duplicate acks silencing the push half (None = disabled)."""
        return None if self._termination is None else self._termination.k

    def spec_params(self) -> dict[str, Any]:
        return {
            "fanout": self.fanout,
            "feedback_k": self.feedback_k,
            "pull_request_bits": self.pull_request_bits,
        }

    # ----------------------------------------------------------------- hooks

    def reset(self) -> None:
        if self._termination is not None:
            self._termination.reset()

    def on_duplicate_received(
        self, tile_id: int, packet: "Packet", round_index: int
    ) -> None:
        del round_index
        if self._termination is not None:
            self._termination.observe(tile_id, packet.key)

    def on_duplicates_batch(
        self,
        tile_ids: np.ndarray,
        sources: np.ndarray,
        message_ids: np.ndarray,
        round_index: int,
    ) -> bool:
        del round_index
        if self._termination is not None:
            self._termination.observe_batch(tile_ids, sources, message_ids)
        return True

    def is_silenced(self, tile_id: int, key: tuple[int, int]) -> bool:
        """Has `tile_id` stopped pushing `key` (feedback termination)?"""
        return self._termination is not None and self._termination.is_silenced(
            tile_id, key
        )

    # ------------------------------------------------------------------ push

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
    ) -> list[ForwardDecision]:
        del round_index, buffer_occupancy, buffer_capacity
        n = len(neighbors)
        if self.is_silenced(tile_id, packet.key):
            # Death certificate written: no transmissions, and crucially
            # no RNG draw (keeps the stream backend-independent).
            return [
                ForwardDecision(port, neighbor, False)
                for port, neighbor in enumerate(neighbors)
            ]
        if self.fanout >= n:
            return [
                ForwardDecision(port, neighbor, True)
                for port, neighbor in enumerate(neighbors)
            ]
        picks = rng.choice(n, size=self.fanout, replace=False)
        chosen = set(picks.tolist())
        return [
            ForwardDecision(port, neighbor, port in chosen)
            for port, neighbor in enumerate(neighbors)
        ]

    def decide_batch(self, batch: BatchDecisionView) -> np.ndarray | None:
        if batch.rng is None:
            return None
        degrees = batch.degrees
        if self._termination is not None:
            # A silenced row pushes nowhere and draws nothing — exactly
            # what a row without ports does.
            degrees = degrees.copy()
            degrees[
                self._termination.silenced_rows(
                    batch.tile_ids, batch.sources, batch.message_ids
                )
            ] = 0
        return sample_ports(batch.rng, degrees, self.fanout, batch.max_degree)

    # ------------------------------------------------------------------ pull

    def pull_targets(
        self,
        tile_id: int,
        neighbors: tuple[int, ...],
        rng: np.random.Generator,
        *,
        round_index: int,
        informed: bool,
    ) -> tuple[int, ...]:
        del tile_id, round_index
        if informed or not neighbors:
            # Informed tiles never pull — and never draw, so the stream
            # stays identical across backends and buffer contents.
            return ()
        return (neighbors[int(rng.integers(len(neighbors)))],)

    def pull_ports_batch(
        self,
        tile_ids: np.ndarray,
        degrees: np.ndarray,
        informed: np.ndarray,
        rng: np.random.Generator,
        round_index: int,
    ) -> np.ndarray | None:
        del tile_ids, round_index
        # Informed tiles request nothing and draw nothing, like a tile
        # without ports.
        return sample_ports(
            rng, np.where(informed, 0, degrees), 1, int(degrees.max())
        )
