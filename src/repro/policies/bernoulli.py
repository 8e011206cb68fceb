"""Bernoulli(p) and flooding policies — the thesis' own forwarding rules.

:class:`BernoulliPolicy` is the extracted §3.2.2 behaviour (one
independent coin per (packet, port) pair per round) and remains the
engine's semantic default; :class:`FloodPolicy` is the deterministic
``p = 1`` reference point, kept draw-free so a flooding run consumes no
RND bits at all.

The thesis-named :class:`repro.core.protocol.StochasticProtocol` is a
:class:`BernoulliPolicy` subclass, so both run this one draw code: one
vectorised ``rng.random(n_ports)`` per packet for ``p < 1``, no draw for
``p = 1``.  numpy's ``Generator.random(n)`` consumes exactly the stream
of ``n`` scalar ``random()`` calls, so the block is one coin per port,
drawn in port order.
"""

from __future__ import annotations

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
class BernoulliPolicy(ForwardingPolicy):
    """Memoryless Bernoulli(p)-per-port forwarding (thesis §3.2.2).

    Args:
        forward_probability: the *p* of the thesis; each (packet, port)
            pair draws independently every round.
    """

    kind = "bernoulli"

    def __init__(self, forward_probability: float = 0.5) -> None:
        if not 0.0 < forward_probability <= 1.0:
            raise ValueError(
                "forward_probability must be in (0, 1], got "
                f"{forward_probability}"
            )
        self.forward_probability = float(forward_probability)

    def spec_params(self) -> dict[str, Any]:
        return {"forward_probability": self.forward_probability}

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
        p = self.forward_probability
        if p == 1.0:
            return [True] * len(neighbors)
        return (rng.random(len(neighbors)) < p).tolist()

    def decide_batch(self, batch: BatchDecisionView) -> np.ndarray:
        # Memoryless: every row forwards with the same p, as a float.
        return np.full(len(batch), self.forward_probability, dtype=float)


@register_policy
class FloodPolicy(ForwardingPolicy):
    """Deterministic flooding: every packet, every port, every round.

    Latency-optimal (hops = graph distance) and maximally wasteful in
    bandwidth and energy — the reference point every smarter policy is
    measured against.  Never touches the RNG.
    """

    kind = "flood"

    def __init__(self) -> None:  # parameterless, spec is just the kind
        pass

    #: kept for API parity with the stochastic protocols.
    forward_probability = 1.0

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
        return [True] * len(neighbors)

    def decide_batch(self, batch: BatchDecisionView) -> np.ndarray:
        # Deterministic transmit everywhere; p = 1 rows never draw.
        return np.ones(len(batch))
