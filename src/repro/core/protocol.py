"""The stochastic forwarding protocol of thesis Fig 3-4.

Each gossip round, every tile presents every packet in its (deduplicated)
send-buffer to each of its output ports; a RND circuit then decides
independently, with probability *p*, whether the packet actually leaves on
that link (Fig 3-5).  Setting ``p = 1`` degenerates to deterministic
flooding, which is latency-optimal (hops = Manhattan distance) but maximally
wasteful in bandwidth and energy — the thesis' reference point.

Both are :class:`repro.policies.BernoulliPolicy` under their thesis names;
a :class:`repro.noc.config.SimConfig` stores and hashes them as themselves,
so their pre-policy cache tokens stay pinned.
"""

from __future__ import annotations

from repro.policies.bernoulli import BernoulliPolicy

__all__ = ["StochasticProtocol", "FloodingProtocol"]


class StochasticProtocol(BernoulliPolicy):
    """Bernoulli(p)-per-port forwarding.

    Args:
        forward_probability: the *p* of the thesis; each (packet, port)
            pair draws independently every round.
        name: label used in experiment tables.
    """

    def __init__(self, forward_probability: float, name: str | None = None) -> None:
        super().__init__(forward_probability)
        # Kept as given: the pinned cache tokens hash this exact value.
        self.forward_probability = forward_probability
        self._name = name or f"stochastic(p={forward_probability:g})"

    @property
    def name(self) -> str:
        return self._name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StochasticProtocol(p={self.forward_probability:g})"


class FloodingProtocol(StochasticProtocol):
    """The p = 1 deterministic special case (every port, every round)."""

    def __init__(self) -> None:
        super().__init__(1.0, name="flooding")
