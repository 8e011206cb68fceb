"""The paper's primary contribution: on-chip stochastic communication.

This package contains the packet format, the gossip forwarding protocol of
thesis Fig 3-4 (with its flooding special case), the rumor-spreading theory
of §3.1, and helpers for tuning the latency/energy trade-off via the
forwarding probability *p* and the message TTL.
"""

from repro.core.analysis import (
    LatencyProfile,
    delivery_probability,
    latency_profile,
    minimum_ttl,
)
from repro.core.packet import BROADCAST, Packet, PacketFactory
from repro.core.protocol import FloodingProtocol, StochasticProtocol
from repro.core.theory import (
    deterministic_spread,
    expected_rounds_to_inform_all,
    recommended_ttl,
    rounds_until_informed,
    simulate_rumor_spread,
)

__all__ = [
    "BROADCAST",
    "Packet",
    "PacketFactory",
    "StochasticProtocol",
    "FloodingProtocol",
    "deterministic_spread",
    "expected_rounds_to_inform_all",
    "recommended_ttl",
    "rounds_until_informed",
    "simulate_rumor_spread",
    "delivery_probability",
    "minimum_ttl",
    "latency_profile",
    "LatencyProfile",
]
