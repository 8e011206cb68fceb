"""The network-on-chip substrate.

A NoC is a set of tiles placed on a topology and connected by point-to-point
links (thesis Fig 1-1).  This package provides the topologies, the tile
micro-architecture of Fig 3-5 (buffers on the four edges, CRC check on the
receive path, RND forwarding circuit on the send path), the link timing and
energy model, per-tile clock domains, and the round-stepped simulation
engine that runs a protocol + application combination to completion.
"""

from repro.noc.topology import (
    FullyConnected,
    Mesh2D,
    RingTopology,
    StarTopology,
    Topology,
    Torus2D,
)
from repro.noc.link import LinkModel
from repro.noc.clock import ClockDomain
from repro.noc.config import SimConfig
from repro.noc.tile import IPCore, Tile, TileState
from repro.noc.engine import NocSimulator, SimulationResult
from repro.noc.routing import XYRoutingProtocol
from repro.noc.stats import NetworkStats
from repro.noc.trace import Observer, TraceRecorder, render_spread

__all__ = [
    "Topology",
    "Mesh2D",
    "Torus2D",
    "FullyConnected",
    "RingTopology",
    "StarTopology",
    "LinkModel",
    "ClockDomain",
    "IPCore",
    "Tile",
    "TileState",
    "NocSimulator",
    "SimConfig",
    "SimulationResult",
    "XYRoutingProtocol",
    "NetworkStats",
    "Observer",
    "TraceRecorder",
    "render_spread",
]
