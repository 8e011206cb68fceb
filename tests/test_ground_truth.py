"""Deterministic ground truth: flooding against a breadth-first search.

With ``FloodingProtocol`` (p = 1), no faults, unbounded retain buffers and
a TTL that outlives the round budget, a one-shot broadcast is fully
deterministic, so the engine's counters have closed forms in the BFS
distances ``d(v)`` from the source:

* the rumor reaches every tile at distance k in round k, so a run that
  stops at full coverage takes ``ecc(source)`` rounds;
* in round k every tile with ``d(v) <= k`` holds the rumor and floods all
  ``deg(v)`` ports, so ``transmissions_delivered`` is
  ``sum over k < ecc of sum over d(v) <= k of deg(v)``;
* every copy carries the same codeword, so bits and Eq. 3 energy are that
  count times the packet's size and the link's energy per bit;
* under a static crash map the informed set is exactly what the BFS
  reaches over live tiles and live directed links.

The BFS here is written independently of ``repro.noc``; only public
constructors are used.  Both engine backends must match it exactly.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from repro.core.packet import BROADCAST
from repro.core.protocol import FloodingProtocol
from repro.faults import CrashPlan
from repro.noc import Mesh2D, NocSimulator, Torus2D
from repro.noc.link import DEFAULT_LINK
from repro.noc.tile import IPCore, TileContext

BACKENDS = ("object", "fast")

TOPOLOGIES = [Mesh2D(side) for side in (2, 3, 4, 5, 8, 16)] + [
    Torus2D(side) for side in (3, 5, 8, 16)
]


def _sources(topology) -> list[int]:
    """A corner, the centre and the last tile (deduplicated on 2x2)."""
    side = topology.rows
    centre = topology.tile_at(side // 2, side // 2)
    return sorted({0, centre, topology.n_tiles - 1})


CASES = [
    pytest.param(topology, source, id=f"{topology!r}-src{source}")
    for topology in TOPOLOGIES
    for source in _sources(topology)
]


class _OneShot(IPCore):
    """Broadcasts one rumor in round 0 and keeps the packet it sent."""

    def __init__(self, ttl: int) -> None:
        self.ttl = ttl
        self.packet = None

    def on_start(self, ctx: TileContext) -> None:
        self.packet = ctx.send(BROADCAST, b"ground truth", ttl=self.ttl)

    @property
    def complete(self) -> bool:
        return self.packet is not None


def _bfs(topology, source: int, plan: CrashPlan = CrashPlan()) -> dict:
    """Hop distances from `source` over live tiles and live directed links."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        tile = frontier.popleft()
        for neighbor in topology.neighbors(tile):
            if (
                neighbor not in dist
                and neighbor not in plan.dead_tiles
                and (tile, neighbor) not in plan.dead_links
            ):
                dist[neighbor] = dist[tile] + 1
                frontier.append(neighbor)
    return dist


def _flood(topology, source: int, backend: str, rounds: int, until,
           crash_plan: CrashPlan | None = None):
    simulator = NocSimulator(
        topology,
        FloodingProtocol(),
        seed=0,
        default_ttl=rounds,
        crash_plan=crash_plan,
        backend=backend,
    )
    ip = _OneShot(ttl=rounds)
    simulator.mount(source, ip)
    return simulator, ip, simulator.run(rounds, until=until)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology, source", CASES)
def test_fault_free_flood_matches_bfs(topology, source: int, backend: str):
    dist = _bfs(topology, source)
    assert len(dist) == topology.n_tiles
    ecc = max(dist.values())
    budget = ecc + 4
    n = topology.n_tiles
    _, ip, result = _flood(
        topology, source, backend, budget,
        until=lambda sim: len(sim.informed_tiles()) == n,
    )
    stats = result.stats

    # (a) one BFS layer per round
    assert result.completed
    assert result.rounds == ecc

    # (b) every informed tile floods every port, every round
    expected = sum(
        topology.degree(v)
        for k in range(ecc)
        for v, d in dist.items()
        if d <= k
    )
    assert stats.transmissions_delivered == expected
    assert stats.transmissions_attempted == expected

    # (c) bits and Eq. 3 energy
    packet_bits = ip.packet.size_bits
    assert stats.bits_transmitted == expected * packet_bits
    assert math.isclose(
        result.energy_j,
        stats.bits_transmitted * DEFAULT_LINK.energy_per_bit_j,
        rel_tol=1e-12,
    )


def _crash_plan(topology, source: int) -> CrashPlan:
    """About 10 % dead tiles (never the source) and 20 % dead links."""
    pick = np.random.default_rng(1000 * topology.n_tiles + source)
    dead_tiles = frozenset(
        tile
        for tile in topology.tile_ids
        if tile != source and pick.random() < 0.1
    )
    dead_links = frozenset(
        link for link in topology.links if pick.random() < 0.2
    )
    return CrashPlan(dead_tiles=dead_tiles, dead_links=dead_links)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology, source", CASES)
def test_crashed_flood_reaches_the_bfs_set(topology, source: int, backend: str):
    plan = _crash_plan(topology, source)
    dist = _bfs(topology, source, plan)
    # application_complete holds from round 0 on, so run the whole budget.
    simulator, _, result = _flood(
        topology, source, backend, max(dist.values()) + 3,
        until=lambda sim: False,
        crash_plan=plan,
    )
    assert not result.completed
    assert set(simulator.informed_tiles()) == set(dist)
