"""Golden pins for the configurations only the object engine accepts.

``bus_tiles``, ``egress_limits`` and ``sigma_synchr > 0`` are refused by
``backend="fast"``, so the cross-backend gate in
``tests/test_backends_equivalence.py`` never sees them.  Each cell below
pins one seeded run as a sha256 over ``repr(result)``, both
``per_round_*`` series and the :class:`repro.metrics.MetricsCollector`
JSON.  The digests were recorded before the engine's link-crossing
sequence was factored into ``NocSimulator._transmit``; a refactor of the
object engine's send, bus-egress or pull code must leave them unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.packet import BROADCAST
from repro.core.protocol import StochasticProtocol
from repro.faults import CrashPlan, FaultConfig
from repro.metrics import MetricsCollector
from repro.noc import Mesh2D, NocSimulator, SimConfig
from repro.noc.tile import IPCore, TileContext
from repro.policies import PolicySpec

ROUNDS = 30


class _Talker(IPCore):
    """Broadcasts at round 0 and keeps originating for a few rounds, so
    buffers hold several packets and egress rotation has work to do."""

    def __init__(self, peer: int) -> None:
        self.peer = peer

    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor")

    def on_round(self, ctx: TileContext) -> None:
        if ctx.round_index in (1, 3):
            ctx.send(self.peer, bytes([ctx.round_index]))
        elif ctx.round_index == 5:
            ctx.send(BROADCAST, b"late")


BRIDGE = 5

CELLS = {
    "bus_bridge_upsets_dead_link": dict(
        config=SimConfig(
            Mesh2D(4, 4),
            StochasticProtocol(0.6),
            FaultConfig(p_upset=0.2),
            default_ttl=12,
            crash_plan=CrashPlan(dead_links=frozenset({(BRIDGE, 6)})),
            egress_limits={BRIDGE: 1},
            bus_tiles={BRIDGE},
            link_energy_overrides={(BRIDGE, 4): 9.0e-12, (BRIDGE, 9): 7.5e-12},
        ),
        seed=11,
        talkers=((0, 15), (BRIDGE, 10), (10, 0)),
        link_crashes=((4, (BRIDGE, 1)),),
        digest="e2a249364247efea5425870be18cf0d1726770bd4b63757f8d8b581778b45e8a",
    ),
    "egress_round_robin": dict(
        config=SimConfig(
            Mesh2D(4, 4),
            StochasticProtocol(0.7),
            FaultConfig(p_upset=0.05, p_overflow=0.05),
            default_ttl=12,
            egress_limits={BRIDGE: 2, 10: 1},
        ),
        seed=23,
        talkers=((0, 15), (BRIDGE, 12), (10, 3), (15, 0)),
        link_crashes=((3, (BRIDGE, 6)), (3, (10, 11)), (4, (0, 1))),
        digest="c156a68c0f4358637370519e3496e8ef7319559316024aa2b6b68e27afc09056",
    ),
    "gals_slow_links_upsets": dict(
        config=SimConfig(
            Mesh2D(4, 4),
            StochasticProtocol(0.6),
            FaultConfig(p_upset=0.15, sigma_synchr=0.3),
            default_ttl=14,
            link_delays={(1, 2): 2, (2, 1): 2, (5, 9): 3, (9, 5): 3, (6, 7): 2},
        ),
        seed=37,
        talkers=((0, 15), (9, 2)),
        link_crashes=((2, (0, 4)),),
        digest="f353ed379de02b16b466b6f67a6fa50535b610f18d5f26b950636314cbf5a810",
    ),
    "gals_push_pull": dict(
        config=SimConfig(
            Mesh2D(4, 4),
            PolicySpec.of("push_pull"),
            FaultConfig(p_upset=0.1, sigma_synchr=0.25),
            default_ttl=14,
            link_delays={(4, 5): 2, (5, 4): 2},
        ),
        seed=41,
        talkers=((0, 15),),
        link_crashes=((2, (1, 0)),),
        digest="8af2f9cd0bacc18c1f89fb3643023bae13a6ebdfd53e27e25945d99fbb9a1fc9",
    ),
    "bus_bridge_gals_overflow": dict(
        config=SimConfig(
            Mesh2D(4, 4),
            PolicySpec.of("flood"),
            FaultConfig(p_upset=0.1, p_overflow=0.1, sigma_synchr=0.2),
            default_ttl=10,
            egress_limits={BRIDGE: 2},
            bus_tiles={BRIDGE},
            link_delays={(BRIDGE, 6): 2},
        ),
        seed=53,
        talkers=((0, 15), (BRIDGE, 0)),
        link_crashes=((3, (BRIDGE, 9)),),
        digest="0183dce9907a297964326ad60c1f458d5b825a82dbabde50a06317be074d33cb",
    ),
}


def _digest(cell: dict) -> str:
    collector = MetricsCollector()
    sim = NocSimulator.from_config(
        cell["config"], seed=cell["seed"], observer=collector
    )
    for tile_id, peer in cell["talkers"]:
        sim.mount(tile_id, _Talker(peer))
    for round_index, link in cell["link_crashes"]:
        sim.schedule_link_crash(round_index, link)
    result = sim.run(ROUNDS, until=lambda s: False)
    stats = result.stats
    # The pins must bite: every cell transmits, upsets and loses traffic
    # on a dead link, so all three branches of the sequence are covered.
    assert stats.transmissions_delivered > 100
    assert stats.upsets_injected > 0
    assert stats.dead_link_drops > 0
    rendered = "\n".join(
        (
            repr(result),
            repr(sorted(stats.per_round_transmissions.items())),
            repr(sorted(stats.per_round_informed.items())),
            collector.metrics().to_json(),
        )
    )
    return hashlib.sha256(rendered.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_object_only_cell_matches_its_recorded_digest(name: str) -> None:
    assert _digest(CELLS[name]) == CELLS[name]["digest"]


def test_cells_are_refused_by_the_fast_backend() -> None:
    """Each cell really is object-only, i.e. invisible to the backend gate."""
    for cell in CELLS.values():
        with pytest.raises(ValueError, match="backend='fast'"):
            NocSimulator.from_config(
                cell["config"].with_(backend="fast"), seed=cell["seed"]
            )
