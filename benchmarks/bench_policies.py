"""Benchmark: the headline trade-off of the policy comparison sweep.

Counter gossip must spend measurably fewer transmissions than flooding
at equal (full) delivery, on a broadcast where every round re-offers
every buffered packet.
"""

from repro.core.packet import BROADCAST
from repro.noc.engine import NocSimulator
from repro.noc.tile import IPCore
from repro.noc.topology import Mesh2D
from repro.policies import CounterGossipPolicy, FloodPolicy

SIDE = 6
ROUNDS = 40
TTL = 40


class _Rumor(IPCore):
    def __init__(self, ttl: int = TTL) -> None:
        self.ttl = ttl

    def on_start(self, ctx) -> None:
        ctx.send(BROADCAST, b"rumor", ttl=self.ttl)


def _run_once(protocol, seed=3):
    sim = NocSimulator(
        Mesh2D(SIDE, SIDE), protocol, seed=seed, default_ttl=TTL
    )
    sim.mount(0, _Rumor())
    return sim.run(ROUNDS, until=lambda s: False)


def test_counter_gossip_saves_transmissions_vs_flooding(shape_report):
    flood = _run_once(FloodPolicy())
    counter = _run_once(CounterGossipPolicy(k=2))
    saved = 1 - (
        counter.stats.transmissions_attempted
        / flood.stats.transmissions_attempted
    )
    assert saved > 0.2, "counter gossip should cut transmissions by > 20%"
    shape_report["counter_vs_flood"] = {
        "flood_transmissions": flood.stats.transmissions_attempted,
        "counter_transmissions": counter.stats.transmissions_attempted,
        "saved": f"{saved:.0%}",
    }
