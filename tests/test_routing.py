"""Tests for the deterministic XY-routing baseline and grid-spread study."""

import numpy as np
import pytest

from repro.core.packet import BROADCAST, Packet
from repro.core.protocol import StochasticProtocol
from repro.experiments import grid_spread
from repro.faults import CrashPlan
from repro.noc import Mesh2D, NocSimulator, XYRoutingProtocol
from tests.test_engine import OneShotProducer, Sink
from tests.twins import assert_twins, run_twins


class TestNextHop:
    def test_x_first(self):
        proto = XYRoutingProtocol(Mesh2D(4, 4))
        # From (0,0) to (3,3): move along the row first.
        assert proto.next_hop(0, 15) == 1

    def test_then_y(self):
        proto = XYRoutingProtocol(Mesh2D(4, 4))
        # Column already matches: move along the column.
        assert proto.next_hop(3, 15) == 7

    def test_at_destination(self):
        proto = XYRoutingProtocol(Mesh2D(4, 4))
        assert proto.next_hop(9, 9) is None

    def test_route_length_is_manhattan(self):
        mesh = Mesh2D(5, 5)
        proto = XYRoutingProtocol(mesh)
        for src in range(25):
            for dst in range(25):
                path = proto.route(src, dst)
                assert len(path) - 1 == mesh.manhattan_distance(src, dst)
                # Consecutive hops are mesh neighbors.
                for a, b in zip(path, path[1:]):
                    assert b in mesh.neighbors(a)

    def test_route_deterministic(self):
        proto = XYRoutingProtocol(Mesh2D(4, 4))
        assert proto.route(0, 15) == proto.route(0, 15)


class TestDecide:
    def test_single_port_transmits(self):
        mesh = Mesh2D(4, 4)
        proto = XYRoutingProtocol(mesh)
        packet = Packet.create(0, 15, 0, b"x", ttl=8)
        rng = np.random.default_rng(0)
        neighbors = mesh.neighbors(0)
        mask = proto.decisions(
            packet, neighbors, rng, tile_id=0, round_index=0
        )
        transmitted = [n for n, sent in zip(neighbors, mask) if sent]
        assert transmitted == [1]

    def test_broadcast_floods(self):
        mesh = Mesh2D(4, 4)
        proto = XYRoutingProtocol(mesh)
        packet = Packet.create(5, BROADCAST, 0, b"x", ttl=8)
        rng = np.random.default_rng(0)
        mask = proto.decisions(
            packet, mesh.neighbors(5), rng, tile_id=5, round_index=0
        )
        assert mask == [True] * len(mesh.neighbors(5))

    def test_requires_tile_id(self):
        proto = XYRoutingProtocol(Mesh2D(4, 4))
        packet = Packet.create(0, 15, 0, b"x", ttl=8)
        with pytest.raises(TypeError, match="tile_id"):
            proto.decisions(
                packet, (1, 4), np.random.default_rng(0), round_index=0
            )


#: §1's fragility cells: clean, a dead tile and a dead link on the XY
#: path 0 -> 15, and a dead tile off it.
FRAGILITY_PLANS = {
    "clean": None,
    "dead-tile-on-path": CrashPlan(dead_tiles=frozenset({3})),
    "dead-link-on-path": CrashPlan(dead_links=frozenset({(1, 2)})),
    "dead-tile-off-path": CrashPlan(dead_tiles=frozenset({5})),
}
RULES = {
    "xy": lambda: XYRoutingProtocol(Mesh2D(4, 4)),
    "gossip": lambda: StochasticProtocol(0.5),
}


class TestFragility:
    """§1's claim: one fault on the static path is fatal; gossip survives."""

    def _sim(self, protocol, crash_plan=None, seed=0, **engine):
        sim = NocSimulator(
            Mesh2D(4, 4), protocol, seed=seed, crash_plan=crash_plan, **engine
        )
        sim.mount(0, OneShotProducer(15))
        sim.mount(15, Sink())
        return sim

    def _run(self, protocol, crash_plan=None, seed=0):
        return self._sim(protocol, crash_plan, seed).run(100)

    def test_clean_delivery_optimal(self):
        result = self._run(XYRoutingProtocol(Mesh2D(4, 4)))
        assert result.completed
        assert result.rounds == 6  # exactly the Manhattan distance

    def test_xy_uses_far_fewer_transmissions_than_gossip(self):
        xy = self._run(XYRoutingProtocol(Mesh2D(4, 4)))
        gossip = self._run(StochasticProtocol(0.5))
        assert xy.stats.transmissions_delivered < gossip.stats.transmissions_delivered

    def test_single_path_fault_kills_xy_but_not_gossip(self):
        # Tile 3 is on the XY path 0 -> 15 (row 0 traverse).
        plan = CrashPlan(dead_tiles=frozenset({3}))
        xy = self._run(XYRoutingProtocol(Mesh2D(4, 4)), plan)
        assert not xy.completed
        gossip = self._run(StochasticProtocol(0.5), plan)
        assert gossip.completed

    def test_dead_link_on_path_kills_xy(self):
        plan = CrashPlan(dead_links=frozenset({(1, 2)}))
        xy = self._run(XYRoutingProtocol(Mesh2D(4, 4)), plan)
        assert not xy.completed

    def test_fault_off_path_harmless(self):
        # Tile 5 is not on the XY route 0 -> 15 (which hugs row 0 then
        # column 3).
        plan = CrashPlan(dead_tiles=frozenset({5}))
        xy = self._run(XYRoutingProtocol(Mesh2D(4, 4)), plan)
        assert xy.completed

    @pytest.mark.parametrize("plan", FRAGILITY_PLANS)
    @pytest.mark.parametrize("rule", RULES)
    def test_backends_agree(self, rule, plan):
        twins = run_twins(
            lambda backend, observer: self._sim(
                RULES[rule](), FRAGILITY_PLANS[plan], backend=backend,
                observer=observer,
            ),
            rounds=100,
        )
        assert_twins(twins)
        # XY's decide_batch matrix keeps it off the scalar send.
        assert twins[1].sim.engine_paths["send.sequential"] == 0


class TestGridSpread:
    def test_ordering(self):
        complete, torus, mesh = grid_spread.run(side=4, repetitions=3)
        # Connectivity strictly helps saturation speed.
        assert (
            complete.saturation_rounds_mean
            <= torus.saturation_rounds_mean
            <= mesh.saturation_rounds_mean
        )
        assert complete.completion_rate == 1.0
        assert mesh.completion_rate == 1.0

    def test_curves_monotone(self):
        measurement = grid_spread.measure_spread(
            Mesh2D(4, 4), repetitions=2, seed=3
        )
        curve = measurement.informed_curve
        assert curve[0] == 1.0
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert curve[-1] == 16.0

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_spread.measure_spread(Mesh2D(3, 3), repetitions=0)
