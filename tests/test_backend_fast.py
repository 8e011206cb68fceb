"""Unit tests for the engine-backend subsystem around the fast engine.

The cross-backend *behavioral* contract lives in
``test_backends_equivalence.py`` (golden grid) and
``test_backend_properties.py`` (Hypothesis search); this module covers
the plumbing: the registry, constructor dispatch, ``SimConfig``
validation and cache-token pinning, the fast backend's documented
feature rejections, its tile-view facade, and the topology TTL helpers
both backends share.
"""

from __future__ import annotations

import math

import pytest

from repro.core.packet import BROADCAST
from repro.core.protocol import StochasticProtocol
from repro.faults import FaultConfig
from repro.noc import Mesh2D, NocSimulator, SimConfig, Torus2D
from repro.noc.backends import (
    FAST_BACKEND,
    KNOWN_BACKENDS,
    OBJECT_BACKEND,
    available_backends,
    resolve_backend,
)
from repro.noc.backends.fast import FastNocSimulator
from repro.noc.tile import IPCore, TileContext
from repro.noc.topology import (
    FullyConnected,
    RingTopology,
    StarTopology,
    Topology,
)
from repro.policies import PolicySpec


def _mesh_config(**overrides) -> SimConfig:
    kwargs = dict(
        topology=Mesh2D(4, 4), protocol=StochasticProtocol(0.5)
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


# ------------------------------------------------------------------ registry


class TestRegistry:
    def test_known_backends(self) -> None:
        assert KNOWN_BACKENDS == (OBJECT_BACKEND, FAST_BACKEND)
        assert set(available_backends()) >= {OBJECT_BACKEND, FAST_BACKEND}

    def test_resolve_object(self) -> None:
        assert resolve_backend(OBJECT_BACKEND) is NocSimulator

    def test_resolve_fast(self) -> None:
        assert resolve_backend(FAST_BACKEND) is FastNocSimulator

    def test_resolve_unknown_is_loud(self) -> None:
        with pytest.raises(ValueError, match="unknown engine backend"):
            resolve_backend("warp")

    def test_backend_name_attributes(self) -> None:
        assert NocSimulator.backend_name == OBJECT_BACKEND
        assert FastNocSimulator.backend_name == FAST_BACKEND


# ------------------------------------------------------------------ dispatch


class TestDispatch:
    def test_constructor_dispatches_on_backend_kwarg(self) -> None:
        sim = NocSimulator(
            Mesh2D(3, 3), StochasticProtocol(0.5), seed=0, backend="fast"
        )
        assert isinstance(sim, FastNocSimulator)
        assert sim.backend_name == FAST_BACKEND

    def test_constructor_defaults_to_object(self) -> None:
        sim = NocSimulator(Mesh2D(3, 3), StochasticProtocol(0.5), seed=0)
        assert type(sim) is NocSimulator
        assert sim.backend_name == OBJECT_BACKEND

    def test_from_config_dispatches_on_config_field(self) -> None:
        sim = NocSimulator.from_config(_mesh_config(backend="fast"), seed=0)
        assert isinstance(sim, FastNocSimulator)
        assert sim.config.backend == FAST_BACKEND

    def test_from_config_honors_field_over_receiver(self) -> None:
        # from_config builds whatever the config asks for, regardless of
        # the class it was invoked on — the field is the source of truth.
        sim = FastNocSimulator.from_config(
            _mesh_config(backend="object"), seed=0
        )
        assert type(sim) is NocSimulator
        sim = NocSimulator.from_config(_mesh_config(backend="fast"), seed=0)
        assert type(sim) is FastNocSimulator


# ------------------------------------------------------------------- config


class TestSimConfigBackendField:
    def test_validates_backend(self) -> None:
        with pytest.raises(ValueError, match="backend must be one of"):
            _mesh_config(backend="warp")

    def test_object_cache_token_is_legacy_pinned(self) -> None:
        # The object backend must not change existing cache tokens: its
        # describe() tuple carries no backend entry at all.
        described = _mesh_config(backend="object").describe()
        assert not any(
            isinstance(entry, tuple) and entry and entry[0] == "backend"
            for entry in described
        )

    def test_fast_cache_token_differs(self) -> None:
        obj = _mesh_config(backend="object")
        fast = _mesh_config(backend="fast")
        assert ("backend", "fast") in fast.describe()
        assert obj.cache_token() != fast.cache_token()


# -------------------------------------------------------------- rejections


class TestFastBackendRejections:
    def test_rejects_sigma_synchr(self) -> None:
        with pytest.raises(ValueError, match="sigma_synchr"):
            NocSimulator(
                Mesh2D(3, 3),
                StochasticProtocol(0.5),
                FaultConfig(sigma_synchr=0.1),
                seed=0,
                backend="fast",
            )

    def test_rejects_egress_limits(self) -> None:
        with pytest.raises(ValueError, match="egress"):
            NocSimulator(
                Mesh2D(3, 3),
                StochasticProtocol(0.5),
                seed=0,
                egress_limits={0: 1},
                backend="fast",
            )

    def test_rejects_bus_tiles(self) -> None:
        with pytest.raises(ValueError, match="bus"):
            NocSimulator(
                Mesh2D(3, 3),
                StochasticProtocol(0.5),
                seed=0,
                bus_tiles={0},
                backend="fast",
            )

    def test_object_backend_still_accepts_all_three(self) -> None:
        sim = NocSimulator(
            Mesh2D(3, 3),
            StochasticProtocol(0.5),
            FaultConfig(sigma_synchr=0.1),
            seed=0,
            egress_limits={0: 1},
            bus_tiles={4},
        )
        assert type(sim) is NocSimulator


# ---------------------------------------------------------------- tile view


class TestTileViewFacade:
    """The fast backend's tiles dict mirrors the object engine's surface."""

    @staticmethod
    def _saturated(backend: str) -> NocSimulator:
        from repro.core.packet import BROADCAST
        from repro.noc.tile import IPCore

        class Seed(IPCore):
            def on_start(self, ctx):
                ctx.send(BROADCAST, b"rumor")

        sim = NocSimulator(
            Mesh2D(3, 3), StochasticProtocol(0.8), seed=7, backend=backend
        )
        sim.mount(0, Seed())
        sim.run(30, until=lambda s: len(s.informed_tiles()) == 9)
        return sim

    def test_views_match_object_tiles(self) -> None:
        obj = self._saturated("object")
        fast = self._saturated("fast")
        for tid in obj.topology.tile_ids:
            tile_o, tile_f = obj.tiles[tid], fast.tiles[tid]
            assert tile_o.alive == tile_f.alive
            assert tile_o.informed == tile_f.informed
            assert set(tile_o.seen_keys) == set(tile_f.seen_keys)
            assert set(tile_o.delivered_keys) == set(tile_f.delivered_keys)
            # send_buffer maps packet key -> packet in insertion order.
            assert list(tile_o.send_buffer) == list(tile_f.send_buffer)
            assert [p.key for p in tile_o.send_buffer.values()] == [
                p.key for p in tile_f.send_buffer.values()
            ]

    def test_send_buffer_keys_match_packets(self) -> None:
        fast = self._saturated("fast")
        for tid in fast.topology.tile_ids:
            for key, packet in fast.tiles[tid].send_buffer.items():
                assert packet.key == key

    @pytest.mark.parametrize("backend", KNOWN_BACKENDS)
    def test_finished_simulator_is_freed_without_the_cycle_collector(
        self, backend: str
    ) -> None:
        """Views must not tie the simulator into a reference cycle: a
        sweep's finished runs (and their arrays) are released at once."""
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            sim = self._saturated(backend)
            gone = weakref.ref(sim)
            del sim
            assert gone() is None
        finally:
            gc.enable()


# -------------------------------------------------------------- ttl helpers


class TestTtlHelpers:
    """Satellite: closed-form TTL derivation on Topology."""

    @pytest.mark.parametrize(
        "topology",
        [
            Mesh2D(3, 5),
            Mesh2D(4, 4),
            Torus2D(3, 4),
            Torus2D(4, 4),
            FullyConnected(7),
            RingTopology(9),
            RingTopology(10),
            StarTopology(6),
        ],
        ids=repr,
    )
    def test_closed_form_matches_bfs(self, topology: Topology) -> None:
        assert topology.closed_form_diameter() == topology.diameter()

    def test_estimated_prefers_closed_form(self) -> None:
        # Huge ring: BFS would be quadratic, the closed form is O(1) and
        # exact where the sqrt estimate would be wildly off.
        ring = RingTopology(10_001)
        assert ring.estimated_diameter() == 5_000

    def test_default_ttl_bound_formula(self) -> None:
        mesh = Mesh2D(4, 4)
        expected = mesh.closed_form_diameter() + math.ceil(math.log2(16)) + 2
        assert mesh.default_ttl_bound() == expected

    @pytest.mark.parametrize("backend", KNOWN_BACKENDS)
    def test_engine_default_ttl_uses_bound(self, backend: str) -> None:
        topology = Mesh2D(4, 4)
        sim = NocSimulator(
            topology, StochasticProtocol(0.5), seed=0, backend=backend
        )
        assert sim.default_ttl == topology.default_ttl_bound()


# ---------------------------------------------------------- adjacency cache


class TestAdjacencyPrecompute:
    """Satellite: per-run adjacency resolved once at engine init."""

    @pytest.mark.parametrize("backend", KNOWN_BACKENDS)
    def test_neighbor_cache_matches_topology(self, backend: str) -> None:
        topology = Torus2D(4, 4)
        sim = NocSimulator(
            topology, StochasticProtocol(0.5), seed=0, backend=backend
        )
        assert sim._tile_ids == topology.tile_ids
        for tid in topology.tile_ids:
            assert sim._neighbors[tid] == topology.neighbors(tid)


# ------------------------------------------------------------ one-way links


class _ChordRing(Topology):
    """A 6-ring plus a chord 0 -> 3 that has no reverse link."""

    n_tiles = 6

    def neighbors(self, tile_id: int) -> tuple[int, ...]:
        self.validate_tile(tile_id)
        ring = ((tile_id - 1) % 6, (tile_id + 1) % 6)
        return ring + (3,) if tile_id == 0 else ring

    def position(self, tile_id: int) -> tuple[float, float]:
        return (float(tile_id), 0.0)


class _Rumor(IPCore):
    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor")


def test_pull_stays_scalar_where_a_response_has_no_port_back() -> None:
    """Tile 0 can pull from 3 over the chord, but 3 has no port to 0:
    the batched pull cannot address the response, so the phase runs the
    inherited per-tile loop — and still matches the object engine."""

    def run(backend: str):
        config = SimConfig(
            _ChordRing(),
            PolicySpec.of("push_pull"),
            default_ttl=20,
            backend=backend,
        )
        sim = NocSimulator.from_config(config, seed=3)
        sim.mount(3, _Rumor())
        return sim.run(20, until=lambda s: False), sim

    expected, _ = run(OBJECT_BACKEND)
    got, sim = run(FAST_BACKEND)
    assert got == expected and got.stats.pull_responses > 0
    assert sim.engine_paths["pull.vectorized"] == 0
    assert sim.engine_paths["pull.sequential"] > 0
    assert sim.engine_paths["send.matrix"] > 0


# ------------------------------------------------------- batched eviction


def test_batched_eviction_leaves_no_alt_packet_behind() -> None:
    """A copy evicted in the round it arrived must drop its alt packet.

    A CRC-8 lets escaped scrambles into buffers as alt packets; with one
    one slot per tile and twelve sources, rounds evict their own inserts.
    After every receive phase each alt packet belongs to a buffered slot.
    """
    from repro.crc import CRC8

    config = SimConfig(
        Mesh2D(6, 6),
        StochasticProtocol(0.7),
        FaultConfig(p_upset=0.8),
        default_ttl=30,
        buffer_capacity=1,
        crc=CRC8,
        backend=FAST_BACKEND,
    )
    sim = NocSimulator.from_config(config, seed=18)
    for tile in range(0, 36, 3):
        sim.mount(tile, _Rumor())
    receive = sim._receive_phase
    stale = []

    def checked(round_index: int) -> None:
        receive(round_index)
        stale.extend(k for k in sim._alt_packets if not sim._buffered[k])

    sim._receive_phase = checked
    result = sim.run(30, until=lambda s: False)
    assert result.stats.upsets_escaped > 0
    assert stale == []
    assert sim.engine_paths["receive.ordered"] == 0
