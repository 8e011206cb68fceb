"""Unit tests for the engine-backend subsystem around the fast engine.

The cross-backend *behavioral* contract lives in
``test_backends_equivalence.py`` (golden grid) and
``test_backend_properties.py`` (Hypothesis search); this module covers
the plumbing: name -> engine resolution, constructor dispatch, ``SimConfig``
validation and cache-token pinning, the fast backend's documented
feature rejections, its tile-view facade, and the topology TTL helpers
both backends share.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.packet import BROADCAST
from repro.core.protocol import StochasticProtocol
from repro.faults import FaultConfig
from repro.noc import Mesh2D, NocSimulator, SimConfig, Torus2D
from repro.noc.backends import (
    FAST_BACKEND,
    KNOWN_BACKENDS,
    OBJECT_BACKEND,
    engine_class,
)
from repro.noc.backends.fast import FastNocSimulator
from repro.noc.tile import IPCore, TileContext
from repro.noc.topology import (
    FullyConnected,
    RingTopology,
    StarTopology,
    Topology,
)
from repro.noc.trace import EventKind
from repro.policies import PolicySpec
from tests.twins import assert_twins, run_twins


def _mesh_config(**overrides) -> SimConfig:
    kwargs = dict(
        topology=Mesh2D(4, 4), protocol=StochasticProtocol(0.5)
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


class _Rumor(IPCore):
    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor")


# ------------------------------------------------------------------ registry


class TestRegistry:
    def test_known_backends(self) -> None:
        assert KNOWN_BACKENDS == (OBJECT_BACKEND, FAST_BACKEND)

    def test_resolve_object(self) -> None:
        assert engine_class(OBJECT_BACKEND) is NocSimulator

    def test_resolve_fast(self) -> None:
        assert engine_class(FAST_BACKEND) is FastNocSimulator

    def test_resolve_unknown_is_loud(self) -> None:
        with pytest.raises(ValueError, match="backend must be one of"):
            engine_class("warp")

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
    def _make(backend: str, observer=None) -> NocSimulator:
        sim = NocSimulator(
            Mesh2D(3, 3),
            StochasticProtocol(0.8),
            seed=7,
            backend=backend,
            observer=observer,
        )
        sim.mount(0, _Rumor())
        return sim

    @staticmethod
    def _saturated(sim: NocSimulator) -> bool:
        return len(sim.informed_tiles()) == 9

    def test_views_match_object_tiles(self) -> None:
        twins = run_twins(self._make, rounds=30, until=self._saturated)
        # The twins compare each view's buffer rows, in insertion order.
        assert_twins(twins)

        def facade(tile) -> tuple:
            return (
                tile.alive,
                tile.informed,
                tile.seen_keys,
                tile.delivered_keys,
                list(tile.send_buffer),
                tile.outgoing_packets(),
            )

        obj, fast = twins[0].sim, twins[1].sim
        for tid in obj.topology.tile_ids:
            assert facade(obj.tiles[tid]) == facade(fast.tiles[tid])

    def test_send_buffer_keys_match_packets(self) -> None:
        fast = self._make("fast")
        fast.run(30, until=self._saturated)
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
            sim = self._make(backend)
            sim.run(30, until=self._saturated)
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


def test_a_responder_without_a_link_back_does_not_answer() -> None:
    """Tile 0 can pull from 3 over the chord, but 3 has no link to 0: the
    request is lost rather than answered over a link that does not exist
    — on both backends, and on the fast one's batched pull."""

    def make(backend: str, observer) -> NocSimulator:
        config = SimConfig(
            _ChordRing(),
            PolicySpec.of("push_pull"),
            default_ttl=20,
            backend=backend,
        )
        sim = NocSimulator.from_config(config, seed=3, observer=observer)
        sim.mount(3, _Rumor())
        return sim

    twins = run_twins(
        make, rounds=20, until=lambda sim: False, runs=("object", "fast-traced")
    )
    assert_twins(twins)
    for twin in twins:
        links = {
            (event.tile, event.peer)
            for event in twin.events
            if event.kind is EventKind.TRANSMISSION
        }
        assert (3, 0) not in links, twin.name
    assert twins[0].result.stats.pull_responses > 0
    paths = twins[1].sim.engine_paths
    assert paths["pull.vectorized"] > 0 and paths["send.matrix"] > 0


# ---------------------------------------------------- decision matrix shape


@pytest.mark.parametrize("p_upset", [0.0, 0.2])
@pytest.mark.parametrize(
    ("matrix", "message"),
    [
        (lambda rows, width: np.ones((rows, width + 1)), "must return shape"),
        (lambda rows, width: np.full((rows, width), 0.5), "must be deterministic"),
    ],
    ids=["wrong-shape", "fractional"],
)
def test_malformed_decision_matrices_are_refused(matrix, message, p_upset) -> None:
    """A 2-D decide_batch answer must be (len(batch), max_degree) and 0/1."""
    config = SimConfig(
        Mesh2D(3, 3),
        PolicySpec.of("flood"),
        FaultConfig(p_upset=p_upset),
        backend=FAST_BACKEND,
    )
    sim = NocSimulator.from_config(config, seed=1)
    sim.mount(0, _Rumor())
    sim.policy.decide_batch = lambda batch: matrix(len(batch), batch.max_degree)
    with pytest.raises(ValueError, match=message):
        sim.run(5, until=lambda s: False)
