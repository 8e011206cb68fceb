"""Golden-trace equivalence gate: object engine vs the fast SoA backend.

Every cell in the grid below runs the *same* (seed, topology, policy,
fault scenario, workload) configuration on the object engine and on the
fast backend three times (with a collector only, traced, and with no
observer), and :func:`tests.twins.assert_twins` holds the runs
indistinguishable at every observable surface: the result and its
``stats`` series, ``energy_j``, the generator state, the informed set,
every tile's buffer rows each round, the collector's metrics and the
trace.

This is the contract that lets ``backend="fast"`` substitute for the
reference engine anywhere (experiments, sweeps, caches): not
statistically similar — bit-identical.  A cell failing here means the
fast backend consumed the RNG stream differently or reordered a
side-effect, and is a release blocker, not a flake.

See ``docs/performance.md`` for the stream-discipline rules the fast
backend follows to keep this gate green.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.packet import BROADCAST
from repro.core.protocol import StochasticProtocol
from repro.crc import CRC8
from repro.faults import (
    BurstUpsets,
    Composite,
    CrashPlan,
    FaultConfig,
    LinkFlap,
    RampOverflow,
    RegionOutage,
)
from repro.noc import Mesh2D, NocSimulator, SimConfig, Torus2D
from repro.noc.backends import words
from repro.noc.tile import IPCore, TileContext
from repro.noc.topology import FullyConnected, RingTopology
from repro.policies import PolicySpec
from tests.twins import assert_twins, run_twins

MAX_ROUNDS = 80

FF = FaultConfig.fault_free()


class _Seed(IPCore):
    """Broadcasts one rumor at round 0 (the thesis' §3.1 workload)."""

    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor")


class _MultiSeed(IPCore):
    """Staggered multi-message source: broadcast, then two unicasts."""

    def __init__(self, peer: int) -> None:
        self.peer = peer

    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"first")

    def on_round(self, ctx: TileContext) -> None:
        if ctx.round_index == 2:
            ctx.send(self.peer, b"second")
        elif ctx.round_index == 4:
            ctx.send(BROADCAST, b"third")


class _Responder(IPCore):
    """Replies to every delivery — exercises the per-event on_receive path."""

    def on_receive(self, ctx: TileContext, packet) -> None:
        if packet.payload != b"ack":
            ctx.send(packet.source, b"ack")


def _sources(n_tiles: int, count: int) -> tuple:
    """Mount factories for `count` broadcast sources spread over the grid."""
    step = n_tiles // count
    return tuple((tile, _Seed) for tile in range(0, step * count, step))


def _run(cell: dict, runs: tuple) -> list:
    def make(backend: str, observer) -> NocSimulator:
        cfg = SimConfig(
            topology=cell["topology"],
            protocol=cell["protocol"],
            fault_config=cell.get("fault", FF),
            scenario=cell.get("scenario"),
            crash_plan=cell.get("crash_plan"),
            backend=backend,
            **cell.get("config", {}),
        )
        sim = NocSimulator.from_config(cfg, seed=cell["seed"], observer=observer)
        # Mounted IPCore instances carry state, so the cell stores mount
        # *factories* and each run realises its own copies.
        for tile_id, make_ip in cell.get("mounts", ((0, _Seed),)):
            sim.mount(tile_id, make_ip())
        for round_index, tile_id in cell.get("tile_crashes", ()):
            sim.schedule_tile_crash(round_index, tile_id)
        for round_index, link in cell.get("link_crashes", ()):
            sim.schedule_link_crash(round_index, link)
        return sim

    return run_twins(
        make,
        rounds=MAX_ROUNDS,
        until=lambda s: len(s.informed_tiles()) == s.topology.n_tiles,
        runs=runs,
    )


@functools.cache
def _reference(name: str) -> list:
    """A golden cell's object run.  The object engine never reads the
    fast backend's word block, so a cell's three tests share it."""
    return _run(GOLDEN_CELLS[name], ("object",))


def _assert_identical(cell: dict, reference: list | None = None) -> None:
    reference = reference or _run(cell, ("object",))
    # Without an observer the fast backend keeps only the escaped upset
    # copies' codewords; nothing an observer sees may change the run.
    assert_twins(reference + _run(cell, ("fast", "fast-traced", "fast-bare")))


# One entry per golden cell: (name, cell dict).  Kept deliberately wide —
# every policy kind, every fault axis, every scenario kind, dynamic
# crashes, multi-message and reply workloads.
GOLDEN_CELLS = {
    "mesh-bernoulli": dict(
        topology=Mesh2D(4, 4), protocol=StochasticProtocol(0.5), seed=1
    ),
    "mesh-flood": dict(
        topology=Mesh2D(3, 5), protocol=StochasticProtocol(1.0), seed=2
    ),
    "fully-connected": dict(
        topology=FullyConnected(12), protocol=StochasticProtocol(0.3), seed=3
    ),
    "torus-policy-bernoulli": dict(
        topology=Torus2D(4, 4),
        protocol=PolicySpec("bernoulli", {"forward_probability": 0.6}),
        seed=1,
    ),
    "ring-counter": dict(
        topology=RingTopology(9),
        protocol=PolicySpec("counter", {"k": 2, "forward_probability": 0.8}),
        seed=2,
    ),
    "mesh-adaptive-faulty": dict(
        topology=Mesh2D(4, 4),
        protocol=PolicySpec("adaptive", {"p_base": 0.5}),
        fault=FaultConfig(p_tile=0.1, p_link=0.1),
        seed=3,
    ),
    "mesh-upsets": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.7),
        fault=FaultConfig(p_upset=0.05),
        seed=1,
    ),
    "mesh-overflow": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.7),
        fault=FaultConfig(p_overflow=0.1),
        seed=2,
    ),
    "mesh-all-fault-axes": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.7),
        fault=FaultConfig(p_tile=0.05, p_link=0.1, p_upset=0.03, p_overflow=0.05),
        seed=3,
    ),
    "mesh-capacity": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.6),
        config={"buffer_capacity": 2},
        seed=1,
    ),
    "mesh-relay": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.6),
        config={"buffer_mode": "relay"},
        seed=2,
    ),
    "mesh-relay-upset": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.6),
        fault=FaultConfig(p_upset=0.08),
        config={"buffer_mode": "relay"},
        seed=3,
    ),
    "mesh-link-delays": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.6),
        config={"link_delays": {(0, 1): 3, (5, 6): 2}},
        seed=1,
    ),
    "mesh-energy-overrides": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.6),
        config={"link_energy_overrides": {(0, 1): 2e-12}},
        seed=2,
    ),
    "mesh-protected-tiles": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.6),
        fault=FaultConfig(p_tile=0.3),
        config={"protected_tiles": frozenset({0, 5})},
        seed=3,
    ),
    "mesh-crash-plan": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.7),
        crash_plan=CrashPlan(
            dead_tiles=frozenset({6}), dead_links=frozenset({(1, 2), (9, 10)})
        ),
        seed=1,
    ),
    # ------------------------------------------ the upset draw pool's edges
    "mesh-upsets-bit-model": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.7),
        fault=FaultConfig(p_upset=0.1, error_model="bit"),
        seed=1,
    ),
    "mesh-upsets-heavy": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.7),
        fault=FaultConfig(p_upset=0.9),
        seed=2,
    ),
    "mesh-upsets-certain": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.7),
        fault=FaultConfig(p_upset=1.0),
        seed=3,
    ),
    "mesh-flood-upsets": dict(
        topology=Mesh2D(3, 5),
        protocol=StochasticProtocol(1.0),
        fault=FaultConfig(p_upset=0.2),
        seed=1,
    ),
    "mesh-link-delays-upsets": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.6),
        fault=FaultConfig(p_upset=0.1),
        config={"link_delays": {(0, 1): 3, (5, 6): 2, (4, 0): 4}},
        seed=2,
    ),
    # One round of this grid consumes several default-size pool blocks.
    "mesh-12x12-upsets": dict(
        topology=Mesh2D(12, 12),
        protocol=StochasticProtocol(0.5),
        fault=FaultConfig(p_upset=0.05),
        seed=3,
    ),
    # ------------------------------------- bounded buffers, batched eviction
    # Many sources: one round inserts more keys into a tile than it holds,
    # so the batch evicts some of that round's own inserts.
    "capacity1-many-sources": dict(
        topology=Mesh2D(6, 6),
        protocol=StochasticProtocol(0.6),
        config={"buffer_capacity": 1},
        mounts=_sources(36, 8),
        seed=1,
    ),
    "capacity2-many-sources": dict(
        topology=Mesh2D(6, 6),
        protocol=StochasticProtocol(0.6),
        config={"buffer_capacity": 2},
        mounts=_sources(36, 12),
        seed=2,
    ),
    "capacity4-many-sources": dict(
        topology=Mesh2D(6, 6),
        protocol=StochasticProtocol(0.7),
        config={"buffer_capacity": 4},
        mounts=_sources(36, 16),
        seed=3,
    ),
    # A CRC-8 lets about one scramble in 256 through: escaped copies sit
    # in buffers with their own codeword, and eviction must drop those too.
    "capacity-upsets-crc8": dict(
        topology=Mesh2D(6, 6),
        protocol=StochasticProtocol(0.7),
        fault=FaultConfig(p_upset=0.8),
        config={"buffer_capacity": 2, "crc": CRC8},
        mounts=_sources(36, 12),
        seed=7,
    ),
    # Escaped CRC-8 copies gossip with their own codeword, which each
    # path below carries as a column: delayed arrivals, relay buffers,
    # a crash of a tile holding escaped copies (tile 15 from round 2),
    # and push-pull, whose per-tile pull corrupts an escaped codeword.
    "crc8-escapes-link-delays": dict(
        topology=Mesh2D(5, 5),
        protocol=StochasticProtocol(0.7),
        fault=FaultConfig(p_upset=0.5),
        config={
            "crc": CRC8,
            "link_delays": {(0, 1): 3, (6, 7): 2, (7, 6): 4, (12, 13): 2},
        },
        mounts=_sources(25, 5),
        seed=7,
    ),
    # Relay re-inserts a slot every round it arrives: at this seed a slot
    # that held an escaped codeword is re-inserted with its own one.
    "crc8-escapes-relay": dict(
        topology=Mesh2D(5, 5),
        protocol=StochasticProtocol(0.9),
        fault=FaultConfig(p_upset=0.5),
        config={"crc": CRC8, "buffer_mode": "relay"},
        mounts=_sources(25, 5),
        seed=3,
    ),
    "crc8-escapes-tile-crash": dict(
        topology=Mesh2D(5, 5),
        protocol=StochasticProtocol(0.7),
        fault=FaultConfig(p_upset=0.5),
        config={"crc": CRC8},
        mounts=_sources(25, 5),
        tile_crashes=((3, 15), (5, 11)),
        seed=8,
    ),
    "crc8-escapes-pushpull": dict(
        topology=Mesh2D(5, 5),
        protocol=PolicySpec.of("push_pull", fanout=2),
        fault=FaultConfig(p_upset=0.5),
        config={"crc": CRC8},
        mounts=_sources(25, 5),
        seed=11,
    ),
    # Modelled buffers replace the overflow Bernoulli: nothing is drawn.
    "capacity-overflow": dict(
        topology=Mesh2D(6, 6),
        protocol=StochasticProtocol(0.6),
        fault=FaultConfig(p_overflow=0.2, p_upset=0.05),
        config={"buffer_capacity": 2},
        mounts=_sources(36, 8),
        seed=5,
    ),
    "relay-capacity": dict(
        topology=Mesh2D(6, 6),
        protocol=StochasticProtocol(0.6),
        fault=FaultConfig(p_upset=0.05),
        config={"buffer_mode": "relay", "buffer_capacity": 2},
        mounts=_sources(36, 8),
        seed=6,
    ),
    # ------------------------------------------- the pooled send's row kinds
    "pooled-flood-rows": dict(
        topology=Mesh2D(5, 5),
        protocol=PolicySpec("flood", {}),
        fault=FaultConfig(p_upset=0.15),
        crash_plan=CrashPlan(dead_links=frozenset({(6, 7), (12, 17)})),
        seed=1,
    ),
    # Tiles next to a dead link boost to p = 1 (flood rows) through
    # on_dead_link while the rest draw their ports.
    "pooled-adaptive-dead-links": dict(
        topology=Mesh2D(5, 5),
        protocol=PolicySpec(
            "adaptive",
            {"p_base": 0.7, "congestion_weight": 0.0, "fault_boost": 0.8},
        ),
        fault=FaultConfig(p_upset=0.1),
        crash_plan=CrashPlan(
            dead_links=frozenset({(6, 7), (7, 12), (12, 13), (18, 19)})
        ),
        link_crashes=((3, (2, 3)), (4, (16, 11))),
        seed=2,
    ),
    "pooled-delays": dict(
        topology=Mesh2D(5, 5),
        protocol=StochasticProtocol(0.6),
        fault=FaultConfig(p_upset=0.2),
        config={
            "link_delays": {(0, 1): 3, (6, 7): 2, (7, 6): 4, (12, 13): 2}
        },
        mounts=_sources(25, 5),
        seed=3,
    ),
    # ---------------------------------------------- dynamic fault scenarios
    "scenario-burst-upsets": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.7),
        scenario=BurstUpsets(p_upset=0.3, start=2, duration=6),
        seed=1,
    ),
    "scenario-ramp-overflow": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.7),
        scenario=RampOverflow(p_overflow_peak=0.5, start=1, ramp_rounds=6),
        seed=2,
    ),
    "scenario-link-flap": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.7),
        scenario=LinkFlap(mtbf_rounds=6.0, mttr_rounds=3.0, fraction=0.3),
        seed=3,
    ),
    "scenario-region-outage": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.8),
        scenario=RegionOutage(round_index=3, row=1, col=1, rows=2, cols=2),
        seed=1,
    ),
    "scenario-composite": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.8),
        scenario=Composite.of(
            BurstUpsets(p_upset=0.2, start=2, duration=4),
            LinkFlap(mtbf_rounds=8.0, mttr_rounds=4.0, fraction=0.2),
        ),
        seed=2,
    ),
    # ------------------------------------------------------ mid-run crashes
    "dynamic-tile-crashes": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.8),
        tile_crashes=((2, 5), (4, 10), (4, 11)),
        seed=1,
    ),
    "dynamic-link-crashes": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.8),
        link_crashes=((1, (0, 1)), (3, (5, 6)), (3, (6, 5))),
        seed=2,
    ),
    "dynamic-mixed-crashes-upsets": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.7),
        fault=FaultConfig(p_upset=0.05),
        tile_crashes=((3, 6),),
        link_crashes=((2, (1, 2)),),
        seed=3,
    ),
    # ------------------------------------------- push-pull, both halves
    # At p_upset == 0 the push picks and the pull targets are batched
    # (policies/sampling.py); every cell below has uninformed requesters.
    "pushpull-fanout1": dict(
        topology=Mesh2D(4, 4), protocol=PolicySpec.of("push_pull"), seed=1
    ),
    "pushpull-fanout2-torus": dict(
        topology=Torus2D(4, 4),
        protocol=PolicySpec.of("push_pull", fanout=2),
        seed=2,
    ),
    "pushpull-fanout3-feedback": dict(
        topology=Mesh2D(4, 4),
        protocol=PolicySpec.of("push_pull", fanout=3, feedback_k=2),
        seed=3,
    ),
    "pushpull-free-requests": dict(
        topology=Mesh2D(4, 4),
        protocol=PolicySpec.of("push_pull", pull_request_bits=0),
        seed=1,
    ),
    # Degree-1 requesters (the end tiles) draw nothing.
    "pushpull-line": dict(
        topology=Mesh2D(4, 1), protocol=PolicySpec.of("push_pull"), seed=2
    ),
    # Buffers longer than one: a response follows the responder's
    # insertion order (at this seed one differs from message order).
    "pushpull-three-sources": dict(
        topology=Mesh2D(4, 4),
        protocol=PolicySpec.of("push_pull"),
        mounts=((0, _Seed), (5, _Seed), (15, _Seed)),
        seed=23,
    ),
    "pushpull-crashes": dict(
        topology=Mesh2D(4, 4),
        protocol=PolicySpec.of("push_pull"),
        crash_plan=CrashPlan(dead_links=frozenset({(1, 2), (4, 0), (9, 10)})),
        link_crashes=((2, (5, 6)), (3, (6, 5))),
        tile_crashes=((3, 10),),
        seed=1,
    ),
    "pushpull-link-delays": dict(
        topology=Mesh2D(4, 4),
        protocol=PolicySpec.of("push_pull", fanout=2),
        config={"link_delays": {(0, 1): 3, (5, 6): 2, (4, 0): 4, (1, 0): 2}},
        seed=2,
    ),
    # Request energy interleaves with response energy, link by link.
    "pushpull-energy-overrides": dict(
        topology=Mesh2D(4, 4),
        protocol=PolicySpec.of("push_pull"),
        config={
            "link_energy_overrides": {
                (0, 1): 2e-12, (1, 0): 3.3e-13, (4, 0): 7e-13, (5, 4): 1.1e-12
            }
        },
        mounts=((0, _Seed), (15, _Seed)),
        seed=3,
    ),
    "pushpull-overflow": dict(
        topology=Mesh2D(4, 4),
        protocol=PolicySpec.of("push_pull", fanout=2),
        fault=FaultConfig(p_overflow=0.1),
        seed=1,
    ),
    "pushpull-capacity": dict(
        topology=Mesh2D(4, 4),
        protocol=PolicySpec.of("push_pull"),
        config={"buffer_capacity": 2},
        mounts=((0, _Seed), (5, _Seed), (15, _Seed)),
        seed=2,
    ),
    "pushpull-relay": dict(
        topology=Mesh2D(4, 4),
        protocol=PolicySpec.of("push_pull", fanout=2),
        config={"buffer_mode": "relay"},
        seed=3,
    ),
    # Under upsets both halves stay on the scalar paths.
    "pushpull-upsets": dict(
        topology=Mesh2D(4, 4),
        protocol=PolicySpec.of("push_pull", fanout=2),
        fault=FaultConfig(p_upset=0.2),
        seed=1,
    ),
    # ------------------------------- adaptive_route: 0/1 decision matrices
    "adaptive-route": dict(
        topology=Mesh2D(5, 5),
        protocol=PolicySpec.of("adaptive_route"),
        seed=1,
    ),
    # Under upsets the draw-free matrix rows scan only upset doubles.
    "adaptive-route-upsets": dict(
        topology=Mesh2D(5, 5),
        protocol=PolicySpec.of("adaptive_route"),
        fault=FaultConfig(p_upset=0.2),
        seed=2,
    ),
    # Dead links trigger detours: whole-row floods next to the failure.
    "adaptive-route-upsets-dead-links": dict(
        topology=Mesh2D(5, 5),
        protocol=PolicySpec.of("adaptive_route", detour_rounds=4),
        fault=FaultConfig(p_upset=0.1),
        crash_plan=CrashPlan(
            dead_links=frozenset({(6, 7), (7, 12), (12, 13), (18, 19)})
        ),
        seed=3,
    ),
    "adaptive-route-upsets-dead-links-no-detour": dict(
        topology=Mesh2D(5, 5),
        protocol=PolicySpec.of("adaptive_route", detour_rounds=0),
        fault=FaultConfig(p_upset=0.1),
        crash_plan=CrashPlan(
            dead_links=frozenset({(6, 7), (7, 12), (12, 13), (18, 19)})
        ),
        seed=4,
    ),
    "adaptive-route-upsets-delays": dict(
        topology=Mesh2D(5, 5),
        protocol=PolicySpec.of("adaptive_route"),
        fault=FaultConfig(p_upset=0.2),
        config={
            "link_delays": {(0, 1): 3, (6, 7): 2, (7, 6): 4, (12, 13): 2}
        },
        seed=5,
    ),
    # ----------------------------------------------------------- workloads
    "multi-message": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.6),
        mounts=((0, lambda: _MultiSeed(peer=15)), (15, _Seed)),
        seed=1,
    ),
    "on-receive-responder": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.6),
        mounts=((0, _Seed), (15, _Responder)),
        seed=2,
    ),
    "responder-under-upsets": dict(
        topology=Mesh2D(4, 4),
        protocol=StochasticProtocol(0.6),
        fault=FaultConfig(p_upset=0.05),
        mounts=((0, _Seed), (12, _Responder)),
        seed=3,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CELLS))
def test_golden_cell_bit_identical(name: str) -> None:
    _assert_identical(GOLDEN_CELLS[name], _reference(name))


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("name", sorted(GOLDEN_CELLS))
def test_golden_cell_bit_identical_at_small_pool_chunks(
    name: str, chunk: int, monkeypatch
) -> None:
    """The same grid with the upset send's word block cut to 1 or 3.

    Each round then draws its expected words plus 1 or 3 and refills
    whenever it runs short, so refill boundaries land inside decision
    windows, upset windows and corruption draws.
    """
    monkeypatch.setattr(words, "WORD_BLOCK", chunk)
    test_golden_cell_bit_identical(name)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_seed_sweep_bit_identical(seed: int) -> None:
    """Extra seeds on the most draw-hungry cell (all fault axes at once)."""
    _assert_identical(
        dict(
            topology=Mesh2D(4, 4),
            protocol=StochasticProtocol(0.7),
            fault=FaultConfig(p_upset=0.05, p_overflow=0.05, p_link=0.1),
            seed=seed,
        )
    )
