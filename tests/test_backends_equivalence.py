"""Golden-trace equivalence gate: object engine vs the fast SoA backend.

Every cell in the grid below runs the *same* (seed, topology, policy,
fault scenario, workload) configuration through both registered engine
backends and asserts the runs are indistinguishable at every observable
surface:

* the :class:`~repro.noc.engine.SimulationResult` — completion flag,
  round count, wall-clock time, energy, and the full ``stats`` record
  including the ``per_round_*`` time series;
* the :class:`repro.metrics.RunMetrics` produced by a
  :class:`repro.metrics.MetricsCollector` observing the run — coverage,
  drop and energy per-round series and the event tallies behind them;
* the final informed set.

This is the contract that lets ``backend="fast"`` substitute for the
reference engine anywhere (experiments, sweeps, caches): not
statistically similar — bit-identical.  A cell failing here means the
fast backend consumed the RNG stream differently or reordered a
side-effect, and is a release blocker, not a flake.

See ``docs/performance.md`` for the stream-discipline rules the fast
backend follows to keep this gate green.
"""

from __future__ import annotations

from dataclasses import fields

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
from repro.metrics import MetricsCollector
from repro.noc import Mesh2D, NocSimulator, SimConfig, Torus2D
from repro.noc.backends import fast
from repro.noc.tile import IPCore, TileContext
from repro.noc.topology import FullyConnected, RingTopology
from repro.policies import PolicySpec

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


def _all_informed(sim: NocSimulator) -> bool:
    return len(sim.informed_tiles()) == sim.topology.n_tiles


def _run_one(backend: str, cell: dict):
    cfg = SimConfig(
        topology=cell["topology"],
        protocol=cell["protocol"],
        fault_config=cell.get("fault", FF),
        scenario=cell.get("scenario"),
        crash_plan=cell.get("crash_plan"),
        backend=backend,
        **cell.get("config", {}),
    )
    collector = MetricsCollector()
    sim = NocSimulator.from_config(cfg, seed=cell["seed"], observer=collector)
    for tile_id, ip in cell.get("mounts", ((0, _Seed()),)):
        sim.mount(tile_id, ip)
    for round_index, tile_id in cell.get("tile_crashes", ()):
        sim.schedule_tile_crash(round_index, tile_id)
    for round_index, link in cell.get("link_crashes", ()):
        sim.schedule_link_crash(round_index, link)
    result = sim.run(cell.get("max_rounds", MAX_ROUNDS), until=_all_informed)
    return result, collector.metrics(), frozenset(sim.informed_tiles())


def _assert_identical(cell: dict) -> None:
    # Mounted IPCore instances carry state, so each backend needs its own
    # copies: the cell stores mount *factories* and we realise them here.
    obj_cell = dict(cell, mounts=tuple(
        (tid, make()) for tid, make in cell.get("mounts", ((0, _Seed),))
    ))
    fast_cell = dict(cell, mounts=tuple(
        (tid, make()) for tid, make in cell.get("mounts", ((0, _Seed),))
    ))
    result_o, metrics_o, informed_o = _run_one("object", obj_cell)
    result_f, metrics_f, informed_f = _run_one("fast", fast_cell)

    # Field-by-field comparison first so a mismatch names the field.
    for field in fields(result_o.stats):
        assert getattr(result_o.stats, field.name) == getattr(
            result_f.stats, field.name
        ), f"stats.{field.name} diverged"
    assert result_o == result_f
    for field in fields(metrics_o):
        assert getattr(metrics_o, field.name) == getattr(
            metrics_f, field.name
        ), f"metrics.{field.name} diverged"
    assert metrics_o == metrics_f
    assert informed_o == informed_f


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
    # in buffers as alt packets, and eviction must drop those too.
    "capacity-upsets-crc8": dict(
        topology=Mesh2D(6, 6),
        protocol=StochasticProtocol(0.7),
        fault=FaultConfig(p_upset=0.8),
        config={"buffer_capacity": 2, "crc": CRC8},
        mounts=_sources(36, 12),
        seed=7,
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
    cell = GOLDEN_CELLS[name]
    if "mounts" not in cell:
        cell = dict(cell, mounts=((0, _Seed),))
    _assert_identical(cell)


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("name", sorted(GOLDEN_CELLS))
def test_golden_cell_bit_identical_at_small_pool_chunks(
    name: str, chunk: int, monkeypatch
) -> None:
    """The same grid with a pool refill inside almost every row.

    At the default block size these <= 4x4 grids almost never cross a
    refill boundary; a block of 1 is shorter than one row's ports and a
    block of 3 splits rows unevenly.
    """
    monkeypatch.setattr(fast, "_POOL_CHUNK", chunk)
    test_golden_cell_bit_identical(name)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_seed_sweep_bit_identical(seed: int) -> None:
    """Extra seeds on the most draw-hungry cell (all fault axes at once)."""
    _assert_identical(
        dict(
            topology=Mesh2D(4, 4),
            protocol=StochasticProtocol(0.7),
            fault=FaultConfig(p_upset=0.05, p_overflow=0.05, p_link=0.1),
            mounts=((0, _Seed),),
            seed=seed,
        )
    )
