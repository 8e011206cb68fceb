"""``FastNocSimulator.engine_paths``: which path ran, and what it drew.

The counts are exact and repeat run to run, so the upset pool's
complexity claim — doubles pre-drawn grow with doubles consumed plus a
block per corruption, not with round budget x corruptions — is gated
here as arithmetic on counters rather than as a timing.
"""

from __future__ import annotations

import pytest

from repro.core.packet import BROADCAST
from repro.core.protocol import StochasticProtocol
from repro.faults import FaultConfig
from repro.metrics import MetricsCollector
from repro.noc import Mesh2D, NocSimulator, SimConfig
from repro.noc.backends import fast
from repro.noc.tile import IPCore, TileContext
from repro.policies import PolicySpec

SEND_PATHS = ("send.vectorized", "send.pooled", "send.matrix", "send.sequential")
RECEIVE_PATHS = ("receive.vectorized", "receive.ordered")
PULL_PATHS = ("pull.vectorized", "pull.sequential")


class _Seed(IPCore):
    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor")


def _broadcast(config: SimConfig, seed: int = 1, observer=None):
    sim = NocSimulator.from_config(config, seed=seed, observer=observer)
    sim.mount(0, _Seed())
    n = config.topology.n_tiles
    result = sim.run(
        config.default_ttl, until=lambda s: len(s.informed_tiles()) == n
    )
    return sim, result


def _upset_run():
    return _broadcast(
        SimConfig(
            Mesh2D(24, 24),
            StochasticProtocol(0.5),
            FaultConfig(p_upset=0.1),
            default_ttl=200,
            backend="fast",
        )
    )


def test_pool_draws_grow_with_consumption_not_with_corruptions() -> None:
    sim, result = _upset_run()
    paths = sim.engine_paths
    assert result.completed
    assert result.stats.upsets_injected > 1000
    # Every corruption re-anchors exactly once, and every round of a run
    # that stops at saturation sent through the pooled path.
    assert paths["pool.reanchors"] == result.stats.upsets_injected
    assert paths["send.pooled"] == result.rounds
    assert sum(paths[name] for name in SEND_PATHS) == paths["send.pooled"]
    # Each (re-)anchor opens a segment; a segment draws blocks of chunk,
    # 2*chunk, ... and refills only once short, so it pre-draws under
    # twice what it consumes plus one block.  Re-pooling the whole
    # round's budget per corruption read ~100x doubles_used here.
    segments = paths["pool.reanchors"] + paths["send.pooled"]
    used, drawn = paths["pool.doubles_used"], paths["pool.doubles_drawn"]
    assert used >= result.stats.transmissions_delivered
    slack = (fast._POOL_CHUNK + sim._max_deg) * segments
    assert used <= drawn <= 2 * used + slack


def test_engine_paths_repeat_exactly() -> None:
    assert _upset_run()[0].engine_paths == _upset_run()[0].engine_paths


@pytest.mark.parametrize(
    ("overrides", "send", "receive"),
    [
        ({}, "send.vectorized", "receive.vectorized"),
        # Bounded buffers evict in one batch (see the relay row below).
        ({"buffer_capacity": 2}, "send.vectorized", "receive.vectorized"),
        (
            # Under upsets every transmission draws between the picks:
            # push-pull's rounds stay on the scalar walker.
            {
                "protocol": PolicySpec("push_pull", {}),
                "fault_config": FaultConfig(p_upset=0.2),
            },
            "send.sequential",
            "receive.vectorized",
        ),
        (
            {"protocol": PolicySpec("adaptive_route", {})},
            "send.matrix",
            "receive.vectorized",
        ),
        (
            {"protocol": PolicySpec("push_pull", {})},
            "send.matrix",
            "receive.vectorized",
        ),
        (
            # Relay buffers dedup against the buffer itself, so a copy
            # evicted earlier in the round is inserted again: bounded relay
            # receives replay event by event.
            {"buffer_capacity": 2, "buffer_mode": "relay"},
            "send.vectorized",
            "receive.ordered",
        ),
    ],
)
def test_each_round_counts_on_the_path_that_ran(overrides, send, receive) -> None:
    config = SimConfig(
        Mesh2D(4, 4), StochasticProtocol(0.6), default_ttl=40, backend="fast"
    ).with_(**overrides)
    sim, result = _broadcast(config)
    paths = sim.engine_paths
    assert 0 < paths[send] <= result.rounds
    assert 0 < paths[receive] <= result.rounds
    assert sum(paths[name] for name in SEND_PATHS) == paths[send]
    assert sum(paths[name] for name in RECEIVE_PATHS) == paths[receive]
    assert paths["pool.doubles_drawn"] == paths["pool.reanchors"] == 0
    # The pull half runs batched exactly when the push half does.
    pull = {"send.matrix": "pull.vectorized", "send.sequential": "pull.sequential"}
    pulled = sum(paths[name] for name in PULL_PATHS)
    if sim.policy.uses_pull:
        assert 0 < paths[pull[send]] <= result.rounds
        assert pulled == paths[pull[send]]
    else:
        assert pulled == 0


@pytest.mark.parametrize("capacity", [1, 2, 4])
def test_bounded_buffers_receive_vectorized(capacity: int) -> None:
    """Upsets, overflow and eviction together stay off the ordered path."""
    config = SimConfig(
        Mesh2D(6, 6),
        StochasticProtocol(0.6),
        FaultConfig(p_upset=0.1, p_overflow=0.1),
        default_ttl=60,
        buffer_capacity=capacity,
        backend="fast",
    )
    sim, result = _broadcast(config)
    assert result.stats.upsets_injected > 0
    assert sim.engine_paths["receive.ordered"] == 0
    assert 0 < sim.engine_paths["receive.vectorized"] <= result.rounds


def test_engine_paths_is_an_attribute_not_a_result() -> None:
    """Digests over RunMetrics.to_json() and results are pinned elsewhere."""
    collector = MetricsCollector()
    config = SimConfig(
        Mesh2D(4, 4),
        StochasticProtocol(0.6),
        FaultConfig(p_upset=0.1),
        default_ttl=40,
        backend="fast",
    )
    sim, result = _broadcast(config, observer=collector)
    assert sim.engine_paths["send.pooled"] > 0
    for rendered in (
        collector.metrics().to_json(),
        repr(result),
        repr(config.describe()),
    ):
        assert "engine_paths" not in rendered
        assert "pool." not in rendered and "pull." not in rendered
