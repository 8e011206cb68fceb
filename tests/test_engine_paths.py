"""``FastNocSimulator.engine_paths``: which path ran, and what it drew.

The counts are exact and repeat run to run, so the upset send's
complexity claim — words drawn track words used, one block per round,
whatever the number of corruptions — is gated here as arithmetic on
counters rather than as a timing.
"""

from __future__ import annotations

import pytest

from repro.core.packet import BROADCAST
from repro.core.protocol import StochasticProtocol
from repro.faults import FaultConfig
from repro.metrics import MetricsCollector
from repro.noc import Mesh2D, NocSimulator, SimConfig, XYRoutingProtocol
from repro.noc.backends import words
from repro.noc.tile import IPCore, TileContext
from repro.policies import PolicySpec
from tests.twins import assert_twins, run_twins

SEND_PATHS = ("send.vectorized", "send.pooled", "send.matrix", "send.sequential")
RECEIVE_PATHS = ("receive.vectorized", "receive.ordered")
PULL_PATHS = ("pull.vectorized", "pull.sequential")


class _Seed(IPCore):
    def __init__(self, destination: int = BROADCAST) -> None:
        self.destination = destination

    def on_start(self, ctx: TileContext) -> None:
        ctx.send(self.destination, b"rumor")


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


def test_upset_words_drawn_track_words_used() -> None:
    sim, result = _upset_run()
    paths = sim.engine_paths
    assert result.completed
    assert result.stats.upsets_injected > 1000
    # Every corruption is one recorded on the word stream, and every round
    # of a run that stops at saturation sent through the upset walk.
    assert paths["upset.corruptions"] == result.stats.upsets_injected
    assert paths["send.pooled"] == result.rounds
    assert sum(paths[name] for name in SEND_PATHS) == paths["send.pooled"]
    # A round draws its expected words plus a block, and a refill draws
    # its shortfall plus a block: the overdraw is a block or two per
    # round, not a block per corruption.
    used, drawn = paths["upset.words_used"], paths["upset.words_drawn"]
    assert used >= result.stats.transmissions_delivered
    assert used <= drawn <= 1.1 * used + 2 * words.WORD_BLOCK * result.rounds


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
    assert paths["upset.words_drawn"] == paths["upset.corruptions"] == 0
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
        assert "upset." not in rendered and "pull." not in rendered


def test_decision_matrix_rounds_under_upsets_walk_the_word_stream() -> None:
    """0/1 decide_batch matrices under upsets: one walk, no scalar walker.

    Each corruption is read off the round's word stream, which also
    supplies every live transmission's upset double.
    """
    config = SimConfig(
        Mesh2D(6, 6),
        PolicySpec.of("adaptive_route"),
        FaultConfig(p_upset=0.2),
        default_ttl=40,
        backend="fast",
    )
    sim, result = _broadcast(config)
    paths, stats = sim.engine_paths, result.stats
    assert 0 < paths["send.matrix"] <= result.rounds
    assert sum(paths[name] for name in SEND_PATHS) == paths["send.matrix"]
    assert paths["upset.corruptions"] == stats.upsets_injected > 0
    assert paths["upset.words_used"] >= stats.transmissions_delivered


@pytest.mark.parametrize("p_upset", [0.0, 0.3])
@pytest.mark.parametrize(
    "destination", [15, 5, BROADCAST], ids=["unicast", "short", "broadcast"]
)
def test_xy_routing_sends_its_decision_matrix(destination, p_upset) -> None:
    """XY's decide_batch keeps every round off the scalar send, same run."""

    def make(backend: str, observer) -> NocSimulator:
        config = SimConfig(
            Mesh2D(4, 4),
            XYRoutingProtocol(Mesh2D(4, 4)),
            FaultConfig(p_upset=p_upset),
            default_ttl=12,
            backend=backend,
        )
        sim = NocSimulator.from_config(config, seed=4, observer=observer)
        sim.mount(0, _Seed(destination))
        return sim

    twins = run_twins(make, rounds=12, until=lambda s: False)
    assert_twins(twins)
    paths = twins[1].sim.engine_paths
    assert paths["send.sequential"] == 0
    assert paths["send.matrix"] > 0


def test_upset_send_makes_no_per_corruption_calls(monkeypatch) -> None:
    """Without an observer, corruptions are read off words and CRC-checked
    in batch: no error-model or scalar CRC call, and no Packet but the
    source's.  The CRC-8 leg lets about one scramble in 256 through, and
    those escaped copies cost no Packet either."""
    from repro.core.packet import Packet
    from repro.crc import CRC, CRC8, CRC16_CCITT
    from repro.faults.errors import RandomErrorVector

    def refuse(*args, **kwargs):
        raise AssertionError("per-corruption call on the upset send")

    built = []
    init = Packet.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    # The process's one self-check corrupts through the model itself.
    words.self_check()
    monkeypatch.setattr(RandomErrorVector, "corrupt", refuse)
    monkeypatch.setattr(CRC, "check", refuse)
    monkeypatch.setattr(Packet, "__init__", counting_init)
    for crc in (CRC16_CCITT, CRC8):
        built.clear()
        config = SimConfig(
            Mesh2D(8, 8),
            StochasticProtocol(0.6),
            FaultConfig(p_upset=0.5),
            default_ttl=40,
            crc=crc,
            backend="fast",
        )
        sim, result = _broadcast(config)
        stats = result.stats
        paths = sim.engine_paths
        assert paths["upset.corruptions"] == stats.upsets_injected > 100
        if crc is CRC8:
            assert stats.upsets_escaped > 0
            assert len(built) == 1
        else:
            # The source's own packet, then one per escaped copy at most.
            assert len(built) <= 1 + stats.upsets_escaped
