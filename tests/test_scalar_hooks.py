"""Policies with only scalar hooks, and the fast backend's one emit path.

Shipped policies reach the fast backend's per-row send and per-tile pull
only through push-pull under upsets; the two policies here reach them on
purpose: one that implements nothing but ``decide``, and one that also
pulls through ``pull_targets`` without a ``pull_ports_batch``.  Both run
on both backends over fault-free, upset (both error models), crash plus
slow-link and traced cells, and must agree bit for bit.

The structural test then forbids the object engine's per-transmission
methods on the fast backend: every send and pull round, declined batched
rounds and one-way links included, emits through
``_emit_transmit_matrix``.
"""

from __future__ import annotations

import pytest

from repro.core.packet import BROADCAST
from repro.faults import FaultConfig
from repro.noc import Mesh2D, NocSimulator, SimConfig
from repro.noc.tile import IPCore, TileContext
from repro.noc.trace import TraceRecorder
from repro.policies import POLICY_REGISTRY, PolicySpec, sampling
from repro.policies.base import ForwardingPolicy
from tests.test_backend_fast import _ChordRing, _Rumor
from tests.test_sampling import _digest


class _CoinPush(ForwardingPolicy):
    """A push rule with only ``decide``: one ``ctx.rng`` coin per port."""

    kind = "test_coin_push"

    def decide(self, packet, link, ctx) -> bool:
        del packet, link
        return bool(ctx.rng.random() < 0.45)


class _TargetPull(_CoinPush):
    """Pulls through ``pull_targets`` alone, from up to two neighbors in
    random (not port) order."""

    kind = "test_target_pull"
    uses_pull = True
    pull_request_bits = 48

    def pull_targets(
        self, tile_id, neighbors, rng, *, round_index, informed
    ) -> tuple[int, ...]:
        del tile_id, round_index
        if informed:
            return ()
        picks = rng.permutation(len(neighbors))[:2].tolist()
        return tuple(neighbors[port] for port in picks)


@pytest.fixture(autouse=True)
def _registered(monkeypatch) -> None:
    for cls in (_CoinPush, _TargetPull):
        monkeypatch.setitem(POLICY_REGISTRY, cls.kind, cls)


class _Source(IPCore):
    def __init__(self, payload: bytes) -> None:
        self.payload = payload

    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, self.payload)


CELLS = {
    "fault_free": (FaultConfig(), {}),
    "vector": (FaultConfig(p_upset=0.3), {}),
    "bit": (FaultConfig(p_upset=0.3, error_model="bit"), {}),
    "crashes_slow_links": (
        FaultConfig(p_link=0.15, p_upset=0.1),
        {"link_delays": {(1, 2): 2, (7, 13): 3, (14, 8): 2, (20, 21): 2}},
    ),
    "traced": (FaultConfig(p_upset=0.3), {}),
}


def _run(kind: str, cell: str, backend: str, seed: int):
    faults, extra = CELLS[cell]
    config = SimConfig(
        Mesh2D(5, 5),
        PolicySpec.of(kind),
        faults,
        default_ttl=12,
        backend=backend,
        **extra,
    )
    trace = TraceRecorder() if cell == "traced" else None
    sim = NocSimulator.from_config(config, seed=seed, observer=trace)
    # Two payload lengths, so corrupted codewords of unequal length share
    # a round.
    sim.mount(0, _Source(b"rumor"))
    sim.mount(24, _Source(b"a longer rumor"))
    result = sim.run(16, until=lambda s: False)
    # Per-kind subsequences: the vectorised receive regroups a round's
    # events by kind (tests/test_observer_ordering.py).
    events = (
        None if trace is None
        else sorted(trace.events, key=lambda event: event.kind.value)
    )
    digest = (result, result.energy_j.hex(), sim.rng.bit_generator.state)
    return digest + (events,), getattr(sim, "engine_paths", None)


@pytest.mark.parametrize("seed", [2, 11])
@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("kind", [_CoinPush.kind, _TargetPull.kind])
def test_scalar_only_policies_match_across_backends(kind, cell, seed) -> None:
    expected, _ = _run(kind, cell, "object", seed)
    got, paths = _run(kind, cell, "fast", seed)
    assert got == expected
    assert expected[0].stats.transmissions_delivered > 0
    assert paths["send.sequential"] > 0
    if kind == _TargetPull.kind:
        assert paths["pull.sequential"] > 0
        assert expected[0].stats.pull_responses > 0
    if cell == "traced":
        assert expected[-1]


# ------------------------------------------------------- one emit path


def _forbid_object_paths(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("the fast backend reached the object engine")

    monkeypatch.setattr(NocSimulator, "_transmit", refuse)
    monkeypatch.setattr(NocSimulator, "_pull_phase", refuse)


def _push_pull(backend: str, error_model: str):
    config = SimConfig(
        Mesh2D(6, 6),
        PolicySpec.of("push_pull", fanout=2),
        FaultConfig(p_upset=0.2, p_link=0.05, error_model=error_model),
        default_ttl=16,
        backend=backend,
    )
    sim = NocSimulator.from_config(config, seed=4)
    sim.mount(0, _Source(b"rumor"))
    sim.mount(35, _Source(b"a longer rumor"))
    result = sim.run(16, until=lambda s: False)
    return (result, sim.rng.bit_generator.state), sim


@pytest.mark.parametrize("error_model", ["vector", "bit"])
def test_push_pull_under_upsets_never_reaches_the_object_engine(
    error_model: str, monkeypatch
) -> None:
    expected, _ = _push_pull("object", error_model)
    _forbid_object_paths(monkeypatch)
    got, sim = _push_pull("fast", error_model)
    assert got == expected and expected[0].stats.upsets_injected > 0
    assert sim.engine_paths["send.sequential"] > 0
    assert sim.engine_paths["pull.sequential"] > 0


@pytest.mark.parametrize("declined", ["push", "pull"])
def test_declined_rounds_never_reach_the_object_engine(
    declined: str, monkeypatch
) -> None:
    expected, _ = _digest("object")
    _forbid_object_paths(monkeypatch)
    # fanout=2 push rows take three draws each, pull rows one.
    draws_per_row = 3 if declined == "push" else 1
    monkeypatch.setattr(
        sampling,
        "_rejected",
        lambda products, bounds: bounds.shape[1] == draws_per_row,
    )
    got, paths = _digest("fast")
    assert got == expected
    assert paths["send.sequential" if declined == "push" else "pull.sequential"]


@pytest.mark.parametrize("kind", [_CoinPush.kind, _TargetPull.kind])
def test_scalar_only_policies_never_reach_the_object_engine(
    kind: str, monkeypatch
) -> None:
    expected, _ = _run(kind, "vector", "object", 3)
    _forbid_object_paths(monkeypatch)
    got, _ = _run(kind, "vector", "fast", 3)
    assert got == expected


@pytest.mark.parametrize("p_upset", [0.0, 0.2])
def test_one_way_links_never_reach_the_object_engine(
    p_upset: float, monkeypatch
) -> None:
    def run(backend: str):
        config = SimConfig(
            _ChordRing(),
            PolicySpec.of("push_pull"),
            FaultConfig(p_upset=p_upset),
            default_ttl=20,
            backend=backend,
        )
        sim = NocSimulator.from_config(config, seed=3)
        sim.mount(3, _Rumor())
        return sim.run(20, until=lambda s: False), sim.rng.bit_generator.state

    expected = run("object")
    _forbid_object_paths(monkeypatch)
    assert run("fast") == expected
