"""Policies with only scalar hooks, and the fast backend's one emit path.

Shipped policies reach the fast backend's per-row send and per-tile pull
only through push-pull under upsets; the two policies here reach them on
purpose: one that implements nothing but ``decisions``, and one that also
pulls through ``pull_targets`` without a ``pull_ports_batch``.  Both run
on both backends over fault-free, upset (both error models) and crash
plus slow-link cells, traced, and must agree bit for bit
(:func:`tests.twins.assert_twins`).

The structural test then forbids the object engine's per-transmission
methods on the fast backend: every send and pull round, declined batched
rounds and one-way links included, emits through
``_emit_transmit_matrix``.  Push-pull's batched halves are sampled by
``repro.policies.sampling.sample_ports``, whose numpy canary is
``tests/test_sampling.py``.
"""

from __future__ import annotations

import pytest

from repro.core.packet import BROADCAST
from repro.faults import FaultConfig
from repro.noc import Mesh2D, NocSimulator, SimConfig
from repro.noc.tile import IPCore, TileContext
from repro.noc.trace import EventKind
from repro.policies import POLICY_REGISTRY, PolicySpec, sampling
from repro.policies.base import ForwardingPolicy
from tests.test_backend_fast import _ChordRing
from tests.twins import assert_twins, run_twins


class _CoinPush(ForwardingPolicy):
    """A push rule with only ``decisions``: one scalar coin per port."""

    kind = "test_coin_push"

    def decisions(self, packet, neighbors, rng, **_) -> list[bool]:
        del packet
        return [bool(rng.random() < 0.45) for _ in neighbors]


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


def _maker(topology, policy, faults, seed: int, sources: dict, **extra):
    """A `run_twins` factory; `sources` maps tile -> broadcast payload."""

    def make(backend: str, observer) -> NocSimulator:
        config = SimConfig(topology, policy, faults, backend=backend, **extra)
        sim = NocSimulator.from_config(config, seed=seed, observer=observer)
        for tile, payload in sources.items():
            sim.mount(tile, _Source(payload))
        return sim

    return make


def _never(sim) -> bool:
    return False


CELLS = {
    "fault_free": (FaultConfig(), {}),
    "vector": (FaultConfig(p_upset=0.3), {}),
    "bit": (FaultConfig(p_upset=0.3, error_model="bit"), {}),
    "crashes_slow_links": (
        FaultConfig(p_link=0.15, p_upset=0.1),
        {"link_delays": {(1, 2): 2, (7, 13): 3, (14, 8): 2, (20, 21): 2}},
    ),
    # Every cell is traced by its twins; this one also asserts that the
    # trace is not empty.
    "traced": (FaultConfig(p_upset=0.3), {}),
}


def _cell(kind: str, cell: str, seed: int):
    faults, extra = CELLS[cell]
    # Two payload lengths, so corrupted codewords of unequal length share
    # a round.
    return _maker(
        Mesh2D(5, 5), PolicySpec.of(kind), faults, seed,
        {0: b"rumor", 24: b"a longer rumor"}, default_ttl=12, **extra,
    )


@pytest.mark.parametrize("seed", [2, 11])
@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("kind", [_CoinPush.kind, _TargetPull.kind])
def test_scalar_only_policies_match_across_backends(kind, cell, seed) -> None:
    twins = run_twins(_cell(kind, cell, seed), rounds=16, until=_never)
    assert_twins(twins)
    stats, paths = twins[0].result.stats, twins[1].sim.engine_paths
    assert stats.transmissions_delivered > 0
    assert paths["send.sequential"] > 0
    if kind == _TargetPull.kind:
        assert paths["pull.sequential"] > 0
        assert stats.pull_responses > 0
    if cell == "traced":
        assert twins[0].events


# ------------------------------------------------------- one emit path


def _object_then_fast(make, rounds: int, monkeypatch) -> list:
    """Twins whose fast runs may not call the object engine's
    per-transmission methods."""
    twins = run_twins(make, rounds=rounds, until=_never, runs=("object",))

    def refuse(*args, **kwargs):
        raise AssertionError("the fast backend reached the object engine")

    monkeypatch.setattr(NocSimulator, "_transmit", refuse)
    monkeypatch.setattr(NocSimulator, "_pull_phase", refuse)
    twins += run_twins(
        make, rounds=rounds, until=_never, runs=("fast", "fast-traced")
    )
    assert_twins(twins)
    return twins


@pytest.mark.parametrize("error_model", ["vector", "bit"])
def test_push_pull_under_upsets_never_reaches_the_object_engine(
    error_model: str, monkeypatch
) -> None:
    make = _maker(
        Mesh2D(6, 6), PolicySpec.of("push_pull", fanout=2),
        FaultConfig(p_upset=0.2, p_link=0.05, error_model=error_model),
        4, {0: b"rumor", 35: b"a longer rumor"}, default_ttl=16,
    )
    obj, fast, _ = _object_then_fast(make, 16, monkeypatch)
    assert obj.result.stats.upsets_injected > 0
    assert fast.sim.engine_paths["send.sequential"] > 0
    assert fast.sim.engine_paths["pull.sequential"] > 0


@pytest.mark.parametrize("declined", ["push", "pull"])
def test_declined_rounds_never_reach_the_object_engine(
    declined: str, monkeypatch
) -> None:
    """A round whose push declines while its pull batches (the batched
    responses must arrive after the per-row push's copies), and the
    reverse."""
    make = _maker(
        Mesh2D(6, 6), PolicySpec.of("push_pull", fanout=2), FaultConfig(),
        9, {0: b"rumor", 35: b"rumor"}, default_ttl=24,
    )
    # fanout=2 push rows take three draws each, pull rows one.  Only the
    # fast backend's batched hooks sample through `_rejected`.
    draws_per_row = 3 if declined == "push" else 1
    monkeypatch.setattr(
        sampling, "_rejected", lambda _, bounds: bounds.shape[1] == draws_per_row
    )
    _, fast, _ = _object_then_fast(make, 24, monkeypatch)
    scalar, batched = (
        ("send.sequential", "pull.vectorized")
        if declined == "push"
        else ("pull.sequential", "send.matrix")
    )
    assert fast.sim.engine_paths[scalar] > 4
    assert fast.sim.engine_paths[batched] > 4


@pytest.mark.parametrize("kind", [_CoinPush.kind, _TargetPull.kind])
def test_scalar_only_policies_never_reach_the_object_engine(
    kind: str, monkeypatch
) -> None:
    _object_then_fast(_cell(kind, "vector", 3), 16, monkeypatch)


@pytest.mark.parametrize("p_upset", [0.0, 0.2])
def test_one_way_links_never_reach_the_object_engine(
    p_upset: float, monkeypatch
) -> None:
    """Tile 0 can pull from 3 over the chord, but 3 has no link to 0: the
    request is lost rather than answered over a link that does not exist
    — on both backends, and on the fast one's batched pull."""
    make = _maker(
        _ChordRing(), PolicySpec.of("push_pull"), FaultConfig(p_upset=p_upset),
        3, {3: b"rumor"}, default_ttl=20,
    )
    obj, fast, _ = _object_then_fast(make, 20, monkeypatch)
    assert obj.result.stats.pull_responses > 0
    assert (3, 0) not in {
        (event.tile, event.peer)
        for event in obj.events
        if event.kind is EventKind.TRANSMISSION
    }
    if p_upset == 0.0:
        assert fast.sim.engine_paths["pull.vectorized"] > 0
        assert fast.sim.engine_paths["send.matrix"] > 0
