"""The observer-ordering contract between the two engine backends.

The fast backend's batched kernels fire observer hooks grouped by kind
within a phase, where the object engine interleaves them per event.
What both backends promise, on every send / receive path:

(a) each per-:class:`EventKind` subsequence of the trace is identical;
(b) each round's multiset of events is identical;
(c) the *full* event sequence is identical whenever the event-ordered
    receive path (``engine_paths["receive.ordered"]``) handled every
    receiving round — every send path, the pooled upset path included,
    emits in object order, so only the vectorised receive regroups events.

``docs/performance.md`` and the ``fast.py`` module docstring state this
contract; this module enforces it.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.packet import BROADCAST
from repro.core.protocol import StochasticProtocol
from repro.faults import FaultConfig
from repro.noc import Mesh2D, NocSimulator, SimConfig
from repro.noc.tile import IPCore, TileContext
from repro.noc.trace import EventKind, TraceRecorder
from repro.policies import PolicySpec

POLICIES = {
    "bernoulli": StochasticProtocol(0.6),
    "flood": PolicySpec.of("flood"),
    "push_pull": PolicySpec.of("push_pull"),
    "adaptive_route": PolicySpec.of("adaptive_route"),
}

BUFFERS = {
    "unbounded": {},
    "capacity2": {"buffer_capacity": 2},
    "slow_links": {"link_delays": {(1, 2): 2, (5, 6): 3, (6, 5): 2, (9, 13): 2}},
    # Not a buffer shape: `_trace` mounts an on_receive IP for this one.
    "receive_hook": {},
}

# Without overflow draws the vectorised receive has no draw to order
# and groups events by destination for the observer alone.
FAULTS = {
    "overflow": FaultConfig(p_upset=0.2, p_overflow=0.1),
    "no_overflow": FaultConfig(p_upset=0.2),
    "fault_free": FaultConfig(),
}

SEND_KINDS = {
    EventKind.TRANSMISSION,
    EventKind.DEAD_LINK_DROP,
    EventKind.UPSET_INJECTED,
}


class _Source(IPCore):
    """One broadcast, then a unicast across the mesh (so adaptive routing
    has a route to follow and buffers hold more than one message)."""

    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor")

    def on_round(self, ctx: TileContext) -> None:
        if ctx.round_index == 2:
            ctx.send(15, b"direct")


class _Listener(IPCore):
    """Overrides on_receive, which keeps every receive event-ordered."""

    def on_receive(self, ctx: TileContext, packet) -> None:
        del ctx, packet


def _trace(backend: str, policy: str, buffers: str, faults: str):
    config = SimConfig(
        Mesh2D(4, 4),
        POLICIES[policy],
        FAULTS[faults],
        default_ttl=10,
        backend=backend,
        **BUFFERS[buffers],
    )
    recorder = TraceRecorder()
    sim = NocSimulator.from_config(config, seed=5, observer=recorder)
    sim.mount(0, _Source())
    if buffers == "receive_hook":
        sim.mount(10, _Listener())
    sim.schedule_link_crash(2, (1, 5))
    sim.run(16, until=lambda s: False)
    return recorder.events, getattr(sim, "engine_paths", None)


@pytest.mark.parametrize("buffers", sorted(BUFFERS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_event_order_contract(policy: str, buffers: str) -> None:
    _assert_contract(policy, buffers, "overflow")


@pytest.mark.parametrize("buffers", sorted(BUFFERS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_event_order_contract_without_overflow(policy: str, buffers: str) -> None:
    _assert_contract(policy, buffers, "no_overflow")


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_draw_free_emit_keeps_object_order(policy: str) -> None:
    """Clause (c) on the batched sends: with the receive event-ordered,
    dead-link drops interleave with transmissions as in the object engine."""
    events_o, _ = _trace("object", policy, "receive_hook", "fault_free")
    events_f, paths = _trace("fast", policy, "receive_hook", "fault_free")
    assert EventKind.DEAD_LINK_DROP in {event.kind for event in events_o}
    assert paths["send.vectorized"] + paths["send.matrix"] > 0
    assert paths["receive.vectorized"] == 0
    assert events_o == events_f


def _assert_contract(policy: str, buffers: str, faults: str) -> None:
    events_o, _ = _trace("object", policy, buffers, faults)
    events_f, paths = _trace("fast", policy, buffers, faults)
    kinds_seen = {event.kind for event in events_o}
    assert {
        EventKind.TRANSMISSION,
        EventKind.DEAD_LINK_DROP,
        EventKind.UPSET_INJECTED,
        EventKind.CRC_DROP,
        EventKind.DELIVERY,
    } <= kinds_seen
    for kind in EventKind:
        assert [e for e in events_o if e.kind is kind] == [
            e for e in events_f if e.kind is kind
        ], f"{kind.value} subsequence diverged"
    # TraceEvent carries its round, so one Counter compares every
    # round's multiset at once.
    assert Counter(events_o) == Counter(events_f)
    assert paths["receive.ordered"] + paths["receive.vectorized"] > 0
    # Clause (c) on the send side: under upsets every send round runs
    # pooled or through the scalar walker, both in object order.
    assert paths["send.vectorized"] == 0
    assert [e for e in events_o if e.kind in SEND_KINDS] == [
        e for e in events_f if e.kind in SEND_KINDS
    ]
    if buffers == "receive_hook":
        # Clause (c) in full: an on_receive IP forces ordered receive.
        assert paths["receive.vectorized"] == 0
    if paths["receive.vectorized"] == 0:
        assert events_o == events_f
