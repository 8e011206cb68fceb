"""Which side of a link each fault axis acts on (``docs/faults.md``).

Each test pins one statement of the "Sender or receiver?" section from a
run's trace and counters, on the backend ``REPRO_BACKEND`` selects.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.packet import BROADCAST
from repro.core.protocol import FloodingProtocol
from repro.faults import CrashPlan, FaultConfig
from repro.noc import Mesh2D, NocSimulator, SimConfig
from repro.noc.tile import IPCore, TileContext
from repro.noc.trace import EventKind, TraceRecorder
from repro.policies import PolicySpec

ROUNDS = 8


class _Seed(IPCore):
    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor")


def _broadcast(backend: str, faults=FaultConfig(), crash_plan=None, policy=None):
    """A traced 3 x 3 broadcast from tile 0 (flooding unless `policy`)."""
    config = SimConfig(
        Mesh2D(3, 3),
        policy or FloodingProtocol(),
        faults,
        crash_plan=crash_plan,
        default_ttl=ROUNDS,
        backend=backend,
    )
    trace = TraceRecorder()
    sim = NocSimulator.from_config(config, seed=1, observer=trace)
    sim.mount(0, _Seed())
    result = sim.run(ROUNDS, until=lambda s: False)

    def events(kind: EventKind) -> list:
        return [e for e in trace.events if e.kind is kind]

    return sim, result.stats, events


def test_an_upset_is_drawn_per_copy(engine_backend) -> None:
    """One sender's copies in one round fail independently: a
    receiver-fault structure, not a sender fault."""
    _, stats, events = _broadcast(engine_backend, FaultConfig(p_upset=0.5))
    sent = Counter((e.round_index, e.tile) for e in events(EventKind.TRANSMISSION))
    upset = Counter(
        (e.round_index, e.tile) for e in events(EventKind.UPSET_INJECTED)
    )
    assert stats.upsets_injected == sum(upset.values()) > 0
    assert any(0 < upset[key] < count for key, count in sent.items())


def test_a_scrambled_copy_is_dropped_by_the_receivers_crc(engine_backend) -> None:
    """Each upset copy crosses its link (and is charged) and is dropped
    by the receiver's CRC check in the round it arrives."""
    _, stats, events = _broadcast(engine_backend, FaultConfig(p_upset=0.5))
    upsets = events(EventKind.UPSET_INJECTED)
    assert stats.upsets_escaped == 0
    arrived = Counter(
        (e.round_index + 1, e.peer, e.key)
        for e in upsets
        if e.round_index + 1 < ROUNDS
    )
    dropped = Counter(
        (e.round_index, e.tile, e.key) for e in events(EventKind.CRC_DROP)
    )
    assert arrived == dropped
    assert stats.transmissions_delivered == len(events(EventKind.TRANSMISSION))


def test_overflow_drops_an_arrival_at_the_receiver(engine_backend) -> None:
    """The sender transmitted (and paid for) the copy; the receiver's
    input buffer drops it, one draw per arrival."""
    _, stats, events = _broadcast(engine_backend, FaultConfig(p_overflow=0.5))
    arrivals = Counter(
        (e.round_index + 1, e.peer) for e in events(EventKind.TRANSMISSION)
    )
    drops = Counter((e.round_index, e.tile) for e in events(EventKind.OVERFLOW_DROP))
    assert stats.overflow_drops == sum(drops.values()) > 0
    assert all(drops[key] <= arrivals[key] for key in drops)
    assert stats.transmissions_delivered == sum(arrivals.values())


def test_a_crashed_tile_stops_sending_but_is_still_sent_to(engine_backend) -> None:
    """A crash silences the tile as a sender; its neighbors keep driving
    copies into it, which it drops as a receiver."""
    _, stats, events = _broadcast(
        engine_backend, crash_plan=CrashPlan(dead_tiles=frozenset({4}))
    )
    sent = events(EventKind.TRANSMISSION)
    assert not [e for e in sent if e.tile == 4]
    into = [e for e in sent if e.peer == 4 and e.round_index + 1 < ROUNDS]
    assert stats.dead_tile_drops == len(into) > 0


@pytest.mark.parametrize("backend", ["object", "fast"])
def test_a_copy_into_a_crashed_tile_is_a_dead_tile_drop(backend) -> None:
    """Every arrival draws the overflow Bernoulli, but a copy sent into a
    crashed tile is lost to the crash, never to the tile's buffer."""
    _, stats, events = _broadcast(
        backend,
        FaultConfig(p_overflow=0.5),
        crash_plan=CrashPlan(dead_tiles=frozenset({4})),
    )
    into = [
        e for e in events(EventKind.TRANSMISSION)
        if e.peer == 4 and e.round_index + 1 < ROUNDS
    ]
    assert stats.dead_tile_drops == len(into) == 14
    assert not [e for e in events(EventKind.OVERFLOW_DROP) if e.tile == 4]
    assert stats.overflow_drops > 0


def test_a_dead_link_swallows_the_copy_at_the_sender(engine_backend) -> None:
    """Nothing crosses a dead link: no transmission, no bits, no upset
    draw; the attempt is counted on the sender's side."""
    _, stats, events = _broadcast(
        engine_backend,
        FaultConfig(p_upset=0.5),
        crash_plan=CrashPlan(dead_links=frozenset({(0, 1)})),
    )
    dead = events(EventKind.DEAD_LINK_DROP)
    assert {(e.tile, e.peer) for e in dead} == {(0, 1)}
    assert stats.dead_link_drops == len(dead) > 0
    for kind in (EventKind.TRANSMISSION, EventKind.UPSET_INJECTED):
        assert not [e for e in events(kind) if (e.tile, e.peer) == (0, 1)]


def test_pull_requests_are_never_upset_but_responses_are(engine_backend) -> None:
    """A pull request is lost only to a dead link; each response copy is
    a transmission and draws its own upset like a push."""
    sim, stats, _ = _broadcast(
        engine_backend,
        FaultConfig(p_upset=1.0),
        policy=PolicySpec.of("push_pull"),
    )
    assert stats.pull_responses > 0
    assert stats.upsets_injected == stats.transmissions_delivered
    assert sim.informed_tiles() == [0]
