"""One twin comparator for every cross-backend test.

The fast backend may stand in for the object engine only because the
two runs are bit-identical.  :func:`run_twins` runs one configuration
once per named run; :func:`assert_twins` compares every run against the
first, the strongest way both runs allow.  A run names a backend and an
observer setup (:data:`RUNS`):

* ``object`` and ``fast-traced``: a :class:`MetricsCollector` and a
  :class:`TraceRecorder` behind one :class:`FanoutObserver`;
* ``fast``: a collector alone, which listens to no per-event hook, so
  the run takes the unobserved paths that campaigns run;
* ``fast-bare``: no observer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields

from repro.metrics import MetricsCollector
from repro.noc.trace import EventKind, FanoutObserver, TraceRecorder

#: run name -> (backend, collects metrics, records a trace)
RUNS = {
    "object": ("object", True, True),
    "fast": ("fast", True, False),
    "fast-traced": ("fast", True, True),
    "fast-bare": ("fast", False, False),
}

#: Every send and pull path emits these in the object engine's (row,
#: port) order; only the vectorised receive regroups a round's events.
SEND_KINDS = {
    EventKind.TRANSMISSION, EventKind.DEAD_LINK_DROP, EventKind.UPSET_INJECTED
}


@dataclass
class Twin:
    """One finished run, and what was observed of it."""

    name: str
    sim: object
    result: object
    buffers: list
    metrics: object
    events: list | None


def _rows(buffer) -> list:
    # An empty buffer skips the fast backend's per-tile ordering pass.
    if not len(buffer):
        return []
    return [(p.key, p.ttl, p.hop_count, p.codeword) for p in buffer.values()]


def _buffers(sim) -> list:
    """Every tile's buffered ``(key, ttl, hop_count, codeword)`` rows."""
    return [_rows(tile.send_buffer) for _, tile in sorted(sim.tiles.items())]


def run_twins(make, *, rounds, until=None, runs=("object", "fast", "fast-traced")):
    """Run a fresh ``make(backend, observer)`` simulator per entry of `runs`.

    `make` returns a mounted, scheduled simulator.  `until` (default:
    ``application_complete``) is wrapped so that every tile's buffer rows
    are snapshotted each round, and once more after the run: an escaped
    codeword passes its CRC like the message's own, so only the buffered
    packets show it, and only while buffered.
    """
    twins = []
    for name in runs:
        backend, collect, trace = RUNS[name]
        collector = MetricsCollector() if collect else None
        recorder = TraceRecorder() if trace else None
        sim = make(backend, FanoutObserver(collector, recorder) if trace else collector)
        buffers = []

        def snapshot(sim) -> bool:
            buffers.append(_buffers(sim))
            return until(sim) if until else sim.application_complete()

        result = sim.run(rounds, until=snapshot)
        buffers.append(_buffers(sim))
        metrics = collector.metrics() if collect else None
        events = recorder.events if trace else None
        twins.append(Twin(name, sim, result, buffers, metrics, events))
    return twins


def assert_twins(twins) -> None:
    """Assert every run in `twins` is indistinguishable from the first."""
    first, *rest = twins
    for twin in rest:
        _assert_pair(first, twin)


def _assert_fields(a, b, label: str) -> None:
    """Field by field first, so a mismatch names the field."""
    for field in fields(a):
        name = field.name
        assert getattr(a, name) == getattr(b, name), f"{label}.{name} diverged"
    assert a == b, label


def _event_ordered(twin: Twin) -> bool:
    paths = getattr(twin.sim, "engine_paths", None)
    return paths is None or paths["receive.vectorized"] == 0


def _assert_pair(a: Twin, b: Twin) -> None:
    pair = f"{b.name} vs {a.name}"
    # The whole generator state, PCG64's buffered half-word included.
    assert a.sim.rng.bit_generator.state == b.sim.rng.bit_generator.state, pair
    _assert_fields(a.result.stats, b.result.stats, f"{pair}: stats")
    assert a.result == b.result, pair
    assert a.result.energy_j.hex() == b.result.energy_j.hex(), pair
    assert set(a.sim.informed_tiles()) == set(b.sim.informed_tiles()), pair
    assert len(a.buffers) == len(b.buffers), pair
    for index, (rows_a, rows_b) in enumerate(zip(a.buffers, b.buffers)):
        assert rows_a == rows_b, f"{pair}: buffer rows diverged at snapshot {index}"
    if a.metrics is not None and b.metrics is not None:
        _assert_fields(a.metrics, b.metrics, f"{pair}: metrics")
    if a.events is None or b.events is None:
        return
    for kind in EventKind:
        assert [e for e in a.events if e.kind is kind] == [
            e for e in b.events if e.kind is kind
        ], f"{pair}: {kind.value} subsequence diverged"
    assert [e for e in a.events if e.kind in SEND_KINDS] == [
        e for e in b.events if e.kind in SEND_KINDS
    ], f"{pair}: send-phase events diverged"
    # TraceEvent carries its round: one Counter compares every round's
    # multiset at once.
    assert Counter(a.events) == Counter(b.events), pair
    if _event_ordered(a) and _event_ordered(b):
        assert a.events == b.events, f"{pair}: full trace diverged"
