"""MetricsCollector reads the engine's counters, not its events.

The collector overrides no per-event hook, so the fast backend never
replays events for it: each round's counters are differences of
``NetworkStats`` fields, and coverage / occupancy come from
``round_sample()``.  This file gates that design:

* counter equivalence — an observer that *does* count every event, run
  beside the collector, sees per round exactly the collector's counters,
  on both backends, over every fault axis;
* structure — a collector-only fast run builds no event packet, takes
  the unobserved run's paths, and ``observe.replay`` stays 0;
* the ``listens`` truth table;
* lifetime — the collector holds its simulator weakly.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.packet import BROADCAST
from repro.core.protocol import StochasticProtocol
from repro.faults import BurstUpsets, Composite, FaultConfig, LinkFlap
from repro.metrics import MetricsCollector
from repro.metrics.collector import COUNTER_FIELDS
from repro.noc import Mesh2D, NocSimulator, SimConfig, XYRoutingProtocol
from repro.noc.backends.fast import FastNocSimulator
from repro.noc.tile import IPCore, TileContext
from repro.noc.trace import (
    EVENT_HOOKS,
    FanoutObserver,
    Observer,
    TraceRecorder,
    listens,
)
from repro.policies import PolicySpec

BACKENDS = ("object", "fast")
ROUNDS = 24


class _Seed(IPCore):
    def __init__(self, destination: int = BROADCAST) -> None:
        self.destination = destination

    def on_start(self, ctx: TileContext) -> None:
        ctx.send(self.destination, b"rumor")


class _EventCounter(Observer):
    """Counts every per-event hook call, per round, under the names of
    the collector's counters.  Overriding all six forces the replay."""

    def __init__(self) -> None:
        self.rounds: list[dict[str, int]] = []
        self._round: dict[str, int] = {}

    def on_round_begin(self, round_index: int) -> None:
        self._round = dict.fromkeys(COUNTER_FIELDS, 0)

    def on_round_end(self, round_index: int) -> None:
        self.rounds.append(self._round)

    def on_transmission(self, round_index, src, dst, packet) -> None:
        self._round["transmissions"] += 1

    def on_delivery(self, round_index, tile, packet) -> None:
        self._round["deliveries"] += 1

    def on_dead_link_drop(self, round_index, src, dst) -> None:
        self._round["dead_link_drops"] += 1

    def on_overflow_drop(self, round_index, tile) -> None:
        self._round["overflow_drops"] += 1

    def on_crc_drop(self, round_index, tile, packet) -> None:
        self._round["crc_drops"] += 1

    def on_upset_injected(self, round_index, src, dst, packet) -> None:
        self._round["upsets_injected"] += 1


MESH = Mesh2D(6, 6)
CELLS = {
    "clean": {},
    "upset-vector": {"fault_config": FaultConfig(p_upset=0.3)},
    "upset-bit": {
        "fault_config": FaultConfig(p_upset=0.3, error_model="bit")
    },
    "overflow": {"fault_config": FaultConfig(p_overflow=0.2)},
    "bounded-retain": {"buffer_capacity": 2},
    "bounded-relay": {"buffer_capacity": 2, "buffer_mode": "relay"},
    "link-crashes": {
        "fault_config": FaultConfig(p_link=0.1),
        "protected_tiles": frozenset({0}),
        "link_crashes": ((2, (7, 8)), (3, (8, 7))),
    },
    "tile-crashes": {
        "fault_config": FaultConfig(p_tile=0.1),
        "protected_tiles": frozenset({0}),
        "tile_crashes": ((2, 14), (4, 21)),
    },
    "scenario": {
        "scenario": Composite.of(
            BurstUpsets(p_upset=0.3, start=2, duration=6),
            LinkFlap(mtbf_rounds=6.0, mttr_rounds=3.0, fraction=0.3),
        ),
    },
    "push-pull": {"protocol": PolicySpec.of("push_pull")},
    "push-pull-upset": {
        "protocol": PolicySpec.of("push_pull"),
        "fault_config": FaultConfig(p_upset=0.3),
    },
    "link-delays": {"link_delays": {(0, 1): 3, (7, 8): 2, (8, 7): 4}},
    "xy-routing": {"protocol": XYRoutingProtocol(MESH), "destination": 35},
}


def _run(backend: str, cell: str, observer=None):
    overrides = dict(CELLS[cell])
    destination = overrides.pop("destination", BROADCAST)
    link_crashes = overrides.pop("link_crashes", ())
    tile_crashes = overrides.pop("tile_crashes", ())
    config = SimConfig(
        MESH, StochasticProtocol(0.5), default_ttl=ROUNDS, backend=backend
    ).with_(**overrides)
    sim = NocSimulator.from_config(config, seed=3, observer=observer)
    sim.mount(0, _Seed(destination))
    for round_index, link in link_crashes:
        sim.schedule_link_crash(round_index, link)
    for round_index, tile in tile_crashes:
        sim.schedule_tile_crash(round_index, tile)
    result = sim.run(ROUNDS, until=lambda s: False)
    return sim, result


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_collector_counters_equal_counted_events(backend, cell) -> None:
    counter, collector = _EventCounter(), MetricsCollector()
    _, result = _run(backend, cell, FanoutObserver(counter, collector))
    samples = collector.metrics().samples
    assert len(samples) == len(counter.rounds) == result.rounds
    for sample, counted in zip(samples, counter.rounds):
        assert {name: getattr(sample, name) for name in COUNTER_FIELDS} == (
            counted
        ), sample.round_index
    # The cell exercises what it is named for.
    totals = {
        name: sum(r[name] for r in counter.rounds) for name in COUNTER_FIELDS
    }
    assert totals["transmissions"] > 0
    if "upset" in cell or cell == "scenario":
        assert totals["upsets_injected"] > 0 and totals["crc_drops"] > 0
    if cell == "overflow":
        assert totals["overflow_drops"] > 0
    if cell == "link-crashes":
        assert totals["dead_link_drops"] > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cell", ["clean", "upset-vector", "bounded-relay"])
def test_tracing_beside_the_collector_changes_no_metrics(backend, cell):
    alone = MetricsCollector()
    _run(backend, cell, alone)
    paired = MetricsCollector()
    _run(backend, cell, (TraceRecorder(), paired))
    assert paired.metrics().to_json() == alone.metrics().to_json()


# --------------------------------------------------------------- structure


@pytest.mark.parametrize("cell", ["clean", "overflow", "bounded-retain"])
def test_collector_only_run_replays_nothing(cell, monkeypatch) -> None:
    """A collector-only fast run is the unobserved run plus samples."""
    twin, twin_result = _run("fast", cell)

    def refuse(*args, **kwargs):
        raise AssertionError("event packet built for a collector-only run")

    with monkeypatch.context() as patch:
        patch.setattr(FastNocSimulator, "_event_packet", refuse)
        collector = MetricsCollector()
        sim, result = _run("fast", cell, collector)
    assert repr(result) == repr(twin_result)
    assert sim.engine_paths == twin.engine_paths
    assert sim.engine_paths["observe.replay"] == 0
    assert len(collector.metrics().samples) == result.rounds

    traced, traced_result = _run("fast", cell, TraceRecorder())
    assert repr(traced_result) == repr(twin_result)
    assert traced.engine_paths["observe.replay"] == traced_result.rounds > 0


class _RoundsOnly(Observer):
    def on_round_end(self, round_index: int) -> None:
        pass


class _OneEvent(Observer):
    def on_crc_drop(self, round_index, tile, packet) -> None:
        pass


@pytest.mark.parametrize(
    ("observer", "expected"),
    [
        (None, False),
        (Observer(), False),
        (MetricsCollector(), False),
        (FanoutObserver(MetricsCollector(), MetricsCollector()), False),
        (_RoundsOnly(), False),
        (TraceRecorder(), True),
        (_OneEvent(), True),
        (FanoutObserver(MetricsCollector(), TraceRecorder()), True),
        (FanoutObserver(FanoutObserver(_OneEvent())), True),
    ],
    ids=[
        "none", "base", "collector", "fanout-collectors", "round-hook-only",
        "trace", "one-event-hook", "fanout-with-trace", "nested-fanout",
    ],
)
def test_listens_truth_table(observer, expected) -> None:
    assert listens(observer) is expected


def test_event_hooks_are_the_observer_event_vocabulary() -> None:
    hooks = {name for name in vars(Observer) if name.startswith("on_")}
    assert hooks - set(EVENT_HOOKS) == {
        "on_bind", "on_round_begin", "on_round_end"
    }


# ---------------------------------------------------------------- lifetime


@pytest.mark.parametrize("backend", BACKENDS)
def test_collector_does_not_keep_the_simulator_alive(backend) -> None:
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        collector = MetricsCollector()
        config = SimConfig(
            Mesh2D(8, 8), StochasticProtocol(0.5), default_ttl=ROUNDS,
            backend=backend,
        )
        sim = NocSimulator.from_config(config, seed=1, observer=collector)
        sim.mount(0, _Seed())
        sim.run(ROUNDS, until=lambda s: False)
        gone = weakref.ref(sim)
        del sim
        assert gone() is None
    finally:
        if enabled:
            gc.enable()
    metrics = collector.metrics()
    assert metrics.n_tiles == 64
    assert len(metrics.samples) == ROUNDS
    assert metrics.samples[-1].informed_tiles == 64
