"""The metrics-collecting engine observer.

:class:`MetricsCollector` plugs into the engine's round-boundary hooks
(:mod:`repro.noc.trace`) and materialises a :class:`RunMetrics` time
series.  It listens to no per-event hook: each round's counters are
differences of the simulator's :class:`~repro.noc.stats.NetworkStats`
fields between ``on_round_begin`` and ``on_round_end``, which the engine
increments exactly where the matching event hook fires, and the network
state (coverage, buffer occupancy) comes from
:meth:`NocSimulator.round_sample`.  So the fast backend never replays
events for it.  Pass it as ``observer=`` — alone, or in a tuple next to
a :class:`repro.noc.trace.TraceRecorder` — and read
``collector.metrics()`` after the run::

    collector = MetricsCollector()
    sim = NocSimulator(Mesh2D(4, 4), StochasticProtocol(0.5),
                       seed=7, observer=collector)
    ...
    sim.run(100)
    print(collector.metrics().to_json())
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.metrics.records import RoundSample, RunMetrics
from repro.noc.trace import Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.engine import NocSimulator

#: RoundSample counter -> the NetworkStats field it is the per-round
#: difference of.
COUNTER_FIELDS = {
    "transmissions": "transmissions_delivered",
    "deliveries": "deliveries",
    "dead_link_drops": "dead_link_drops",
    "overflow_drops": "overflow_drops",
    "crc_drops": "upsets_detected",
    "upsets_injected": "upsets_injected",
}
_read_counters = attrgetter(*COUNTER_FIELDS.values())

_UNBOUND = (
    "MetricsCollector is not bound to a simulator; pass it as "
    "NocSimulator(observer=collector) so the engine binds it"
)


class MetricsCollector(Observer):
    """Records a :class:`RunMetrics` per-round time series from one run.

    Lifecycle: the engine calls :meth:`on_bind` once at construction
    (which also resets the collector, so an instance handed to a second
    simulator starts clean), :meth:`on_round_begin` notes the stats
    counters and :meth:`on_round_end` closes the round with their
    differences and a state sample.  The simulator is held weakly, so an
    observed run is freed like an unobserved one; :meth:`metrics` can be
    called at any time — mid-run it returns the series of the rounds
    completed so far, and after the simulator is gone the whole series.
    """

    def __init__(self) -> None:
        """Create an unbound collector (the engine binds it on adoption)."""
        self._simulator: "weakref.ref[NocSimulator] | None" = None
        self._n_tiles = 0
        self._samples: list[RoundSample] = []
        self._before: tuple[int, ...] = ()

    def _bound(self) -> "NocSimulator":
        simulator = None if self._simulator is None else self._simulator()
        if simulator is None:
            raise RuntimeError(_UNBOUND)
        return simulator

    # ------------------------------------------------------ lifecycle hooks

    def on_bind(self, simulator: "NocSimulator") -> None:
        """Adopt `simulator` and reset all recorded state."""
        self._simulator = weakref.ref(simulator)
        self._n_tiles = simulator.topology.n_tiles
        self._samples = []
        self._before = _read_counters(simulator.stats)

    def on_round_begin(self, round_index: int) -> None:
        """Open a round: note the stats counters it starts from."""
        self._before = _read_counters(self._bound().stats)

    def on_round_end(self, round_index: int) -> None:
        """Close a round: its counter differences and a state sample."""
        simulator = self._bound()
        stats = simulator.stats
        counters = zip(COUNTER_FIELDS, _read_counters(stats), self._before)
        informed, occupancy = simulator.round_sample()
        self._samples.append(
            RoundSample(
                round_index=round_index,
                informed_tiles=informed,
                energy_j=float(stats.energy_j),
                buffer_occupancy=occupancy,
                active_scenarios=tuple(
                    getattr(simulator, "active_scenario_phases", ())
                ),
                **{name: after - before for name, after, before in counters},
            )
        )

    # --------------------------------------------------------------- product

    def metrics(self) -> RunMetrics:
        """The recorded time series so far, as an immutable `RunMetrics`."""
        if self._simulator is None:
            raise RuntimeError(_UNBOUND)
        return RunMetrics(n_tiles=self._n_tiles, samples=tuple(self._samples))
