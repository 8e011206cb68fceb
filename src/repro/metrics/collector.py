"""The metrics-collecting engine observer.

:class:`MetricsCollector` plugs into the engine's observer hooks
(:mod:`repro.noc.trace`) and materialises a :class:`RunMetrics` time
series: event hooks accumulate per-round counters, and the
``on_round_end`` boundary hook samples network state (coverage, buffer
occupancy, cumulative energy) directly from the simulator it was bound
to.  Pass it as ``observer=`` — alone, or in a tuple next to a
:class:`repro.noc.trace.TraceRecorder` — and read ``collector.metrics()``
after the run::

    collector = MetricsCollector()
    sim = NocSimulator(Mesh2D(4, 4), StochasticProtocol(0.5),
                       seed=7, observer=collector)
    ...
    sim.run(100)
    print(collector.metrics().to_json())
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.records import RoundSample, RunMetrics
from repro.noc.tile import TileState
from repro.noc.trace import Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.engine import NocSimulator


class MetricsCollector(Observer):
    """Records a :class:`RunMetrics` per-round time series from one run.

    Lifecycle: the engine calls :meth:`on_bind` once at construction
    (which also resets the collector, so an instance handed to a second
    simulator starts clean), event hooks fire during each round, and
    :meth:`on_round_end` closes the round by sampling simulator state.
    :meth:`metrics` can be called at any time — mid-run it returns the
    series of the rounds completed so far.
    """

    def __init__(self) -> None:
        """Create an unbound collector (the engine binds it on adoption)."""
        self._simulator: "NocSimulator | None" = None
        self._n_tiles = 0
        self._samples: list[RoundSample] = []
        self._reset_round_counters()

    def _reset_round_counters(self) -> None:
        self._transmissions = 0
        self._deliveries = 0
        self._dead_link_drops = 0
        self._overflow_drops = 0
        self._crc_drops = 0
        self._upsets_injected = 0

    # ------------------------------------------------------ lifecycle hooks

    def on_bind(self, simulator: "NocSimulator") -> None:
        """Adopt `simulator` and reset all recorded state."""
        self._simulator = simulator
        self._n_tiles = simulator.topology.n_tiles
        self._samples = []
        self._reset_round_counters()

    def on_round_begin(self, round_index: int) -> None:
        """Open a round: zero the per-round event counters."""
        self._reset_round_counters()

    def on_round_end(self, round_index: int) -> None:
        """Close a round: sample simulator state into a :class:`RoundSample`."""
        simulator = self._simulator
        if simulator is None:
            raise RuntimeError(
                "MetricsCollector is not bound to a simulator; pass it as "
                "NocSimulator(observer=collector) so the engine binds it"
            )
        informed = 0
        occupancy: dict[int, int] = {}
        alive = TileState.ALIVE
        for tile in simulator.tiles.values():
            if tile.informed:
                informed += 1
            if tile.state is alive:
                size = len(tile.send_buffer)
                occupancy[size] = occupancy.get(size, 0) + 1
        self._samples.append(
            RoundSample(
                round_index=round_index,
                informed_tiles=informed,
                transmissions=self._transmissions,
                deliveries=self._deliveries,
                dead_link_drops=self._dead_link_drops,
                overflow_drops=self._overflow_drops,
                crc_drops=self._crc_drops,
                upsets_injected=self._upsets_injected,
                energy_j=float(simulator.stats.energy_j),
                buffer_occupancy=tuple(sorted(occupancy.items())),
                active_scenarios=tuple(
                    getattr(simulator, "active_scenario_phases", ())
                ),
            )
        )

    # ---------------------------------------------------------- event hooks

    def on_transmission(self, round_index, src, dst, packet) -> None:
        """Count a delivered link traversal."""
        self._transmissions += 1

    def on_delivery(self, round_index, tile, packet) -> None:
        """Count a first intact copy handed to an IP."""
        self._deliveries += 1

    def on_dead_link_drop(self, round_index, src, dst) -> None:
        """Count a transmission lost to a crashed link."""
        self._dead_link_drops += 1

    def on_overflow_drop(self, round_index, tile) -> None:
        """Count an arrival dropped by a full input buffer."""
        self._overflow_drops += 1

    def on_crc_drop(self, round_index, tile, packet) -> None:
        """Count a corrupt arrival caught by a tile's CRC."""
        self._crc_drops += 1

    def on_upset_injected(self, round_index, src, dst, packet) -> None:
        """Count an in-flight copy scrambled by a data upset."""
        self._upsets_injected += 1

    # --------------------------------------------------------------- product

    def metrics(self) -> RunMetrics:
        """The recorded time series so far, as an immutable `RunMetrics`."""
        if self._simulator is None:
            raise RuntimeError(
                "MetricsCollector is not bound to a simulator; pass it as "
                "NocSimulator(observer=collector) so the engine binds it"
            )
        return RunMetrics(n_tiles=self._n_tiles, samples=tuple(self._samples))

