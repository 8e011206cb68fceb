"""Simulation tracing and visualization.

The engine accepts an optional observer whose hooks fire on every notable
event (transmission, delivery, drop, round boundary).  Two observers ship
here:

* :class:`TraceRecorder` — an append-only event log for debugging and
  post-hoc analysis (who held message X in round 7? where did it die?);
* :func:`render_spread` — an ASCII heat map of a mesh showing which tiles
  are informed, for terminal-friendly inspection of broadcast spread.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.noc.topology import Mesh2D

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packet import Packet
    from repro.noc.engine import NocSimulator


class EventKind(enum.Enum):
    """The event vocabulary of the simulation trace."""

    ROUND_BEGIN = "round_begin"
    TRANSMISSION = "transmission"
    DEAD_LINK_DROP = "dead_link_drop"
    UPSET_INJECTED = "upset_injected"
    OVERFLOW_DROP = "overflow_drop"
    CRC_DROP = "crc_drop"
    DELIVERY = "delivery"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulation event.

    Attributes:
        round_index: gossip round the event occurred in.
        kind: event category.
        tile: the tile acting (sender for transmissions, receiver for
            deliveries/drops); -1 for round boundaries.
        peer: the other endpoint where applicable (destination tile of a
            transmission), else -1.
        key: the packet's (source, message id), or None for round events.
    """

    round_index: int
    kind: EventKind
    tile: int = -1
    peer: int = -1
    key: tuple[int, int] | None = None


class Observer:
    """No-op base observer; subclass and override what you need."""

    def on_bind(self, simulator: "NocSimulator") -> None:
        """The engine adopted this observer (called once, at build time).

        Observers that sample simulator state at round boundaries (e.g.
        :class:`repro.metrics.MetricsCollector`) keep a weak reference —
        a strong one would make simulator → observer → simulator a
        cycle; purely event-driven observers can ignore it.
        """

    def on_round_begin(self, round_index: int) -> None:
        """A new gossip round is starting."""

    def on_round_end(self, round_index: int) -> None:
        """A gossip round finished (after the send phase, or after the
        compute phase of the completion round)."""

    def on_transmission(
        self, round_index: int, src: int, dst: int, packet: "Packet"
    ) -> None:
        """A packet copy left `src` toward `dst` on a live link."""

    def on_dead_link_drop(self, round_index: int, src: int, dst: int) -> None:
        """A transmission was lost to a crashed link."""

    def on_upset_injected(
        self, round_index: int, src: int, dst: int, packet: "Packet"
    ) -> None:
        """A copy in flight was scrambled by a data upset."""

    def on_overflow_drop(self, round_index: int, tile: int) -> None:
        """An arriving packet was dropped by a full input buffer."""

    def on_crc_drop(
        self, round_index: int, tile: int, packet: "Packet"
    ) -> None:
        """A corrupt arrival was caught and discarded by the tile's CRC."""

    def on_delivery(
        self, round_index: int, tile: int, packet: "Packet"
    ) -> None:
        """A first intact copy was handed to a tile's IP."""


class FanoutObserver(Observer):
    """Broadcasts every engine hook to an ordered tuple of observers.

    The engine accepts a single observer; this adapter lets several
    coexist on one run (e.g. a :class:`TraceRecorder` *and* a
    :class:`repro.metrics.MetricsCollector`).  Children are invoked in
    tuple order for every hook, and each child sees exactly the event
    stream it would see running alone — the engine emits events once and
    the fan-out merely repeats them.

    Passing a tuple or list straight to ``NocSimulator(observer=...)``
    wraps it in a ``FanoutObserver`` automatically (see
    :func:`as_observer`).
    """

    def __init__(self, *observers: Observer) -> None:
        """Wrap `observers` (given variadically or as one iterable)."""
        if len(observers) == 1 and not isinstance(observers[0], Observer):
            observers = tuple(observers[0])  # a single iterable argument
        for child in observers:
            if not isinstance(child, Observer):
                raise TypeError(
                    f"FanoutObserver children must be Observers, got "
                    f"{type(child).__name__}"
                )
        self.children: tuple[Observer, ...] = tuple(observers)

    def on_bind(self, simulator: "NocSimulator") -> None:
        for child in self.children:
            child.on_bind(simulator)

    def on_round_begin(self, round_index: int) -> None:
        for child in self.children:
            child.on_round_begin(round_index)

    def on_round_end(self, round_index: int) -> None:
        for child in self.children:
            child.on_round_end(round_index)

    def on_transmission(self, round_index, src, dst, packet) -> None:
        for child in self.children:
            child.on_transmission(round_index, src, dst, packet)

    def on_dead_link_drop(self, round_index, src, dst) -> None:
        for child in self.children:
            child.on_dead_link_drop(round_index, src, dst)

    def on_upset_injected(self, round_index, src, dst, packet) -> None:
        for child in self.children:
            child.on_upset_injected(round_index, src, dst, packet)

    def on_overflow_drop(self, round_index, tile) -> None:
        for child in self.children:
            child.on_overflow_drop(round_index, tile)

    def on_crc_drop(self, round_index, tile, packet) -> None:
        for child in self.children:
            child.on_crc_drop(round_index, tile, packet)

    def on_delivery(self, round_index, tile, packet) -> None:
        for child in self.children:
            child.on_delivery(round_index, tile, packet)


#: The hooks that fire once per event; the rest fire once per round or run.
EVENT_HOOKS = (
    "on_transmission",
    "on_dead_link_drop",
    "on_upset_injected",
    "on_overflow_drop",
    "on_crc_drop",
    "on_delivery",
)


def listens(observer: Observer | None) -> bool:
    """Whether `observer` needs the engine's per-event hook calls.

    True iff the observer's class overrides one of :data:`EVENT_HOOKS`
    (a :class:`FanoutObserver` listens iff any child does).  The answer
    comes from the class, like the engine's other hook-presence checks:
    an observer that only samples at round boundaries lets the fast
    backend skip replaying events hook by hook.
    """
    if observer is None:
        return False
    if isinstance(observer, FanoutObserver):
        return any(listens(child) for child in observer.children)
    cls = type(observer)
    return any(
        getattr(cls, name) is not getattr(Observer, name)
        for name in EVENT_HOOKS
    )


def as_observer(observer) -> Observer | None:
    """Normalise the engine's ``observer`` argument.

    ``None`` passes through, a single :class:`Observer` passes through,
    and a tuple/list of observers is wrapped in a
    :class:`FanoutObserver` preserving order.
    """
    if observer is None or isinstance(observer, Observer):
        return observer
    if isinstance(observer, (tuple, list)):
        return FanoutObserver(*observer)
    raise TypeError(
        f"observer must be an Observer, a sequence of Observers, or None; "
        f"got {type(observer).__name__}"
    )


class TraceRecorder(Observer):
    """Records every event into :attr:`events` (append-only).

    Query helpers slice the log by message or by kind; memory use is one
    small dataclass per event, so cap long simulations with
    `max_events` if needed (recording stops silently at the cap).
    """

    def __init__(self, max_events: int | None = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1 or None, got {max_events}")
        self.events: list[TraceEvent] = []
        self.max_events = max_events

    def _record(self, event: TraceEvent) -> None:
        if self.max_events is None or len(self.events) < self.max_events:
            self.events.append(event)

    # ------------------------------------------------------------- hooks

    def on_round_begin(self, round_index: int) -> None:
        self._record(TraceEvent(round_index, EventKind.ROUND_BEGIN))

    def on_transmission(self, round_index, src, dst, packet) -> None:
        self._record(
            TraceEvent(
                round_index, EventKind.TRANSMISSION, src, dst, packet.key
            )
        )

    def on_dead_link_drop(self, round_index, src, dst) -> None:
        self._record(
            TraceEvent(round_index, EventKind.DEAD_LINK_DROP, src, dst)
        )

    def on_upset_injected(self, round_index, src, dst, packet) -> None:
        self._record(
            TraceEvent(
                round_index, EventKind.UPSET_INJECTED, src, dst, packet.key
            )
        )

    def on_overflow_drop(self, round_index, tile) -> None:
        self._record(TraceEvent(round_index, EventKind.OVERFLOW_DROP, tile))

    def on_crc_drop(self, round_index, tile, packet) -> None:
        self._record(
            TraceEvent(round_index, EventKind.CRC_DROP, tile, key=packet.key)
        )

    def on_delivery(self, round_index, tile, packet) -> None:
        self._record(
            TraceEvent(round_index, EventKind.DELIVERY, tile, key=packet.key)
        )

    # ------------------------------------------------------------ queries

    def of_kind(self, kind: EventKind) -> list[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def message_history(self, key: tuple[int, int]) -> list[TraceEvent]:
        """Every event touching one message, in order."""
        return [event for event in self.events if event.key == key]

    def delivery_round(self, key: tuple[int, int], tile: int) -> int | None:
        """Round a message reached a tile's IP, or None if it never did."""
        for event in self.events:
            if (
                event.kind == EventKind.DELIVERY
                and event.key == key
                and event.tile == tile
            ):
                return event.round_index
        return None

    def transmissions_per_round(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for event in self.of_kind(EventKind.TRANSMISSION):
            counts[event.round_index] = counts.get(event.round_index, 0) + 1
        return counts


def render_spread(simulator: "NocSimulator") -> str:
    """ASCII heat map of a mesh: '#' informed, '.' not, 'X' crashed.

    Only meshes render spatially; other topologies get a flat listing.
    """
    informed = set(simulator.informed_tiles())
    topology = simulator.topology
    if isinstance(topology, Mesh2D):
        lines = []
        for row in range(topology.rows):
            cells = []
            for col in range(topology.cols):
                tile_id = topology.tile_at(row, col)
                if not simulator.tiles[tile_id].alive:
                    cells.append("X")
                elif tile_id in informed:
                    cells.append("#")
                else:
                    cells.append(".")
            lines.append(" ".join(cells))
        return "\n".join(lines)
    markers = [
        "X" if not simulator.tiles[t].alive else "#" if t in informed else "."
        for t in topology.tile_ids
    ]
    return "".join(markers)
