"""Deterministic fault-tolerant adaptive routing — the gossip baseline.

The thesis justifies stochastic communication by what it replaces:
deterministic routing that must be told about faults.  This module
supplies that baseline on the *same* engine, faults and metrics, in the
spirit of the fault-tolerant NoC routing literature (Stroobant et al.'s
reconfigurable adaptive routing, arXiv:1811.11262's congestion/fault
aware protocols): minimal-path forwarding plus a local detour rule that
reacts to observed link failures.

Rule
----

* **Minimal-path broadcast** — every packet carries its source; each
  tile forwards a packet exactly once over each outgoing link that makes
  forward progress, i.e. to every neighbor one hop *farther* from the
  source (BFS distance).  On a healthy mesh this walks the shortest-path
  DAG: saturation in eccentricity(source) rounds with one transmission
  per DAG edge — far cheaper than any gossip, and perfectly
  deterministic (the policy never draws from the RNG).
* **Fault detour** — when a transmission vanishes on a dead link, the
  sending tile falls back to time-limited local flooding: for the next
  ``detour_rounds`` rounds it forwards buffered packets over *all* its
  not-yet-used links, routing around single failures.  The reaction is
  latched at the next round boundary (see
  :meth:`~repro.policies.base.ForwardingPolicy.on_dead_link` backend
  note), so object and fast backends stay bit-identical.

The point of the baseline is its *fragility envelope*: with no
redundancy in the common case, coordinated or repeated faults (chaos
scenarios beyond single dead links, data upsets that kill the only copy
in flight) degrade it sharply — exactly the regime where the paper's
stochastic redundancy pays for itself.  ``repro frontier`` quantifies
that crossover.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.policies.base import (
    BatchDecisionView,
    ForwardingPolicy,
    PolicyContext,
    register_policy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packet import Packet
    from repro.noc.topology import Topology


@register_policy
class AdaptiveRoutePolicy(ForwardingPolicy):
    """Minimal-path broadcast with time-limited local-flood detours.

    Args:
        detour_rounds: rounds a tile keeps local-flooding after seeing
            one of its transmissions die on a dead link (0 disables
            detours: pure minimal-path routing).
    """

    kind = "adaptive_route"

    def __init__(self, detour_rounds: int = 4) -> None:
        if detour_rounds < 0:
            raise ValueError(
                f"detour_rounds must be >= 0, got {detour_rounds}"
            )
        self.detour_rounds = int(detour_rounds)
        self._topology: "Topology | None" = None
        #: source tile -> {tile: BFS hop distance} (static per topology).
        self._dist_cache: dict[int, dict[int, int]] = {}
        #: (tile, packet key, neighbor) links already used.
        self._sent: set[tuple[int, tuple[int, int], int]] = set()
        #: tile -> first round its detour window no longer covers.
        self._active_detour: dict[int, int] = {}
        #: dead-link reactions observed this round, promoted at the next
        #: round boundary (object/fast hook-ordering differs mid-round).
        self._pending_detour: dict[int, int] = {}

    def spec_params(self) -> dict[str, Any]:
        return {"detour_rounds": self.detour_rounds}

    # ----------------------------------------------------------------- hooks

    def bind(self, topology: Any) -> None:
        self._topology = topology
        self._dist_cache.clear()

    def reset(self) -> None:
        self._sent.clear()
        self._active_detour.clear()
        self._pending_detour.clear()

    def on_round_begin(self, round_index: int) -> None:
        if self._pending_detour:
            for tile_id, until in self._pending_detour.items():
                if until > self._active_detour.get(tile_id, -1):
                    self._active_detour[tile_id] = until
            self._pending_detour.clear()
        if self._active_detour:
            for tile_id in [
                t for t, until in self._active_detour.items()
                if until <= round_index
            ]:
                del self._active_detour[tile_id]

    def on_dead_link(self, src: int, dst: int, round_index: int) -> None:
        del dst
        until = round_index + 1 + self.detour_rounds
        if until > self._pending_detour.get(src, -1):
            self._pending_detour[src] = until

    # ------------------------------------------------------------- distances

    def _distances(self, source: int) -> dict[int, int]:
        """BFS hop distances from `source` (cached; whole topology)."""
        dist = self._dist_cache.get(source)
        if dist is not None:
            return dist
        topology = self._topology
        if topology is None:
            raise RuntimeError(
                "AdaptiveRoutePolicy needs bind(topology) before deciding; "
                "the engine binds automatically — standalone use must call "
                "policy.bind(topology) itself"
            )
        dist = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier: list[int] = []
            for tile_id in frontier:
                d_next = dist[tile_id] + 1
                for neighbor in topology.neighbors(tile_id):
                    if neighbor not in dist:
                        dist[neighbor] = d_next
                        next_frontier.append(neighbor)
            frontier = next_frontier
        self._dist_cache[source] = dist
        return dist

    def in_detour(self, tile_id: int, round_index: int) -> bool:
        """Is `tile_id` local-flooding at `round_index`?"""
        return self._active_detour.get(tile_id, -1) > round_index

    # ------------------------------------------------------------- decisions

    def decide(
        self, packet: "Packet", link: tuple[int, int], ctx: PolicyContext
    ) -> bool:
        tile_id, neighbor = link
        sent_key = (tile_id, packet.key, neighbor)
        if sent_key in self._sent:
            return False
        if self.in_detour(tile_id, ctx.round_index):
            self._sent.add(sent_key)
            return True
        dist = self._distances(packet.source)
        d_self = dist.get(tile_id)
        d_neighbor = dist.get(neighbor)
        if d_self is None or d_neighbor is None or d_neighbor != d_self + 1:
            return False
        self._sent.add(sent_key)
        return True

    def decide_batch(self, batch: BatchDecisionView) -> np.ndarray | None:
        max_degree = batch.max_degree
        topology = self._topology
        if max_degree is None or topology is None:
            return None
        out = np.zeros((len(batch), max_degree), dtype=np.float64)
        round_index = batch.round_index
        sent = self._sent
        for row, (tile_id, source, message_id) in enumerate(
            zip(
                batch.tile_ids.tolist(),
                batch.sources.tolist(),
                batch.message_ids.tolist(),
            )
        ):
            key = (source, message_id)
            detour = self.in_detour(tile_id, round_index)
            dist = None if detour else self._distances(source)
            d_self = None if dist is None else dist.get(tile_id)
            for port, neighbor in enumerate(topology.neighbors(tile_id)):
                sent_key = (tile_id, key, neighbor)
                if sent_key in sent:
                    continue
                if detour:
                    forward = True
                else:
                    d_neighbor = dist.get(neighbor)
                    forward = (
                        d_self is not None
                        and d_neighbor is not None
                        and d_neighbor == d_self + 1
                    )
                if forward:
                    sent.add(sent_key)
                    out[row, port] = 1.0
        return out
