"""Deterministic dimension-ordered (XY) routing — the fragility baseline.

Thesis §1 argues that a static route "would fail if even a single tile or
a link on the path is faulty".  This module makes that claim testable: an
:class:`XYRoutingProtocol` drives the same tiles and engine as the
stochastic protocol, but each unicast packet leaves a tile on exactly one
port — first along X to the destination's column, then along Y — so one
crash anywhere on that unique path is fatal.

The protocol is a :class:`repro.policies.ForwardingPolicy` (the engine
hands its :meth:`~XYRoutingProtocol.decisions` the current tile id), and
broadcasts fall back to flooding since XY routing has no broadcast story
of its own.  Its :meth:`~XYRoutingProtocol.decide_batch` computes a whole
round's ports from destination coordinates, so the fast backend sends it
as one 0/1 matrix.
"""

from __future__ import annotations

import numpy as np

from repro.core.packet import BROADCAST, Packet
from repro.noc.topology import Mesh2D
from repro.policies.base import (
    BatchDecisionView,
    ForwardDecision,
    ForwardingPolicy,
)


class XYRoutingProtocol(ForwardingPolicy):
    """Dimension-ordered routing on a 2-D mesh.

    Args:
        mesh: the grid the protocol routes on (needed for coordinates).
    """

    #: Read by the config describer that keys its cache tokens.
    forward_probability = 1.0  # deterministic, single port

    def __init__(self, mesh: Mesh2D) -> None:
        self.mesh = mesh

    @property
    def name(self) -> str:
        return "xy-routing"

    def next_hop(self, tile_id: int, destination: int) -> int | None:
        """The unique XY next hop, or None when already at the target."""
        self.mesh.validate_tile(tile_id)
        self.mesh.validate_tile(destination)
        row, col = self.mesh.coordinates(tile_id)
        dest_row, dest_col = self.mesh.coordinates(destination)
        if col != dest_col:
            step = 1 if dest_col > col else -1
            return self.mesh.tile_at(row, col + step)
        if row != dest_row:
            step = 1 if dest_row > row else -1
            return self.mesh.tile_at(row + step, col)
        return None

    def route(self, source: int, destination: int) -> list[int]:
        """The full XY path, source and destination inclusive."""
        path = [source]
        current = source
        while True:
            following = self.next_hop(current, destination)
            if following is None:
                return path
            path.append(following)
            current = following

    def decisions(
        self,
        packet: Packet,
        neighbors: tuple[int, ...],
        rng: np.random.Generator,
        *,
        tile_id: int,
        round_index: int,
        buffer_occupancy: int = 0,
        buffer_capacity: int | None = None,
    ) -> list[ForwardDecision]:
        """Transmit on the single XY port (or every port for broadcast)."""
        if packet.destination == BROADCAST:
            return [
                ForwardDecision(port, neighbor, True)
                for port, neighbor in enumerate(neighbors)
            ]
        target = self.next_hop(tile_id, packet.destination)
        return [
            ForwardDecision(port, neighbor, neighbor == target)
            for port, neighbor in enumerate(neighbors)
        ]

    def decide_batch(self, batch: BatchDecisionView) -> np.ndarray | None:
        """The round's 0/1 port matrix: :meth:`decisions`, row by row.

        A unicast row transmits on the port whose neighbor is its XY next
        hop (none at the destination), a broadcast row on every port.
        Rows naming a tile off the mesh are left to :meth:`decisions`,
        which raises.
        """
        neighbors, dests = batch.port_neighbors, batch.destinations
        if neighbors is None or dests is None:
            return None
        tiles, cols = batch.tile_ids, self.mesh.cols
        n_tiles = self.mesh.n_tiles
        unicast = dests != BROADCAST
        if not (
            ((tiles >= 0) & (tiles < n_tiles)).all()
            and ((dests >= 0) & (dests < n_tiles) | ~unicast).all()
        ):
            return None
        row, col = np.divmod(tiles, cols)
        dest_row, dest_col = np.divmod(dests, cols)
        step_col = np.sign(dest_col - col)
        step_row = np.sign(dest_row - row)
        target = np.where(
            step_col != 0,
            tiles + step_col,
            np.where(step_row != 0, tiles + step_row * cols, -2),
        )
        ports = neighbors[tiles]
        out = np.where(unicast[:, None], ports == target[:, None], ports >= 0)
        return out.astype(np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"XYRoutingProtocol({self.mesh!r})"
