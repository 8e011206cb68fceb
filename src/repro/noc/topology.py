"""NoC topologies.

The thesis analyses gossip on a fully connected graph (where the classic
rumor-spreading theory applies directly, §3.1) and evaluates on the square
grid that is realistic for silicon (Fig 3-2).  Additional topologies — torus,
ring, star — support the on-chip diversity experiments of Chapter 5 and the
ablation studies.

A :class:`Topology` is a directed graph over integer tile ids with optional
2-D placements.  All topologies here are symmetric (every edge exists in
both directions) but links are modelled as *directed* so that a crash can
take out one direction only.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import cached_property


class Topology(ABC):
    """Abstract tile interconnect graph."""

    #: Above this tile count :meth:`estimated_diameter` stops running the
    #: O(n^2) all-pairs BFS and falls back to the ``2 * sqrt(n)`` grid
    #: estimate — unless the topology has a closed form.
    EXACT_DIAMETER_LIMIT = 128

    @property
    @abstractmethod
    def n_tiles(self) -> int:
        """Number of tiles."""

    @abstractmethod
    def neighbors(self, tile_id: int) -> tuple[int, ...]:
        """Directly connected tile ids, in deterministic port order."""

    @abstractmethod
    def position(self, tile_id: int) -> tuple[float, float]:
        """A 2-D placement of the tile (for distance and wire-length models)."""

    # ------------------------------------------------------------ derived api

    @property
    def tile_ids(self) -> list[int]:
        return list(range(self.n_tiles))

    @cached_property
    def links(self) -> list[tuple[int, int]]:
        """All directed links, sorted for determinism."""
        return sorted(
            (src, dst) for src in self.tile_ids for dst in self.neighbors(src)
        )

    @property
    def n_links(self) -> int:
        return len(self.links)

    def degree(self, tile_id: int) -> int:
        return len(self.neighbors(tile_id))

    def validate_tile(self, tile_id: int) -> None:
        if not 0 <= tile_id < self.n_tiles:
            raise ValueError(
                f"tile id {tile_id} out of range for {self.n_tiles}-tile topology"
            )

    def hop_distance(self, a: int, b: int) -> int:
        """Unweighted shortest-path hop count between two tiles (BFS)."""
        self.validate_tile(a)
        self.validate_tile(b)
        if a == b:
            return 0
        seen = {a}
        frontier = [a]
        distance = 0
        while frontier:
            distance += 1
            next_frontier = []
            for tile in frontier:
                for neighbor in self.neighbors(tile):
                    if neighbor == b:
                        return distance
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        raise ValueError(f"tiles {a} and {b} are disconnected")

    def diameter(self) -> int:
        """Longest shortest-path distance over all tile pairs."""
        return max(
            self.hop_distance(a, b)
            for a in self.tile_ids
            for b in self.tile_ids
            if a < b
        )

    def closed_form_diameter(self) -> int | None:
        """Exact diameter in O(1), or None when no closed form exists.

        Regular topologies (grids, tori, rings, stars, complete graphs)
        override this; :meth:`estimated_diameter` prefers it over both the
        brute-force BFS and the square-root guess at any size.
        """
        return None

    def estimated_diameter(self, exact_limit: int | None = None) -> int:
        """The diameter, exactly when affordable, else a grid-flavored bound.

        Resolution order:

        1. :meth:`closed_form_diameter` when the topology has one (exact at
           any size, O(1));
        2. the exact all-pairs BFS :meth:`diameter` for graphs of at most
           `exact_limit` tiles (default :data:`EXACT_DIAMETER_LIMIT`);
        3. the historical ``int(2 * sqrt(n))`` estimate — exact-ish for
           near-square meshes, conservative for most others.
        """
        closed = self.closed_form_diameter()
        if closed is not None:
            return closed
        limit = self.EXACT_DIAMETER_LIMIT if exact_limit is None else exact_limit
        if self.n_tiles <= limit:
            return self.diameter()
        return int(2 * math.sqrt(self.n_tiles))

    def default_ttl_bound(self) -> int:
        """The engine's default packet TTL: diameter + ceil(log2 n) + 2.

        Crossing the chip takes at most a diameter of hops; the log term
        covers the rumor-spreading rounds on top, and the +2 is slack for
        unlucky RND draws.  Shared by every engine backend so both derive
        identical TTLs from one heuristic.
        """
        n = self.n_tiles
        return self.estimated_diameter() + int(math.ceil(math.log2(max(n, 2)))) + 2

    def is_connected(self, excluding: frozenset[int] = frozenset()) -> bool:
        """Is the graph connected once `excluding` tiles are removed?"""
        remaining = [tid for tid in self.tile_ids if tid not in excluding]
        if not remaining:
            return True
        seen = {remaining[0]}
        frontier = [remaining[0]]
        while frontier:
            tile = frontier.pop()
            for neighbor in self.neighbors(tile):
                if neighbor not in excluding and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(remaining)


class Mesh2D(Topology):
    """The square/rectangular grid of thesis Fig 1-1 and Fig 3-2b.

    Tiles are numbered row-major: tile ``r * cols + c`` sits at row *r*,
    column *c*.  Port order is (left, right, up, down), matching the four
    RND circuits of Fig 3-5.
    """

    def __init__(self, rows: int, cols: int | None = None) -> None:
        if cols is None:
            cols = rows
        if rows < 1 or cols < 1:
            raise ValueError(f"mesh dimensions must be positive, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols

    @property
    def n_tiles(self) -> int:
        return self.rows * self.cols

    def coordinates(self, tile_id: int) -> tuple[int, int]:
        """(row, col) of a tile."""
        self.validate_tile(tile_id)
        return divmod(tile_id, self.cols)

    def tile_at(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"({row}, {col}) outside {self.rows}x{self.cols} mesh")
        return row * self.cols + col

    def neighbors(self, tile_id: int) -> tuple[int, ...]:
        row, col = self.coordinates(tile_id)
        result = []
        if col > 0:
            result.append(tile_id - 1)  # left
        if col < self.cols - 1:
            result.append(tile_id + 1)  # right
        if row > 0:
            result.append(tile_id - self.cols)  # up
        if row < self.rows - 1:
            result.append(tile_id + self.cols)  # down
        return tuple(result)

    def position(self, tile_id: int) -> tuple[float, float]:
        row, col = self.coordinates(tile_id)
        return (float(col), float(row))

    def manhattan_distance(self, a: int, b: int) -> int:
        """|Δrow| + |Δcol| — the flooding-latency lower bound (§4 intro)."""
        ra, ca = self.coordinates(a)
        rb, cb = self.coordinates(b)
        return abs(ra - rb) + abs(ca - cb)

    def closed_form_diameter(self) -> int:
        # Opposite corners: (rows-1) + (cols-1) Manhattan hops.
        return (self.rows - 1) + (self.cols - 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mesh2D({self.rows}x{self.cols})"


class Torus2D(Mesh2D):
    """A grid with wrap-around links (ablation topology)."""

    def __init__(self, rows: int, cols: int | None = None) -> None:
        super().__init__(rows, cols)
        if self.rows < 3 or self.cols < 3:
            raise ValueError(
                "torus needs at least 3 rows and 3 cols to avoid duplicate links"
            )

    def neighbors(self, tile_id: int) -> tuple[int, ...]:
        row, col = self.coordinates(tile_id)
        left = self.tile_at(row, (col - 1) % self.cols)
        right = self.tile_at(row, (col + 1) % self.cols)
        up = self.tile_at((row - 1) % self.rows, col)
        down = self.tile_at((row + 1) % self.rows, col)
        return (left, right, up, down)

    def manhattan_distance(self, a: int, b: int) -> int:
        ra, ca = self.coordinates(a)
        rb, cb = self.coordinates(b)
        dr = abs(ra - rb)
        dc = abs(ca - cb)
        return min(dr, self.rows - dr) + min(dc, self.cols - dc)

    def closed_form_diameter(self) -> int:
        # Wraparound halves each dimension's worst case.
        return self.rows // 2 + self.cols // 2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Torus2D({self.rows}x{self.cols})"


class FullyConnected(Topology):
    """The complete graph of thesis Fig 3-2a — the theory's home turf.

    Impractical to wire on silicon, but this is where
    ``S_n = log2 n + ln n + O(1)`` holds exactly, so the Fig 3-1
    reproduction runs here.  Tiles are placed on a circle for plotting.
    """

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError(f"need at least 2 tiles, got {n}")
        self._n = n

    @property
    def n_tiles(self) -> int:
        return self._n

    def neighbors(self, tile_id: int) -> tuple[int, ...]:
        self.validate_tile(tile_id)
        return tuple(t for t in range(self._n) if t != tile_id)

    def position(self, tile_id: int) -> tuple[float, float]:
        self.validate_tile(tile_id)
        angle = 2.0 * math.pi * tile_id / self._n
        return (math.cos(angle), math.sin(angle))

    def closed_form_diameter(self) -> int:
        return 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FullyConnected({self._n})"


class RingTopology(Topology):
    """A bidirectional ring (worst-case-diameter ablation topology)."""

    def __init__(self, n: int) -> None:
        if n < 3:
            raise ValueError(f"ring needs at least 3 tiles, got {n}")
        self._n = n

    @property
    def n_tiles(self) -> int:
        return self._n

    def neighbors(self, tile_id: int) -> tuple[int, ...]:
        self.validate_tile(tile_id)
        return ((tile_id - 1) % self._n, (tile_id + 1) % self._n)

    def position(self, tile_id: int) -> tuple[float, float]:
        self.validate_tile(tile_id)
        angle = 2.0 * math.pi * tile_id / self._n
        return (math.cos(angle), math.sin(angle))

    def closed_form_diameter(self) -> int:
        return self._n // 2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RingTopology({self._n})"


class StarTopology(Topology):
    """A hub-and-spoke graph: tile 0 is the central router (Fig 5-2 right).

    Models the "central router" diversity architecture where clusters hang
    off one switching element; the hub is an obvious single point of
    failure, which the diversity comparison quantifies.
    """

    def __init__(self, n_spokes: int) -> None:
        if n_spokes < 2:
            raise ValueError(f"star needs at least 2 spokes, got {n_spokes}")
        self.n_spokes = n_spokes

    @property
    def n_tiles(self) -> int:
        return self.n_spokes + 1

    def neighbors(self, tile_id: int) -> tuple[int, ...]:
        self.validate_tile(tile_id)
        if tile_id == 0:
            return tuple(range(1, self.n_tiles))
        return (0,)

    def position(self, tile_id: int) -> tuple[float, float]:
        self.validate_tile(tile_id)
        if tile_id == 0:
            return (0.0, 0.0)
        angle = 2.0 * math.pi * (tile_id - 1) / self.n_spokes
        return (math.cos(angle), math.sin(angle))

    def closed_form_diameter(self) -> int:
        # Spoke -> hub -> spoke.
        return 2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StarTopology({self.n_spokes} spokes)"


class CustomTopology(Topology):
    """A topology built from an explicit adjacency mapping.

    Used by the diversity package to compose hierarchical structures
    (clusters + backbone) as flat graphs the simulator can run unchanged.
    """

    def __init__(
        self,
        adjacency: dict[int, tuple[int, ...]],
        positions: dict[int, tuple[float, float]] | None = None,
    ) -> None:
        if not adjacency:
            raise ValueError("adjacency must not be empty")
        expected_ids = set(range(len(adjacency)))
        if set(adjacency) != expected_ids:
            raise ValueError("tile ids must be exactly 0..n-1")
        for src, dsts in adjacency.items():
            for dst in dsts:
                if dst not in adjacency:
                    raise ValueError(f"link {src}->{dst} targets unknown tile")
                if src not in adjacency[dst]:
                    raise ValueError(f"link {src}->{dst} has no reverse edge")
                if dst == src:
                    raise ValueError(f"self-loop at tile {src}")
        self._adjacency = {src: tuple(dsts) for src, dsts in adjacency.items()}
        self._positions = positions or {}

    @property
    def n_tiles(self) -> int:
        return len(self._adjacency)

    def neighbors(self, tile_id: int) -> tuple[int, ...]:
        self.validate_tile(tile_id)
        return self._adjacency[tile_id]

    def position(self, tile_id: int) -> tuple[float, float]:
        self.validate_tile(tile_id)
        if tile_id in self._positions:
            return self._positions[tile_id]
        # Fallback: place unknown tiles on a line.
        return (float(tile_id), 0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CustomTopology({self.n_tiles} tiles, {self.n_links} links)"
