"""The vectorised structure-of-arrays engine backend.

:class:`FastNocSimulator` re-implements the four engine phases of
:class:`repro.noc.engine.NocSimulator` as batched numpy array operations
over the *live packet population* — one row per (tile, message) buffer
slot — instead of per-object method calls.  It is selected with
``NocSimulator(..., backend="fast")`` or ``SimConfig(backend="fast")``.

Bit-identical results are the contract, not an aspiration: for every
supported configuration the fast engine consumes the *same* draws from
the *same* ``numpy.random.default_rng(seed)`` stream in the same order
as the object engine, and produces equal :class:`SimulationResult`,
:class:`NetworkStats` (including both per-round series) and observer
aggregates.  The golden-trace harness in
``tests/test_backends_equivalence.py`` enforces this over a grid of
(seed, topology, policy, fault scenario) cells.

Stream discipline (matching the object engine draw for draw):

* **receive** — one overflow uniform per latched arrival when
  ``buffer_capacity is None`` and ``p_overflow > 0``, in the arrival
  map's tile-insertion order, drawn as one ``rng.random(n)`` block
  (numpy's ``Generator.random(n)`` consumes exactly the stream of ``n``
  scalar calls);
* **send** — per (packet, port) decision draws exactly when the policy's
  effective row probability is in (0, 1), as one block per packet, then
  one upset uniform per transmission over a live link when
  ``p_upset > 0``.  Corruption draws interleave mid-stream but are never
  pool doubles, so the doubles a round consumes form one *virtual*
  stream: the upset path scans positions in it out of a growing
  pre-drawn *pool*, rewinding/advancing the PCG64 bit generator around
  each corruption, then emits the round as one matrix.
* **push-pull** — at ``p_upset == 0`` the policy draws a whole round's
  push ports (send) and pull targets (pull) from one uint32 block that
  consumes exactly what the per-row ``choice`` / ``integers`` calls
  would (:mod:`repro.policies.sampling`); it may decline a round, which
  then runs on the scalar paths below.

Deliberate limits (a ``ValueError`` at construction, never a silently
different answer):

* ``sigma_synchr > 0`` — skewed clocks interleave normal draws with the
  send loop per transmission; that cannot be batched without changing
  the stream.  Use the object backend.
* ``egress_limits`` / ``bus_tiles`` — the bus/egress arbitration path is
  inherently sequential; the object backend models it.

Configurations that are supported but fall back to slower exact paths:

* IPs overriding ``on_receive``, and ``buffer_mode="relay"`` with a
  ``buffer_capacity``, run the receive phase event-by-event (hook
  interleaving, and relay's re-insertion of a copy evicted earlier in the
  same round, are sequential semantics); bounded retain buffers evict in
  one batch;
* policies without a :meth:`ForwardingPolicy.decide_batch` (or whose
  hook returns None for the round), and ``decide_batch`` matrices under
  ``p_upset > 0``, send row by row through one scalar walker that drives
  the inherited :meth:`NocSimulator._transmit` (array-backed state, same
  stream);
* pull phases without a :meth:`ForwardingPolicy.pull_ports_batch` mask
  — the hook is missing or declined, ``p_upset > 0``, or a link has no
  reverse port — run the inherited per-tile phase.

Observer ordering is a contract with three clauses, enforced by
``tests/test_observer_ordering.py``: on every path (a) each per-kind
subsequence of hook calls and (b) each round's multiset of events equal
the object engine's; (c) the *full* sequence is equal in rounds whose
receive ran event-ordered.  Only the vectorised receive regroups a
round's events by kind; every send and pull emit replays its hooks in
(row, port) order, the object engine's.  Stats, series and all
:class:`repro.metrics.MetricsCollector` output are identical always.
IPs must not rely on object identity of buffered packets (the fast
engine materialises equal-valued packets on demand and tracks TTL/hops
in arrays).
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from itertools import compress

import numpy as np

from repro.core.packet import BROADCAST, Packet, PacketFactory
from repro.noc.backends.base import FAST_BACKEND, register_backend
from repro.noc.clock import ClockDomain
from repro.noc.engine import NocSimulator
from repro.noc.tile import IPCore, RelayCore, TileContext, TileState
from repro.policies.base import BatchDecisionView, ForwardingPolicy

#: Uniforms `_send_rows_pooled` pre-draws after each anchor; every refill
#: doubles the block.  A constant, not a setting: tests monkeypatch it to
#: cross block boundaries on small grids.
_POOL_CHUNK = 64


class _ArrivalChunk:
    """A batch of packets latched for one future round.

    Parallel arrays describe the packets; ``alt`` maps a local row index
    to a :class:`Packet` carrying a non-canonical codeword (an upset
    scramble, caught or escaped) so CRC verdicts and materialised copies
    stay faithful.
    """

    __slots__ = ("dst", "mid", "ttl", "hop", "upset", "intact", "alt")

    def __init__(self, dst, mid, ttl, hop, upset, intact, alt) -> None:
        self.dst = dst
        self.mid = mid
        self.ttl = ttl
        self.hop = hop
        self.upset = upset
        self.intact = intact
        self.alt = alt


class _ChunkBuilder:
    """Accumulates per-event emissions into one :class:`_ArrivalChunk`."""

    __slots__ = ("dst", "mid", "ttl", "hop", "upset", "intact", "alt")

    def __init__(self) -> None:
        self.dst: list[int] = []
        self.mid: list[int] = []
        self.ttl: list[int] = []
        self.hop: list[int] = []
        self.upset: list[bool] = []
        self.intact: list[bool] = []
        self.alt: dict[int, Packet] = {}

    def add(self, dst, mid, ttl, hop, upset, intact, alt_packet) -> None:
        if alt_packet is not None:
            self.alt[len(self.dst)] = alt_packet
        self.dst.append(dst)
        self.mid.append(mid)
        self.ttl.append(ttl)
        self.hop.append(hop)
        self.upset.append(upset)
        self.intact.append(intact)

    def chunk(self) -> _ArrivalChunk:
        return _ArrivalChunk(
            np.asarray(self.dst, dtype=np.int64),
            np.asarray(self.mid, dtype=np.int64),
            np.asarray(self.ttl, dtype=np.int64),
            np.asarray(self.hop, dtype=np.int64),
            np.asarray(self.upset, dtype=bool),
            np.asarray(self.intact, dtype=bool),
            self.alt,
        )


class _BufferView:
    """Read-only mapping view over one tile's send-buffer slot arrays."""

    __slots__ = ("_sim", "_tile_id")

    def __init__(self, sim: "FastNocSimulator", tile_id: int) -> None:
        self._sim = sim
        self._tile_id = tile_id

    def _ordered_mids(self) -> list[int]:
        sim = self._sim
        cols = np.nonzero(sim._buffered[self._tile_id])[0]
        if cols.size == 0:
            return []
        order = np.argsort(sim._iseq[self._tile_id, cols], kind="stable")
        return cols[order].tolist()

    def __len__(self) -> int:
        return int(self._sim._buflen[self._tile_id])

    def __contains__(self, key) -> bool:
        mid = self._sim._msg_index.get(key)
        return mid is not None and bool(self._sim._buffered[self._tile_id, mid])

    def __iter__(self):
        return iter(self.keys())

    def keys(self) -> list[tuple[int, int]]:
        sim = self._sim
        return [sim._msg_packets[m].key for m in self._ordered_mids()]

    def values(self) -> list[Packet]:
        sim, t = self._sim, self._tile_id
        return [
            sim._event_packet(
                m,
                int(sim._ttl[t, m]),
                int(sim._hop[t, m]),
                sim._alt_packets.get((t, m)),
            )
            for m in self._ordered_mids()
        ]

    def items(self) -> list[tuple[tuple[int, int], Packet]]:
        return [(p.key, p) for p in self.values()]


class _TileView:
    """The :class:`repro.noc.tile.Tile` API surface over SoA state.

    Everything external code touches on ``simulator.tiles[t]`` — IP
    mounting, liveness, informedness, buffer inspection, origination —
    reads or writes the engine's arrays, so one source of truth exists.
    """

    __slots__ = ("_sim", "tile_id")

    def __init__(self, sim: "FastNocSimulator", tile_id: int) -> None:
        # A proxy, not a reference: the simulator owns its views, and a
        # sim <-> view cycle would park a finished run's arrays until the
        # cyclic collector happens to run instead of freeing them at once.
        self._sim = weakref.proxy(sim)
        self.tile_id = tile_id

    # ------------------------------------------------------------- liveness

    @property
    def alive(self) -> bool:
        return bool(self._sim._alive[self.tile_id])

    @property
    def state(self) -> TileState:
        return TileState.ALIVE if self.alive else TileState.CRASHED

    @property
    def informed(self) -> bool:
        return bool(self._sim._informed[self.tile_id])

    def crash(self) -> None:
        self._sim._crash_tile(self.tile_id)

    # ------------------------------------------------------------------- ip

    @property
    def ip(self) -> IPCore:
        ip = self._sim._ips.get(self.tile_id)
        if ip is None:
            ip = RelayCore()
            self._sim._ips[self.tile_id] = ip
        return ip

    @ip.setter
    def ip(self, value: IPCore) -> None:
        self._sim._set_ip(self.tile_id, value)

    # -------------------------------------------------------------- buffers

    @property
    def buffer_capacity(self) -> int | None:
        return self._sim.config.buffer_capacity

    @property
    def buffer_mode(self) -> str:
        return self._sim.config.buffer_mode

    @property
    def send_buffer(self) -> _BufferView:
        return _BufferView(self._sim, self.tile_id)

    @property
    def seen_keys(self) -> set[tuple[int, int]]:
        sim = self._sim
        row = sim._seen[self.tile_id]
        return {
            sim._msg_packets[m].key for m in np.nonzero(row)[0].tolist()
        }

    @property
    def delivered_keys(self) -> set[tuple[int, int]]:
        sim = self._sim
        row = sim._delivered[self.tile_id]
        return {
            sim._msg_packets[m].key for m in np.nonzero(row)[0].tolist()
        }

    @property
    def originated_keys(self) -> set[tuple[int, int]]:
        return set(self._sim._tile_originated.get(self.tile_id, ()))

    @property
    def factory(self) -> PacketFactory:
        sim = self._sim
        factory = sim._factories.get(self.tile_id)
        if factory is None:
            factory = PacketFactory(
                self.tile_id, default_ttl=sim.default_ttl, crc=sim.crc
            )
            sim._factories[self.tile_id] = factory
        return factory

    def originate(self, packet: Packet) -> None:
        self._sim._originate(self.tile_id, packet)

    def outgoing_packets(self) -> list[Packet]:
        if not self.alive:
            return []
        return self.send_buffer.values()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TileView({self.tile_id}, {self.state.value}, "
            f"buffered={len(self.send_buffer)})"
        )


@register_backend(FAST_BACKEND)
class FastNocSimulator(NocSimulator):
    """Structure-of-arrays engine: same results, batched execution.

    See the module docstring for the equivalence contract and the
    supported-configuration matrix; ``docs/performance.md`` has measured
    speedups and usage guidance.
    """

    # --------------------------------------------------------------- set-up

    def _build_tile_state(self) -> None:
        """Structure-of-arrays tile state instead of per-tile objects;
        configurations the arrays cannot represent are refused here."""
        config = self.config
        if self.fault_config.sigma_synchr != 0.0:
            raise ValueError(
                "backend='fast' cannot model sigma_synchr > 0: skewed "
                "clocks interleave per-transmission normal draws that "
                "have no batched equivalent; use backend='object'"
            )
        if config.egress_limits:
            raise ValueError(
                "backend='fast' does not support egress_limits (sequential "
                "arbitration); use backend='object'"
            )
        if config.bus_tiles:
            raise ValueError(
                "backend='fast' does not support bus_tiles (bus-transaction "
                "egress); use backend='object'"
            )
        topology = self.topology
        n = topology.n_tiles
        if sorted(self._tile_ids) != list(range(n)):
            raise ValueError(
                "backend='fast' requires contiguous tile ids 0..n-1"
            )
        # With sigma_synchr == 0 (guaranteed at construction) every clock
        # domain is deterministic and identical, so all tiles share one
        # instance — round boundaries memoise once instead of n times.
        self._clock = ClockDomain(self.nominal_round_s, self.injector)
        self.clocks = dict.fromkeys(self._tile_ids, self._clock)
        degrees = [len(self._neighbors[t]) for t in range(n)]
        max_deg = max(degrees, default=0)
        self._max_deg = max_deg
        self._deg = np.asarray(degrees, dtype=np.int64)
        #: padded port->neighbor matrix; valid ports are a prefix per row.
        self._nbr = np.full((n, max_deg), -1, dtype=np.int64)
        self._port_of: dict[tuple[int, int], int] = {}
        for t in range(n):
            for port, neighbor in enumerate(self._neighbors[t]):
                self._nbr[t, port] = neighbor
                self._port_of[(t, neighbor)] = port
        jj = np.arange(max_deg)
        self._static_link_ok = jj[None, :] < self._deg[:, None]
        #: port -> the neighbor's port back to this tile, which a pull
        #: response leaves on.  None for push-only policies and on a
        #: topology with one-way links (the pull phase then stays scalar).
        self._back = None
        if self.policy.uses_pull:
            back = np.full((n, max_deg), -1, dtype=np.int64)
            for (t, neighbor), port in self._port_of.items():
                back[t, port] = self._port_of.get((neighbor, t), -1)
            if (back[self._static_link_ok] >= 0).all():
                self._back = back
        for link in self.crash_plan.dead_links:
            port = self._port_of.get(link)
            if port is not None:
                self._static_link_ok[link[0], port] = False
        self._delay = np.ones((n, max_deg), dtype=np.int64)
        for link, delay in self.link_delays.items():
            port = self._port_of.get(link)
            if port is not None:
                self._delay[link[0], port] = delay
        self._uniform_delay = bool((self._delay == 1).all())
        self._epb = np.full(
            (n, max_deg), self.link_model.energy_per_bit_j, dtype=np.float64
        )
        for link, energy_per_bit in self.link_energy_overrides.items():
            port = self._port_of.get(link)
            if port is not None:
                self._epb[link[0], port] = energy_per_bit

        self._alive = np.ones(n, dtype=bool)
        for tid in self.crash_plan.dead_tiles:
            self._alive[tid] = False
        self._informed = np.zeros(n, dtype=bool)

        # Message-population matrices, one column per registered message;
        # capacity doubles on demand.
        self._cap = 4
        self._buffered = np.zeros((n, self._cap), dtype=bool)
        self._seen = np.zeros((n, self._cap), dtype=bool)
        self._delivered = np.zeros((n, self._cap), dtype=bool)
        self._ttl = np.zeros((n, self._cap), dtype=np.int64)
        self._hop = np.zeros((n, self._cap), dtype=np.int64)
        self._iseq = np.zeros((n, self._cap), dtype=np.int64)
        self._buflen = np.zeros(n, dtype=np.int64)
        self._msg_dest = np.zeros(self._cap, dtype=np.int64)
        self._msg_source = np.zeros(self._cap, dtype=np.int64)
        self._msg_id = np.zeros(self._cap, dtype=np.int64)
        self._msg_bits = np.zeros(self._cap, dtype=np.int64)
        self._msg_index: dict[tuple[int, int], int] = {}
        self._msg_packets: list[Packet] = []
        #: (tile, mid) -> buffered packet carrying a non-canonical codeword.
        self._alt_packets: dict[tuple[int, int], Packet] = {}
        self._insert_seq = 0
        self._originated_keys: set[tuple[int, int]] = set()
        self._tile_originated: dict[int, set[tuple[int, int]]] = defaultdict(
            set
        )
        #: round -> chunks of packets latched for that round.
        self._pending: dict[int, list[_ArrivalChunk]] = {}
        #: round -> copies latched one at a time by `_transmit` since the
        #: last receive phase, which flushes them into `_pending`.
        self._latched: dict[int, _ChunkBuilder] = {}

        self._relay = self.config.buffer_mode == "relay"
        self._ips: dict[int, IPCore] = {}
        self._factories: dict[int, PacketFactory] = {}
        self._hook_set: set[int] = set()
        self._hook_tiles: list[int] = []
        self._receive_hooks: set[int] = set()
        policy_cls = type(self.policy)
        self._dup_scalar = (
            policy_cls.on_duplicate_received
            is not ForwardingPolicy.on_duplicate_received
        )
        self._dup_batch = (
            policy_cls.on_duplicates_batch
            is not ForwardingPolicy.on_duplicates_batch
        )
        self._dead_hook = (
            policy_cls.on_dead_link is not ForwardingPolicy.on_dead_link
        )

        #: Exact counts of the rounds each send / receive / pull path ran
        #: and of the upset pool's draws (docs/performance.md).  A
        #: diagnostic attribute only: it never enters results, metrics or
        #: cache keys.
        self.engine_paths: dict[str, int] = dict.fromkeys(
            (
                "send.vectorized", "send.pooled", "send.matrix",
                "send.sequential", "receive.vectorized", "receive.ordered",
                "pull.vectorized", "pull.sequential",
                "pool.doubles_drawn", "pool.doubles_used", "pool.reanchors",
            ),
            0,
        )

        self.tiles = {t: _TileView(self, t) for t in range(n)}

    def _set_ip(self, tile_id: int, ip: IPCore) -> None:
        self._ips[tile_id] = ip
        cls = type(ip)
        has_round_hook = (
            cls.on_start is not IPCore.on_start
            or cls.on_round is not IPCore.on_round
        )
        if has_round_hook:
            if tile_id not in self._hook_set:
                self._hook_set.add(tile_id)
                self._hook_tiles = sorted(self._hook_set)
        elif tile_id in self._hook_set:
            self._hook_set.discard(tile_id)
            self._hook_tiles = sorted(self._hook_set)
        if cls.on_receive is not IPCore.on_receive:
            self._receive_hooks.add(tile_id)
        else:
            self._receive_hooks.discard(tile_id)

    # --------------------------------------------------------- message store

    def _grow(self) -> None:
        new_cap = self._cap * 2
        n = self._buffered.shape[0]

        def _wider(matrix, dtype):
            wide = np.zeros((n, new_cap), dtype=dtype)
            wide[:, : self._cap] = matrix
            return wide

        self._buffered = _wider(self._buffered, bool)
        self._seen = _wider(self._seen, bool)
        self._delivered = _wider(self._delivered, bool)
        self._ttl = _wider(self._ttl, np.int64)
        self._hop = _wider(self._hop, np.int64)
        self._iseq = _wider(self._iseq, np.int64)
        for name in ("_msg_dest", "_msg_source", "_msg_id", "_msg_bits"):
            wide = np.zeros(new_cap, dtype=np.int64)
            wide[: self._cap] = getattr(self, name)
            setattr(self, name, wide)
        self._cap = new_cap

    def _register_message(self, packet: Packet) -> int:
        mid = self._msg_index.get(packet.key)
        if mid is not None:
            return mid
        mid = len(self._msg_packets)
        if mid >= self._cap:
            self._grow()
        self._msg_index[packet.key] = mid
        self._msg_packets.append(packet)
        self._msg_dest[mid] = packet.destination
        self._msg_source[mid] = packet.source
        self._msg_id[mid] = packet.message_id
        self._msg_bits[mid] = packet.size_bits
        return mid

    def _event_packet(
        self,
        mid: int,
        ttl: int,
        hop: int,
        alt_packet: Packet | None = None,
        intact: bool = True,
    ) -> Packet:
        """Materialise an equal-valued packet for one population slot."""
        canonical = self._msg_packets[mid]
        codeword = (
            canonical.codeword if alt_packet is None else alt_packet.codeword
        )
        return Packet(
            source=canonical.source,
            destination=canonical.destination,
            message_id=canonical.message_id,
            payload=canonical.payload,
            ttl=ttl,
            codeword=codeword,
            crc=canonical.crc,
            hop_count=hop,
            created_round=canonical.created_round,
            _intact=intact,
        )

    # ------------------------------------------------------ state mutations

    def _crash_tile(self, tile_id: int) -> None:
        self._alive[tile_id] = False
        if self._buflen[tile_id]:
            self._buffered[tile_id, :] = False
            self._buflen[tile_id] = 0
        if self._alt_packets:
            for key in [k for k in self._alt_packets if k[0] == tile_id]:
                del self._alt_packets[key]

    def _originate(self, tile_id: int, packet: Packet) -> None:
        if not self._alive[tile_id]:
            return
        key = packet.key
        self._originated_keys.add(key)
        self._tile_originated[tile_id].add(key)
        mid = self._register_message(packet)
        # A tile never delivers its own message back to its IP.
        self._delivered[tile_id, mid] = True
        canonical = self._msg_packets[mid]
        alt = packet if packet.codeword != canonical.codeword else None
        self._insert_entry(
            tile_id, mid, packet.ttl, packet.hop_count, alt
        )

    def _insert_entry(
        self,
        tile_id: int,
        mid: int,
        ttl: int,
        hop: int,
        alt_packet: Packet | None,
    ) -> bool:
        """Dedup-insert one slot; True when it took a new buffer place."""
        if self._relay:
            if self._buffered[tile_id, mid]:
                return False
        elif self._seen[tile_id, mid]:
            return False
        capacity = self.config.buffer_capacity
        if capacity is not None and self._buflen[tile_id] >= capacity:
            # Evict the oldest buffered message (minimum insert stamp).
            row = self._buffered[tile_id]
            cols = np.nonzero(row)[0]
            victim = int(cols[np.argmin(self._iseq[tile_id, cols])])
            row[victim] = False
            self._buflen[tile_id] -= 1
            if self._alt_packets:
                self._alt_packets.pop((tile_id, victim), None)
        self._buffered[tile_id, mid] = True
        self._seen[tile_id, mid] = True
        self._ttl[tile_id, mid] = ttl
        self._hop[tile_id, mid] = hop
        self._iseq[tile_id, mid] = self._insert_seq
        self._insert_seq += 1
        self._buflen[tile_id] += 1
        self._informed[tile_id] = True
        if alt_packet is not None:
            self._alt_packets[(tile_id, mid)] = alt_packet
        elif self._alt_packets:
            self._alt_packets.pop((tile_id, mid), None)
        return True

    def _apply_scheduled_crashes(self, round_index: int) -> None:
        links = self._scheduled_link_crashes.get(round_index, ())
        super()._apply_scheduled_crashes(round_index)
        for link in links:
            port = self._port_of.get(link)
            if port is not None:
                self._static_link_ok[link[0], port] = False

    def _effective_link_ok(self) -> np.ndarray:
        if not self._scenario_dead_links:
            return self._static_link_ok
        link_ok = self._static_link_ok.copy()
        for link in self._scenario_dead_links:
            port = self._port_of.get(link)
            if port is not None:
                link_ok[link[0], port] = False
        return link_ok

    # ------------------------------------------------------------ inspection

    def informed_tiles(self) -> list[int]:
        """Tiles holding or having originated at least one message."""
        return np.nonzero(self._informed)[0].tolist()

    # ---------------------------------------------------------- round phases

    def _receive_phase(self, round_index: int) -> None:
        self._apply_scheduled_crashes(round_index)
        if self._relay and self._buflen.any():
            self._buffered[:, :] = False
            self._buflen[:] = 0
            self._alt_packets.clear()
        self._flush_latched()
        chunks = self._pending.pop(round_index, None)
        if not chunks:
            return
        if len(chunks) == 1:
            chunk = chunks[0]
            dst, mid, ttl, hop = chunk.dst, chunk.mid, chunk.ttl, chunk.hop
            upset, intact, alt = chunk.upset, chunk.intact, dict(chunk.alt)
        else:
            dst = np.concatenate([c.dst for c in chunks])
            mid = np.concatenate([c.mid for c in chunks])
            ttl = np.concatenate([c.ttl for c in chunks])
            hop = np.concatenate([c.hop for c in chunks])
            upset = np.concatenate([c.upset for c in chunks])
            intact = np.concatenate([c.intact for c in chunks])
            alt = {}
            offset = 0
            for c in chunks:
                for i, packet in c.alt.items():
                    alt[offset + i] = packet
                offset += c.dst.size
        total = dst.size
        capacity = self.config.buffer_capacity
        ordered = self._receive_hooks or (self._relay and capacity is not None)
        draws = capacity is None and self.fault_config.p_overflow > 0.0
        if ordered or draws or self.observer is not None:
            # Group events by destination in first-arrival order — the
            # object engine's arrival-map iteration order (dict key
            # insertion), which overflow draws and each kind's observer
            # events follow.  Otherwise the vectorized path skips this:
            # inserts, deliveries, duplicates, insert stamps and evictions
            # only compare events of the *same* tile, whose relative order
            # the emission-ordered arrays already preserve.
            position = np.arange(total)
            first = np.full(self._alive.size, total, dtype=np.int64)
            np.minimum.at(first, dst, position)
            perm = np.argsort(first[dst], kind="stable")
            if not np.array_equal(perm, position):
                dst, mid = dst[perm], mid[perm]
                ttl, hop = ttl[perm], hop[perm]
                upset, intact = upset[perm], intact[perm]
                if alt:
                    inverse = np.empty(total, dtype=np.int64)
                    inverse[perm] = position
                    alt = {int(inverse[i]): p for i, p in alt.items()}
        if ordered:
            self.engine_paths["receive.ordered"] += 1
            self._receive_ordered(
                round_index, dst, mid, ttl, hop, upset, intact, alt
            )
            return
        self.engine_paths["receive.vectorized"] += 1
        self._receive_vectorized(
            round_index, dst, mid, ttl, hop, upset, intact, alt
        )

    def _receive_vectorized(
        self, round_index, dst, mid, ttl, hop, upset, intact, alt
    ) -> None:
        stats = self.stats
        observer = self.observer
        total = dst.size
        capacity = self.config.buffer_capacity
        p_overflow = self.fault_config.p_overflow
        survivors = None
        # Modelled buffers replace the overflow Bernoulli (object engine).
        if capacity is None and p_overflow > 0.0:
            dropped = self.rng.random(total) < p_overflow
            n_dropped = int(np.count_nonzero(dropped))
            if n_dropped:
                stats.overflow_drops += n_dropped
                if observer is not None:
                    for i in np.nonzero(dropped)[0].tolist():
                        observer.on_overflow_drop(round_index, int(dst[i]))
                survivors = ~dropped
        if survivors is None:
            escaped = upset & intact
            alive_e = self._alive[dst]
            dead = ~alive_e
            bad = alive_e & ~intact
            eligible = alive_e & intact
        else:
            escaped = survivors & upset & intact
            alive_e = self._alive[dst]
            dead = survivors & ~alive_e
            bad = survivors & alive_e & ~intact
            eligible = survivors & alive_e & intact
        stats.upsets_escaped += int(np.count_nonzero(escaped))
        stats.dead_tile_drops += int(np.count_nonzero(dead))
        n_bad = int(np.count_nonzero(bad))
        if n_bad:
            stats.upsets_detected += n_bad
            if observer is not None:
                for i in np.nonzero(bad)[0].tolist():
                    observer.on_crc_drop(
                        round_index,
                        int(dst[i]),
                        self._event_packet(
                            int(mid[i]),
                            int(ttl[i]),
                            int(hop[i]),
                            alt.get(i),
                            intact=False,
                        ),
                    )
        if not eligible.any():
            return
        flat = dst * self._cap + mid
        eligible_pos = np.nonzero(eligible)[0]
        _, first_in = np.unique(flat[eligible_pos], return_index=True)
        firsts = eligible_pos[first_in]
        dedup_base = self._buffered if self._relay else self._seen
        already = dedup_base.reshape(-1)[flat[firsts]]
        inserts = firsts[~already]
        inserts.sort()
        newly = np.zeros(total, dtype=bool)
        newly[inserts] = True
        duplicates = eligible & ~newly
        n_dup = int(np.count_nonzero(duplicates))
        if n_dup:
            stats.duplicates_suppressed += n_dup
            if self._dup_batch or self._dup_scalar:
                dup_pos = np.nonzero(duplicates)[0]
                handled = False
                if self._dup_batch:
                    handled = self.policy.on_duplicates_batch(
                        dst[dup_pos],
                        self._msg_source[mid[dup_pos]],
                        self._msg_id[mid[dup_pos]],
                        round_index,
                    )
                if not handled and self._dup_scalar:
                    for i in dup_pos.tolist():
                        self.policy.on_duplicate_received(
                            int(dst[i]),
                            self._event_packet(
                                int(mid[i]), int(ttl[i]), int(hop[i]),
                                alt.get(i),
                            ),
                            round_index,
                        )
        # Deliveries derive from the same per-key firsts: a packet's
        # destination is a per-message constant, so either every eligible
        # occurrence of a key is delivery-addressed or none is — the
        # first candidate occurrence IS the first eligible one.
        dest_first = self._msg_dest[mid[firsts]]
        addressed = (dest_first == dst[firsts]) | (dest_first == BROADCAST)
        cand_firsts = firsts[addressed]
        undelivered = ~self._delivered.reshape(-1)[flat[cand_firsts]]
        deliveries = cand_firsts[undelivered]
        if inserts.size:
            t_ins = dst[inserts]
            m_ins = mid[inserts]
            informed_before = int(np.count_nonzero(self._informed))
            self._buffered[t_ins, m_ins] = True
            self._seen[t_ins, m_ins] = True
            self._ttl[t_ins, m_ins] = ttl[inserts]
            self._hop[t_ins, m_ins] = hop[inserts]
            self._iseq[t_ins, m_ins] = self._insert_seq + np.arange(
                inserts.size
            )
            self._insert_seq += int(inserts.size)
            np.add.at(self._buflen, t_ins, 1)
            self._informed[t_ins] = True
            n_flips = int(np.count_nonzero(self._informed)) - informed_before
            if n_flips:
                stats.per_round_informed[round_index] = n_flips
            if alt or self._alt_packets:
                for i in inserts.tolist():
                    slot = (int(dst[i]), int(mid[i]))
                    packet = alt.get(i)
                    if packet is not None:
                        self._alt_packets[slot] = packet
                    elif self._alt_packets:
                        self._alt_packets.pop(slot, None)
            if capacity is not None:
                # After the alt loop, so a copy evicted in its own round
                # drops its alt packet too.
                self._evict_overflow(capacity)
        if deliveries.size == 0:
            return
        deliveries.sort()
        t_del = dst[deliveries]
        m_del = mid[deliveries]
        self._delivered[t_del, m_del] = True
        stats.deliveries += int(deliveries.size)
        stats.delivery_hops_total += int(hop[deliveries].sum())
        if observer is not None:
            for i in deliveries.tolist():
                observer.on_delivery(
                    round_index,
                    int(dst[i]),
                    self._event_packet(
                        int(mid[i]), int(ttl[i]), int(hop[i]), alt.get(i)
                    ),
                )
        # No ip.on_receive calls here: the vectorized path only runs when
        # no mounted IP overrides on_receive (RelayCore's hook is a no-op).

    def _evict_overflow(self, capacity: int) -> None:
        """Evict, at once, what a round's inserts pushed past `capacity`.

        One by one, each insert takes the largest stamp so far and each
        eviction removes the smallest, so a tile ends the round holding
        its `capacity` largest ``_iseq`` stamps.  (Relay buffers dedup
        against the buffer itself and stay on the ordered path.)
        """
        over = np.nonzero(self._buflen > capacity)[0]
        if over.size == 0:
            return
        stamps = np.where(
            self._buffered[over], self._iseq[over], np.iinfo(np.int64).max
        )
        oldest = np.argsort(stamps, axis=1, kind="stable")
        excess = self._buflen[over] - capacity
        rows, rank = np.nonzero(
            np.arange(oldest.shape[1])[None, :] < excess[:, None]
        )
        t_out = over[rows]
        m_out = oldest[rows, rank]
        self._buffered[t_out, m_out] = False
        self._buflen[over] = capacity
        if self._alt_packets:
            for slot in zip(t_out.tolist(), m_out.tolist()):
                self._alt_packets.pop(slot, None)

    def _receive_ordered(
        self, round_index, dst, mid, ttl, hop, upset, intact, alt
    ) -> None:
        """Event-ordered receive: on_receive hooks and bounded relay buffers.

        Replays the object engine's per-arrival sequence exactly —
        scalar overflow draws, eviction order, hook interleaving — on
        top of the array state.
        """
        stats = self.stats
        observer = self.observer
        injector = self.injector
        draw_overflow = (
            self.config.buffer_capacity is None
            and self.fault_config.p_overflow > 0.0
        )
        msg_dest = self._msg_dest
        dst_l = dst.tolist()
        mid_l = mid.tolist()
        ttl_l = ttl.tolist()
        hop_l = hop.tolist()
        upset_l = upset.tolist()
        intact_l = intact.tolist()
        flips = 0
        group_tile = -1
        group_was_informed = False
        for i in range(len(dst_l)):
            tile_id = dst_l[i]
            if tile_id != group_tile:
                if (
                    group_tile >= 0
                    and not group_was_informed
                    and self._informed[group_tile]
                ):
                    flips += 1
                group_tile = tile_id
                group_was_informed = bool(self._informed[tile_id])
            if draw_overflow and injector.overflow_occurs():
                stats.overflow_drops += 1
                if observer is not None:
                    observer.on_overflow_drop(round_index, tile_id)
                continue
            packet_intact = intact_l[i]
            if upset_l[i] and packet_intact:
                stats.upsets_escaped += 1
            alive = bool(self._alive[tile_id])
            if observer is not None and alive and not packet_intact:
                observer.on_crc_drop(
                    round_index,
                    tile_id,
                    self._event_packet(
                        mid_l[i], ttl_l[i], hop_l[i], alt.get(i),
                        intact=False,
                    ),
                )
            if not alive:
                stats.dead_tile_drops += 1
                continue
            if not packet_intact:
                stats.upsets_detected += 1
                continue
            mid_i = mid_l[i]
            inserted = self._insert_entry(
                tile_id, mid_i, ttl_l[i], hop_l[i], alt.get(i)
            )
            if not inserted:
                stats.duplicates_suppressed += 1
                if self._dup_scalar:
                    self.policy.on_duplicate_received(
                        tile_id,
                        self._event_packet(
                            mid_i, ttl_l[i], hop_l[i], alt.get(i)
                        ),
                        round_index,
                    )
                elif self._dup_batch:
                    self.policy.on_duplicates_batch(
                        np.asarray([tile_id], dtype=np.int64),
                        self._msg_source[mid_i : mid_i + 1],
                        self._msg_id[mid_i : mid_i + 1],
                        round_index,
                    )
            destination = int(msg_dest[mid_i])
            if (
                destination == tile_id or destination == BROADCAST
            ) and not self._delivered[tile_id, mid_i]:
                self._delivered[tile_id, mid_i] = True
                stats.deliveries += 1
                stats.delivery_hops_total += hop_l[i]
                packet = self._event_packet(
                    mid_i, ttl_l[i], hop_l[i], alt.get(i)
                )
                if observer is not None:
                    observer.on_delivery(round_index, tile_id, packet)
                if tile_id in self._receive_hooks:
                    self._ips[tile_id].on_receive(
                        TileContext(self.tiles[tile_id], round_index, self.rng),
                        packet,
                    )
        if (
            group_tile >= 0
            and not group_was_informed
            and self._informed[group_tile]
        ):
            flips += 1
        if flips:
            stats.per_round_informed[round_index] = flips

    def _compute_phase(self, round_index: int) -> None:
        for tile_id in self._hook_tiles:
            if not self._alive[tile_id]:
                continue
            ip = self._ips[tile_id]
            ctx = TileContext(self.tiles[tile_id], round_index, self.rng)
            if round_index == 0:
                ip.on_start(ctx)
            ip.on_round(ctx)
        self.stats.unique_messages_created = len(self._originated_keys)

    def _age_phase(self) -> None:
        buffered = self._buffered
        np.subtract(self._ttl, buffered, out=self._ttl)
        expired = buffered & (self._ttl <= 0)
        n_expired = int(np.count_nonzero(expired))
        if n_expired:
            self.stats.ttl_expirations += n_expired
            np.logical_and(buffered, ~expired, out=buffered)
            self._buflen -= expired.sum(axis=1)
            if self._alt_packets:
                for key in [
                    k for k in self._alt_packets if not buffered[k]
                ]:
                    del self._alt_packets[key]

    def _send_phase(self, round_index: int) -> None:
        if self.fault_config.sigma_synchr != 0.0:
            raise RuntimeError(
                "a fault scenario enabled sigma_synchr > 0 mid-run; the "
                "fast backend cannot model clock skew — use "
                "backend='object' for this scenario"
            )
        active = self._buffered & self._alive[:, None]
        t_all, m_all = np.nonzero(active)
        if t_all.size == 0:
            return
        if int(self._buflen.max()) <= 1:
            # At most one packet per tile: nonzero's row-major order is
            # already the object engine's visit order.
            t_arr, m_arr = t_all, m_all
        else:
            # Object visit order: ascending tile id, then buffer insertion.
            order = np.lexsort((self._iseq[t_all, m_all], t_all))
            t_arr = t_all[order]
            m_arr = m_all[order]
        deg = self._deg[t_arr]
        if not deg.all():
            keep = deg > 0
            t_arr = t_arr[keep]
            m_arr = m_arr[keep]
            if t_arr.size == 0:
                return
        p_row = self.policy.decide_batch(
            BatchDecisionView(
                round_index=round_index,
                tile_ids=t_arr,
                sources=self._msg_source[m_arr],
                message_ids=self._msg_id[m_arr],
                buffer_occupancy=self._buflen[t_arr],
                buffer_capacity=self.config.buffer_capacity,
                max_degree=self._max_deg,
                degrees=deg,
                rng=self.rng if self.fault_config.p_upset == 0.0 else None,
            )
        )
        paths = self.engine_paths
        if p_row is None:
            paths["send.sequential"] += 1
            self._send_rows_scalar(round_index, t_arr, m_arr)
            return
        p_row = np.asarray(p_row, dtype=np.float64)
        link_ok = self._effective_link_ok()
        if p_row.ndim == 2:
            paths["send.matrix"] += 1
            self._send_rows_matrix(round_index, t_arr, m_arr, p_row, link_ok)
            return
        if self.fault_config.p_upset > 0.0:
            paths["send.pooled"] += 1
            self._send_rows_pooled(round_index, t_arr, m_arr, p_row, link_ok)
        else:
            paths["send.vectorized"] += 1
            self._send_rows_vectorized(
                round_index, t_arr, m_arr, p_row, link_ok
            )

    def _send_rows_vectorized(
        self, round_index, t_arr, m_arr, p_row, link_ok
    ) -> None:
        """Fully batched send: no upsets possible, one draw block total."""
        n_rows = t_arr.size
        max_deg = self._max_deg
        deg = self._deg[t_arr]
        jj = np.arange(max_deg)
        valid = jj[None, :] < deg[:, None]
        full = p_row >= 1.0
        draw = ~full & (p_row > 0.0)
        if draw.all():
            # Homogeneous Bernoulli rows — the common case: one pooled
            # draw block, no row masking.
            n_draws = int(deg.sum())
            pool = self.rng.random(n_draws)
            offsets = np.empty(n_rows, dtype=np.int64)
            offsets[0] = 0
            np.cumsum(deg[:-1], out=offsets[1:])
            gather = offsets[:, None] + jj[None, :]
            np.minimum(gather, n_draws - 1, out=gather)
            transmit = (pool[gather] < p_row[:, None]) & valid
        else:
            transmit = np.zeros((n_rows, max_deg), dtype=bool)
            if full.any():
                transmit[full] = valid[full]
            if draw.any():
                draw_deg = deg[draw]
                n_draws = int(draw_deg.sum())
                pool = self.rng.random(n_draws)
                offsets = np.concatenate(
                    ([0], np.cumsum(draw_deg[:-1]))
                ).astype(np.int64)
                gather = offsets[:, None] + jj[None, :]
                np.minimum(gather, max(n_draws - 1, 0), out=gather)
                transmit[draw] = (pool[gather] < p_row[draw, None]) & (
                    jj[None, :] < draw_deg[:, None]
                )
        self._emit_transmit_matrix(round_index, t_arr, m_arr, transmit, link_ok)

    def _emit_transmit_matrix(
        self, round_index, t_arr, m_arr, transmit, link_ok, lead=None,
        upsets=None,
    ) -> None:
        """Emit a precomputed (row, port) transmit mask.

        `lead`, when given, is a pair ``(first_row, joules)``: energy
        charged outside the mask that the object engine adds just before
        the transmissions of rows ``first_row[i]`` onwards (a pull
        request ahead of its responses).  `upsets`, when given, is a pair
        ``(mask, copies)``: the (row, port) entries whose upset draw hit
        and their corrupted copies, in (row, port) order.  Observer and
        ``policy.on_dead_link`` hooks fire last, in (row, port) order —
        the object engine's; neither draws from the stream.
        """
        stats = self.stats
        observer = self.observer
        if lead is None and not transmit.any():
            return
        live = transmit & link_ok[t_arr]
        rows, ports = np.nonzero(live)
        n_live = int(rows.size)
        n_dead = int(np.count_nonzero(transmit)) - n_live
        stats.transmissions_attempted += n_dead + n_live
        stats.dead_link_drops += n_dead
        if lead is not None or n_live:
            srcs = t_arr[rows]
            mids = m_arr[rows]
            sizes = self._msg_bits[mids]
            # ufunc accumulate rounds every running sum left to right,
            # which keeps energy_j bit-identical to the object engine's
            # per-event "+=" chain (np.sum's pairwise reassociation
            # would not).
            increments = np.empty(n_live + 1, dtype=np.float64)
            increments[0] = stats.energy_j
            np.multiply(sizes, self._epb[srcs, ports], out=increments[1:])
            if lead is not None:
                first_row, joules = lead
                increments = np.insert(
                    increments, np.searchsorted(rows, first_row) + 1, joules
                )
            stats.energy_j = float(np.add.accumulate(increments)[-1])
        alt_events: dict[int, Packet] = {}
        if n_live:
            stats.transmissions_delivered += n_live
            stats.bits_transmitted += int(sizes.sum())
            stats.per_round_transmissions[round_index] += n_live
            dsts = self._nbr[srcs, ports]
            hops = self._hop[srcs, mids] + 1
            ttls = self._ttl[srcs, mids]
            if self._alt_packets:
                get_alt = self._alt_packets.get
                for i, slot in enumerate(zip(srcs.tolist(), mids.tolist())):
                    packet = get_alt(slot)
                    if packet is not None:
                        alt_events[i] = packet
            intact = np.ones(n_live, dtype=bool)
            if upsets is None:
                upset = np.zeros(n_live, dtype=bool)
            else:
                mask, copies = upsets
                upset = mask[rows, ports]
                stats.upsets_injected += len(copies)
                for i, copy in zip(np.nonzero(upset)[0].tolist(), copies):
                    alt_events[i] = copy
                    intact[i] = copy.is_intact()
            if self._uniform_delay:
                self._pending.setdefault(round_index + 1, []).append(
                    _ArrivalChunk(
                        dsts, mids, ttls, hops, upset, intact, alt_events
                    )
                )
            else:
                self._emit_delayed(
                    round_index, self._delay[srcs, ports], dsts, mids, ttls,
                    hops, upset, intact, alt_events,
                )
        if observer is None and not (n_dead and self._dead_hook):
            return
        # Hooks only: without an observer just the dead entries fire.
        entries = transmit if observer is not None else transmit & ~live
        e_rows, e_ports = np.nonzero(entries)
        src_l = t_arr.tolist()
        neighbors = self._neighbors
        if n_live and observer is not None:
            mid_l, ttl_l, hop_l = mids.tolist(), ttls.tolist(), hops.tolist()
            upset_l = upset.tolist()
        i = 0
        for row, port, ok in zip(
            e_rows.tolist(), e_ports.tolist(), live[e_rows, e_ports].tolist()
        ):
            src = src_l[row]
            neighbor = neighbors[src][port]
            if not ok:
                if self._dead_hook:
                    self.policy.on_dead_link(src, neighbor, round_index)
                if observer is not None:
                    observer.on_dead_link_drop(round_index, src, neighbor)
                continue
            packet = alt_events.get(i)
            if upset_l[i]:
                observer.on_upset_injected(round_index, src, neighbor, packet)
            else:
                packet = self._event_packet(mid_l[i], ttl_l[i], hop_l[i], packet)
            observer.on_transmission(round_index, src, neighbor, packet)
            i += 1

    def _send_rows_matrix(
        self, round_index, t_arr, m_arr, p_mat, link_ok
    ) -> None:
        """Send from a 2-D deterministic decide_batch matrix.

        Entries must be exactly 0.0 or 1.0 (per-row/per-port decisions
        with no coin flips); fractional per-port probabilities have no
        draw-order-preserving vectorised form, so they are rejected
        loudly rather than silently diverging from ``backend='object'``.
        """
        max_deg = self._max_deg
        if p_mat.shape != (t_arr.size, max_deg):
            raise ValueError(
                "2-D decide_batch must return shape (len(batch), "
                f"max_degree) = {(t_arr.size, max_deg)}, got {p_mat.shape}"
            )
        if not (((p_mat == 0.0) | (p_mat == 1.0)).all()):
            raise ValueError(
                "2-D decide_batch matrices must be deterministic (every "
                "entry 0.0 or 1.0); return a 1-D per-row probability "
                "array or None for stochastic rules"
            )
        deg = self._deg[t_arr]
        jj = np.arange(max_deg)
        transmit = (p_mat >= 1.0) & (jj[None, :] < deg[:, None])
        if self.fault_config.p_upset > 0.0:
            # Decisions are draw-free, so the only RNG consumers are the
            # per-live-transmission upset draws — walk them scalar-wise
            # in (row, port) order, exactly like the object engine.
            busy = transmit.any(axis=1)
            self._send_rows_scalar(
                round_index, t_arr[busy], m_arr[busy], transmit[busy]
            )
        else:
            self._emit_transmit_matrix(
                round_index, t_arr, m_arr, transmit, link_ok
            )

    def _emit_delayed(
        self, round_index, delays, dsts, mids, ttls, hops, upsets, intact, alt
    ) -> None:
        for delay in np.unique(delays).tolist():
            mask = delays == delay
            sub_alt: dict[int, Packet] = {}
            if alt:
                positions = np.nonzero(mask)[0]
                remap = {
                    int(old): new for new, old in enumerate(positions.tolist())
                }
                for old, packet in alt.items():
                    new = remap.get(old)
                    if new is not None:
                        sub_alt[new] = packet
            self._pending.setdefault(round_index + int(delay), []).append(
                _ArrivalChunk(
                    dsts[mask], mids[mask], ttls[mask], hops[mask],
                    upsets[mask], intact[mask], sub_alt,
                )
            )

    @staticmethod
    def _rewind(bit_generator, anchor, used: int) -> None:
        """Reposition the stream `used` doubles past `anchor`.

        ``advance`` documentedly resets PCG64's buffered uint32 half-word
        (set by the error model's ``integers`` draws), but the object
        engine's stream carries that buffer across corruptions — restore
        it, since pooled doubles never consume it.
        """
        bit_generator.state = anchor
        bit_generator.advance(used)
        if anchor.get("has_uint32"):
            state = bit_generator.state
            state["has_uint32"] = anchor["has_uint32"]
            state["uinteger"] = anchor["uinteger"]
            bit_generator.state = state

    def _send_rows_pooled(
        self, round_index, t_arr, m_arr, p_row, link_ok
    ) -> None:
        """Send with p_upset > 0: a scan over stream positions, one emit.

        Corruption draws are never pool doubles, so the doubles a round
        consumes form one *virtual* stream: row r's decision doubles (one
        per port when 0 < p < 1) start at ``starts[r]`` and its upset
        doubles (one per live transmitting port) follow.  The scan reads
        them from a growing pre-drawn pool — ``_POOL_CHUNK`` doubles
        after every anchor, doubling per refill, so a round pre-draws
        O(consumed + chunk x corruptions) — and walks only positions.  At
        an upset double below ``p_upset`` it rewinds the bit generator to
        the logical position, lets the error model corrupt the copy from
        the live stream, re-anchors and starts a fresh pool.  The masks
        are then computed from the consumed doubles and emitted at once.
        """
        paths = self.engine_paths
        p_upset = float(self.fault_config.p_upset)
        jj = np.arange(self._max_deg)
        deg = self._deg[t_arr]
        valid = jj[None, :] < deg[:, None]
        live_ports = valid & link_ok[t_arr]
        full = p_row >= 1.0
        draw = ~full & (p_row > 0.0)
        n_dec = np.where(draw, deg, 0)
        n_full = np.where(full, live_ports.sum(axis=1), 0)
        busy = np.nonzero(n_dec + n_full)[0]
        random = self.rng.random
        bit_generator = self.rng.bit_generator
        anchor = bit_generator.state
        pool: list[float] = []
        have = used = 0
        block = _POOL_CHUNK
        consumed: list[float] = []
        starts: list[int] = []
        copies: list[Packet] = []
        for row, p, n_draws, k, ok in zip(
            busy.tolist(),
            p_row[busy].tolist(),
            n_dec[busy].tolist(),
            n_full[busy].tolist(),
            live_ports[busy].tolist(),
        ):
            if n_draws:
                while used + n_draws > have:
                    pool += random(block).tolist()
                    have += block
                    block *= 2
                starts.append(len(consumed) + used)
                k = sum(map(p.__gt__, compress(pool[used : used + n_draws], ok)))
                used += n_draws
            while k:
                if used == have:
                    pool += random(block).tolist()
                    have += block
                    block *= 2
                window = pool[used : used + k]
                if min(window) >= p_upset:
                    used += len(window)
                    k -= len(window)
                    continue
                hit = next(i for i, x in enumerate(window) if x < p_upset) + 1
                used += hit
                k -= hit
                # Corruption draws come from the live stream: rewind to
                # the logical position, corrupt, re-anchor, and keep the
                # consumed prefix of the pool as part of the stream.
                self._rewind(bit_generator, anchor, used)
                tile_id, mid = int(t_arr[row]), int(m_arr[row])
                copy = self._event_packet(
                    mid,
                    int(self._ttl[tile_id, mid]),
                    int(self._hop[tile_id, mid]) + 1,
                    self._alt_packets.get((tile_id, mid)),
                )
                copies.append(
                    copy.scrambled(self.injector.corrupt(copy.codeword))
                )
                anchor = bit_generator.state
                paths["pool.doubles_drawn"] += have
                paths["pool.doubles_used"] += used
                paths["pool.reanchors"] += 1
                consumed += pool[:used]
                pool = []
                have = used = 0
                block = _POOL_CHUNK
        if have:
            # Leave the generator exactly where the object engine's would be.
            self._rewind(bit_generator, anchor, used)
        paths["pool.doubles_drawn"] += have
        paths["pool.doubles_used"] += used
        consumed += pool[:used]
        stream = np.asarray(consumed, dtype=np.float64)
        transmit = full[:, None] & valid
        is_decision = np.zeros(stream.size, dtype=bool)
        if starts:
            rows = np.nonzero(draw)[0]
            at = np.asarray(starts)[:, None] + jj[None, :]
            ports = valid[rows]
            transmit[rows] = ports & (
                stream[np.where(ports, at, 0)] < p_row[rows, None]
            )
            is_decision[at[ports]] = True
        upset = np.zeros_like(transmit)
        upset[transmit & live_ports] = stream[~is_decision] < p_upset
        self._emit_transmit_matrix(
            round_index, t_arr, m_arr, transmit, link_ok,
            upsets=(upset, copies),
        )

    def _flush_latched(self) -> None:
        """Turn the copies `_transmit` latched into pending chunks.

        Emission order is receive order: the copies follow every chunk
        emitted before them and precede every chunk emitted after this
        call.
        """
        for arrival, builder in self._latched.items():
            self._pending.setdefault(arrival, []).append(builder.chunk())
        self._latched.clear()

    def _latch_arrival(
        self, arrival: int, dst: int, copy: Packet, was_upset: bool
    ) -> None:
        """Latch one `_transmit` copy into the columnar pending state.

        Copies accumulate in one :class:`_ChunkBuilder` per arrival round
        until :meth:`_flush_latched` turns the builders into chunks, so
        the fast receive processes them exactly like batched arrivals.
        """
        mid = self._register_message(copy)
        intact = copy.is_intact()
        non_canonical = (
            was_upset
            or not intact
            or copy.codeword != self._msg_packets[mid].codeword
        )
        builder = self._latched.get(arrival)
        if builder is None:
            builder = self._latched[arrival] = _ChunkBuilder()
        builder.add(
            dst, mid, copy.ttl, copy.hop_count, was_upset, intact,
            copy if non_canonical else None,
        )

    def _send_rows_scalar(
        self, round_index, t_arr, m_arr, transmit=None
    ) -> None:
        """Exact per-row send: each row's packet is materialised and
        driven through the inherited :meth:`_transmit`, port by port.

        The target ports come from ``policy.decisions`` (`transmit` is
        None: the policy has no ``decide_batch``) or from the rows of a
        deterministic ``decide_batch`` mask walked under upsets.
        """
        capacity = self.config.buffer_capacity
        alt_packets = self._alt_packets
        sender_end = self._clock.round_end(round_index)
        mask_rows = None if transmit is None else transmit.tolist()
        for row, (tile_id, mid, ttl, hop, occupancy) in enumerate(
            zip(
                t_arr.tolist(),
                m_arr.tolist(),
                self._ttl[t_arr, m_arr].tolist(),
                self._hop[t_arr, m_arr].tolist(),
                self._buflen[t_arr].tolist(),
            )
        ):
            neighbors = self._neighbors[tile_id]
            packet = self._event_packet(
                mid, ttl, hop, alt_packets.get((tile_id, mid))
            )
            if mask_rows is None:
                targets = [
                    decision.neighbor
                    for decision in self.policy.decisions(
                        packet,
                        neighbors,
                        self.rng,
                        tile_id=tile_id,
                        round_index=round_index,
                        buffer_occupancy=occupancy,
                        buffer_capacity=capacity,
                    )
                    if decision.transmit
                ]
            else:
                targets = [
                    neighbors[port]
                    for port, go in enumerate(mask_rows[row])
                    if go
                ]
            for dst in targets:
                self._transmit(round_index, tile_id, dst, packet, sender_end)

    def _pull_phase(self, round_index: int) -> None:
        """Batched pull half for policies with ``pull_ports_batch``.

        The policy draws the whole round's request ports at once; the
        requests become stats and the answered ones become response rows
        — each responder's buffer in insertion order, transmitted on the
        port back to the requester — emitted as one matrix.  Under
        upsets (every response draws), on a topology with one-way links,
        without the hook, or when the policy declines the round, the
        inherited per-tile phase runs.
        """
        tiles = np.nonzero(self._alive & (self._deg > 0))[0]
        if tiles.size == 0:
            return
        requests = None
        if self.fault_config.p_upset == 0.0 and self._back is not None:
            requests = self.policy.pull_ports_batch(
                tiles,
                self._deg[tiles],
                self._informed[tiles],
                self.rng,
                round_index,
            )
        if requests is None:
            self.engine_paths["pull.sequential"] += 1
            super()._pull_phase(round_index)
            return
        self.engine_paths["pull.vectorized"] += 1
        rows, ports = np.nonzero(requests)
        if rows.size == 0:
            return
        stats = self.stats
        link_ok = self._effective_link_ok()
        askers = tiles[rows]
        crossed = link_ok[askers, ports]
        askers, ports = askers[crossed], ports[crossed]
        responders = self._nbr[askers, ports]
        # Per crossed request: the response rows it triggers.
        n_rows = np.where(
            self._alive[responders], self._buflen[responders], 0
        )
        answered = n_rows > 0
        n_requests = int(rows.size)
        stats.pull_requests += n_requests
        stats.pull_requests_lost += n_requests - int(
            np.count_nonzero(answered)
        )
        request_bits = self.policy.pull_request_bits
        stats.bits_transmitted += request_bits * int(askers.size)
        lead = (
            np.cumsum(n_rows) - n_rows,
            request_bits * self._epb[askers, ports],
        )
        t_ans = responders[answered]
        request_of, m_arr = np.nonzero(self._buffered[t_ans])
        t_arr = t_ans[request_of]
        if n_rows.max(initial=0) > 1:
            order = np.lexsort((self._iseq[t_arr, m_arr], request_of))
            request_of, m_arr, t_arr = (
                request_of[order], m_arr[order], t_arr[order]
            )
        back = self._back[askers, ports][answered][request_of]
        transmit = np.zeros((t_arr.size, self._max_deg), dtype=bool)
        transmit[np.arange(t_arr.size), back] = True
        stats.pull_responses += int(np.count_nonzero(link_ok[t_arr, back]))
        # Responses must follow whatever a declined (scalar) push latched.
        self._flush_latched()
        self._emit_transmit_matrix(
            round_index, t_arr, m_arr, transmit, link_ok, lead
        )
