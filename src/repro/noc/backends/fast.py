"""The vectorised structure-of-arrays engine backend.

:class:`FastNocSimulator` re-implements the four engine phases of
:class:`repro.noc.engine.NocSimulator` as batched numpy array operations
over the *live packet population* — one row per (tile, message) buffer
slot — instead of per-object method calls.  It is selected with
``NocSimulator(..., backend="fast")`` or ``SimConfig(backend="fast")``.

Every per-slot fact — buffered, seen, delivered, TTL, hop count, insert
stamp and codeword id — is a ``(tile, message)`` matrix, and an arrival
in flight is a tuple of columns ``(dst, mid, ttl, hop, upset, intact,
cw)``.  Codeword id 0 is the message's own codeword; k > 0 is
``_codewords[k]``, a per-run list that only escaped upset scrambles,
originated variants and, with an event observer, corrupted copies
enter.  Every insert writes every column, so no slot keeps a stale
codeword.

Bit-identical results are the contract, not an aspiration: for every
supported configuration the fast engine consumes the *same* draws from
the *same* ``numpy.random.default_rng(seed)`` stream in the same order
as the object engine, and produces equal :class:`SimulationResult`,
:class:`NetworkStats` (including both per-round series) and observer
aggregates.  Every cross-backend test checks this through one
comparator, ``tests/twins.py`` (generator state, result, energy,
informed set, per-round buffer rows, metrics and trace); the
golden-trace grid in ``tests/test_backends_equivalence.py`` runs it over
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
  ``p_upset > 0``, each hit followed at once by the error model's
  corruption draws.  Under upsets a round reads all of them off one
  block of raw PCG64 words by index arithmetic
  (:class:`~repro.noc.backends.words.WordStream`), checks the corrupted
  codewords' CRC in one batch and leaves the generator exactly where
  the object engine's would be.  Every send and pull round, on every
  path below, is then emitted as one matrix by ``_emit_transmit_matrix``.
* **push-pull** — at ``p_upset == 0`` the policy draws a whole round's
  push ports (send) and pull targets (pull) from one uint32 block that
  consumes exactly what the per-row ``choice`` / ``integers`` calls
  would (:mod:`repro.policies.sampling`); it may decline a round, which
  then runs on the per-row paths below.

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
* policies without a :meth:`ForwardingPolicy.decide_batch`, or whose
  hook returns None for the round (push-pull under upsets), decide row by
  row: ``policy.decisions`` returns the row's per-port mask, which is
  the row of the round's transmit matrix, and the row's upsets are drawn
  right after it;
* pull phases without a :meth:`ForwardingPolicy.pull_ports_batch` mask
  — the hook is missing or declined, or ``p_upset > 0`` — ask
  ``pull_targets`` tile by tile, each request's upsets drawn before the
  next tile asks.

Per-event observer hooks are replayed only to an observer that listens
(:func:`repro.noc.trace.listens`); :class:`repro.metrics.MetricsCollector`
listens to none — it differences ``NetworkStats`` and calls
:meth:`round_sample` — so a collector-only run takes the unobserved
paths and builds no :class:`Packet` per event.  For a listening observer,
ordering is a contract with three clauses, checked by ``tests/twins.py``
wherever both runs are traced and path by path by
``tests/test_observer_ordering.py``: on every path (a) each per-kind
subsequence of hook calls and (b) each round's multiset of events equal
the object engine's; (c) the *full* sequence is equal in rounds whose
receive ran event-ordered.  Only the vectorised receive regroups a
round's events by kind; every send and pull emit replays its hooks in
(row, port) order, the object engine's.  Stats, series and all
collector output are identical always.
IPs must not rely on object identity of buffered packets (the fast
engine materialises equal-valued packets on demand and tracks TTL, hops
and codewords in arrays).
"""

from __future__ import annotations

import weakref
from collections import defaultdict

import numpy as np

from repro.core.packet import BROADCAST, Packet, PacketFactory
from repro.noc.backends import FAST_BACKEND
from repro.noc.backends.words import WordStream
from repro.noc.clock import ClockDomain
from repro.noc.engine import NocSimulator
from repro.noc.tile import IPCore, RelayCore, TileContext, TileState
from repro.policies.base import BatchDecisionView, ForwardingPolicy


def _codeword_rows(codewords: list[bytes]) -> np.ndarray:
    """Non-empty `codewords` as one zero-padded ``uint8`` matrix."""
    width = max(map(len, codewords))
    padded = b"".join(codeword.ljust(width, b"\0") for codeword in codewords)
    return np.frombuffer(padded, dtype=np.uint8).reshape(-1, width)


class _BufferView:
    """Read-only mapping view over one tile's send-buffer slot arrays."""

    __slots__ = ("_sim", "_tile_id")

    def __init__(self, sim: "FastNocSimulator", tile_id: int) -> None:
        self._sim = sim
        self._tile_id = tile_id

    def __len__(self) -> int:
        return int(self._sim._buflen[self._tile_id])

    def __contains__(self, key) -> bool:
        mid = self._sim._msg_index.get(key)
        return mid is not None and bool(self._sim._buffered[self._tile_id, mid])

    def __iter__(self):
        return iter(self.keys())

    def keys(self) -> list[tuple[int, int]]:
        sim = self._sim
        packets = sim._msg_packets
        return [packets[m].key for m in sim._buffer_order(self._tile_id)]

    def values(self) -> list[Packet]:
        sim, t = self._sim, self._tile_id
        return [
            sim._event_packet(
                m, int(sim._ttl[t, m]), int(sim._hop[t, m]), int(sim._cw[t, m])
            )
            for m in sim._buffer_order(t)
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


class FastNocSimulator(NocSimulator):
    """Structure-of-arrays engine: same results, batched execution.

    See the module docstring for the equivalence contract and the
    supported-configuration matrix; ``docs/performance.md`` has measured
    speedups and usage guidance.
    """

    backend_name = FAST_BACKEND

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
        self.clocks = dict.fromkeys(
            self._tile_ids, ClockDomain(self.nominal_round_s, self.injector)
        )
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
        #: response leaves on; -1 on a one-way link, whose far end cannot
        #: answer.  None for push-only policies.
        self._back = None
        if self.policy.uses_pull:
            self._back = np.full((n, max_deg), -1, dtype=np.int64)
            for (t, neighbor), port in self._port_of.items():
                self._back[t, port] = self._port_of.get((neighbor, t), -1)
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
        #: 0: the message's own codeword; k > 0: ``_codewords[k]``.
        self._cw = np.zeros((n, self._cap), dtype=np.int64)
        self._buflen = np.zeros(n, dtype=np.int64)
        self._msg_dest = np.zeros(self._cap, dtype=np.int64)
        self._msg_source = np.zeros(self._cap, dtype=np.int64)
        self._msg_id = np.zeros(self._cap, dtype=np.int64)
        self._msg_bits = np.zeros(self._cap, dtype=np.int64)
        self._msg_index: dict[tuple[int, int], int] = {}
        self._msg_packets: list[Packet] = []
        #: Non-canonical codewords (escaped scrambles, originated variants,
        #: corruptions an observer sees), by codeword id; 0 is a placeholder.
        self._codewords: list[bytes] = [b""]
        self._insert_seq = 0
        self._originated_keys: set[tuple[int, int]] = set()
        self._tile_originated: dict[int, set[tuple[int, int]]] = defaultdict(
            set
        )
        #: round -> arrival chunks latched for that round, each a tuple of
        #: columns ``(dst, mid, ttl, hop, upset, intact, cw)``.
        self._pending: dict[int, list[tuple[np.ndarray, ...]]] = {}

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
        #: and of the upset send's words and corruptions
        #: (docs/performance.md).  A diagnostic attribute only: it never
        #: enters results, metrics or cache keys.
        self.engine_paths: dict[str, int] = dict.fromkeys(
            (
                "send.vectorized", "send.pooled", "send.matrix",
                "send.sequential", "receive.vectorized", "receive.ordered",
                "pull.vectorized", "pull.sequential",
                "upset.words_drawn", "upset.words_used", "upset.corruptions",
                "observe.replay",
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
        self._cw = _wider(self._cw, np.int64)
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
        self, mid: int, ttl: int, hop: int, cw: int, intact: bool = True
    ) -> Packet:
        """Materialise an equal-valued packet for one population slot."""
        canonical = self._msg_packets[mid]
        codeword = self._codewords[cw] if cw else canonical.codeword
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

    def _buffer_order(self, tile_id: int) -> list[int]:
        """The messages `tile_id` buffers, in insertion order."""
        cols = np.nonzero(self._buffered[tile_id])[0]
        order = np.argsort(self._iseq[tile_id, cols], kind="stable")
        return cols[order].tolist()

    def _codeword(self, tile_id: int, mid: int) -> bytes:
        """The codeword `tile_id`'s slot of message `mid` sends."""
        cw = self._cw[tile_id, mid]
        return self._codewords[cw] if cw else self._msg_packets[mid].codeword

    # ------------------------------------------------------ state mutations

    def _crash_tile(self, tile_id: int) -> None:
        self._alive[tile_id] = False
        if self._buflen[tile_id]:
            self._buffered[tile_id, :] = False
            self._buflen[tile_id] = 0

    def _originate(self, tile_id: int, packet: Packet) -> None:
        if not self._alive[tile_id]:
            return
        key = packet.key
        self._originated_keys.add(key)
        self._tile_originated[tile_id].add(key)
        mid = self._register_message(packet)
        # A tile never delivers its own message back to its IP.
        self._delivered[tile_id, mid] = True
        cw = 0
        if packet.codeword != self._msg_packets[mid].codeword:
            cw = len(self._codewords)
            self._codewords.append(packet.codeword)
        self._insert_entry(tile_id, mid, packet.ttl, packet.hop_count, cw)

    def _insert_entry(
        self,
        tile_id: int,
        mid: int,
        ttl: int,
        hop: int,
        cw: int,
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
        self._buffered[tile_id, mid] = True
        self._seen[tile_id, mid] = True
        self._ttl[tile_id, mid] = ttl
        self._hop[tile_id, mid] = hop
        self._cw[tile_id, mid] = cw
        self._iseq[tile_id, mid] = self._insert_seq
        self._insert_seq += 1
        self._buflen[tile_id] += 1
        self._informed[tile_id] = True
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

    def round_sample(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """The inherited per-tile walk, as two array reductions."""
        counts = np.bincount(self._buflen[self._alive]).tolist()
        return int(np.count_nonzero(self._informed)), tuple(
            (size, n) for size, n in enumerate(counts) if n
        )

    # ---------------------------------------------------------- round phases

    def _receive_phase(self, round_index: int) -> None:
        if self._event_observer is not None:
            self.engine_paths["observe.replay"] += 1
        self._apply_scheduled_crashes(round_index)
        if self._relay and self._buflen.any():
            self._buffered[:, :] = False
            self._buflen[:] = 0
        chunks = self._pending.pop(round_index, None)
        if not chunks:
            return
        arrivals = chunks[0] if len(chunks) == 1 else tuple(
            np.concatenate(column) for column in zip(*chunks)
        )
        total = arrivals[0].size
        capacity = self.config.buffer_capacity
        ordered = self._receive_hooks or (self._relay and capacity is not None)
        draws = capacity is None and self.fault_config.p_overflow > 0.0
        if ordered or draws or self._event_observer is not None:
            # Group events by destination in first-arrival order — the
            # object engine's arrival-map iteration order (dict key
            # insertion), which overflow draws and each kind's observer
            # events follow.  Otherwise the vectorized path skips this:
            # inserts, deliveries, duplicates, insert stamps and evictions
            # only compare events of the *same* tile, whose relative order
            # the emission-ordered arrays already preserve.
            dst = arrivals[0]
            position = np.arange(total)
            first = np.full(self._alive.size, total, dtype=np.int64)
            np.minimum.at(first, dst, position)
            perm = np.argsort(first[dst], kind="stable")
            if not np.array_equal(perm, position):
                arrivals = tuple(column[perm] for column in arrivals)
        if ordered:
            self.engine_paths["receive.ordered"] += 1
            self._receive_ordered(round_index, *arrivals)
            return
        self.engine_paths["receive.vectorized"] += 1
        self._receive_vectorized(round_index, *arrivals)

    def _receive_vectorized(
        self, round_index, dst, mid, ttl, hop, upset, intact, cw
    ) -> None:
        stats = self.stats
        observer = self._event_observer
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
                            int(mid[i]), int(ttl[i]), int(hop[i]), int(cw[i]),
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
            if self._dup_batch:
                dup_pos = np.nonzero(duplicates)[0]
                self.policy.on_duplicates_batch(
                    dst[dup_pos],
                    self._msg_source[mid[dup_pos]],
                    self._msg_id[mid[dup_pos]],
                    round_index,
                )
            elif self._dup_scalar:
                for i in np.nonzero(duplicates)[0].tolist():
                    self.policy.on_duplicate_received(
                        int(dst[i]),
                        self._event_packet(
                            int(mid[i]), int(ttl[i]), int(hop[i]), int(cw[i])
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
            self._cw[t_ins, m_ins] = cw[inserts]
            self._iseq[t_ins, m_ins] = self._insert_seq + np.arange(
                inserts.size
            )
            self._insert_seq += int(inserts.size)
            np.add.at(self._buflen, t_ins, 1)
            self._informed[t_ins] = True
            n_flips = int(np.count_nonzero(self._informed)) - informed_before
            if n_flips:
                stats.per_round_informed[round_index] = n_flips
            if capacity is not None:
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
                        int(mid[i]), int(ttl[i]), int(hop[i]), int(cw[i])
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

    def _receive_ordered(
        self, round_index, dst, mid, ttl, hop, upset, intact, cw
    ) -> None:
        """Event-ordered receive: on_receive hooks and bounded relay buffers.

        Replays the object engine's per-arrival sequence exactly —
        scalar overflow draws, eviction order, hook interleaving — on
        top of the array state.
        """
        stats = self.stats
        observer = self._event_observer
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
        cw_l = cw.tolist()
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
                        mid_l[i], ttl_l[i], hop_l[i], cw_l[i], intact=False
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
                tile_id, mid_i, ttl_l[i], hop_l[i], cw_l[i]
            )
            if not inserted:
                stats.duplicates_suppressed += 1
                if self._dup_batch:
                    self.policy.on_duplicates_batch(
                        np.asarray([tile_id], dtype=np.int64),
                        self._msg_source[mid_i : mid_i + 1],
                        self._msg_id[mid_i : mid_i + 1],
                        round_index,
                    )
                elif self._dup_scalar:
                    self.policy.on_duplicate_received(
                        tile_id,
                        self._event_packet(mid_i, ttl_l[i], hop_l[i], cw_l[i]),
                        round_index,
                    )
            destination = int(msg_dest[mid_i])
            if (
                destination == tile_id or destination == BROADCAST
            ) and not self._delivered[tile_id, mid_i]:
                self._delivered[tile_id, mid_i] = True
                stats.deliveries += 1
                stats.delivery_hops_total += hop_l[i]
                hooked = tile_id in self._receive_hooks
                if observer is None and not hooked:
                    continue
                packet = self._event_packet(mid_i, ttl_l[i], hop_l[i], cw_l[i])
                if observer is not None:
                    observer.on_delivery(round_index, tile_id, packet)
                if hooked:
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
                destinations=self._msg_dest[m_arr],
                port_neighbors=self._nbr,
            )
        )
        paths = self.engine_paths
        if p_row is None:
            paths["send.sequential"] += 1
            self._send_rows_scalar(round_index, t_arr, m_arr)
            return
        p_row = np.asarray(p_row, dtype=np.float64)
        if p_row.ndim == 2:
            paths["send.matrix"] += 1
        elif self.fault_config.p_upset > 0.0:
            paths["send.pooled"] += 1
        else:
            paths["send.vectorized"] += 1
        self._send_rows_batched(round_index, t_arr, m_arr, p_row)

    def _send_rows_batched(self, round_index, t_arr, m_arr, p_row) -> None:
        """Send a round from its ``decide_batch`` answer: decide, scan, emit.

        `p_row` is a per-row forwarding probability (1-D) or a 0/1
        (row, port) decision matrix (2-D).  Fixed entries — rows with
        ``p >= 1`` and a matrix's ones — draw nothing; a row with
        ``0 < p < 1`` draws one decision double per port.  Without upsets
        those doubles are one ``rng.random`` block; under upsets every
        live transmission draws one more and :meth:`_scan_upsets` reads
        the round's doubles off the stream.  The transmit and upset masks
        follow in numpy and are emitted at once.
        """
        n_rows, max_deg = t_arr.size, self._max_deg
        jj = np.arange(max_deg)
        deg = self._deg[t_arr]
        valid = jj[None, :] < deg[:, None]
        if p_row.ndim == 2:
            if p_row.shape != (n_rows, max_deg):
                raise ValueError(
                    "2-D decide_batch must return shape (len(batch), "
                    f"max_degree) = {(n_rows, max_deg)}, got {p_row.shape}"
                )
            if not (((p_row == 0.0) | (p_row == 1.0)).all()):
                raise ValueError(
                    "2-D decide_batch matrices must be deterministic (every "
                    "entry 0.0 or 1.0); return a 1-D per-row probability "
                    "array or None for stochastic rules"
                )
            transmit = (p_row >= 1.0) & valid
            # Every entry is fixed: no row draws a decision.
            p_row = np.zeros(n_rows)
        else:
            transmit = (p_row >= 1.0)[:, None] & valid
        draw = (p_row > 0.0) & (p_row < 1.0)
        # Homogeneous Bernoulli rows — the common case — skip row indexing.
        rows = slice(None) if draw.all() else np.nonzero(draw)[0]
        link_ok = self._effective_link_ok()
        p_upset = self.fault_config.p_upset
        if p_upset > 0.0:
            live = valid & link_ok[t_arr]
            stream, starts, hits = self._scan_upsets(
                t_arr, m_arr, p_row, np.where(draw, deg, 0),
                np.count_nonzero(transmit & live, axis=1), live,
            )
            doubles = stream.doubles
        else:
            n_dec = deg[rows]
            doubles = self.rng.random(int(n_dec.sum()))
            starts = np.cumsum(n_dec) - n_dec
        if starts.size:
            at = starts[:, None] + jj[None, :]
            ports = valid[rows]
            transmit[rows] = ports & (
                doubles[np.where(ports, at, 0)] < p_row[rows, None]
            )
        upsets = (hits, stream.scrambled()) if p_upset > 0.0 else None
        self._emit_transmit_matrix(
            round_index, t_arr, m_arr, transmit, link_ok, upsets=upsets
        )

    def _emit_transmit_matrix(
        self, round_index, t_arr, m_arr, transmit, link_ok, lead=None,
        upsets=None,
    ) -> None:
        """Emit a precomputed (row, port) transmit mask.

        `lead`, when given, is a pair ``(first_row, joules)``: energy
        charged outside the mask that the object engine adds just before
        the transmissions of rows ``first_row[i]`` onwards (a pull
        request ahead of its responses).  `upsets`, when given, is a pair
        ``(hits, scrambled)``: the ordinals, among the live (row, port)
        entries in order, of those whose upset draw hit, and their
        corrupted codewords as one zero-padded ``uint8`` matrix, a row
        each.  Observer and
        ``policy.on_dead_link`` hooks fire last, in (row, port) order —
        the object engine's; neither draws from the stream.
        """
        stats = self.stats
        observer = self._event_observer
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
        if n_live:
            stats.transmissions_delivered += n_live
            stats.bits_transmitted += int(sizes.sum())
            stats.per_round_transmissions[round_index] += n_live
            dsts = self._nbr[srcs, ports]
            hops = self._hop[srcs, mids] + 1
            ttls = self._ttl[srcs, mids]
            cws = self._cw[srcs, mids]
            intact = np.ones(n_live, dtype=bool)
            upset = np.zeros(n_live, dtype=bool)
            if upsets is not None:
                hits, scrambled = upsets
                upset[hits] = True
                self._corrupted_codewords(
                    scrambled, np.nonzero(upset)[0], mids, intact, cws
                )
            arrivals = (dsts, mids, ttls, hops, upset, intact, cws)
            if self._uniform_delay:
                self._pending.setdefault(round_index + 1, []).append(arrivals)
            else:
                delays = self._delay[srcs, ports]
                for delay in np.unique(delays).tolist():
                    mask = delays == delay
                    self._pending.setdefault(round_index + delay, []).append(
                        tuple(column[mask] for column in arrivals)
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
            upset_l, intact_l, cw_l = (
                upset.tolist(), intact.tolist(), cws.tolist()
            )
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
            packet = self._event_packet(
                mid_l[i], ttl_l[i], hop_l[i], cw_l[i], intact_l[i]
            )
            if upset_l[i]:
                observer.on_upset_injected(round_index, src, neighbor, packet)
            observer.on_transmission(round_index, src, neighbor, packet)
            i += 1

    def _corrupted_codewords(self, scrambled, at, mids, intact, cws) -> None:
        """CRC-check a round's corrupted copies and give few a codeword id.

        `at` holds the emitted positions of the `scrambled` codeword rows,
        in order.  Their codewords are checked a message at a time with
        :meth:`CRC.check_rows`; only escaped copies, which stay buffered,
        and copies an observer will see enter ``_codewords``.
        """
        self.stats.upsets_injected += at.size
        if not at.size:
            return
        hit_mids = mids[at]
        for mid in dict.fromkeys(hit_mids.tolist()):
            group = hit_mids == mid
            intact[at[group]] = self._msg_packets[mid].crc.check_rows(
                scrambled[group, : self._msg_bits[mid] // 8]
            )
        keep = intact[at] if self._event_observer is None else slice(None)
        kept = at[keep]
        lengths = self._msg_bits[mids[kept]] // 8
        cws[kept] = len(self._codewords) + np.arange(kept.size)
        self._codewords.extend(
            row[:length].tobytes()
            for row, length in zip(scrambled[keep], lengths.tolist())
        )

    def _scan_upsets(self, t_arr, m_arr, p_row, n_dec, n_fixed, live):
        """Read a round's upset send off one :class:`WordStream` block.

        The block holds the round's expected words — decision and upset
        doubles, and corruption draws at the error model's cost — plus
        ``WORD_BLOCK``; :meth:`WordStream.walk` extends it when short and
        records each corruption of the sending slot's codeword.  The
        generator is then left where the object engine's would be.
        Returns ``(stream, starts, hits)`` as :meth:`WordStream.walk`
        defines them.
        """
        p_upset = float(self.fault_config.p_upset)
        model = self.injector.error_model
        length = int(self._msg_bits[m_arr].max(initial=0)) // 8
        per_hit = 8 * length + 1 if model.name == "bit" else length // 8 + 1
        sends = float(
            np.where(n_dec > 0, p_row, 0.0) @ np.count_nonzero(live, axis=1)
        ) + int(n_fixed.sum())
        stream = WordStream.draw(
            self.rng.bit_generator,
            int(n_dec.sum() + sends * (1.0 + p_upset * per_hit)),
            model,
        )
        pos, starts, hits = stream.walk(
            p_upset, p_row, n_dec, n_fixed, live,
            lambda row: self._codeword(t_arr.item(row), m_arr.item(row)),
        )
        stream.commit(pos)
        paths = self.engine_paths
        paths["upset.words_drawn"] += stream.size
        paths["upset.words_used"] += pos
        paths["upset.corruptions"] += len(stream)
        return stream, starts, hits

    def _send_rows_scalar(self, round_index, t_arr, m_arr) -> None:
        """Exact per-row send for a round without a ``decide_batch`` form.

        Each row's packet is materialised and ``policy.decisions`` picks
        its ports.  Each transmission over a live link then draws its
        upset, and a hit its corruption, before the next row decides:
        the object engine's order.  The round is emitted as one matrix.
        """
        capacity = self.config.buffer_capacity
        injector = self.injector
        link_ok = self._effective_link_ok()
        transmit = np.zeros((t_arr.size, self._max_deg), dtype=bool)
        hits: list[int] = []
        scrambled: list[bytes] = []
        n_sent = 0
        for row, (tile_id, mid, ttl, hop, cw, occupancy) in enumerate(zip(
            t_arr.tolist(),
            m_arr.tolist(),
            self._ttl[t_arr, m_arr].tolist(),
            self._hop[t_arr, m_arr].tolist(),
            self._cw[t_arr, m_arr].tolist(),
            self._buflen[t_arr].tolist(),
        )):
            packet = self._event_packet(mid, ttl, hop, cw)
            mask = self.policy.decisions(
                packet,
                self._neighbors[tile_id],
                self.rng,
                tile_id=tile_id,
                round_index=round_index,
                buffer_occupancy=occupancy,
                buffer_capacity=capacity,
            )
            for port, sent in enumerate(mask):
                if not sent:
                    continue
                transmit[row, port] = True
                if not link_ok[tile_id, port]:
                    continue
                if injector.upset_occurs():
                    hits.append(n_sent)
                    scrambled.append(injector.corrupt(packet.codeword))
                n_sent += 1
        self._emit_transmit_matrix(
            round_index, t_arr, m_arr, transmit, link_ok,
            upsets=(hits, _codeword_rows(scrambled)) if hits else None,
        )

    def _pull_phase(self, round_index: int) -> None:
        """The pull half: requests, then their responses as one matrix.

        At ``p_upset == 0`` a policy with ``pull_ports_batch`` draws the
        round's request ports at once; otherwise, or when it declines,
        :meth:`_pull_requests` asks ``pull_targets`` tile by tile.  The
        requests become stats, and the answered ones response rows — each
        responder's buffer in insertion order, transmitted on the port
        back to the requester — emitted as one matrix.  A responder
        without such a port cannot answer.
        """
        tiles = np.nonzero(self._alive & (self._deg > 0))[0]
        if tiles.size == 0:
            return
        link_ok = self._effective_link_ok()
        requests = None
        if self.fault_config.p_upset == 0.0:
            requests = self.policy.pull_ports_batch(
                tiles,
                self._deg[tiles],
                self._informed[tiles],
                self.rng,
                round_index,
            )
        if requests is None:
            self.engine_paths["pull.sequential"] += 1
            askers, ports, hits, scrambled = self._pull_requests(
                round_index, tiles, link_ok
            )
        else:
            self.engine_paths["pull.vectorized"] += 1
            rows, ports = np.nonzero(requests)
            askers, hits, scrambled = tiles[rows], [], []
        n_requests = int(askers.size)
        if n_requests == 0:
            return
        stats = self.stats
        crossed = link_ok[askers, ports]
        askers, ports = askers[crossed], ports[crossed]
        responders = self._nbr[askers, ports]
        back = self._back[askers, ports]
        # Per crossed request: the response rows it triggers.
        n_rows = np.where(
            self._alive[responders] & (back >= 0), self._buflen[responders], 0
        )
        answered = n_rows > 0
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
        back = back[answered][request_of]
        transmit = np.zeros((t_arr.size, self._max_deg), dtype=bool)
        transmit[np.arange(t_arr.size), back] = True
        stats.pull_responses += int(np.count_nonzero(link_ok[t_arr, back]))
        self._emit_transmit_matrix(
            round_index, t_arr, m_arr, transmit, link_ok, lead,
            (hits, _codeword_rows(scrambled)) if hits else None,
        )

    def _pull_requests(self, round_index, tiles, link_ok):
        """Ask ``pull_targets`` tile by tile, in the object engine's order.

        Under upsets each request's live responses draw their upsets, and
        a hit its corruption, before the next tile asks.  Returns
        ``(askers, ports, hits, scrambled)``: the requests, each hit's
        ordinal among the round's live responses and its codeword.
        """
        policy, injector = self.policy, self.injector
        port_of, back = self._port_of, self._back
        draw = self.fault_config.p_upset > 0.0
        askers: list[int] = []
        ports: list[int] = []
        hits: list[int] = []
        scrambled: list[bytes] = []
        n_sent = 0
        for tile_id in tiles.tolist():
            for target in policy.pull_targets(
                tile_id,
                self._neighbors[tile_id],
                self.rng,
                round_index=round_index,
                informed=bool(self._informed[tile_id]),
            ):
                port = port_of[(tile_id, target)]
                askers.append(tile_id)
                ports.append(port)
                reply = back[tile_id, port]
                if not (
                    draw
                    and link_ok[tile_id, port]
                    and reply >= 0
                    and link_ok[target, reply]
                ):
                    continue
                # A crashed target's buffer is empty: it sends nothing.
                for k in range(self._buflen[target]):
                    if injector.upset_occurs():
                        mid = self._buffer_order(target)[k]
                        hits.append(n_sent)
                        scrambled.append(
                            injector.corrupt(self._codeword(target, mid))
                        )
                    n_sent += 1
        return (
            np.asarray(askers, dtype=np.int64),
            np.asarray(ports, dtype=np.int64),
            hits,
            scrambled,
        )
