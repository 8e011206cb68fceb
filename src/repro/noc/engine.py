"""The round-stepped NoC simulation engine.

One :class:`NocSimulator` owns a topology, a forwarding protocol, a fault
injector and the tiles; :meth:`NocSimulator.run` executes gossip rounds
until the mounted application completes (or a round budget expires).  Each
round follows thesis Fig 3-4:

1. **receive** — packets latched by last round's transmissions pass through
   each tile's CRC check, duplicate suppression and buffer insertion; first
   intact copies addressed to the tile are delivered to its IP;
2. **compute** — IP hooks run (``on_start`` in round 0, then ``on_round``),
   possibly emitting new packets;
3. **age** — every buffered packet's TTL decrements; expired packets are
   garbage-collected;
4. **send** — every buffered packet is offered to every output port and the
   protocol's RND circuit decides, per port, whether it is transmitted.
   Every link crossing runs :meth:`NocSimulator._transmit`: transmissions
   over dead links vanish; transmissions over live links may suffer a
   data upset; finite buffers and Bernoulli(p_overflow) drops happen at
   the receiving latch.

Synchronization errors are modelled through per-tile clock domains: the
arrival round of a packet is the earliest receiver round starting after the
sender's current round ends, which with skewed clocks occasionally slips an
extra round (Ch. 2, Fig 4-10).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.packet import Packet, PacketFactory
from repro.crc import CRC, CRC16_CCITT
from repro.faults import CrashPlan, FaultConfig, FaultInjector
from repro.faults.scenarios import ScenarioSpec, ScenarioState
from repro.noc.backends import OBJECT_BACKEND, engine_class
from repro.noc.clock import ClockDomain
from repro.noc.config import SimConfig
from repro.noc.link import DEFAULT_LINK, LinkModel
from repro.noc.stats import NetworkStats
from repro.noc.tile import IPCore, Tile, TileContext, TileState
from repro.noc.topology import Topology
from repro.noc.trace import Observer, as_observer, listens
from repro.policies.base import ForwardingPolicy, PolicySpec, build_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.profiler import PhaseProfiler


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulation run.

    Attributes:
        completed: did the application signal completion within the budget?
        rounds: gossip rounds elapsed at completion (or the budget).
        time_s: wall-clock latency — the latest clock-domain time at the
            completion round (includes synchronization jitter).
        energy_j: communication energy per Eq. 3 over actual transmissions.
        stats: full counter breakdown.
        crash_plan: the static failure map the run executed under.
    """

    completed: bool
    rounds: int
    time_s: float
    energy_j: float
    stats: NetworkStats
    crash_plan: CrashPlan

    @property
    def energy_delay_product(self) -> float:
        """Energy x delay in J*s (the thesis' Fig 4-6 figure of merit)."""
        return self.energy_j * self.time_s


class NocSimulator:
    """A stochastically communicating NoC ready to run an application.

    Args:
        topology: tile interconnect graph.
        backend: which engine executes the run — ``"object"`` (this
            class, the per-object reference engine) or ``"fast"`` (the
            vectorised structure-of-arrays engine of
            :mod:`repro.noc.backends.fast`, bit-identical results at a
            fraction of the wall clock; see ``docs/performance.md``).
            The constructor dispatches to that backend's class,
            so ``NocSimulator(..., backend="fast")`` *is* a fast engine.
        protocol: the forwarding rule, a
            :class:`repro.policies.ForwardingPolicy` or its
            :class:`repro.policies.PolicySpec`: one of the thesis's own
            rules (:class:`repro.core.protocol.StochasticProtocol`, its
            ``FloodingProtocol`` case, or
            :class:`repro.noc.routing.XYRoutingProtocol`) or a registered
            policy (Bernoulli, flood, counter gossip, adaptive — see
            ``docs/policies.md``).
        fault_config: the Ch. 2 failure model; defaults to fault-free.
        seed: seed for the single RNG driving every stochastic element.
        link_model: electrical link parameters (timing + energy).
        default_ttl: TTL stamped on new packets; ``None`` picks a
            topology-aware bound of ``diameter + ceil(log2 n) + 2`` so a
            message can cross the chip and still gossip a few extra rounds.
        buffer_capacity: per-tile send-buffer capacity (None = unbounded).
        buffer_mode: "retain" (default; packets re-gossip every round
            until TTL death, maximal redundancy) or "relay" (the literal
            Fig 3-4 pseudo-code: the buffer empties each round, so a
            packet is forwarded only right after it is received; rumors
            persist through reinfection).  See
            benchmarks/bench_ablation_buffer_mode.py for the trade-off.
        crc: error-detecting code mounted on every tile (Fig 3-5).
        nominal_round_s: round period T_R; ``None`` derives it from Eq. 2
            using one max-size packet per link per round.
        payload_bits: nominal payload size used for Eq. 2 and for the
            bit-error-model parameterisation.
        crash_plan: a pre-drawn crash map (overrides p_tile / p_link draws;
            used by controlled sweeps).
        protected_tiles: tiles exempt from random crashes.
        link_delays: per-directed-link transfer delay in rounds (default 1).
            Hybrid architectures (Ch. 5) use this to model a slow shared
            bus segment inside an otherwise round-synchronous NoC.
        link_energy_overrides: per-directed-link energy per bit, replacing
            the default link model's figure on those links.
        egress_limits: per-tile cap on link transmissions per round.  A
            bridge tile standing in for a shared bus gets a small limit,
            modelling the bus's serialisation; unlisted tiles are unlimited.
        bus_tiles: tiles whose egress behaves like a shared bus: grants
            count *packets* (not ports), and each granted packet is driven
            onto ALL output links at once — a bus transaction is physically
            seen by every module on the medium.  Combine with
            `egress_limits` for the serialisation cap.
        scenario: optional :class:`repro.faults.ScenarioSpec` describing
            *time-varying* faults (upset bursts, flapping links, region
            outages — see ``docs/faults.md``).  Each round the scenario
            rewrites the effective fault configuration and liveness sets
            deterministically from a dedicated RNG stream spawned off
            the run's seed, so scenario runs replay bit-for-bit.
        observer: optional :class:`repro.noc.trace.Observer` whose hooks
            fire on every transmission, drop and delivery (tracing,
            visualization, custom metrics).  A tuple or list of observers
            is accepted too and wrapped in a
            :class:`repro.noc.trace.FanoutObserver`, so tracing and
            metrics collection compose on one run.
        profiler: optional :class:`repro.metrics.PhaseProfiler` timing
            the four per-round engine phases (receive, compute, age,
            send); ``None`` (the default) leaves the hot path untimed.

    Everything except ``seed``, ``observer`` and ``profiler`` is
    configuration: the constructor packs it into a frozen
    :class:`repro.noc.config.SimConfig` (exposed as :attr:`config`) and
    delegates to :meth:`from_config`.  Sweep harnesses build the config
    once and stamp out seeded replicas.
    """

    #: The backend this class runs; ``SimConfig.backend`` must match it
    #: (:func:`repro.noc.backends.engine_class` maps the name back here).
    backend_name = OBJECT_BACKEND

    def __new__(cls, *args: object, **kwargs: object):
        # Constructing the base class with backend="fast" dispatches to
        # the fast-engine subclass; explicit subclass construction is
        # never redirected.
        backend = kwargs.get("backend")
        if cls is NocSimulator and backend not in (None, OBJECT_BACKEND):
            return object.__new__(engine_class(backend))
        return object.__new__(cls)

    def __init__(
        self,
        topology: Topology,
        protocol: ForwardingPolicy | PolicySpec,
        fault_config: FaultConfig | None = None,
        *,
        seed: int | None = None,
        link_model: LinkModel = DEFAULT_LINK,
        default_ttl: int | None = None,
        buffer_capacity: int | None = None,
        buffer_mode: str = "retain",
        crc: CRC = CRC16_CCITT,
        nominal_round_s: float | None = None,
        payload_bits: int = 512,
        crash_plan: CrashPlan | None = None,
        protected_tiles: frozenset[int] | set[int] = frozenset(),
        link_delays: dict[tuple[int, int], int] | None = None,
        link_energy_overrides: dict[tuple[int, int], float] | None = None,
        egress_limits: dict[int, int] | None = None,
        bus_tiles: frozenset[int] | set[int] = frozenset(),
        scenario: ScenarioSpec | None = None,
        backend: str | None = None,
        observer: Observer | Sequence[Observer] | None = None,
        profiler: "PhaseProfiler | None" = None,
    ) -> None:
        config = SimConfig(
            topology=topology,
            protocol=protocol,
            fault_config=fault_config,
            link_model=link_model,
            default_ttl=default_ttl,
            buffer_capacity=buffer_capacity,
            buffer_mode=buffer_mode,
            crc=crc,
            nominal_round_s=nominal_round_s,
            payload_bits=payload_bits,
            crash_plan=crash_plan,
            protected_tiles=frozenset(protected_tiles),
            link_delays=link_delays or {},
            link_energy_overrides=link_energy_overrides or {},
            egress_limits=egress_limits or {},
            bus_tiles=frozenset(bus_tiles),
            scenario=scenario,
            backend=backend if backend is not None else type(self).backend_name,
        )
        self._init_from_config(
            config, seed=seed, observer=observer, profiler=profiler
        )

    @classmethod
    def from_config(
        cls,
        config: SimConfig,
        *,
        seed: int | None = None,
        observer: Observer | Sequence[Observer] | None = None,
        profiler: "PhaseProfiler | None" = None,
    ) -> "NocSimulator":
        """Build a simulator from a frozen :class:`SimConfig`.

        ``seed``, ``observer`` and ``profiler`` are runtime concerns, not
        configuration: the same config replayed with the same seed
        reproduces a run bit-for-bit, and different seeds give
        independent repetitions of the same experiment.

        The config's ``backend`` field picks the engine class: a config
        with ``backend="fast"`` comes back as a
        :class:`repro.noc.backends.fast.FastNocSimulator` regardless of
        which class the method was called on.
        """
        if not isinstance(config, SimConfig):
            raise TypeError(
                f"from_config expects a SimConfig, got {type(config).__name__}"
            )
        simulator = object.__new__(engine_class(config.backend))
        simulator._init_from_config(
            config, seed=seed, observer=observer, profiler=profiler
        )
        return simulator

    @property
    def config(self) -> SimConfig:
        """The frozen configuration this simulator was built from."""
        return self._config

    def _init_from_config(
        self,
        config: SimConfig,
        *,
        seed: int | None,
        observer: Observer | Sequence[Observer] | None,
        profiler: "PhaseProfiler | None" = None,
    ) -> None:
        if config.backend != type(self).backend_name:
            raise ValueError(
                f"config requests backend {config.backend!r} but "
                f"{type(self).__name__} implements "
                f"{type(self).backend_name!r}; build via NocSimulator"
                f"(..., backend=...) or NocSimulator.from_config"
            )
        self._config = config
        topology = config.topology
        self.topology = topology
        # Adjacency is static for a run: resolve the port-ordered neighbor
        # tuples once instead of re-querying the topology every round.
        self._tile_ids: list[int] = topology.tile_ids
        self._neighbors: dict[int, tuple[int, ...]] = {
            tid: topology.neighbors(tid) for tid in self._tile_ids
        }
        # A spec builds a fresh, zero-state policy per run (state never
        # leaks between runs); the stateless thesis rules run as stored.
        self.policy: ForwardingPolicy = (
            build_policy(config.protocol)
            if isinstance(config.protocol, PolicySpec)
            else config.protocol
        )
        # Route-computing policies cache topology structure in bind();
        # reset() then clears the per-run state, in that order, so a
        # reset never wipes the bound topology.
        self.policy.bind(topology)
        self.policy.reset()
        self.fault_config = config.fault_config
        self.link_model = config.link_model
        self.crc = config.crc
        self.rng = np.random.default_rng(seed)
        self.injector = FaultInjector(
            self.fault_config, self.rng, config.payload_bits
        )

        default_ttl = config.default_ttl
        if default_ttl is None:
            default_ttl = topology.default_ttl_bound()
        self.default_ttl = default_ttl

        nominal_round_s = config.nominal_round_s
        if nominal_round_s is None:
            # Eq. 2 with N_packets/round = 1 at the nominal payload size.
            size_bits = config.payload_bits + 8 * (16 + self.crc.n_check_bytes)
            nominal_round_s = self.link_model.transfer_time_s(size_bits)
        self.nominal_round_s = nominal_round_s

        self.stats = NetworkStats()

        crash_plan = config.crash_plan
        if crash_plan is None:
            crash_plan = self.injector.draw_crash_plan(
                topology.tile_ids, topology.links, config.protected_tiles
            )
        self.crash_plan = crash_plan
        self._mounted: list[int] = []
        self._unique_keys: set[tuple[int, int]] = set()
        self.current_round = 0
        #: round -> tiles/links to crash at that round's start (the
        #: thesis' "crashes during the early stages" scenario, §4.1.3).
        #: Sets, so double-scheduling the same failure is idempotent.
        self._scheduled_tile_crashes: dict[int, set[int]] = defaultdict(set)
        self._scheduled_link_crashes: dict[int, set[tuple[int, int]]] = (
            defaultdict(set)
        )
        self._dynamic_dead_links: set[tuple[int, int]] = set()

        # Dynamic fault scenario: a dedicated RNG stream spawned from the
        # run's seed drives every scenario draw, so the protocol's own
        # stream is untouched and scenario runs replay exactly per seed.
        self._base_fault_config = self.fault_config
        self._scenario_dead_links: frozenset[tuple[int, int]] = frozenset()
        #: Labels of the scenario phases active in the current round —
        #: sampled by :class:`repro.metrics.MetricsCollector` so drop
        #: breakdowns attribute losses to the scenario causing them.
        self.active_scenario_phases: tuple[str, ...] = ()
        if config.scenario is not None:
            scenario_rng = np.random.default_rng(
                np.random.SeedSequence(seed).spawn(1)[0]
            )
            self._scenario_state: ScenarioState | None = (
                config.scenario.instantiate(scenario_rng, topology)
            )
        else:
            self._scenario_state = None

        self.link_delays = dict(config.link_delays)
        self.link_energy_overrides = dict(config.link_energy_overrides)
        self.egress_limits = dict(config.egress_limits)
        self.bus_tiles = config.bus_tiles
        self._build_tile_state()
        self.observer = as_observer(observer)
        #: The observer when it listens to per-event hooks, else None:
        #: event sites call only this one, so an observer that samples at
        #: round boundaries costs nothing per event (trace.listens).
        self._event_observer = (
            self.observer if listens(self.observer) else None
        )
        self.profiler = profiler
        if self.observer is not None:
            self.observer.on_bind(self)

    def _build_tile_state(self) -> None:
        """Build this backend's per-tile representation (draws nothing).

        The one overridable step of :meth:`_init_from_config`: the object
        engine keeps a :class:`Tile`, a :class:`ClockDomain` and an
        arrival map per tile; other backends build their own instead.
        """
        self.tiles: dict[int, Tile] = {
            tid: Tile(
                tid,
                factory=PacketFactory(
                    tid, default_ttl=self.default_ttl, crc=self.crc
                ),
                buffer_capacity=self._config.buffer_capacity,
                buffer_mode=self._config.buffer_mode,
            )
            for tid in self._tile_ids
        }
        self.clocks: dict[int, ClockDomain] = {
            tid: ClockDomain(self.nominal_round_s, self.injector)
            for tid in self._tile_ids
        }
        for tid in self.crash_plan.dead_tiles:
            self.tiles[tid].crash()
        #: round -> tile -> [(packet, was_upset)] waiting to be latched.
        self._arrivals: dict[int, dict[int, list[tuple[Packet, bool]]]] = (
            defaultdict(lambda: defaultdict(list))
        )

    # ------------------------------------------------------------- app setup

    def mount(self, tile_id: int, ip: IPCore) -> None:
        """Attach an IP core to a tile (replacing the default relay)."""
        self.topology.validate_tile(tile_id)
        self.tiles[tile_id].ip = ip
        self._mounted.append(tile_id)

    def schedule_tile_crash(self, round_index: int, tile_id: int) -> None:
        """Crash a tile at the start of a future round (field failure).

        Scheduling the same tile twice — for the same round or different
        ones — is idempotent: crashes are permanent, so only the first
        takes effect and liveness bookkeeping is never double-counted.
        """
        if round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {round_index}")
        self.topology.validate_tile(tile_id)
        self._scheduled_tile_crashes[round_index].add(tile_id)

    def schedule_link_crash(
        self, round_index: int, link: tuple[int, int]
    ) -> None:
        """Crash a directed link at the start of a future round.

        Like :meth:`schedule_tile_crash`, double-scheduling the same
        link is idempotent.
        """
        if round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {round_index}")
        if link not in self.topology.links:
            raise ValueError(f"{link} is not a link of this topology")
        self._scheduled_link_crashes[round_index].add(link)

    def _link_alive(self, src: int, dst: int) -> bool:
        return (
            self.crash_plan.link_alive(src, dst)
            and (src, dst) not in self._dynamic_dead_links
            and (src, dst) not in self._scenario_dead_links
        )

    def _apply_scheduled_crashes(self, round_index: int) -> None:
        for tile_id in sorted(self._scheduled_tile_crashes.pop(round_index, ())):
            tile = self.tiles[tile_id]
            if tile.alive:
                tile.crash()
        for link in sorted(self._scheduled_link_crashes.pop(round_index, ())):
            self._dynamic_dead_links.add(link)

    def _apply_scenario(self, round_index: int) -> None:
        """Realise the dynamic-fault scenario for one round.

        Rewrites the effective :class:`FaultConfig` (injector retarget,
        RNG stream preserved), swaps the transient scenario-down link
        set, crashes region-outage tiles, and publishes the active
        phase labels for metrics attribution.
        """
        state = self._scenario_state
        if state is None:
            return
        effect = state.begin_round(round_index)
        config = self._base_fault_config
        if effect.fault_overrides:
            config = config.with_(**effect.fault_overrides)
        if config != self.fault_config:
            self.fault_config = config
            self.injector.retarget(config)
        self._scenario_dead_links = effect.down_links
        for tile_id in sorted(effect.crash_tiles):
            tile = self.tiles[tile_id]
            if tile.alive:
                tile.crash()
        self.active_scenario_phases = effect.active

    def application_complete(self) -> bool:
        """All mounted, *live* IPs report completion.

        Crashed tiles are excluded: the application layer must decide
        whether it can survive a dead replica (cf. IP duplication, §4.1.1).
        """
        live = [tid for tid in self._mounted if self.tiles[tid].alive]
        return bool(live) and all(self.tiles[tid].ip.complete for tid in live)

    # ------------------------------------------------------------- execution

    def run(
        self,
        max_rounds: int = 1000,
        until: Callable[["NocSimulator"], bool] | None = None,
    ) -> SimulationResult:
        """Execute rounds until completion or budget exhaustion.

        Args:
            max_rounds: hard budget on gossip rounds.
            until: custom completion predicate; defaults to
                :meth:`application_complete`.
        """
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        predicate = until if until is not None else NocSimulator.application_complete

        profiler = self.profiler
        if profiler is None:

            def _phase(name, fn, *args):
                fn(*args)

        else:

            def _phase(name, fn, *args):
                start = perf_counter()
                fn(*args)
                profiler.record(name, perf_counter() - start)

        completed = False
        final_round = max_rounds
        for round_index in range(max_rounds):
            self.current_round = round_index
            self._apply_scenario(round_index)
            self.policy.on_round_begin(round_index)
            if self.observer is not None:
                self.observer.on_round_begin(round_index)
            _phase("receive", self._receive_phase, round_index)
            _phase("compute", self._compute_phase, round_index)
            if predicate(self):
                completed = True
                final_round = round_index
                if self.observer is not None:
                    self.observer.on_round_end(round_index)
                break
            _phase("age", self._age_phase)
            _phase("send", self._send_phase, round_index)
            if self.policy.uses_pull:
                # Push-pull rumor spreading (Doerr et al.): uninformed
                # tiles also request the rumor.  Push-only policies skip
                # the phase entirely (no RNG draws, bit-identical runs).
                _phase("pull", self._pull_phase, round_index)
            if self.observer is not None:
                self.observer.on_round_end(round_index)

        time_s = max(
            self.clocks[tid].round_end(final_round if completed else max_rounds - 1)
            for tid in self._tile_ids
        )
        energy_j = self.stats.energy_j
        return SimulationResult(
            completed=completed,
            rounds=final_round if completed else max_rounds,
            time_s=time_s,
            energy_j=energy_j,
            stats=self.stats,
            crash_plan=self.crash_plan,
        )

    # ----------------------------------------------------------- round phases

    def _receive_phase(self, round_index: int) -> None:
        self._apply_scheduled_crashes(round_index)
        for tile in self.tiles.values():
            if tile.alive:
                tile.begin_round()
        arrivals = self._arrivals.pop(round_index, {})
        observer = self._event_observer
        newly_informed = 0
        for tile_id, latched in arrivals.items():
            tile = self.tiles[tile_id]
            was_informed = tile.informed
            for packet, was_upset in latched:
                # With explicitly modelled buffers the probabilistic
                # overflow draw is ignored in favour of actual occupancy
                # (FaultConfig.p_overflow docs); the Bernoulli form
                # supports the closed-form sweeps of Fig 4-10/4-11.
                if tile.buffer_capacity is None and self.injector.overflow_occurs():
                    self.stats.overflow_drops += 1
                    if observer is not None:
                        observer.on_overflow_drop(round_index, tile_id)
                    continue
                if was_upset and packet.is_intact():
                    # The scramble happened to pass the CRC — an escape.
                    self.stats.upsets_escaped += 1
                if (
                    observer is not None
                    and tile.alive
                    and not packet.is_intact()
                ):
                    observer.on_crc_drop(round_index, tile_id, packet)
                duplicates_before = self.stats.duplicates_suppressed
                delivered = tile.receive(packet, self.stats)
                if self.stats.duplicates_suppressed > duplicates_before:
                    # The tile suppressed an intact duplicate — the signal
                    # counter-based gossip policies count against k.
                    self.policy.on_duplicate_received(
                        tile_id, packet, round_index
                    )
                if delivered is not None and tile.alive:
                    if observer is not None:
                        observer.on_delivery(
                            round_index, tile_id, delivered
                        )
                    ctx = TileContext(tile, round_index, self.rng)
                    tile.ip.on_receive(ctx, delivered)
            if tile.informed and not was_informed:
                newly_informed += 1
        if newly_informed:
            self.stats.per_round_informed[round_index] = newly_informed

    def _compute_phase(self, round_index: int) -> None:
        for tile_id in self._tile_ids:
            tile = self.tiles[tile_id]
            if not tile.alive:
                continue
            ctx = TileContext(tile, round_index, self.rng)
            if round_index == 0:
                tile.ip.on_start(ctx)
            tile.ip.on_round(ctx)
        # Unique-message accounting (Eq. 3): union of per-tile origination
        # keys, so replicas pinning their primary's identity count once.
        self._unique_keys.clear()
        for tile in self.tiles.values():
            self._unique_keys |= tile.originated_keys
        self.stats.unique_messages_created = len(self._unique_keys)

    def _age_phase(self) -> None:
        for tile in self.tiles.values():
            if tile.alive:
                self.stats.ttl_expirations += tile.decrement_ttls()

    def _send_phase(self, round_index: int) -> None:
        for tile_id in self._tile_ids:
            tile = self.tiles[tile_id]
            if not tile.alive:
                continue
            neighbors = self._neighbors[tile_id]
            if not neighbors:
                continue
            sender_end = self.clocks[tile_id].round_end(round_index)
            budget = self.egress_limits.get(tile_id)
            packets = tile.outgoing_packets()
            if budget is not None and len(packets) > 1:
                # Rotate service order so an egress-limited bridge shares
                # its grants round-robin instead of head-of-line blocking.
                start = round_index % len(packets)
                packets = packets[start:] + packets[:start]
            if tile_id in self.bus_tiles:
                self._send_as_bus(
                    tile_id, packets, neighbors, sender_end, round_index, budget
                )
                continue
            occupancy = len(tile.send_buffer)
            for packet in packets:
                if budget is not None and budget <= 0:
                    break
                mask = self.policy.decisions(
                    packet,
                    neighbors,
                    self.rng,
                    tile_id=tile_id,
                    round_index=round_index,
                    buffer_occupancy=occupancy,
                    buffer_capacity=tile.buffer_capacity,
                )
                for port, transmit in enumerate(mask):
                    if not transmit:
                        continue
                    if budget is not None:
                        if budget <= 0:
                            break
                        budget -= 1  # a grant is consumed even if wasted
                    self._transmit(
                        round_index, tile_id, neighbors[port], packet,
                        sender_end,
                    )

    def _send_as_bus(
        self,
        tile_id: int,
        packets: list[Packet],
        neighbors: tuple[int, ...],
        sender_end: float,
        round_index: int,
        budget: int | None,
    ) -> None:
        """Bus-transaction egress: one grant drives a packet onto every
        output link at once (broadcast medium), up to `budget` grants."""
        grants = budget if budget is not None else len(packets)
        for packet in packets[:grants]:
            for dst in neighbors:
                self._transmit(round_index, tile_id, dst, packet, sender_end)

    def _transmit(
        self,
        round_index: int,
        src: int,
        dst: int,
        packet: Packet,
        sender_end: float,
    ) -> bool:
        """Drive one buffered `packet` onto the ``(src, dst)`` link.

        The object engine's one per-transmission sequence of the fault
        model, shared by the send phase, bus egress and pull responses
        (the fast backend's is ``_emit_transmit_matrix``): a dead link
        swallows the attempt (reported to the policy and observer;
        returns False); otherwise the link gets its own copy, the copy
        may suffer an upset, it is latched for the receiver's round per
        :meth:`_arrival_round` and charged Eq. 3 energy.  `sender_end` is
        the sender's ``round_end(round_index)``, drawn by the caller:
        clock boundaries are drawn lazily, so *when* it is asked for is
        part of the RNG stream under clock skew.
        """
        stats = self.stats
        observer = self._event_observer
        if not self._link_alive(src, dst):
            stats.record_dead_link()
            self.policy.on_dead_link(src, dst, round_index)
            if observer is not None:
                observer.on_dead_link_drop(round_index, src, dst)
            return False
        copy = packet.copy_for_link()
        was_upset = self.injector.upset_occurs()
        if was_upset:
            stats.upsets_injected += 1
            copy = copy.scrambled(self.injector.corrupt(copy.codeword))
            if observer is not None:
                observer.on_upset_injected(round_index, src, dst, copy)
        arrival = self._arrival_round(src, dst, sender_end, round_index)
        self._arrivals[arrival][dst].append((copy, was_upset))
        energy_per_bit = self.link_energy_overrides.get(
            (src, dst), self.link_model.energy_per_bit_j
        )
        stats.record_transmission(
            round_index, copy.size_bits, copy.size_bits * energy_per_bit
        )
        if observer is not None:
            observer.on_transmission(round_index, src, dst, copy)
        return True

    def _pull_phase(self, round_index: int) -> None:
        """Pull half of push-pull rounds (`ForwardingPolicy.uses_pull`).

        Tiles are visited in id order.  Each live tile asks its policy
        for pull targets (uninformed tiles typically draw one uniform
        neighbor; informed ones return nothing without drawing).  A
        request crosses the ``(tile, target)`` link as priced control
        traffic; an alive, informed target with a link back to the tile
        answers by transmitting its buffered packets over
        ``(target, tile)`` through :meth:`_transmit`, i.e. exactly like
        send phase traffic.  A request nobody answers counts as lost.
        """
        policy = self.policy
        stats = self.stats
        request_bits = policy.pull_request_bits
        for tile_id in self._tile_ids:
            tile = self.tiles[tile_id]
            if not tile.alive:
                continue
            neighbors = self._neighbors[tile_id]
            if not neighbors:
                continue
            targets = policy.pull_targets(
                tile_id,
                neighbors,
                self.rng,
                round_index=round_index,
                informed=tile.informed,
            )
            if not targets:
                continue
            for target in targets:
                if not self._link_alive(tile_id, target):
                    # The request itself vanished on a dead link: no
                    # bits made it onto the wire, nothing to answer.
                    stats.record_pull_request_lost()
                    continue
                energy_per_bit = self.link_energy_overrides.get(
                    (tile_id, target), self.link_model.energy_per_bit_j
                )
                responder = self.tiles[target]
                # Only a link back to the tile can carry the answer.
                answers = tile_id in self._neighbors[target]
                packets = (
                    responder.outgoing_packets()
                    if answers and responder.informed else []
                )
                stats.record_pull_request(
                    request_bits,
                    request_bits * energy_per_bit,
                    answered=bool(packets),
                )
                if not packets:
                    continue
                sender_end = self.clocks[target].round_end(round_index)
                for packet in packets:
                    if self._transmit(
                        round_index, target, tile_id, packet, sender_end
                    ):
                        stats.pull_responses += 1

    def _arrival_round(
        self, src: int, dst: int, sender_end: float, round_index: int
    ) -> int:
        """Earliest receiver round at which this transfer can be latched.

        Slow links (``link_delays > 1``) hold the packet for extra rounds;
        skewed clocks push arrivals past the receiver's next boundary.
        """
        delay = self.link_delays.get((src, dst), 1)
        if self.fault_config.sigma_synchr == 0.0:
            return round_index + delay
        receiver_clock = self.clocks[dst]
        ready_time = sender_end + (delay - 1) * self.nominal_round_s
        arrival = receiver_clock.first_round_starting_at_or_after(ready_time)
        return max(arrival, round_index + delay)

    # ------------------------------------------------------------- inspection

    def informed_tiles(self) -> list[int]:
        """Tiles that have buffered or originated at least one message."""
        return [tid for tid, tile in self.tiles.items() if tile.informed]

    def round_sample(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Network state at a round boundary: ``(informed, occupancy)``.

        `informed` counts informed tiles; `occupancy` is the sorted
        ``(buffer length, live tiles at that length)`` histogram — what
        :class:`repro.metrics.MetricsCollector` records per round.
        """
        informed = 0
        occupancy: dict[int, int] = {}
        alive = TileState.ALIVE
        for tile in self.tiles.values():
            if tile.informed:
                informed += 1
            if tile.state is alive:
                size = len(tile.send_buffer)
                occupancy[size] = occupancy.get(size, 0) + 1
        return informed, tuple(sorted(occupancy.items()))

