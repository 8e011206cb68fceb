"""The pluggable forwarding-policy interface.

The thesis treats the forwarding probability *p* as the protocol's single
knob (§3.2.2): every buffered packet is offered to every output port and
an RND circuit fires with probability *p*.  The rumor-spreading literature
since then has produced markedly smarter dissemination rules — counter
("median rule") gossip that silences a rumor after *k* duplicate
receptions (arXiv:1209.6158), and congestion/fault-adaptive forwarding
(arXiv:1811.11262).  This package makes the forwarding rule a first-class,
swappable component so those variants (and future routing experiments) run
on the unmodified engine.

Contract
--------

A :class:`ForwardingPolicy` is a *stateful, per-run* object.  The engine
drives it through four hooks:

* :meth:`ForwardingPolicy.on_round_begin` — once per gossip round, before
  any traffic of that round moves;
* :meth:`ForwardingPolicy.decide` — once per (packet, output link) pair
  during the send phase; returning True transmits a copy on that link;
* :meth:`ForwardingPolicy.on_duplicate_received` — whenever a tile's
  receive path suppresses an intact duplicate (the signal counter-based
  gossip feeds on);
* :meth:`ForwardingPolicy.on_dead_link` — whenever a transmission vanishes
  on a crashed link (the signal fault-adaptive policies feed on).

Because policies are stateful, *configuration* is carried separately by a
frozen, picklable :class:`PolicySpec`: sweep harnesses and
:class:`repro.noc.config.SimConfig` store the spec, and every simulator
run builds a fresh policy instance via :func:`build_policy`, so no state
ever leaks between runs and cached sweep results can never alias across
policies (the spec participates in the config's content hash).

Performance note: :meth:`ForwardingPolicy.decisions` is the engine-facing
batch entry point (one call per packet per round).  Its default loops over
ports calling :meth:`decide`; policies with a vectorisable rule override
it (see :class:`repro.policies.bernoulli.BernoulliPolicy`) — the per-link
``decide`` stays the semantic contract either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packet import Packet


@dataclass(frozen=True)
class ForwardDecision:
    """The outcome of one RND-circuit draw.

    Attributes:
        port: index of the output port in the tile's neighbor tuple.
        neighbor: destination tile id of the port's link.
        transmit: whether the packet is sent on that link this round.
    """

    port: int
    neighbor: int
    transmit: bool


@dataclass(frozen=True)
class BatchDecisionView:
    """One send phase's packet rows, as arrays, for vectorised policies.

    The fast engine backend offers the *whole* round's (tile, buffered
    packet) rows to :meth:`ForwardingPolicy.decide_batch` at once.  Rows
    are ordered exactly as the per-object engine would visit them: tiles
    in id order, each tile's packets in buffer-insertion order.

    Attributes:
        round_index: current gossip round.
        tile_ids: owning (forwarding) tile per row.
        sources: packet-key source half per row.
        message_ids: packet-key message-id half per row.
        buffer_occupancy: the owning tile's send-buffer size per row.
        buffer_capacity: the global buffer bound, or None when unbounded.
        max_degree: the topology's maximum port count — the column width
            a 2-D :meth:`ForwardingPolicy.decide_batch` matrix must have
            (None on engines that never use the matrix form).
        degrees: the owning tile's port count per row.
        rng: the simulation's generator, for a ``decide_batch`` that
            draws its decisions itself; None when the engine cannot let
            a policy pre-draw the round (``p_upset > 0``: upset draws
            interleave with the decisions, transmission by transmission).
        destinations: the packet's destination tile per row
            (:data:`~repro.core.packet.BROADCAST` for a broadcast).
        port_neighbors: the engine's ``(n_tiles, max_degree)`` port ->
            neighbor table, in the port order :meth:`decisions` sees (-1
            past a tile's degree); index it with ``tile_ids``.
    """

    round_index: int
    tile_ids: np.ndarray
    sources: np.ndarray
    message_ids: np.ndarray
    buffer_occupancy: np.ndarray
    buffer_capacity: int | None
    max_degree: int | None = None
    degrees: np.ndarray | None = None
    rng: np.random.Generator | None = None
    destinations: np.ndarray | None = None
    port_neighbors: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.tile_ids)


@dataclass(frozen=True)
class PolicyContext:
    """What a policy may observe when deciding one (packet, link) pair.

    Attributes:
        tile_id: the forwarding tile.
        round_index: current gossip round.
        rng: the simulation's single RNG (policies must draw all
            randomness from it so runs stay seed-reproducible).
        neighbors: the tile's full output-port neighbor tuple.
        buffer_occupancy: packets currently in the tile's send-buffer.
        buffer_capacity: the buffer bound, or None when unbounded.
    """

    tile_id: int
    round_index: int
    rng: np.random.Generator
    neighbors: tuple[int, ...]
    buffer_occupancy: int = 0
    buffer_capacity: int | None = None


@dataclass(frozen=True)
class PolicySpec:
    """Frozen, picklable description of one policy configuration.

    Attributes:
        kind: registry name of the policy class ("bernoulli", "flood",
            "counter", "adaptive", ...).
        params: constructor keyword arguments as a sorted tuple of
            ``(name, value)`` pairs — tuple form keeps the spec hashable
            and its repr deterministic (it feeds cache tokens).
    """

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, kind: str, **params: Any) -> "PolicySpec":
        """Build a spec from keyword arguments.

        >>> PolicySpec.of("bernoulli", forward_probability=0.5).kind
        'bernoulli'
        """
        return cls(kind=kind, params=tuple(sorted(params.items())))

    def as_dict(self) -> dict[str, Any]:
        """The params as a plain keyword dict."""
        return dict(self.params)

    def build(self) -> "ForwardingPolicy":
        """Instantiate a fresh (zero-state) policy from this spec."""
        return build_policy(self)

    @property
    def name(self) -> str:
        """Human-readable label used in experiment tables."""
        if not self.params:
            return self.kind
        inner = ", ".join(f"{key}={value:g}" if isinstance(value, float)
                          else f"{key}={value}" for key, value in self.params)
        return f"{self.kind}({inner})"

    def describe(self) -> tuple:
        """Canonical tuple form for content hashing (cache keys)."""
        return ("PolicySpec", self.kind, self.params)


class ForwardingPolicy:
    """Base class for per-run forwarding policies.

    Subclasses set :attr:`kind`, implement :meth:`decide`, and return
    their constructor arguments from :meth:`spec_params`; the stateful
    ones also override :meth:`reset` (called once by the engine before
    round 0) and whichever observation hooks they feed on.
    """

    #: Registry name; subclasses registered via :func:`register_policy`.
    kind: str = ""

    #: Does this policy run a *pull* phase?  When True the engine adds a
    #: pull step after every send phase (uninformed tiles request the
    #: rumor from neighbors chosen by :meth:`pull_targets`).  Push-only
    #: policies keep the default False and their runs are bit-identical
    #: to the pre-pull engine: the phase is skipped entirely and no RNG
    #: draws happen.
    uses_pull: bool = False

    #: Size in bits of one pull request, priced through the Eq. 3 energy
    #: model per request that crosses a live link.
    pull_request_bits: int = 0

    # ------------------------------------------------------------- identity

    def spec_params(self) -> dict[str, Any]:
        """Constructor kwargs that rebuild this policy (spec payload)."""
        return {}

    @property
    def spec(self) -> PolicySpec:
        """The frozen spec describing this policy's configuration.

        ``TypeError`` unless this class is the one registered as
        :attr:`kind`: any other spec would build another class, or none.
        """
        if POLICY_REGISTRY.get(self.kind) is not type(self):
            raise TypeError(
                f"{type(self).__name__} is not the policy registered as "
                f"kind {self.kind!r}, so it has no PolicySpec; register "
                "it with @register_policy"
            )
        return PolicySpec.of(self.kind, **self.spec_params())

    @property
    def name(self) -> str:
        return self.spec.name

    # ----------------------------------------------------------------- hooks

    def reset(self) -> None:
        """Clear all per-run state (engine calls this before round 0)."""

    def bind(self, topology: Any) -> None:
        """Receive the run's topology before :meth:`reset` is called.

        Most policies are topology-oblivious and keep this no-op; route
        computing policies (e.g. ``adaptive_route``) cache shortest-path
        structure here.  The engine calls ``bind`` exactly once per run,
        with the same :class:`repro.noc.topology.Topology` on every
        backend.
        """
        del topology

    def on_round_begin(self, round_index: int) -> None:
        """A new gossip round is starting."""

    def on_duplicate_received(
        self, tile_id: int, packet: "Packet", round_index: int
    ) -> None:
        """`tile_id` received (and suppressed) an intact duplicate copy."""

    def on_dead_link(self, src: int, dst: int, round_index: int) -> None:
        """A transmission from `src` vanished on the dead link to `dst`.

        Backend note: the object engine fires this hook interleaved with
        the round's remaining forwarding decisions while the fast
        backend, on every path, fires it after computing *all* of the
        round's decisions.  Policies that react to dead links must
        therefore latch the reaction here and promote it at the next
        :meth:`on_round_begin` — reacting mid-round would make results
        backend-dependent.
        """

    # ------------------------------------------------------------------ pull

    def pull_targets(
        self,
        tile_id: int,
        neighbors: tuple[int, ...],
        rng: np.random.Generator,
        *,
        round_index: int,
        informed: bool,
    ) -> tuple[int, ...]:
        """Neighbors `tile_id` sends pull requests to this round.

        Only consulted when :attr:`uses_pull` is True.  The engine calls
        it once per live tile per round, tiles in id order; any RND draws
        must come from `rng` (and informed tiles should return ``()``
        *without drawing* so the stream stays backend-independent).  Each
        returned neighbor receives one pull request: if it is alive,
        informed and the links are up, it answers by transmitting its
        buffered packets back to `tile_id`.
        """
        del tile_id, neighbors, rng, round_index, informed
        return ()

    def pull_ports_batch(
        self,
        tile_ids: np.ndarray,
        degrees: np.ndarray,
        informed: np.ndarray,
        rng: np.random.Generator,
        round_index: int,
    ) -> np.ndarray | None:
        """Vectorised form of :meth:`pull_targets` for a whole pull phase.

        The fast backend passes every live tile that has ports, in id
        order, as parallel arrays.  Return a boolean request mask, one
        row per tile and one column per port (at least ``degrees.max()``
        wide): a True at ``(i, port)`` is a pull request from
        ``tile_ids[i]`` to its neighbor on `port`.  The draws must be
        exactly those of the :meth:`pull_targets` calls, in tile order,
        and a tile's requests go out in port order.  Returning None (the
        default) — with `rng` untouched — runs the phase through
        :meth:`pull_targets` tile by tile.
        """
        del tile_ids, degrees, informed, rng, round_index
        return None

    # ------------------------------------------------------------- decisions

    def decide(
        self, packet: "Packet", link: tuple[int, int], ctx: PolicyContext
    ) -> bool:
        """Should `packet` be transmitted over `link` this round?

        `link` is the directed pair ``(sending tile, neighbor)``.
        """
        raise NotImplementedError

    def decisions(
        self,
        packet: "Packet",
        neighbors: tuple[int, ...],
        rng: np.random.Generator,
        *,
        tile_id: int,
        round_index: int,
        buffer_occupancy: int = 0,
        buffer_capacity: int | None = None,
    ) -> list[ForwardDecision]:
        """Per-port decisions for one packet (the engine entry point).

        The default builds one :class:`PolicyContext` and asks
        :meth:`decide` per port; override for vectorised rules.  RND
        draws must come from `rng` in port order so results stay
        reproducible for a given seed.
        """
        ctx = PolicyContext(
            tile_id=tile_id,
            round_index=round_index,
            rng=rng,
            neighbors=neighbors,
            buffer_occupancy=buffer_occupancy,
            buffer_capacity=buffer_capacity,
        )
        return [
            ForwardDecision(
                port, neighbor, self.decide(packet, (tile_id, neighbor), ctx)
            )
            for port, neighbor in enumerate(neighbors)
        ]

    def decide_batch(self, batch: BatchDecisionView) -> np.ndarray | None:
        """Per-row forwarding probabilities for a whole send phase.

        The vectorised entry point used by the fast engine backend.  A
        policy that can express its rule as "row i transmits on each of
        its ports independently with probability ``p[i]``" returns that
        float array (one entry per batch row); the engine then draws the
        per-port coins itself with the exact stream discipline of
        :meth:`decisions` — no draw for ``p[i] >= 1`` (deterministic
        transmit) or ``p[i] == 0`` (silenced), one ``rng.random(n_ports)``
        block in row order otherwise.

        A policy may instead return a 2-D matrix of shape
        ``(len(batch), batch.max_degree)`` whose entries are exactly 0 or
        1 — decided per row and port, no engine coin flips (ports past a
        tile's degree are ignored).  The engine rejects fractional matrix
        entries loudly; per-port *probabilities* have no
        draw-order-preserving vectorised form.  A rule that needs
        randomness to fill the matrix draws it from ``batch.rng`` and
        must consume exactly what its :meth:`decisions` calls would, in
        row order — or return None, also when ``batch.rng`` is None.

        Returning None (the default) means "no vectorised form": the
        engine falls back to calling :meth:`decisions` per row, so every
        policy keeps working on every backend.
        """
        del batch
        return None

    def on_duplicates_batch(
        self,
        tile_ids: np.ndarray,
        sources: np.ndarray,
        message_ids: np.ndarray,
        round_index: int,
    ) -> bool:
        """Vectorised form of :meth:`on_duplicate_received`.

        The fast backend reports one receive phase's suppressed intact
        duplicates as parallel arrays (processing order preserved).
        Return True when handled; the default returns False, telling the
        engine to replay the events through
        :meth:`on_duplicate_received` one by one.
        """
        del tile_ids, sources, message_ids, round_index
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.spec_params()!r})"


# ------------------------------------------------------------------ registry

#: kind -> policy class; populated by :func:`register_policy` decorators.
POLICY_REGISTRY: dict[str, type[ForwardingPolicy]] = {}


def register_policy(cls: type[ForwardingPolicy]) -> type[ForwardingPolicy]:
    """Class decorator adding `cls` to :data:`POLICY_REGISTRY` by kind."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must set a non-empty `kind`")
    existing = POLICY_REGISTRY.get(cls.kind)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"policy kind {cls.kind!r} already registered by "
            f"{existing.__name__}"
        )
    POLICY_REGISTRY[cls.kind] = cls
    return cls


def build_policy(spec: PolicySpec) -> ForwardingPolicy:
    """Instantiate a fresh policy from a spec (loud on unknown kinds)."""
    if not isinstance(spec, PolicySpec):
        raise TypeError(f"build_policy expects a PolicySpec, got {spec!r}")
    try:
        cls = POLICY_REGISTRY[spec.kind]
    except KeyError:
        known = ", ".join(sorted(POLICY_REGISTRY)) or "<none>"
        raise ValueError(
            f"unknown policy kind {spec.kind!r}; registered kinds: {known}"
        ) from None
    return cls(**spec.as_dict())


def make_policy(kind: str, **params: Any) -> ForwardingPolicy:
    """Convenience: ``build_policy(PolicySpec.of(kind, **params))``."""
    return build_policy(PolicySpec.of(kind, **params))
