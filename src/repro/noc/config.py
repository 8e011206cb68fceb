"""Immutable simulator configuration.

:class:`SimConfig` captures everything that *defines* a simulation apart
from its random seed and runtime hooks: the topology, the forwarding
protocol, the fault model, the electrical constants and every tuning knob
of :class:`repro.noc.engine.NocSimulator`.  It is

* **frozen** — a config can be shared between runs and threads without
  defensive copying;
* **picklable** — process-parallel sweep workers receive the config as
  their task spec (see :mod:`repro.runners`);
* **content-hashable** — :meth:`SimConfig.cache_token` digests every
  field into a stable hex string, the backbone of the on-disk result
  cache; changing any field changes the token.

``NocSimulator(...)`` keyword arguments and ``SimConfig`` fields are the
same names with the same defaults; the constructor is a thin wrapper that
builds a config and hands it to
:meth:`repro.noc.engine.NocSimulator.from_config`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.core.protocol import StochasticProtocol
from repro.crc import CRC, CRC16_CCITT
from repro.faults import CrashPlan, FaultConfig, ScenarioSpec, describe_scenario
from repro.noc.backends import OBJECT_BACKEND, check_backend
from repro.noc.link import DEFAULT_LINK, LinkModel
from repro.noc.routing import XYRoutingProtocol
from repro.noc.topology import Topology
from repro.policies.base import ForwardingPolicy, PolicySpec

#: The thesis's own rules: stored as themselves and hashed by
#: :func:`describe_protocol`, so their pre-policy cache tokens stay pinned.
THESIS_RULES = (StochasticProtocol, XYRoutingProtocol)

# --------------------------------------------------------------- describers
#
# Canonical, deterministic tuple forms of the non-primitive field types.
# They feed the cache token, so they must be stable across processes and
# interpreter runs (no `id()`, no unsorted set iteration, no raw `hash()`).


def describe_topology(topology: Topology) -> tuple:
    """A topology is its class, size and exact (sorted) link set."""
    return (
        type(topology).__name__,
        topology.n_tiles,
        tuple(topology.links),
    )


def describe_protocol(
    protocol: StochasticProtocol | XYRoutingProtocol | PolicySpec,
) -> tuple:
    if isinstance(protocol, PolicySpec):
        # Policy-native configs: the spec's canonical tuple.  Distinct
        # policies (or the same policy with different parameters) can
        # therefore never alias in the cache.
        return protocol.describe()
    return (
        type(protocol).__name__,
        protocol.forward_probability,
        protocol.name,
    )


def describe_crc(crc: CRC) -> tuple:
    spec = crc.spec
    return (
        spec.name,
        spec.width,
        spec.polynomial,
        spec.init,
        spec.reflect_in,
        spec.reflect_out,
        spec.xor_out,
    )


def describe_fault_config(config: FaultConfig) -> tuple:
    return (
        config.p_tile,
        config.p_link,
        config.p_upset,
        config.p_overflow,
        config.sigma_synchr,
        config.error_model,
    )


def describe_link_model(link: LinkModel) -> tuple:
    return (link.frequency_hz, link.energy_per_bit_j, link.width_bits)


def describe_crash_plan(plan: CrashPlan | None) -> tuple | None:
    if plan is None:
        return None
    return (tuple(sorted(plan.dead_tiles)), tuple(sorted(plan.dead_links)))


@dataclass(frozen=True, eq=False)
class SimConfig:
    """The complete, seed-free specification of one NoC simulation.

    Every field mirrors the :class:`repro.noc.engine.NocSimulator`
    constructor argument of the same name (see its docstring for
    semantics).  ``fault_config=None`` normalises to
    :meth:`FaultConfig.fault_free`; the mapping-valued knobs normalise to
    empty dicts and the set-valued ones to frozensets, so two configs
    built from equivalent arguments compare (and hash) equal.
    """

    topology: Topology
    protocol: ForwardingPolicy | PolicySpec
    fault_config: FaultConfig | None = None
    link_model: LinkModel = DEFAULT_LINK
    default_ttl: int | None = None
    buffer_capacity: int | None = None
    buffer_mode: str = "retain"
    crc: CRC = CRC16_CCITT
    nominal_round_s: float | None = None
    payload_bits: int = 512
    crash_plan: CrashPlan | None = None
    protected_tiles: frozenset[int] = frozenset()
    link_delays: dict[tuple[int, int], int] = field(default_factory=dict)
    link_energy_overrides: dict[tuple[int, int], float] = field(
        default_factory=dict
    )
    egress_limits: dict[int, int] = field(default_factory=dict)
    bus_tiles: frozenset[int] = frozenset()
    scenario: ScenarioSpec | None = None
    #: Which engine executes this config: "object" (the reference
    #: per-object engine) or "fast" (the vectorised structure-of-arrays
    #: engine).  Both produce bit-identical results for any supported
    #: config — see docs/performance.md for the fast backend's limits.
    backend: str = OBJECT_BACKEND

    def __post_init__(self) -> None:
        # Normalise the permissive constructor types to canonical ones so
        # equality/hashing do not depend on how the caller spelled them.
        # Stateful policy objects normalise to their frozen PolicySpec: the
        # config stays picklable and run-independent, and the engine builds
        # a fresh policy instance per run (no state leaks between runs).
        # An unregistered policy has no spec and raises TypeError.
        if not isinstance(self.protocol, (PolicySpec, *THESIS_RULES)):
            if not isinstance(self.protocol, ForwardingPolicy):
                raise TypeError(
                    "protocol must be a ForwardingPolicy or PolicySpec, "
                    f"got {type(self.protocol).__name__}"
                )
            object.__setattr__(self, "protocol", self.protocol.spec)
        if self.fault_config is None:
            object.__setattr__(self, "fault_config", FaultConfig.fault_free())
        object.__setattr__(
            self, "protected_tiles", frozenset(self.protected_tiles)
        )
        object.__setattr__(self, "bus_tiles", frozenset(self.bus_tiles))
        object.__setattr__(self, "link_delays", dict(self.link_delays or {}))
        object.__setattr__(
            self,
            "link_energy_overrides",
            dict(self.link_energy_overrides or {}),
        )
        object.__setattr__(
            self, "egress_limits", dict(self.egress_limits or {})
        )

        if self.buffer_mode not in ("retain", "relay"):
            raise ValueError(
                f"buffer_mode must be 'retain' or 'relay', got "
                f"{self.buffer_mode!r}"
            )
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ValueError(
                f"buffer_capacity must be >= 1 or None, got "
                f"{self.buffer_capacity}"
            )
        if self.default_ttl is not None and self.default_ttl < 1:
            raise ValueError(
                f"default_ttl must be >= 1 or None, got {self.default_ttl}"
            )
        if self.nominal_round_s is not None and self.nominal_round_s <= 0:
            raise ValueError(
                f"nominal_round_s must be > 0, got {self.nominal_round_s}"
            )
        if self.payload_bits < 1:
            raise ValueError(
                f"payload_bits must be positive, got {self.payload_bits}"
            )
        if any(delay < 1 for delay in self.link_delays.values()):
            raise ValueError("link delays must be >= 1 round")
        if any(limit < 1 for limit in self.egress_limits.values()):
            raise ValueError("egress limits must be >= 1")
        if self.scenario is not None and not isinstance(
            self.scenario, ScenarioSpec
        ):
            raise TypeError(
                f"scenario must be a repro.faults.ScenarioSpec or None, "
                f"got {type(self.scenario).__name__}"
            )
        check_backend(self.backend)

    # ----------------------------------------------------------- convenience

    def with_(self, **overrides: object) -> "SimConfig":
        """Return a copy with the given fields replaced.

        >>> from repro.noc.topology import Mesh2D
        >>> cfg = SimConfig(Mesh2D(2, 2), StochasticProtocol(0.5))
        >>> cfg.with_(payload_bits=128).payload_bits
        128
        """
        return replace(self, **overrides)

    # --------------------------------------------------------------- hashing

    def describe(self) -> tuple:
        """A canonical, deterministic tuple form of every field.

        Scenario-free configs emit exactly the pre-scenario tuple, and
        object-backend configs omit the backend entry, so legacy cache
        tokens are pinned: existing on-disk caches remain valid, a
        scenario run can never alias a scenario-free one, and — because
        both backends are bit-identical — a fast-backend run *should not*
        produce a different result than the cached object-backend one,
        but its token still differs so backend provenance is auditable.
        """
        base = (
            describe_topology(self.topology),
            describe_protocol(self.protocol),
            describe_fault_config(self.fault_config),
            describe_link_model(self.link_model),
            self.default_ttl,
            self.buffer_capacity,
            self.buffer_mode,
            describe_crc(self.crc),
            self.nominal_round_s,
            self.payload_bits,
            describe_crash_plan(self.crash_plan),
            tuple(sorted(self.protected_tiles)),
            tuple(sorted(self.link_delays.items())),
            tuple(sorted(self.link_energy_overrides.items())),
            tuple(sorted(self.egress_limits.items())),
            tuple(sorted(self.bus_tiles)),
        )
        if self.scenario is not None:
            base = base + (("scenario", describe_scenario(self.scenario)),)
        if self.backend != OBJECT_BACKEND:
            base = base + (("backend", self.backend),)
        return base

    def cache_token(self) -> str:
        """A stable content hash of the whole configuration.

        Two configs share a token iff :meth:`describe` agrees on every
        field, so any field change invalidates cached results keyed on
        the token.  The digest is stable across processes and Python
        invocations (it never uses ``hash()``).
        """
        payload = repr(self.describe()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def __eq__(self, other: object) -> bool:
        # Content equality: two configs describing the same simulation are
        # equal even when their topology/protocol objects are distinct
        # instances (e.g. either side of a pickle round-trip).
        if not isinstance(other, SimConfig):
            return NotImplemented
        return self.describe() == other.describe()

    def __hash__(self) -> int:
        return hash(self.cache_token())
