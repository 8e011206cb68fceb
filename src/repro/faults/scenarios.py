"""Dynamic, time-varying fault scenarios (the chaos layer of ``repro.faults``).

The five-parameter :class:`repro.faults.FaultConfig` describes *static*
failure statistics: every round draws from the same distributions.  The
thesis' headline claim, however, is that stochastic communication keeps
working while failures arrive and evolve *over time* — upset bursts,
links that die and come back, a correlated region of tiles browning out
mid-run.  This module expresses exactly that regime:

* a :class:`ScenarioSpec` is a **frozen, picklable** description of a
  time-varying fault process.  Specs ride through
  :class:`repro.runners.SweepRunner` task specs unchanged and
  participate in :meth:`repro.noc.config.SimConfig.cache_token`, so two
  sweeps differing only in scenario never alias in the on-disk cache;
* a :class:`ScenarioState` is the per-run mutable realisation of a spec.
  The engine instantiates it with a dedicated RNG stream spawned from
  the run's seed (``SeedSequence(seed).spawn``), so scenario draws are
  deterministic per seed and never perturb the protocol's own stream;
* each round the state emits a :class:`ScenarioEffect`: overrides to the
  effective :class:`FaultConfig`, the set of links currently down, tiles
  to crash, and the labels of the scenario phases active that round
  (recorded by :class:`repro.metrics.MetricsCollector` so drop
  breakdowns attribute losses to the scenario that caused them).

Five concrete scenarios cover the failure regimes of the related
fault-tolerant rumor-spreading literature:

* :class:`BurstUpsets` — elevated ``p_upset`` over a round window (a
  crosstalk/radiation burst);
* :class:`RampOverflow` — ``p_overflow`` ramping linearly up to a peak
  (a congestion build-up);
* :class:`LinkFlap` — links fail and *repair* with geometric MTBF/MTTR
  holding times (intermittent connectors, voltage droop);
* :class:`RegionOutage` — a correlated rectangle of tiles crashes at a
  given round (a particle-strike cluster or voltage-island brownout);
* :class:`Composite` — any stack of the above, applied in order.

See ``docs/faults.md`` for the full model and worked examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a faults<->noc cycle)
    from repro.noc.topology import Topology


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class ScenarioEffect:
    """What one scenario does to one round.

    Attributes:
        fault_overrides: ``FaultConfig`` field overrides in force this
            round, applied on top of the run's base config (later
            scenarios in a :class:`Composite` win on conflicts).
        down_links: directed links held down this round.  Transient —
            a link absent from the next round's effect has *repaired*.
        crash_tiles: tiles to crash at the start of this round.  Crashes
            are permanent (thesis Ch. 2), so a tile listed here stays
            dead even after the scenario window closes.
        active: labels of the scenario phases active this round, for
            metrics attribution (empty = scenario currently dormant).
    """

    fault_overrides: dict[str, float] = field(default_factory=dict)
    down_links: frozenset[tuple[int, int]] = frozenset()
    crash_tiles: frozenset[int] = frozenset()
    active: tuple[str, ...] = ()

    @classmethod
    def idle(cls) -> "ScenarioEffect":
        """The no-op effect of a dormant scenario."""
        return cls()


class ScenarioState:
    """Per-run mutable realisation of a :class:`ScenarioSpec`.

    Subclasses implement :meth:`begin_round`.  Determinism contract: for
    a fixed spec, topology and RNG seed, the sequence of effects emitted
    for rounds ``0, 1, 2, ...`` is identical on every run — states must
    draw a schedule-independent number of variates per round.
    """

    def begin_round(self, round_index: int) -> ScenarioEffect:
        """Return the effect in force for `round_index`."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScenarioSpec:
    """Base class for frozen, picklable dynamic-fault descriptions.

    A spec is pure configuration: :meth:`instantiate` builds the mutable
    per-run :class:`ScenarioState`, and :meth:`describe` emits the
    canonical tuple that feeds ``SimConfig.cache_token`` and the sweep
    cache key (:mod:`repro.runners.hashing` also understands specs
    generically because they are frozen dataclasses).
    """

    @property
    def label(self) -> str:
        """Short stable name used in metrics attribution and reports."""
        return _KIND_BY_CLASS[type(self)]

    def describe(self) -> tuple:
        """Canonical, deterministic tuple form (class + sorted fields)."""
        import dataclasses

        return (
            type(self).__name__,
            tuple(
                (f.name, _describe_value(getattr(self, f.name)))
                for f in dataclasses.fields(self)
            ),
        )

    def instantiate(
        self, rng: np.random.Generator, topology: "Topology"
    ) -> ScenarioState:
        """Build the per-run state, validated against `topology`."""
        raise NotImplementedError


def _describe_value(value: object) -> object:
    if isinstance(value, ScenarioSpec):
        return value.describe()
    if isinstance(value, tuple):
        return tuple(_describe_value(item) for item in value)
    return value


# ------------------------------------------------------------- burst upsets


class _WindowOverrideState(ScenarioState):
    """Shared state for window-scoped ``FaultConfig`` overrides."""

    def __init__(
        self, label: str, start: int, duration: int | None
    ) -> None:
        self._label = label
        self._start = start
        self._duration = duration

    def _in_window(self, round_index: int) -> bool:
        if round_index < self._start:
            return False
        if self._duration is None:
            return True
        return round_index < self._start + self._duration

    def _overrides(self, round_index: int) -> dict[str, float]:
        raise NotImplementedError

    def begin_round(self, round_index: int) -> ScenarioEffect:
        if not self._in_window(round_index):
            return ScenarioEffect.idle()
        return ScenarioEffect(
            fault_overrides=self._overrides(round_index),
            active=(self._label,),
        )


@dataclass(frozen=True)
class BurstUpsets(ScenarioSpec):
    """Elevated ``p_upset`` over a round window.

    Attributes:
        p_upset: the upset probability in force during the burst.
        start: first round of the burst.
        duration: burst length in rounds; ``None`` holds until the run
            ends.
    """

    p_upset: float
    start: int = 0
    duration: int | None = None

    def __post_init__(self) -> None:
        _check_probability("p_upset", self.p_upset)
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration is not None and self.duration < 1:
            raise ValueError(
                f"duration must be >= 1 or None, got {self.duration}"
            )

    def instantiate(self, rng, topology) -> ScenarioState:
        spec = self

        class _State(_WindowOverrideState):
            def _overrides(self, round_index: int) -> dict[str, float]:
                return {"p_upset": spec.p_upset}

        return _State(self.label, self.start, self.duration)


# ------------------------------------------------------------ ramp overflow


@dataclass(frozen=True)
class RampOverflow(ScenarioSpec):
    """``p_overflow`` ramping linearly from 0 up to a peak, then holding.

    Models congestion building up over time: the effective overflow
    probability rises linearly across ``ramp_rounds`` rounds starting at
    ``start`` and then stays at ``p_overflow_peak`` for the rest of the
    run (the regime the thesis' ~80 % overflow-tolerance figure is
    recomputed under).
    """

    p_overflow_peak: float
    start: int = 0
    ramp_rounds: int = 8

    def __post_init__(self) -> None:
        _check_probability("p_overflow_peak", self.p_overflow_peak)
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.ramp_rounds < 1:
            raise ValueError(
                f"ramp_rounds must be >= 1, got {self.ramp_rounds}"
            )

    def instantiate(self, rng, topology) -> ScenarioState:
        spec = self

        class _State(_WindowOverrideState):
            def _overrides(self, round_index: int) -> dict[str, float]:
                progress = (round_index - spec.start + 1) / spec.ramp_rounds
                level = spec.p_overflow_peak * min(1.0, progress)
                return {"p_overflow": level}

        return _State(self.label, self.start, None)


# ---------------------------------------------------------------- link flap


class _LinkFlapState(ScenarioState):
    def __init__(
        self,
        label: str,
        links: tuple[tuple[int, int], ...],
        p_fail: float,
        p_repair: float,
        rng: np.random.Generator,
    ) -> None:
        self._label = label
        self._links = links
        self._p_fail = p_fail
        self._p_repair = p_repair
        self._rng = rng
        self._down: set[tuple[int, int]] = set()

    def begin_round(self, round_index: int) -> ScenarioEffect:
        # One draw per affected link per round, in deterministic link
        # order, regardless of current state: the variate count never
        # depends on the trajectory, so runs replay exactly per seed.
        draws = self._rng.random(len(self._links))
        for link, draw in zip(self._links, draws):
            if link in self._down:
                if draw < self._p_repair:
                    self._down.discard(link)
            elif draw < self._p_fail:
                self._down.add(link)
        if not self._down:
            return ScenarioEffect(active=(self._label,))
        return ScenarioEffect(
            down_links=frozenset(self._down), active=(self._label,)
        )


@dataclass(frozen=True)
class LinkFlap(ScenarioSpec):
    """Links fail and repair with geometric MTBF/MTTR holding times.

    Every affected link is an independent two-state Markov chain: an up
    link goes down with probability ``1 / mtbf_rounds`` per round, a
    down link repairs with probability ``1 / mttr_rounds`` per round, so
    the mean up/down holding times are MTBF and MTTR rounds.  Unlike
    crash failures, flapped links carry traffic again after repair.

    Attributes:
        mtbf_rounds: mean rounds between failures of an up link (>= 1).
        mttr_rounds: mean rounds to repair a down link (>= 1).
        fraction: fraction of directed links affected by flapping,
            chosen uniformly at instantiation from the scenario's RNG
            stream (1.0 = every link flaps).
    """

    mtbf_rounds: float = 20.0
    mttr_rounds: float = 4.0
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.mtbf_rounds < 1.0:
            raise ValueError(
                f"mtbf_rounds must be >= 1, got {self.mtbf_rounds}"
            )
        if self.mttr_rounds < 1.0:
            raise ValueError(
                f"mttr_rounds must be >= 1, got {self.mttr_rounds}"
            )
        _check_probability("fraction", self.fraction)

    def instantiate(self, rng, topology) -> ScenarioState:
        links = tuple(topology.links)
        if self.fraction < 1.0:
            n_affected = int(round(self.fraction * len(links)))
            if n_affected:
                chosen = rng.choice(len(links), size=n_affected, replace=False)
                links = tuple(links[int(i)] for i in sorted(chosen))
            else:
                links = ()
        return _LinkFlapState(
            self.label,
            links,
            p_fail=1.0 / self.mtbf_rounds,
            p_repair=1.0 / self.mttr_rounds,
            rng=rng,
        )


# ------------------------------------------------------------ region outage


class _RegionOutageState(ScenarioState):
    def __init__(
        self, label: str, round_index: int, tiles: frozenset[int]
    ) -> None:
        self._label = label
        self._round = round_index
        self._tiles = tiles

    def begin_round(self, round_index: int) -> ScenarioEffect:
        if round_index != self._round:
            return ScenarioEffect.idle()
        return ScenarioEffect(crash_tiles=self._tiles, active=(self._label,))


@dataclass(frozen=True)
class RegionOutage(ScenarioSpec):
    """A correlated rectangle of tiles crashes at one round.

    Models a particle-strike cluster or a voltage-island brownout: the
    whole ``rows x cols`` rectangle anchored at ``(row, col)`` dies at
    the start of ``round_index``.  Crashes are permanent.

    On non-grid topologies pass ``tiles`` explicitly instead of the
    rectangle (the rectangle form requires a topology exposing
    ``tile_at(row, col)``, i.e. ``Mesh2D``/``Torus2D``).
    """

    round_index: int
    row: int = 0
    col: int = 0
    rows: int = 1
    cols: int = 1
    tiles: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ValueError(
                f"round_index must be >= 0, got {self.round_index}"
            )
        if self.tiles is None and (self.rows < 1 or self.cols < 1):
            raise ValueError(
                f"region must be at least 1x1, got {self.rows}x{self.cols}"
            )

    def resolve_tiles(self, topology) -> frozenset[int]:
        """The concrete tile set the outage kills on `topology`."""
        if self.tiles is not None:
            for tid in self.tiles:
                topology.validate_tile(tid)
            return frozenset(self.tiles)
        tile_at = getattr(topology, "tile_at", None)
        if tile_at is None:
            raise TypeError(
                f"RegionOutage rectangles need a grid topology with "
                f"tile_at(row, col); {type(topology).__name__} has none — "
                "pass tiles=(...) explicitly"
            )
        return frozenset(
            tile_at(self.row + dr, self.col + dc)
            for dr in range(self.rows)
            for dc in range(self.cols)
        )

    def instantiate(self, rng, topology) -> ScenarioState:
        return _RegionOutageState(
            self.label, self.round_index, self.resolve_tiles(topology)
        )


# -------------------------------------------------------------- composition


class _CompositeState(ScenarioState):
    def __init__(self, states: tuple[ScenarioState, ...]) -> None:
        self._states = states

    def begin_round(self, round_index: int) -> ScenarioEffect:
        overrides: dict[str, float] = {}
        down: set[tuple[int, int]] = set()
        crash: set[int] = set()
        active: list[str] = []
        for state in self._states:
            effect = state.begin_round(round_index)
            overrides.update(effect.fault_overrides)
            down |= effect.down_links
            crash |= effect.crash_tiles
            active.extend(effect.active)
        return ScenarioEffect(
            fault_overrides=overrides,
            down_links=frozenset(down),
            crash_tiles=frozenset(crash),
            active=tuple(active),
        )


@dataclass(frozen=True)
class Composite(ScenarioSpec):
    """A stack of scenarios applied in order (later overrides win)."""

    scenarios: tuple[ScenarioSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise ValueError("Composite needs at least one scenario")
        for spec in self.scenarios:
            if not isinstance(spec, ScenarioSpec):
                raise TypeError(
                    f"Composite members must be ScenarioSpec, got "
                    f"{type(spec).__name__}"
                )

    @classmethod
    def of(cls, *scenarios: ScenarioSpec) -> "Composite":
        """Stack `scenarios` (sugar over the tuple field)."""
        return cls(scenarios=tuple(scenarios))

    def instantiate(self, rng, topology) -> ScenarioState:
        # Each member gets its own child stream so adding a scenario to
        # the stack never shifts the draws of the others.
        states = tuple(
            spec.instantiate(np.random.default_rng(child), topology)
            for spec, child in zip(
                self.scenarios,
                np.random.SeedSequence(
                    rng.integers(0, 2**63 - 1, dtype=np.int64)
                ).spawn(len(self.scenarios)),
            )
        )
        return _CompositeState(states)


#: Registered scenario kinds, keyed by the label used in metrics
#: attribution and the ``repro chaos`` CLI.
SCENARIO_KINDS: dict[str, type[ScenarioSpec]] = {
    "burst_upsets": BurstUpsets,
    "ramp_overflow": RampOverflow,
    "link_flap": LinkFlap,
    "region_outage": RegionOutage,
    "composite": Composite,
}

_KIND_BY_CLASS = {cls: kind for kind, cls in SCENARIO_KINDS.items()}


def describe_scenario(spec: ScenarioSpec | None) -> tuple | None:
    """Canonical tuple for ``SimConfig.describe`` (None passes through)."""
    if spec is None:
        return None
    return spec.describe()


def scenario_from_kind(kind: str, **params: object) -> ScenarioSpec:
    """Build a scenario by registry name (the CLI entry point).

    >>> scenario_from_kind("burst_upsets", p_upset=0.3).p_upset
    0.3
    """
    try:
        cls = SCENARIO_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(SCENARIO_KINDS))
        raise ValueError(
            f"unknown scenario kind {kind!r}; known kinds: {known}"
        ) from None
    return cls(**params)  # type: ignore[arg-type]
