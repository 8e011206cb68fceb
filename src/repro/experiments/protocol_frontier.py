"""Protocol frontier: paired head-to-head comparison of spreading rules.

:mod:`repro.experiments.policy_compare` sweeps forwarding *policies*
(per-port coin variants of the thesis' push gossip).  This harness
widens the race to genuinely different *protocols*:

* **bernoulli** — the thesis' push gossip (Bernoulli(p) per port);
* **push_pull** — Doerr-style rumor spreading where uninformed tiles
  also pull from a random neighbor each round
  (:class:`repro.policies.PushPullPolicy`);
* **push_pull + feedback** — the same with feedback termination: a tile
  stops pushing a message after ``feedback_k`` duplicate
  acknowledgements (:class:`repro.policies.FeedbackTermination`);
* **adaptive_route** — the deterministic fault-tolerant adaptive-routing
  baseline (:class:`repro.policies.AdaptiveRoutePolicy`), the
  non-stochastic strawman the paper argues against.

Every (protocol, fault level, repetition) cell runs the same
broadcast-saturation workload on the same engine, faults and energy
model.  Repetitions at matched fault levels share seeds (common random
numbers), so protocols face *identical* upset streams and crash maps and
the comparison is paired, not just averaged.  Cells report coverage,
completion/deadline rates, saturation latency, link transmissions,
pull-request control traffic and Eq. 3 energy.

:func:`certify_frontier` extends the PR 5/PR 8 certified
chaos-tolerance envelope to every protocol: each
(protocol, scenario kind, intensity) cell carries an SPRT-decided
:class:`repro.stats.BernoulliClaim`, so "push-pull tolerates burst
upsets the baseline does not" becomes a claim with explicit error
bounds instead of a point estimate.  ``repro frontier`` is the CLI
face; ``docs/protocols-frontier.md`` walks through the methodology and
a worked example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.chaos import scenario_for
from repro.experiments.common import ExperimentOptions, resolve_options
from repro.experiments.grid_spread import saturate
from repro.experiments.policy_compare import (
    SUPPORTS,
    field_means,
    format_axis_table,
    _saturation_run,
    sweep_fault_axes,
)
from repro.noc.topology import Mesh2D
from repro.policies import PolicySpec
from repro.stats import (
    BernoulliClaim,
    Certificate,
    Verdict,
    certify_cells,
    format_certified,
)

#: The default protocol lineup, by spec (order = presentation order).
DEFAULT_PROTOCOLS: tuple[PolicySpec, ...] = (
    PolicySpec.of("bernoulli", forward_probability=0.5),
    PolicySpec.of("push_pull"),
    PolicySpec.of("push_pull", feedback_k=2),
    PolicySpec.of("adaptive_route"),
)


@dataclass(frozen=True)
class FrontierPoint:
    """One (protocol, fault axis, fault level) cell of the comparison.

    Attributes:
        protocol: the protocol spec's display name.
        fault: swept axis — "upset" or "link_crash".
        level: the axis value (a probability, or a dead-link count).
        coverage: mean fraction of tiles informed at the end.
        completion_rate: fraction of repetitions reaching full coverage
            within the round budget.
        deadline_rate: fraction of repetitions reaching full coverage
            within ``deadline_rounds`` — the real-time view of latency.
        rounds: mean rounds to saturation (budget when not reached).
        transmissions: mean attempted link transmissions (pushes).
        pull_requests: mean pull-request control packets (zero for
            push-only protocols).
        energy_j: mean communication energy (Eq. 3), pulls included.
        time_s: mean wall-clock latency.
        repetitions: Monte-Carlo repetitions behind the means.
    """

    protocol: str
    fault: str
    level: float
    coverage: float
    completion_rate: float
    deadline_rate: float
    rounds: float
    transmissions: float
    pull_requests: float
    energy_j: float
    time_s: float
    repetitions: int


@dataclass(frozen=True)
class FrontierReport:
    """A full frontier campaign: the paired comparison grid.

    Attributes:
        points: one :class:`FrontierPoint` per (protocol, axis, level),
            protocols in lineup order within each axis.
        deadline_rounds: the round budget behind ``deadline_rate``.
    """

    points: tuple[FrontierPoint, ...]
    deadline_rounds: int


def _frontier_once(
    side: int,
    spec: PolicySpec,
    p_upset: float,
    n_dead_links: int,
    max_rounds: int,
    seed: int,
    backend: str = "object",
) -> dict[str, float]:
    """One broadcast-saturation run of `spec` under one fault setting."""
    return _saturation_run(
        side, spec, p_upset, 0.0, n_dead_links, max_rounds, seed, backend
    )


def run(
    side: int = 4,
    protocols: tuple[PolicySpec, ...] = DEFAULT_PROTOCOLS,
    upset_rates: tuple[float, ...] = (0.0, 0.2, 0.4),
    link_crash_counts: tuple[int, ...] = (4, 8),
    repetitions: int = 5,
    seed: int = 0,
    max_rounds: int = 48,
    deadline_rounds: int | None = None,
    options: ExperimentOptions | None = None,
) -> FrontierReport:
    """Race every protocol against every fault axis (one flat task batch).

    The axes are swept one at a time from a fault-free baseline: the
    "upset" axis varies ``p_upset`` alone, "link_crash" kills that many
    randomly chosen directed links.  Repetition ``r`` sees task seed
    ``seed + r`` under *every* protocol (common random numbers), so each
    cell row is a paired observation.

    Args:
        side: mesh side length.
        protocols: the protocol lineup, as :class:`PolicySpec` entries.
        upset_rates: swept ``p_upset`` levels (0.0 = clean baseline).
        link_crash_counts: swept dead-link counts.
        repetitions: Monte-Carlo repetitions per cell.
        seed: seed root; repetition ``r`` runs at ``seed + r``.
        max_rounds: per-run round budget.
        deadline_rounds: the soft real-time deadline behind
            ``deadline_rate`` (defaults to ``max_rounds``, making
            ``deadline_rate`` coincide with ``completion_rate``).
        options: execution options (workers, cache, backend, database).

    Returns:
        The :class:`FrontierReport` with one point per (protocol, axis,
        level).
    """
    if deadline_rounds is None:
        deadline_rounds = max_rounds
    if deadline_rounds < 1:
        raise ValueError(f"deadline_rounds must be >= 1, got {deadline_rounds}")
    points = []
    for spec, fault, level, outcomes in sweep_fault_axes(
        _frontier_once,
        "frontier",
        protocols,
        {"upset": upset_rates, "link_crash": link_crash_counts},
        side=side,
        max_rounds=max_rounds,
        repetitions=repetitions,
        seed=seed,
        options=options,
    ):
        means = field_means(outcomes)
        # Deadline behavior is derived at aggregation time, so the
        # deadline knob never enters task cache keys — re-running with a
        # different deadline reuses every cached replicate.
        deadline_hits = [
            bool(outcome["completed"]) and outcome["rounds"] <= deadline_rounds
            for outcome in outcomes
        ]
        points.append(
            FrontierPoint(
                protocol=spec.name,
                fault=fault,
                level=level,
                completion_rate=means.pop("completed"),
                deadline_rate=float(np.mean(deadline_hits)),
                repetitions=len(outcomes),
                **means,
            )
        )
    return FrontierReport(
        points=tuple(points), deadline_rounds=deadline_rounds
    )


def format_table(report: FrontierReport) -> str:
    """Render the paired comparison as an aligned table grouped by axis."""
    header = (
        f"{'protocol':<30} {'level':>7} {'coverage':>9} {'complete':>9} "
        f"{'deadline':>9} {'rounds':>7} {'transmit':>9} {'pulls':>7} "
        f"{'energy_J':>10}"
    )
    return "\n".join(
        [f"protocol frontier (deadline = {report.deadline_rounds} rounds)"]
        + format_axis_table(
            report.points,
            header,
            lambda point: (
                f"{point.protocol:<30} {point.level:>7g} "
                f"{point.coverage:>9.2%} {point.completion_rate:>9.2%} "
                f"{point.deadline_rate:>9.2%} {point.rounds:>7.1f} "
                f"{point.transmissions:>9.0f} {point.pull_requests:>7.0f} "
                f"{point.energy_j:>10.3e}"
            ),
        )
    )


# --------------------------------------------------------- certified frontier


def _frontier_chaos_once(
    kind: str,
    intensity: float,
    spec: PolicySpec,
    side: int,
    seed: int,
    max_rounds: int,
    backend: str = "object",
) -> tuple:
    """One broadcast run of `spec` under one chaos-scenario cell.

    Returns ``(completed, rounds, coverage_fraction)`` — the same shape
    as :func:`repro.experiments.chaos._chaos_once`, so the certified
    claims extract ``coverage`` the same way.
    """
    result, coverage = saturate(
        Mesh2D(side, side),
        spec,
        seed,
        max_rounds,
        scenario=scenario_for(kind, intensity),
        backend=backend,
    )
    return result.completed, result.rounds, coverage


@dataclass(frozen=True)
class FrontierCell:
    """One ``(protocol, kind, intensity)`` cell's certified verdict.

    Attributes:
        protocol: the protocol spec's display name.
        kind: scenario axis (see :data:`repro.experiments.chaos.CHAOS_AXES`).
        intensity: the swept scenario intensity.
        certificate: the full :class:`repro.stats.Certificate`.
    """

    protocol: str
    kind: str
    intensity: float
    certificate: Certificate

    @property
    def verdict(self) -> Verdict:
        """The cell's terminal verdict (accept / reject / undecided)."""
        return self.certificate.verdict


@dataclass(frozen=True)
class FrontierEnvelope:
    """Certified chaos-tolerance envelopes, one per protocol.

    Attributes:
        cells: one :class:`FrontierCell` per (protocol, kind, intensity).
        coverage_target: per-run coverage bar of the certified claims.
        claim: the claim template every cell ran.
        thresholds: per protocol then kind, the largest intensity whose
            claim was **accepted** (``None`` when no level certified) —
            the protocols' tolerance envelopes, side by side.
    """

    cells: tuple[FrontierCell, ...]
    coverage_target: float
    claim: BernoulliClaim
    thresholds: dict[str, dict[str, float | None]]


def certify_frontier(
    protocols: tuple[PolicySpec, ...] = DEFAULT_PROTOCOLS,
    kinds: tuple[str, ...] = ("burst_upsets",),
    levels: tuple[float, ...] = (0.0, 0.5, 0.9),
    side: int = 4,
    seed: int = 0,
    max_rounds: int = 96,
    coverage_target: float = 0.99,
    target: float = 0.9,
    indifference: float = 0.2,
    alpha: float = 0.05,
    beta: float = 0.05,
    batch_size: int = 8,
    max_replicates: int = 64,
    options: ExperimentOptions | None = None,
) -> FrontierEnvelope:
    """Certify every protocol's chaos-tolerance envelope cell by cell.

    For each (protocol, kind, intensity) cell, certifies the Bernoulli
    claim "P(final coverage >= `coverage_target`) >= `target`" by SPRT
    over adaptive replicate batches: one
    :func:`repro.stats.certify_cells` grid, like
    :func:`repro.experiments.certify.certify_chaos_envelope`, so
    envelopes are bit-identical across worker counts and batch sizes.

    Returns:
        The :class:`FrontierEnvelope` with per-protocol certified
        thresholds; with a results database attached the per-cell
        certificates land in its ``certificates`` table.
    """
    for kind in kinds:
        scenario_for(kind, 0.0)  # validate axes before paying for runs
    opts = resolve_options(options, supports=SUPPORTS)
    claim = BernoulliClaim(
        metric=f"coverage>={coverage_target}",
        target=target,
        indifference=indifference,
        alpha=alpha,
        beta=beta,
    )
    certified, thresholds = certify_cells(
        opts.make_runner(),
        claim,
        "repro.experiments.protocol_frontier:_frontier_chaos_once",
        [
            (spec, kind, level)
            for spec in protocols
            for kind in kinds
            for level in levels
        ],
        params=lambda cell: {
            "kind": cell[1],
            "intensity": cell[2],
            "spec": cell[0],
            "side": side,
            "max_rounds": max_rounds,
            "backend": opts.backend,
        },
        label=lambda cell: (
            f"frontier {cell[0].name} {cell[1]} intensity={cell[2]}"
        ),
        seed=seed,
        batch_size=batch_size,
        max_replicates=max_replicates,
    )
    nested: dict[str, dict[str, float | None]] = {}
    for (spec, kind), best in thresholds.items():
        nested.setdefault(spec.name, {})[kind] = best
    return FrontierEnvelope(
        cells=tuple(
            FrontierCell(
                protocol=spec.name,
                kind=kind,
                intensity=level,
                certificate=certificate,
            )
            for (spec, kind, level), certificate in certified
        ),
        coverage_target=coverage_target,
        claim=claim,
        thresholds=nested,
    )


def format_envelope(envelope: FrontierEnvelope) -> str:
    """Render the per-protocol certified envelopes as a text report."""
    return format_certified(
        "certified protocol-frontier envelope",
        f"coverage >= {envelope.coverage_target}",
        envelope.claim,
        (("protocol", 30), ("scenario", 14)),
        [
            ((cell.protocol, cell.kind, cell.intensity), cell.certificate, "")
            for cell in envelope.cells
        ],
        "certified thresholds (largest accepted intensity)",
        [
            (protocol, kind, best)
            for protocol, per_kind in envelope.thresholds.items()
            for kind, best in per_kind.items()
        ],
    )
