"""Chaos campaigns: degradation under *dynamic* fault scenarios.

The thesis establishes the protocol's static tolerance envelope — upset
rates up to ~70 % and buffer-overflow rates up to ~80 % still reach full
coverage (Ch. 4).  Those numbers come from fault probabilities held
constant for the whole run.  This harness recomputes the same tolerance
thresholds under the *time-varying* regimes of
:mod:`repro.faults.scenarios`: an upset level that switches on mid-run
(:class:`~repro.faults.BurstUpsets`), congestion that builds up linearly
(:class:`~repro.faults.RampOverflow`), and links that flap with
MTBF/MTTR holding times (:class:`~repro.faults.LinkFlap`).

A campaign sweeps ``scenario kind x intensity`` over seeded broadcast
repetitions and reduces each cell to coverage/latency statistics; the
:class:`ChaosReport` then reads off, per kind, the largest intensity the
network still tolerates (mean final coverage >= ``coverage_target``).
``repro chaos`` is the CLI face; EXPERIMENTS.md records a worked run.

Every repetition is an independent :class:`repro.runners.SimTask`, so
campaigns parallelise, memoize and retry like every other sweep — and
because :class:`~repro.faults.ScenarioSpec` participates in the task
hash and ``SimConfig.cache_token``, cells differing only in scenario
never alias in the cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.protocol import StochasticProtocol
from repro.experiments.common import (
    ExperimentOptions,
    summarize_metrics,
    sweep_cells,
)
from repro.experiments.grid_spread import saturate
from repro.faults import BurstUpsets, LinkFlap, RampOverflow, ScenarioSpec
from repro.metrics import MetricsCollector, MetricsSummary, RunMetrics
from repro.noc.topology import Mesh2D

#: The result knobs this harness's task function takes.
SUPPORTS = ("collect_metrics", "backend")

#: Scenario axes a campaign can sweep: kind -> intensity -> spec.  The
#: intensity axis matches the thesis' static tolerance knobs (p_upset /
#: p_overflow); for link flapping it is the fraction of links that flap.
CHAOS_AXES = ("burst_upsets", "ramp_overflow", "link_flap")

#: Round at which each scenario switches on — the network spreads
#: unperturbed first, so degradation is attributable to the scenario.
ONSET_ROUND = 2


def scenario_for(kind: str, intensity: float) -> ScenarioSpec:
    """The scenario spec of one campaign cell.

    ``burst_upsets`` holds ``p_upset = intensity`` from round
    :data:`ONSET_ROUND` onward; ``ramp_overflow`` ramps ``p_overflow``
    linearly up to ``intensity`` over 8 rounds; ``link_flap`` flaps
    ``intensity`` of all directed links (MTBF 10, MTTR 5 rounds).
    """
    if kind == "burst_upsets":
        return BurstUpsets(p_upset=intensity, start=ONSET_ROUND)
    if kind == "ramp_overflow":
        return RampOverflow(
            p_overflow_peak=intensity, start=ONSET_ROUND, ramp_rounds=8
        )
    if kind == "link_flap":
        return LinkFlap(mtbf_rounds=10.0, mttr_rounds=5.0, fraction=intensity)
    known = ", ".join(CHAOS_AXES)
    raise ValueError(f"unknown chaos axis {kind!r}; known axes: {known}")


def _chaos_once(
    kind: str,
    intensity: float,
    forward_probability: float,
    side: int,
    seed: int,
    max_rounds: int,
    collect_metrics: bool = False,
    backend: str = "object",
) -> tuple:
    """One broadcast run under one scenario cell.

    Returns ``(completed, rounds, coverage_fraction)``; with
    ``collect_metrics=True`` a :class:`repro.metrics.RunMetrics` is
    appended (the scenario-attributed drop breakdown rides inside it).
    """
    collector = MetricsCollector() if collect_metrics else None
    result, coverage = saturate(
        Mesh2D(side, side),
        StochasticProtocol(forward_probability),
        seed,
        max_rounds,
        observer=collector,
        scenario=scenario_for(kind, intensity),
        backend=backend,
    )
    if collector is not None:
        return result.completed, result.rounds, coverage, collector.metrics()
    return result.completed, result.rounds, coverage


@dataclass(frozen=True)
class ChaosCell:
    """Degradation statistics of one ``(kind, intensity)`` cell.

    Attributes:
        kind: scenario axis (one of :data:`CHAOS_AXES`).
        intensity: the swept scenario intensity.
        completion_rate: fraction of repetitions reaching full coverage
            within the round budget.
        saturation_rounds_mean: mean rounds-to-saturation over completed
            repetitions (budget rounds when none completed).
        coverage_mean: mean final coverage fraction over all repetitions.
        drops_by_scenario: summed scenario-attributed loss breakdown
            (:meth:`repro.metrics.RunMetrics.drops_by_scenario`) over the
            repetitions; ``None`` when the campaign was uninstrumented.
        run_metrics: per-repetition time series when instrumented.
        metrics: their mean/CI aggregate (``None`` when uninstrumented).
    """

    kind: str
    intensity: float
    completion_rate: float
    saturation_rounds_mean: float
    coverage_mean: float
    drops_by_scenario: dict[str, dict[str, int]] | None = None
    run_metrics: tuple[RunMetrics, ...] | None = None
    metrics: MetricsSummary | None = None


@dataclass(frozen=True)
class ChaosReport:
    """A full campaign: the cell grid plus derived tolerance thresholds.

    Attributes:
        cells: one :class:`ChaosCell` per swept ``(kind, intensity)``.
        coverage_target: the coverage a cell must sustain to count as
            tolerated.
        thresholds: per kind, the largest swept intensity whose mean
            final coverage met ``coverage_target`` (``None`` when even
            the smallest level degraded below it) — the dynamic-fault
            analogue of the thesis' ~0.7 upset / ~0.8 overflow numbers.
    """

    cells: tuple[ChaosCell, ...]
    coverage_target: float
    thresholds: dict[str, float | None]


def _merge_drops(
    runs: list[RunMetrics] | None,
) -> dict[str, dict[str, int]] | None:
    if runs is None:
        return None
    merged: dict[str, dict[str, int]] = {}
    for run_metrics in runs:
        for label, drops in run_metrics.drops_by_scenario().items():
            bucket = merged.setdefault(
                label, {"dead_link": 0, "overflow": 0, "crc": 0}
            )
            for mode, count in drops.items():
                bucket[mode] += count
    return merged


def _aggregate_cell(
    kind: str,
    intensity: float,
    outcomes: list[tuple],
    run_metrics: list[RunMetrics] | None,
    max_rounds: int,
) -> ChaosCell:
    completed = [rounds for done, rounds, _ in outcomes if done]
    return ChaosCell(
        kind=kind,
        intensity=intensity,
        completion_rate=len(completed) / len(outcomes),
        saturation_rounds_mean=float(
            np.mean(completed) if completed else max_rounds
        ),
        coverage_mean=float(np.mean([cov for _, _, cov in outcomes])),
        drops_by_scenario=_merge_drops(run_metrics),
        run_metrics=tuple(run_metrics) if run_metrics is not None else None,
        metrics=summarize_metrics(run_metrics),
    )


def run(
    kinds: tuple[str, ...] = CHAOS_AXES,
    levels: tuple[float, ...] = (0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0),
    side: int = 4,
    forward_probability: float = 0.75,
    repetitions: int = 3,
    seed: int = 0,
    max_rounds: int = 96,
    coverage_target: float = 0.99,
    options: ExperimentOptions | None = None,
) -> ChaosReport:
    """Sweep the scenario grid and derive dynamic tolerance thresholds.

    The whole grid — every cell's repetitions — is one task batch, so
    parallel workers stay busy across cell boundaries, and results are
    bit-identical for any worker count (explicit per-task seeds,
    submission-order consumption).
    """
    for kind in kinds:
        scenario_for(kind, 0.0)  # validate axes before paying for the sweep
    reduced = [
        _aggregate_cell(kind, level, outcomes, run_metrics, max_rounds)
        for (kind, level), outcomes, run_metrics in sweep_cells(
            _chaos_once,
            [(kind, level) for kind in kinds for level in levels],
            params=lambda cell: dict(
                kind=cell[0],
                intensity=cell[1],
                forward_probability=forward_probability,
                side=side,
                max_rounds=max_rounds,
            ),
            repetitions=repetitions,
            seed=seed,
            stride=104_729,
            label=lambda cell, rep: (
                f"chaos {cell[0]} intensity={cell[1]} rep={rep}"
            ),
            options=options,
            supports=SUPPORTS,
        )
    ]
    thresholds: dict[str, float | None] = {}
    for kind in kinds:
        tolerated = [
            cell.intensity
            for cell in reduced
            if cell.kind == kind and cell.coverage_mean >= coverage_target
        ]
        thresholds[kind] = max(tolerated) if tolerated else None
    return ChaosReport(
        cells=tuple(reduced),
        coverage_target=coverage_target,
        thresholds=thresholds,
    )


def format_report(report: ChaosReport) -> str:
    """Render a campaign as the plain-text degradation report."""
    lines = [
        "chaos degradation report",
        f"  tolerated = mean final coverage >= {report.coverage_target}",
        "",
        f"  {'scenario':<14} {'intensity':>9} {'coverage':>9} "
        f"{'completion':>10} {'rounds':>7}",
    ]
    for cell in report.cells:
        lines.append(
            f"  {cell.kind:<14} {cell.intensity:>9.2f} "
            f"{cell.coverage_mean:>9.3f} {cell.completion_rate:>10.2f} "
            f"{cell.saturation_rounds_mean:>7.1f}"
        )
    lines.append("")
    lines.append("  dynamic tolerance thresholds (static envelope: "
                 "~0.7 upset / ~0.8 overflow):")
    for kind, threshold in report.thresholds.items():
        shown = "below sweep floor" if threshold is None else f"{threshold:.2f}"
        lines.append(f"    {kind:<14} {shown}")
    return "\n".join(lines) + "\n"
