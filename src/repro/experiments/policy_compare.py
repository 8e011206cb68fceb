"""Four-way forwarding-policy comparison under the thesis' fault axes.

The thesis sweeps a single knob (*p*) against each failure mode; this
harness sweeps the *forwarding rule itself*: Bernoulli(p) (the thesis
default), deterministic flooding, counter-based gossip (stop after k
duplicate receptions — arXiv:1209.6158) and congestion/fault-adaptive
forwarding (arXiv:1811.11262) run the same broadcast-saturation workload
(the grid-spread rumor of §3.1) while data-upset rates, buffer-overflow
rates and link-crash counts are swept.

Per (policy, fault level) cell the harness reports delivery rate
(fraction of tiles informed), saturation latency, link transmissions and
communication energy — the latency/bandwidth/fault-tolerance triangle the
policies trade differently.  Repetitions at matched fault levels share
seeds (common random numbers), so policies face identical crash maps and
the comparison is paired, not just averaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.experiments.common import ExperimentOptions, sweep_cells
from repro.experiments.grid_spread import saturate
from repro.faults import CrashPlan, FaultConfig
from repro.noc.topology import Mesh2D
from repro.policies import PolicySpec

#: The result knobs the saturation task functions take.
SUPPORTS = ("backend",)

#: Fault axis -> (the task parameter it sweeps, its fault-free value).
FAULT_AXES = {
    "upset": ("p_upset", 0.0),
    "overflow": ("p_overflow", 0.0),
    "link_crash": ("n_dead_links", 0),
}

#: The four stock policies, by spec (order = presentation order).
DEFAULT_POLICIES: tuple[PolicySpec, ...] = (
    PolicySpec.of("bernoulli", forward_probability=0.5),
    PolicySpec.of("flood"),
    PolicySpec.of("counter", k=2, forward_probability=1.0),
    PolicySpec.of("adaptive"),
)


@dataclass(frozen=True)
class PolicyPoint:
    """One (policy, fault axis, fault level) cell of the comparison.

    Attributes:
        policy: the policy spec's display name.
        fault: swept axis — "upset", "overflow" or "link_crash".
        level: the axis value (a probability, or a dead-link count).
        delivery_rate: mean fraction of tiles informed at the end.
        rounds: mean rounds to saturation (budget when not reached).
        transmissions: mean attempted link transmissions.
        energy_j: mean communication energy (Eq. 3).
        time_s: mean wall-clock latency.
        repetitions: Monte-Carlo repetitions behind the means.
    """

    policy: str
    fault: str
    level: float
    delivery_rate: float
    rounds: float
    transmissions: float
    energy_j: float
    time_s: float
    repetitions: int


def _draw_dead_links(
    topology: Mesh2D, n_dead_links: int, seed: int
) -> frozenset[tuple[int, int]]:
    """A deterministic random choice of `n_dead_links` directed links."""
    links = list(topology.links)
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(links)]))
    picked = rng.choice(len(links), size=min(n_dead_links, len(links)),
                        replace=False)
    return frozenset(links[i] for i in picked)


def _saturation_run(
    side: int,
    spec: PolicySpec,
    p_upset: float,
    p_overflow: float,
    n_dead_links: int,
    max_rounds: int,
    seed: int,
    backend: str,
) -> dict[str, float]:
    """Every statistic of one broadcast-saturation run of `spec`.

    The task functions of this harness and of
    :mod:`repro.experiments.protocol_frontier` project the fields they
    report out of it.
    """
    topology = Mesh2D(side, side)
    crash_plan = None
    if n_dead_links:
        crash_plan = CrashPlan(
            dead_links=_draw_dead_links(topology, n_dead_links, seed)
        )
    result, coverage = saturate(
        topology,
        spec,
        seed,
        max_rounds,
        fault_config=FaultConfig(p_upset=p_upset, p_overflow=p_overflow),
        crash_plan=crash_plan,
        backend=backend,
    )
    stats = result.stats
    return {
        "coverage": coverage,
        "completed": float(result.completed),
        "rounds": float(result.rounds),
        "transmissions": float(stats.transmissions_attempted),
        "pull_requests": float(stats.pull_requests),
        "energy_j": stats.energy_j,
        "time_s": result.time_s,
    }


def _policy_once(
    side: int,
    spec: PolicySpec,
    p_upset: float,
    p_overflow: float,
    n_dead_links: int,
    max_rounds: int,
    seed: int,
    backend: str = "object",
) -> dict[str, float]:
    """One broadcast-saturation run of `spec` under one fault setting."""
    run = _saturation_run(
        side, spec, p_upset, p_overflow, n_dead_links, max_rounds, seed, backend
    )
    return {
        "delivery_rate": run["coverage"],
        "rounds": run["rounds"],
        "transmissions": run["transmissions"],
        "energy_j": run["energy_j"],
        "time_s": run["time_s"],
    }


def sweep_fault_axes(
    fn: Callable[..., dict[str, float]],
    tag: str,
    specs: Iterable[PolicySpec],
    levels_by_axis: dict[str, Sequence[float]],
    *,
    side: int,
    max_rounds: int,
    repetitions: int,
    seed: int,
    options: ExperimentOptions | None,
) -> list[tuple[PolicySpec, str, float, list[dict[str, float]]]]:
    """Run every spec against every fault axis as one flat task batch.

    The axes are swept one at a time from a fault-free baseline, specs
    in the given order within each level.  Repetition ``r`` runs at
    ``seed + r`` under *every* spec (common random numbers), so the
    specs face identical upset streams and crash maps.  Returns one
    ``(spec, fault, level, outcomes)`` per cell; dead-link counts are
    reported as float levels.
    """
    specs = tuple(specs)
    baseline = dict(FAULT_AXES[fault] for fault in levels_by_axis)
    cells = [
        (
            spec,
            fault,
            float(value) if fault == "link_crash" else value,
            {**baseline, FAULT_AXES[fault][0]: value},
        )
        for fault, values in levels_by_axis.items()
        for value in values
        for spec in specs
    ]
    return [
        (spec, fault, level, outcomes)
        for (spec, fault, level, _), outcomes, _ in sweep_cells(
            fn,
            cells,
            params=lambda cell: dict(
                side=side, spec=cell[0], **cell[3], max_rounds=max_rounds
            ),
            repetitions=repetitions,
            seed=seed,
            label=lambda cell, rep: (
                f"{tag} {cell[0].name} {cell[1]}={cell[2]} rep={rep}"
            ),
            options=options,
            supports=SUPPORTS,
        )
    ]


def field_means(outcomes: Sequence[dict[str, float]]) -> dict[str, float]:
    """The mean of every field over a cell's outcome dicts."""
    return {
        field: float(np.mean([outcome[field] for outcome in outcomes]))
        for field in outcomes[0]
    }


def run(
    side: int = 4,
    policies: tuple[PolicySpec, ...] = DEFAULT_POLICIES,
    upset_rates: tuple[float, ...] = (0.0, 0.2, 0.4),
    overflow_rates: tuple[float, ...] = (0.2, 0.4),
    link_crash_counts: tuple[int, ...] = (4, 8),
    repetitions: int = 5,
    seed: int = 0,
    max_rounds: int = 48,
    options: ExperimentOptions | None = None,
) -> list[PolicyPoint]:
    """Sweep every policy against every fault axis (one flat task batch).

    The axes are swept one at a time from a fault-free baseline: the
    "upset" axis varies ``p_upset`` alone, "overflow" varies
    ``p_overflow``, "link_crash" kills that many randomly chosen directed
    links.  Returns one :class:`PolicyPoint` per (policy, axis, level),
    policies in the given order within each axis.
    """
    return [
        PolicyPoint(
            policy=spec.name,
            fault=fault,
            level=level,
            repetitions=len(outcomes),
            **field_means(outcomes),
        )
        for spec, fault, level, outcomes in sweep_fault_axes(
            _policy_once,
            "policy_compare",
            policies,
            {
                "upset": upset_rates,
                "overflow": overflow_rates,
                "link_crash": link_crash_counts,
            },
            side=side,
            max_rounds=max_rounds,
            repetitions=repetitions,
            seed=seed,
            options=options,
        )
    ]


def format_axis_table(
    points: Sequence[Any], header: str, row: Callable[[Any], str]
) -> list[str]:
    """Table lines for `points` grouped by fault axis, `row` per point."""
    lines = []
    for fault in dict.fromkeys(point.fault for point in points):
        lines.append(f"--- fault axis: {fault} ---")
        lines.append(header)
        lines.extend(row(point) for point in points if point.fault == fault)
    return lines


def format_table(points: list[PolicyPoint]) -> str:
    """Render comparison rows as an aligned text table grouped by axis."""
    header = (
        f"{'policy':<34} {'level':>7} {'deliver':>8} {'rounds':>7} "
        f"{'transmit':>9} {'energy_J':>10} {'time_s':>9}"
    )
    return "\n".join(
        format_axis_table(
            points,
            header,
            lambda point: (
                f"{point.policy:<34} {point.level:>7g} "
                f"{point.delivery_rate:>8.2%} {point.rounds:>7.1f} "
                f"{point.transmissions:>9.0f} {point.energy_j:>10.3e} "
                f"{point.time_s:>9.3e}"
            ),
        )
    )
