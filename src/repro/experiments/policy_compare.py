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

import numpy as np

from repro.experiments.common import (
    ExperimentOptions,
    backend_params,
    per_cell,
    resolve_options,
)
from repro.experiments.grid_spread import _BroadcastSeed
from repro.faults import CrashPlan, FaultConfig
from repro.noc.engine import NocSimulator
from repro.noc.topology import Mesh2D
from repro.policies import PolicySpec
from repro.runners import SimTask

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
    topology = Mesh2D(side, side)
    crash_plan = None
    if n_dead_links:
        crash_plan = CrashPlan(
            dead_links=_draw_dead_links(topology, n_dead_links, seed)
        )
    simulator = NocSimulator(
        topology,
        spec,
        FaultConfig(p_upset=p_upset, p_overflow=p_overflow),
        seed=seed,
        default_ttl=max_rounds,
        crash_plan=crash_plan,
        backend=backend,
    )
    simulator.mount(0, _BroadcastSeed(ttl=max_rounds))
    n = topology.n_tiles
    result = simulator.run(
        max_rounds, until=lambda sim: len(sim.informed_tiles()) == n
    )
    return {
        "delivery_rate": len(simulator.informed_tiles()) / n,
        "rounds": float(result.rounds),
        "transmissions": float(result.stats.transmissions_attempted),
        "energy_j": result.stats.energy_j,
        "time_s": result.time_s,
    }


def _aggregate(
    spec: PolicySpec,
    fault: str,
    level: float,
    outcomes: list[dict[str, float]],
) -> PolicyPoint:
    def mean(field: str) -> float:
        return float(np.mean([outcome[field] for outcome in outcomes]))

    return PolicyPoint(
        policy=spec.name,
        fault=fault,
        level=level,
        delivery_rate=mean("delivery_rate"),
        rounds=mean("rounds"),
        transmissions=mean("transmissions"),
        energy_j=mean("energy_j"),
        time_s=mean("time_s"),
        repetitions=len(outcomes),
    )


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
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    opts = resolve_options(options, supports=("backend",))
    sweep = opts.make_runner()

    cells: list[tuple[PolicySpec, str, float, dict]] = []
    for level in upset_rates:
        for spec in policies:
            cells.append((spec, "upset", level, {"p_upset": level}))
    for level in overflow_rates:
        for spec in policies:
            cells.append((spec, "overflow", level, {"p_overflow": level}))
    for count in link_crash_counts:
        for spec in policies:
            cells.append(
                (spec, "link_crash", float(count), {"n_dead_links": count})
            )

    tasks = [
        SimTask.call(
            _policy_once,
            side=side,
            spec=spec,
            p_upset=overrides.get("p_upset", 0.0),
            p_overflow=overrides.get("p_overflow", 0.0),
            n_dead_links=overrides.get("n_dead_links", 0),
            max_rounds=max_rounds,
            # Common random numbers: repetition r sees the same seed (and
            # hence the same crash map) under every policy.
            seed=seed + rep,
            label=f"policy_compare {spec.name} {fault}={level} rep={rep}",
            **backend_params(opts.backend),
        )
        for spec, fault, level, overrides in cells
        for rep in range(repetitions)
    ]
    outcomes = sweep.run(tasks)

    return [
        _aggregate(spec, fault, level, reps)
        for (spec, fault, level, _), reps in per_cell(
            cells, outcomes, repetitions
        )
    ]


def format_table(points: list[PolicyPoint]) -> str:
    """Render comparison rows as an aligned text table grouped by axis."""
    lines = []
    header = (
        f"{'policy':<34} {'level':>7} {'deliver':>8} {'rounds':>7} "
        f"{'transmit':>9} {'energy_J':>10} {'time_s':>9}"
    )
    for fault in dict.fromkeys(point.fault for point in points):
        lines.append(f"--- fault axis: {fault} ---")
        lines.append(header)
        for point in points:
            if point.fault != fault:
                continue
            lines.append(
                f"{point.policy:<34} {point.level:>7g} "
                f"{point.delivery_rate:>8.2%} {point.rounds:>7.1f} "
                f"{point.transmissions:>9.0f} {point.energy_j:>10.3e} "
                f"{point.time_s:>9.3e}"
            )
    return "\n".join(lines)
