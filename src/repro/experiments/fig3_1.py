"""Fig 3-1: message spreading in a 1000-node fully connected network.

The thesis plots nodes-reached vs gossip rounds for fan-out-1 push gossip
on the complete graph, showing saturation in < 20 rounds for n = 1000 and
agreement with the deterministic recurrence (Eq. 1).  We additionally
check the S_n = log2 n + ln n estimate across a range of n (the §3.1
asymptotic).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.theory import (
    deterministic_spread,
    expected_rounds_to_inform_all,
    simulate_rumor_spread,
)
from repro.experiments.common import (
    ExperimentOptions,
    resolve_options,
    sweep_cells,
)


@dataclass(frozen=True)
class SpreadCurve:
    """Simulated vs deterministic spread for one population size.

    Attributes:
        n: population size.
        simulated: mean informed count per round over the repetitions.
        deterministic: the Eq. 1 iterates over the same rounds.
        rounds_to_all: mean rounds until everyone was informed.
        predicted_rounds: the log2 n + ln n estimate.
    """

    n: int
    simulated: list[float]
    deterministic: list[float]
    rounds_to_all: float
    predicted_rounds: float


def run(
    n: int = 1000,
    repetitions: int = 5,
    seed: int = 0,
    options: ExperimentOptions | None = None,
) -> SpreadCurve:
    """Reproduce the Fig 3-1 curve for one population size."""
    [(_, runs, _)] = sweep_cells(
        simulate_rumor_spread,
        [n],
        params=lambda n: {"n": n},
        repetitions=repetitions,
        seed=seed,
        label=lambda n, rep: f"fig3_1 n={n} rep={rep}",
        options=options,
    )
    rounds_to_all = sum(len(counts) - 1 for counts in runs) / len(runs)
    horizon = max(len(counts) for counts in runs)
    # Average informed counts, extending finished runs at n.
    simulated = [
        sum(
            (counts[t] if t < len(counts) else n) for counts in runs
        )
        / len(runs)
        for t in range(horizon)
    ]
    return SpreadCurve(
        n=n,
        simulated=simulated,
        deterministic=deterministic_spread(n, horizon - 1),
        rounds_to_all=rounds_to_all,
        predicted_rounds=expected_rounds_to_inform_all(n),
    )


def run_scaling(
    sizes: tuple[int, ...] = (64, 256, 1000, 4096),
    repetitions: int = 3,
    seed: int = 0,
    options: ExperimentOptions | None = None,
) -> list[SpreadCurve]:
    """The §3.1 asymptotic across population sizes."""
    opts = resolve_options(options)
    return [run(n, repetitions, seed, options=opts) for n in sizes]
