"""Known-answer checks of the certification layer.

Everything downstream of :mod:`repro.stats` trusts two things it never
checks against ground truth: that the SPRT behind
:class:`BernoulliClaim` keeps its advertised error rates, and that
:func:`certify_cells` turns per-cell verdicts into the envelope it
documents.  Both are checked here on synthetic Bernoulli streams whose
true success probability is known.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.runners import SweepRunner, spawn_seeds
from repro.stats import BernoulliClaim, Verdict, certify_cells

STREAMS = 4000
HORIZON = 2000


def _verdict_counts(claim: BernoulliClaim, p: float, seed: int) -> dict:
    """Verdicts of `STREAMS` i.i.d. Bernoulli(p) streams fed to the SPRT."""
    rng = np.random.default_rng(seed)
    counts = dict.fromkeys(Verdict, 0)
    for _ in range(STREAMS):
        test = claim.test()
        for hit in rng.random(HORIZON) < p:
            test.update(float(hit))
            if test.verdict.decided:
                break
        counts[test.verdict] += 1
    return counts


def _with_slack(bound: float) -> float:
    """`bound` plus three binomial standard deviations at `STREAMS`."""
    return bound + 3 * math.sqrt(bound * (1 - bound) / STREAMS)


@pytest.mark.parametrize(
    "claim",
    [
        BernoulliClaim(),
        BernoulliClaim(target=0.8, indifference=0.4, alpha=0.1, beta=0.02),
    ],
    ids=["defaults", "lopsided-errors"],
)
def test_sprt_error_rates_stay_inside_walds_bounds(claim):
    at_h0 = _verdict_counts(claim, claim.p0, seed=1)
    at_h1 = _verdict_counts(claim, claim.target, seed=2)
    assert at_h0[Verdict.UNDECIDED] == at_h1[Verdict.UNDECIDED] == 0
    false_accept = at_h0[Verdict.ACCEPT] / STREAMS
    false_reject = at_h1[Verdict.REJECT] / STREAMS
    assert false_accept <= _with_slack(claim.alpha / (1 - claim.beta))
    assert false_reject <= _with_slack(claim.beta / (1 - claim.alpha))
    # The test is not vacuous: both errors do occur at the boundaries.
    assert false_accept > 0 and false_reject > 0


def _bernoulli_run(p: float, seed: int) -> tuple:
    """Synthetic replicate: (completed, rounds, coverage), P(completed)=p."""
    hit = bool(np.random.default_rng(seed).random() < p)
    return hit, 1, float(hit)


#: cell -> true success probability.  Axis "a" is non-monotone
#: (accept / reject / accept), axis "b" never certifies, axis "c" sits
#: inside the indifference band, where either verdict is legitimate and
#: the trajectory has real length (seed 7 rejects after 35 replicates).
GRID = {
    ("a", 0.1): 1.0,
    ("a", 0.2): 0.0,
    ("a", 0.3): 1.0,
    ("b", 0.1): 0.0,
    ("b", 0.2): 0.0,
    ("c", 0.5): 0.85,
}


def _certify(cells, *, batch_size=4, seed=7):
    return certify_cells(
        SweepRunner(),
        BernoulliClaim(),
        _bernoulli_run,
        cells,
        params=lambda cell: {"p": GRID[cell]},
        label=lambda cell: f"{cell[0]}@{cell[1]}",
        seed=seed,
        batch_size=batch_size,
        max_replicates=64,
    )


class TestCertifyCells:
    def test_cells_come_back_in_grid_order_with_their_seed_roots(self):
        cells = list(GRID)
        certified, _ = _certify(cells)
        assert [cell for cell, _ in certified] == cells
        assert [c.label for _, c in certified] == [
            f"{axis}@{level}" for axis, level in cells
        ]
        assert [c.base_seed for _, c in certified] == spawn_seeds(7, len(cells))

    def test_thresholds_are_the_largest_accepted_level_per_axis(self):
        certified, thresholds = _certify(list(GRID))
        verdicts = {cell: c.verdict for cell, c in certified}
        assert [verdicts["a", level] for level in (0.1, 0.2, 0.3)] == [
            Verdict.ACCEPT, Verdict.REJECT, Verdict.ACCEPT,
        ]
        assert verdicts["c", 0.5] is Verdict.REJECT
        assert thresholds == {("a",): 0.3, ("b",): None, ("c",): None}
        assert list(thresholds) == [("a",), ("b",), ("c",)]

    def test_grid_order_does_not_move_the_threshold(self):
        _, thresholds = _certify([("a", 0.3), ("a", 0.2), ("a", 0.1)])
        assert thresholds == {("a",): 0.3}

    def test_multi_axis_cells_group_by_everything_but_the_level(self):
        cells = [("x", "a", 0.1), ("x", "b", 0.1), ("y", "a", 0.3)]
        _, thresholds = certify_cells(
            SweepRunner(),
            BernoulliClaim(),
            _bernoulli_run,
            cells,
            params=lambda cell: {"p": GRID[cell[1:]]},
            label=str,
            seed=0,
            batch_size=4,
            max_replicates=64,
        )
        assert thresholds == {("x", "a"): 0.1, ("x", "b"): None, ("y", "a"): 0.3}

    def test_certificates_do_not_depend_on_batch_size(self):
        reference = _certify(list(GRID), batch_size=1)
        assert reference[0][-1][1].n_observed == 35  # spans several batches
        for batch_size in (3, 8, 64):
            assert _certify(list(GRID), batch_size=batch_size) == reference

    def test_appending_a_cell_leaves_earlier_certificates_alone(self):
        cells = list(GRID)
        shorter, _ = _certify(cells[:-1])
        longer, _ = _certify(cells)
        assert longer[:-1] == shorter

    def test_an_empty_grid_certifies_nothing(self):
        assert _certify([]) == ([], {})
