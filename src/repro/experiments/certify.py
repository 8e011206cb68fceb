"""Certified tolerance envelopes: the chaos campaign, with error bars.

:mod:`repro.experiments.chaos` reads its tolerance thresholds off mean
coverage over a handful of repetitions — a point estimate with no
statement of confidence.  This harness re-derives the same envelope as
*certified* claims: each ``(kind, intensity)`` cell carries a
:class:`repro.stats.BernoulliClaim` — "a run reaches coverage >=
``coverage_target`` with probability >= ``target``" — decided by Wald's
SPRT over adaptive replicate batches, so every cell verdict comes with
an explicit error guarantee (alpha / beta) and the replicate spend
adapts to how clear-cut the cell is (crisp cells decide in a few runs,
boundary cells use the budget).

The per-kind threshold is then the largest intensity whose claim was
*accepted* — the statistically certified analogue of the thesis'
"~70 % upset tolerance" (Ch. 4).  ``repro certify`` is the CLI face;
``docs/stats.md`` walks through the statistics.

Grid order, cell seeding and the threshold rule belong to
:func:`repro.stats.certify_cells`: the whole envelope is a pure function
of ``(seed, grid, claim parameters)``, bit-identical across worker
counts and batch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.chaos import CHAOS_AXES, scenario_for
from repro.experiments.common import ExperimentOptions, resolve_options
from repro.stats import (
    BernoulliClaim,
    Certificate,
    Verdict,
    certify_cells,
    format_certified,
)

#: The default intensity grid — matches the chaos campaign's sweep.
DEFAULT_LEVELS = (0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0)


@dataclass(frozen=True)
class CertifiedCell:
    """One ``(kind, intensity)`` cell's certified verdict.

    Attributes:
        kind: scenario axis (one of :data:`repro.experiments.chaos.CHAOS_AXES`).
        intensity: the swept scenario intensity.
        certificate: the full :class:`repro.stats.Certificate` — verdict,
            replicate count, decision trajectory.
    """

    kind: str
    intensity: float
    certificate: Certificate

    @property
    def verdict(self) -> Verdict:
        """The cell's terminal verdict (accept / reject / undecided)."""
        return self.certificate.verdict


@dataclass(frozen=True)
class CertifiedEnvelope:
    """A certified tolerance envelope over the scenario grid.

    Attributes:
        cells: one :class:`CertifiedCell` per swept ``(kind, intensity)``.
        coverage_target: per-run coverage bar of the certified claims.
        claim: the (intensity-independent) claim template every cell ran.
        thresholds: per kind, the largest intensity whose claim was
            **accepted** (``None`` when no level was certified) — the
            certified counterpart of :attr:`ChaosReport.thresholds`.
    """

    cells: tuple[CertifiedCell, ...]
    coverage_target: float
    claim: BernoulliClaim
    thresholds: dict[str, float | None]


def certify_chaos_envelope(
    kinds: tuple[str, ...] = CHAOS_AXES,
    levels: tuple[float, ...] = DEFAULT_LEVELS,
    side: int = 4,
    forward_probability: float = 0.75,
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
) -> CertifiedEnvelope:
    """Certify the dynamic tolerance envelope cell by cell.

    For every ``(kind, intensity)`` cell, certifies the Bernoulli claim
    "P(final coverage >= `coverage_target`) >= `target`" (indifference
    band `indifference`, SPRT errors `alpha`/`beta`) over adaptive
    batches of seeded broadcast replicates, reusing the chaos harness'
    task function so certified cells share cache entries with ordinary
    campaigns at equal parameters.

    Args:
        kinds: scenario axes to certify.
        levels: intensity grid per axis.
        side: mesh side length.
        forward_probability: the protocol's forwarding probability.
        seed: envelope seed root; cell replicate seeds derive from it.
        max_rounds: per-run round budget.
        coverage_target: per-run coverage bar (the indicator threshold).
        target: claimed per-run success probability.
        indifference: SPRT indifference band below `target`.
        alpha: false-accept bound.
        beta: false-reject bound.
        batch_size: replicates per sweep batch (throughput only).
        max_replicates: per-cell replicate budget.
        options: the runner (workers, cache, results database) and the
            engine backend.

    Returns:
        The :class:`CertifiedEnvelope`; with a results database attached
        the per-cell certificates land in its ``certificates`` table.
    """
    for kind in kinds:
        scenario_for(kind, 0.0)  # validate axes before paying for runs
    opts = resolve_options(options, supports=("backend",))
    claim = BernoulliClaim(
        metric=f"coverage>={coverage_target}",
        target=target,
        indifference=indifference,
        alpha=alpha,
        beta=beta,
    )
    certified, thresholds = certify_cells(
        opts.runner,
        claim,
        "repro.experiments.chaos:_chaos_once",
        [(kind, level) for kind in kinds for level in levels],
        params=lambda cell: {
            "kind": cell[0],
            "intensity": cell[1],
            "forward_probability": forward_probability,
            "side": side,
            "max_rounds": max_rounds,
            "backend": opts.backend,
        },
        label=lambda cell: f"certify {cell[0]} intensity={cell[1]}",
        seed=seed,
        batch_size=batch_size,
        max_replicates=max_replicates,
    )
    return CertifiedEnvelope(
        cells=tuple(
            CertifiedCell(*cell, certificate) for cell, certificate in certified
        ),
        coverage_target=coverage_target,
        claim=claim,
        thresholds={kind: best for (kind,), best in thresholds.items()},
    )


def format_envelope(envelope: CertifiedEnvelope) -> str:
    """Render a certified envelope as the plain-text report."""
    return format_certified(
        "certified tolerance envelope",
        f"coverage >= {envelope.coverage_target}",
        envelope.claim,
        (("scenario", 14),),
        [
            (
                (cell.kind, cell.intensity),
                cell.certificate,
                f" {cell.certificate.confidence:>10.2f}",
            )
            for cell in envelope.cells
        ],
        "certified thresholds (largest accepted intensity; "
        "static envelope: ~0.7 upset / ~0.8 overflow)",
        envelope.thresholds.items(),
        extra_header=f" {'confidence':>10}",
    )
