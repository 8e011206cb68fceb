"""repro.stats — sequential statistical certification of tolerance claims.

The thesis' headline numbers ("~70 % upset tolerance", "coverage within
R rounds") are point estimates read off fixed-repetition sweeps.  This
package certifies such statements instead: a frozen, picklable
:class:`Claim` spec — a Bernoulli threshold claim decided by Wald's
SPRT, or a bounded-mean claim decided by an anytime-valid
Hoeffding/empirical-Bernstein confidence sequence — is driven by the
:class:`CertificationRunner` over adaptive batches of replicates until
the verdict is statistically forced, spending simulations only where
the statistics demand them.

The result is a :class:`Certificate`: verdict, confidence, replicate
count and the full decision trajectory — deterministic given a seed,
bit-identical across worker counts and batch sizes, recorded into the
:class:`repro.service.ResultsDB` ``certificates`` table when a store is
attached.  ``repro certify`` re-derives the chaos tolerance envelope as
certified thresholds through :func:`certify_cells`, the one kernel every
certified envelope is written on; see ``docs/stats.md``.
"""

from repro.stats.certify import (
    Certificate,
    CertificationRunner,
    certify_cells,
    format_certified,
)
from repro.stats.claims import (
    BernoulliClaim,
    BoundedMeanClaim,
    Claim,
    SequentialTest,
    TrajectoryPoint,
    Verdict,
    fixed_sample_size,
)

__all__ = [
    "BernoulliClaim",
    "BoundedMeanClaim",
    "Certificate",
    "CertificationRunner",
    "Claim",
    "SequentialTest",
    "TrajectoryPoint",
    "Verdict",
    "certify_cells",
    "fixed_sample_size",
    "format_certified",
]
