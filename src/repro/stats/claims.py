"""Frozen claim specs and their sequential statistical tests.

A :class:`Claim` is a **frozen, picklable** statement about the
distribution of a per-replicate statistic — "the probability that a
broadcast reaches full coverage within R rounds is at least 0.9", "mean
final coverage is at least 0.99" — together with the error rates at
which the statement must be decided.  The spec is pure configuration,
tagged by ``kind`` in its JSON form, and every certification run builds
a fresh *mutable* :class:`SequentialTest` via :meth:`Claim.test`, so no
test state ever leaks between runs.

Two claim families ship here, matching the two statistic shapes the
sweep harnesses produce:

* :class:`BernoulliClaim` — a threshold claim about a success
  *probability*, decided by **Wald's sequential probability ratio test**
  (SPRT).  The claim "p >= target" is tested against the indifference
  alternative "p <= target - indifference": the log-likelihood ratio
  random-walks up on successes and down on failures, and the test stops
  the moment it crosses either Wald boundary.  On clear-cut claims this
  needs a small fraction of the replicates a fixed-size test would
  (:func:`fixed_sample_size` gives the Hoeffding-sized fixed-N baseline
  at the same error rates; ``benchmarks/bench_certify.py`` measures the
  gap).
* :class:`BoundedMeanClaim` — a threshold claim about the *mean* of a
  bounded statistic (coverage fraction, normalised latency or energy),
  decided by an **anytime-valid confidence sequence**: Hoeffding or
  empirical-Bernstein radii with a union bound over time, so the
  running interval may be inspected after every single observation
  without invalidating the coverage guarantee.  The test accepts when
  the whole interval clears the threshold and rejects when it falls
  entirely short.

Determinism contract: a test consumes observations one at a time via
:meth:`SequentialTest.update` and its verdict depends only on the
ordered observation sequence — never on wall-clock, batch sizes or
worker counts.  :class:`repro.stats.CertificationRunner` feeds it
replicate statistics in replicate-index order, which makes the whole
certification bit-reproducible for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Any

__all__ = [
    "BernoulliClaim",
    "BoundedMeanClaim",
    "Claim",
    "SequentialTest",
    "TrajectoryPoint",
    "Verdict",
    "fixed_sample_size",
]


class Verdict(str, Enum):
    """Terminal (or pending) outcome of a sequential test.

    ``ACCEPT`` — the claim is certified at the spec's error rates;
    ``REJECT`` — the complementary hypothesis is certified;
    ``UNDECIDED`` — the replicate budget ran out first (the statistics
    were genuinely too close to call at this sample size).
    """

    ACCEPT = "accept"
    REJECT = "reject"
    UNDECIDED = "undecided"

    @property
    def decided(self) -> bool:
        """Whether the test has stopped."""
        return self is not Verdict.UNDECIDED


@dataclass(frozen=True)
class TrajectoryPoint:
    """One step of a test's decision trajectory.

    Attributes:
        index: 0-based observation number.
        value: the replicate statistic consumed at this step.
        statistic: the test's decision statistic after the step — the
            SPRT log-likelihood ratio, or the running mean of a
            confidence sequence.
        lower: the decision statistic's lower comparison bound at this
            step (the SPRT reject boundary, or the confidence-sequence
            lower limit).
        upper: the matching upper bound (SPRT accept boundary, or the
            confidence-sequence upper limit).
    """

    index: int
    value: float
    statistic: float
    lower: float
    upper: float

    def to_json_dict(self) -> dict:
        """Deterministic JSON form (feeds ``certificates`` rows)."""
        return {
            "index": self.index,
            "value": self.value,
            "statistic": self.statistic,
            "lower": self.lower,
            "upper": self.upper,
        }


class SequentialTest:
    """Base class for the mutable, per-run realisation of a claim.

    Subclasses implement :meth:`update`; the verdict must be a pure
    function of the ordered observation sequence consumed so far.
    """

    #: Current verdict; ``UNDECIDED`` until a boundary is crossed.
    verdict: Verdict = Verdict.UNDECIDED

    def update(self, value: float) -> TrajectoryPoint:
        """Consume one replicate statistic and return the new step.

        Must not be called after the verdict has decided (the runner
        stops feeding a decided test); implementations raise
        ``RuntimeError`` if it is.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Claim:
    """Base class for frozen, picklable claim specifications.

    A claim is pure configuration: :meth:`test` builds the mutable
    per-run :class:`SequentialTest`, :meth:`describe` emits the
    canonical tuple used for content hashing and JSON provenance, and
    :attr:`confidence` is the probability with which an ``accept``
    verdict is correct (one minus the false-accept error rate).

    Attributes (shared by every subclass):
        metric: name of the per-replicate statistic the claim is about,
            resolved through :func:`repro.metrics.extract_statistic` —
            either a registered extractor ("coverage", "completed",
            "rounds", "energy") or a threshold indicator expression
            such as ``"coverage>=0.99"``.
    """

    #: Family tag carried by :meth:`to_json_dict` (and the certificates
    #: table's ``claim_json``); each subclass sets its own.
    kind = ""

    metric: str = "coverage"

    @property
    def confidence(self) -> float:
        """P(claim true | verdict accept) guarantee, as ``1 - error``."""
        raise NotImplementedError

    def test(self) -> SequentialTest:
        """Build a fresh zero-state sequential test for this claim."""
        raise NotImplementedError

    def describe(self) -> tuple:
        """Canonical, deterministic tuple form (class + sorted fields)."""
        return (
            type(self).__name__,
            tuple((f.name, getattr(self, f.name)) for f in fields(self)),
        )

    def as_dict(self) -> dict[str, Any]:
        """The claim's fields as a plain keyword dict (JSON provenance)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json_dict(self) -> dict:
        """Deterministic JSON form: kind plus every field."""
        return {"kind": self.kind, **self.as_dict()}

    @property
    def statement(self) -> str:
        """One-line human-readable form of the claim."""
        raise NotImplementedError


def _check_unit_interval(name: str, value: float, *, open_ends: bool) -> None:
    """Validate a probability-like field, optionally excluding 0 and 1."""
    if open_ends:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value}")
    elif not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


# ---------------------------------------------------------------- SPRT claim


@dataclass(frozen=True)
class BernoulliClaim(Claim):
    """"P(indicator) >= target", decided by Wald's SPRT.

    The claim certifies a success *probability* from 0/1 replicate
    indicators.  It is tested against the indifference alternative
    ``p <= target - indifference``: inside the indifference band either
    verdict is statistically acceptable, which is what buys the
    early-stopping behavior (Wald 1945).

    Attributes:
        metric: per-replicate indicator (values must be 0 or 1), e.g.
            ``"completed"`` or ``"coverage>=0.99"``.
        target: the claimed success probability ``p1`` (the H1
            boundary).
        indifference: width of the indifference band; the H0 boundary
            is ``p0 = target - indifference``.
        alpha: nominal false-accept rate.  Wald's boundaries guarantee
            P(accept | p <= p0) <= alpha / (1 - beta), not <= alpha.
        beta: nominal false-reject rate; Wald's boundaries guarantee
            P(reject | p >= target) <= beta / (1 - alpha).
    """

    kind = "bernoulli"

    metric: str = "completed"
    target: float = 0.9
    indifference: float = 0.2
    alpha: float = 0.05
    beta: float = 0.05

    def __post_init__(self) -> None:
        _check_unit_interval("target", self.target, open_ends=True)
        _check_unit_interval("alpha", self.alpha, open_ends=True)
        _check_unit_interval("beta", self.beta, open_ends=True)
        if not 0.0 < self.indifference < self.target:
            raise ValueError(
                f"indifference must be in (0, target={self.target}), got "
                f"{self.indifference} (the H0 boundary target-indifference "
                "must stay positive)"
            )

    @property
    def p0(self) -> float:
        """The H0 (claim-false) boundary probability."""
        return self.target - self.indifference

    @property
    def confidence(self) -> float:
        """The nominal confidence ``1 - alpha`` of an accept verdict (a
        false accept is bounded by ``alpha / (1 - beta)``, see `alpha`)."""
        return 1.0 - self.alpha

    @property
    def statement(self) -> str:
        """One-line human-readable form of the claim."""
        return (
            f"P({self.metric}) >= {self.target:g} "
            f"(vs <= {self.p0:g}, alpha={self.alpha:g}, beta={self.beta:g})"
        )

    def test(self) -> "SPRTTest":
        """Build a fresh Wald SPRT for this claim."""
        return SPRTTest(self)


class SPRTTest(SequentialTest):
    """Wald's sequential probability ratio test for a Bernoulli rate.

    Maintains the log-likelihood ratio ``LLR = s*log(p1/p0) +
    f*log((1-p1)/(1-p0))`` over `s` successes and `f` failures, and
    stops when it crosses the Wald boundaries ``log((1-beta)/alpha)``
    (accept) or ``log(beta/(1-alpha))`` (reject).
    """

    def __init__(self, claim: BernoulliClaim) -> None:
        self.claim = claim
        self.llr = 0.0
        self.n = 0
        self.successes = 0
        p0, p1 = claim.p0, claim.target
        self._step_success = math.log(p1 / p0)
        self._step_failure = math.log((1.0 - p1) / (1.0 - p0))
        self.upper = math.log((1.0 - claim.beta) / claim.alpha)
        self.lower = math.log(claim.beta / (1.0 - claim.alpha))

    def update(self, value: float) -> TrajectoryPoint:
        """Consume one 0/1 indicator observation."""
        if self.verdict.decided:
            raise RuntimeError("cannot update a decided SPRT")
        if value not in (0.0, 1.0, 0, 1, True, False):
            raise ValueError(
                f"Bernoulli claims need 0/1 indicator statistics; metric "
                f"{self.claim.metric!r} produced {value!r} (use a threshold "
                "indicator such as 'coverage>=0.99', or a BoundedMeanClaim)"
            )
        success = bool(value)
        self.n += 1
        self.successes += int(success)
        self.llr += self._step_success if success else self._step_failure
        if self.llr >= self.upper:
            self.verdict = Verdict.ACCEPT
        elif self.llr <= self.lower:
            self.verdict = Verdict.REJECT
        return TrajectoryPoint(
            index=self.n - 1,
            value=float(success),
            statistic=self.llr,
            lower=self.lower,
            upper=self.upper,
        )


def fixed_sample_size(claim: BernoulliClaim) -> int:
    """Hoeffding-sized fixed-N baseline for `claim`'s error rates.

    The non-sequential test runs exactly N replicates and accepts when
    the observed success fraction exceeds the indifference-band midpoint
    ``(p0 + target) / 2``.  For both error rates to stay below the
    claim's ``alpha``/``beta``, Hoeffding's inequality needs

        N >= ln(1 / min(alpha, beta)) / (2 * (indifference / 2)^2).

    This is what a fixed-repetition sweep must budget *up front* for
    every cell — clear-cut and marginal alike — and the baseline
    ``benchmarks/bench_certify.py`` measures the SPRT against.
    """
    margin = claim.indifference / 2.0
    error = min(claim.alpha, claim.beta)
    return math.ceil(math.log(1.0 / error) / (2.0 * margin * margin))


# -------------------------------------------------------- bounded-mean claim

#: Confidence-sequence radius methods :class:`BoundedMeanClaim` accepts.
CS_METHODS = ("empirical-bernstein", "hoeffding")

#: Threshold relations a bounded-mean claim can assert.
RELATIONS = (">=", "<=")


@dataclass(frozen=True)
class BoundedMeanClaim(Claim):
    """"mean(statistic) >= threshold", decided by a confidence sequence.

    The claim certifies the *mean* of a statistic known to lie in
    ``[lo, hi]`` (coverage fraction in [0, 1], latency in rounds within
    the round budget, energy within a physical bound).  The test
    maintains an anytime-valid confidence sequence for the mean —
    radii from Hoeffding's or the empirical-Bernstein inequality with a
    ``delta / (t (t+1))`` union bound over time — and stops when the
    whole interval clears (accept) or misses (reject) the threshold.
    Empirical-Bernstein radii shrink with the *observed* variance, so
    low-variance statistics certify much sooner than the worst case.

    Attributes:
        metric: per-replicate statistic name (see
            :func:`repro.metrics.extract_statistic`).
        threshold: the claimed bound on the mean.
        relation: ``">="`` (claim the mean is at least `threshold`) or
            ``"<="``.
        lo / hi: the statistic's a-priori range (observations outside it
            are a loud error — the bound would be invalid).
        delta: total error budget of the confidence sequence; an accept
            verdict is correct with probability >= ``1 - delta``.
        method: ``"empirical-bernstein"`` (default) or ``"hoeffding"``.
    """

    kind = "bounded_mean"

    threshold: float = 0.99
    relation: str = ">="
    lo: float = 0.0
    hi: float = 1.0
    delta: float = 0.05
    method: str = "empirical-bernstein"

    def __post_init__(self) -> None:
        if self.relation not in RELATIONS:
            raise ValueError(
                f"relation must be one of {RELATIONS}, got {self.relation!r}"
            )
        if not self.lo < self.hi:
            raise ValueError(
                f"need lo < hi, got lo={self.lo}, hi={self.hi}"
            )
        if not self.lo <= self.threshold <= self.hi:
            raise ValueError(
                f"threshold must lie in [lo, hi] = [{self.lo}, {self.hi}], "
                f"got {self.threshold}"
            )
        _check_unit_interval("delta", self.delta, open_ends=True)
        if self.method not in CS_METHODS:
            raise ValueError(
                f"method must be one of {CS_METHODS}, got {self.method!r}"
            )

    @property
    def confidence(self) -> float:
        """An accept verdict is correct with probability >= 1 - delta."""
        return 1.0 - self.delta

    @property
    def statement(self) -> str:
        """One-line human-readable form of the claim."""
        return (
            f"mean({self.metric}) {self.relation} {self.threshold:g} "
            f"(range [{self.lo:g}, {self.hi:g}], delta={self.delta:g}, "
            f"{self.method})"
        )

    def test(self) -> "ConfidenceSequenceTest":
        """Build a fresh confidence-sequence test for this claim."""
        return ConfidenceSequenceTest(self)


class ConfidenceSequenceTest(SequentialTest):
    """Anytime-valid confidence sequence for a bounded mean.

    After `t` observations the running mean carries a radius

    * Hoeffding: ``(hi-lo) * sqrt(ln(2/d_t) / (2t))``;
    * empirical-Bernstein (Maurer & Pontil 2009):
      ``sqrt(2 V_t ln(4/d_t) / t) + 7 (hi-lo) ln(4/d_t) / (3 (t-1))``
      with ``V_t`` the sample variance (infinite radius until t >= 2);

    where ``d_t = delta / (t (t+1))`` so the union over all t spends
    exactly the claim's `delta`.  Because every step's interval holds
    simultaneously with probability ``1 - delta``, the test may stop at
    any observation without peeking penalties.
    """

    def __init__(self, claim: BoundedMeanClaim) -> None:
        self.claim = claim
        self.n = 0
        self._sum = 0.0
        self._sumsq = 0.0

    def _radius(self) -> float:
        """The confidence radius after the current `n` observations."""
        claim, t = self.claim, self.n
        span = claim.hi - claim.lo
        d_t = claim.delta / (t * (t + 1))
        if claim.method == "hoeffding":
            return span * math.sqrt(math.log(2.0 / d_t) / (2.0 * t))
        if t < 2:
            return math.inf
        mean = self._sum / t
        variance = max(0.0, self._sumsq / t - mean * mean) * t / (t - 1)
        log_term = math.log(4.0 / d_t)
        return math.sqrt(2.0 * variance * log_term / t) + (
            7.0 * span * log_term / (3.0 * (t - 1))
        )

    def update(self, value: float) -> TrajectoryPoint:
        """Consume one bounded observation."""
        if self.verdict.decided:
            raise RuntimeError("cannot update a decided confidence sequence")
        claim = self.claim
        value = float(value)
        if not claim.lo <= value <= claim.hi:
            raise ValueError(
                f"metric {claim.metric!r} produced {value!r} outside the "
                f"claimed range [{claim.lo}, {claim.hi}]; fix the claim's "
                "lo/hi or the extractor"
            )
        self.n += 1
        self._sum += value
        self._sumsq += value * value
        mean = self._sum / self.n
        radius = self._radius()
        lower = max(claim.lo, mean - radius)
        upper = min(claim.hi, mean + radius)
        if claim.relation == ">=":
            if lower >= claim.threshold:
                self.verdict = Verdict.ACCEPT
            elif upper < claim.threshold:
                self.verdict = Verdict.REJECT
        else:  # "<="
            if upper <= claim.threshold:
                self.verdict = Verdict.ACCEPT
            elif lower > claim.threshold:
                self.verdict = Verdict.REJECT
        return TrajectoryPoint(
            index=self.n - 1,
            value=value,
            statistic=mean,
            lower=lower,
            upper=upper,
        )
