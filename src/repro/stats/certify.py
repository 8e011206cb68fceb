"""``CertificationRunner`` — adaptive replicate sweeps that stop early.

Every fixed-repetition sweep answers a statistical question with a
guess: "3 repetitions looked fine".  The certification runner replaces
that guess with a sequential test: it drives *batches* of replicates
through the ordinary :class:`repro.runners.SweepRunner` (so replicates
parallelise, memoize, retry and record exactly like any sweep cell),
feeds each replicate's statistic into the claim's
:class:`~repro.stats.claims.SequentialTest` in replicate-index order,
and stops the moment the verdict is decided — or when the replicate
budget runs out, in which case the honest answer is
:attr:`~repro.stats.claims.Verdict.UNDECIDED`.

Determinism contract:

* replicate *i*'s seed is ``SeedSequence(base_seed).spawn()`` child *i*
  (:func:`repro.runners.spawn_seeds` over the whole budget up front), so
  it depends only on ``(base_seed, i)``;
* observations are consumed in replicate-index order regardless of
  completion order, so the decision trajectory — and therefore the
  :class:`Certificate` — is **bit-identical across worker counts and
  batch sizes**.  Larger batches may *execute* a few replicates past
  the stopping point (the overrun shows in the runner's
  ``tasks_executed`` counter), but never consume them.

With a :class:`repro.service.ResultsDB` on the sweep runner
(``SweepRunner(db=...)``, the one place a database is attached), every
replicate is written through as an ordinary task row under one campaign row spanning
all batches, and the final certificate lands in the ``certificates``
table with its full decision trajectory (``repro db query`` /
``repro db export --table certificates``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from repro.runners import SimTask, SweepRunner, spawn_seeds
from repro.stats.claims import Claim, TrajectoryPoint, Verdict

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.service.jobs import JobQueue

__all__ = [
    "Certificate",
    "CertificationRunner",
    "certify_cells",
    "format_certified",
]


@dataclass(frozen=True)
class Certificate:
    """The frozen, picklable record of one certification.

    Attributes:
        claim: the certified :class:`~repro.stats.claims.Claim` spec.
        verdict: terminal :class:`~repro.stats.claims.Verdict` value
            (``"accept"`` / ``"reject"`` / ``"undecided"``).
        n_observed: replicates the sequential test consumed before
            stopping (== budget for undecided verdicts).
        budget: the replicate ceiling the certification ran under.
        base_seed: root of the replicate ``SeedSequence``; together with
            the claim and task spec it pins the certificate bit-for-bit.
        trajectory: the full decision trajectory, one
            :class:`~repro.stats.claims.TrajectoryPoint` per consumed
            observation — enough to re-audit every stopping decision.
        label: free-form display tag (campaign cell name).

    The record deliberately excludes anything schedule-dependent
    (wall-clock, worker count, batch size), so certificates from
    serial, pooled and chunked runs compare equal.
    """

    claim: Claim
    verdict: Verdict
    n_observed: int
    budget: int
    base_seed: int | None
    trajectory: tuple[TrajectoryPoint, ...]
    label: str = ""

    @property
    def confidence(self) -> float:
        """The claim's accept-correctness guarantee (``1 - error``)."""
        return self.claim.confidence

    @property
    def final(self) -> TrajectoryPoint | None:
        """The last trajectory step (None for an empty trajectory)."""
        return self.trajectory[-1] if self.trajectory else None

    def to_json_dict(self) -> dict:
        """Deterministic JSON form (feeds ``certificates`` rows)."""
        return {
            "claim": self.claim.to_json_dict(),
            "verdict": self.verdict.value,
            "confidence": self.confidence,
            "n_observed": self.n_observed,
            "budget": self.budget,
            "base_seed": self.base_seed,
            "label": self.label,
            "trajectory": [point.to_json_dict() for point in self.trajectory],
        }


class _Decision:
    """One certification in flight: the core of the sync and async paths.

    Plans the replicate batches (every seed spawned up front, a function
    of the replicate index only) and consumes their outcomes in
    replicate order, stopping mid-batch the moment the verdict decides —
    so batch size never changes what the sequential test sees.
    """

    def __init__(
        self,
        certifier: "CertificationRunner",
        claim: Claim,
        fn: Callable[..., Any] | str,
        params: Mapping[str, Any] | None,
        label: str,
        base_seed: int | None,
    ) -> None:
        from repro.metrics import extract_statistic

        if not isinstance(fn, str):
            fn = SimTask.call(fn).fn  # validates module-level picklability
        self.claim = claim
        self.test = claim.test()
        self.trajectory: list[TrajectoryPoint] = []
        self._extract = extract_statistic
        self._fn = fn
        self._params = dict(params or {})
        self.label = label
        self.budget = certifier.max_replicates
        self._batch_size = certifier.batch_size
        self.base_seed = certifier.base_seed if base_seed is None else base_seed
        self._seeds = (
            None
            if self.base_seed is None
            else spawn_seeds(self.base_seed, self.budget)
        )

    def batches(self) -> Iterator[tuple[int, int, list[SimTask]]]:
        """Yield ``(start, stop, tasks)`` replicate batches until decided.

        The caller runs each batch and feeds the ordered outcomes to
        :meth:`consume` before asking for the next one.
        """
        for start in range(0, self.budget, self._batch_size):
            if self.test.verdict.decided:
                return
            stop = min(start + self._batch_size, self.budget)
            yield start, stop, [
                SimTask(
                    fn=self._fn,
                    params=dict(self._params),
                    seed=self._seeds[i] if self._seeds is not None else None,
                    label=f"{self.label} rep={i}" if self.label else f"rep={i}",
                )
                for i in range(start, stop)
            ]

    def consume(self, outcomes: list[Any]) -> None:
        """Feed `outcomes` (in replicate order) until decided."""
        for outcome in outcomes:
            if self.test.verdict.decided:
                break
            value = self._extract(self.claim.metric, outcome)
            self.trajectory.append(self.test.update(value))

    def certificate(self) -> Certificate:
        """Freeze the current state into a :class:`Certificate`."""
        return Certificate(
            claim=self.claim,
            verdict=self.test.verdict,
            n_observed=len(self.trajectory),
            budget=self.budget,
            base_seed=self.base_seed,
            trajectory=tuple(self.trajectory),
            label=self.label,
        )


class CertificationRunner:
    """Certifies claims by sequential testing over adaptive sweeps.

    Args:
        runner: the :class:`~repro.runners.SweepRunner` replicate
            batches execute on; ``None`` builds a serial one.  Its
            cache/DB/retry settings apply to every replicate.
        batch_size: replicates submitted per :meth:`SweepRunner.run`
            call.  Pure throughput plumbing: larger batches keep more
            workers busy but may overrun the stopping point by more
            executed-but-unconsumed replicates.  Never changes the
            verdict or trajectory.
        max_replicates: the replicate budget; a test still undecided
            after this many observations certifies ``UNDECIDED``.
        base_seed: root seed for replicate seeding (overridable per
            :meth:`certify` call).

    Certificates are recorded in the runner's ``db``, beside the
    replicate tasks it writes through; a runner without one records
    nothing.
    """

    def __init__(
        self,
        runner: SweepRunner | None = None,
        *,
        batch_size: int = 8,
        max_replicates: int = 64,
        base_seed: int | None = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_replicates < 1:
            raise ValueError(
                f"max_replicates must be >= 1, got {max_replicates}"
            )
        self.runner = runner if runner is not None else SweepRunner()
        self.batch_size = batch_size
        self.max_replicates = max_replicates
        self.base_seed = base_seed

    # ------------------------------------------------------------------ api

    def certify(
        self,
        claim: Claim,
        fn: Callable[..., Any] | str,
        params: Mapping[str, Any] | None = None,
        *,
        label: str = "",
        base_seed: int | None = None,
        run_label: str | None = None,
    ) -> Certificate:
        """Certify `claim` over replicates of ``fn(**params, seed=...)``.

        Batches run until the claim's sequential test decides or the
        budget is exhausted.  Returns the :class:`Certificate`; when a
        results database is attached, the certificate row (and one
        campaign row spanning every replicate batch) is recorded there.

        Args:
            claim: the claim spec to certify.
            fn: the replicate task function (module-level callable or
                ``"module:function"`` string), called with `params` plus
                a ``seed=`` keyword.
            params: keyword arguments of every replicate.
            label: display tag stored on tasks and the certificate.
            base_seed: overrides the runner-level replicate seed root.
            run_label: campaign-row label (defaults to `label`).
        """
        decision = _Decision(self, claim, fn, params, label, base_seed)
        db = self.runner.db
        run_id = (
            db.begin_run(
                label=run_label if run_label is not None else label,
                n_tasks=0,
            )
            if db is not None
            else None
        )
        executed = 0
        try:
            for start, stop, batch in decision.batches():
                outcomes = self.runner.run(
                    batch, run_id=run_id, index_base=start
                )
                executed = stop
                decision.consume(outcomes)
        except BaseException:
            if db is not None:
                db.finish_run(run_id, status="failed", n_tasks=executed)
            raise
        certificate = decision.certificate()
        if db is not None:
            db.record_certificate(certificate, run_id=run_id)
            db.finish_run(run_id, status="completed", n_tasks=executed)
        return certificate

    async def certify_async(
        self,
        queue: "JobQueue",
        claim: Claim,
        fn: Callable[..., Any] | str,
        params: Mapping[str, Any] | None = None,
        *,
        label: str = "",
        base_seed: int | None = None,
        priority: int = 0,
    ) -> Certificate:
        """Certify `claim` with batches submitted as `queue` jobs.

        The service-layer face of :meth:`certify`: each replicate batch
        is one :meth:`repro.service.JobQueue.submit` job (priority
        applied, streaming/cancellation available to other clients), and
        the certificate is identical to the blocking path for the same
        ``base_seed`` — seeds are explicit on every task, and the
        decision stream consumes job results in replicate order.

        Certificates are recorded into the *queue runner's* database
        when it has one (this certifier's own runner is not used); each
        batch keeps the job queue's own one-row-per-job campaign
        accounting.
        """
        decision = _Decision(self, claim, fn, params, label, base_seed)
        for start, stop, batch in decision.batches():
            job_id = await queue.submit(
                batch,
                priority=priority,
                label=f"{label or 'certify'} batch {start}-{stop - 1}",
            )
            decision.consume(await queue.result(job_id))
        certificate = decision.certificate()
        db = queue.runner.db
        if db is not None:
            db.record_certificate(certificate)
        return certificate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CertificationRunner(batch_size={self.batch_size}, "
            f"max_replicates={self.max_replicates}, "
            f"base_seed={self.base_seed})"
        )


def certify_cells(
    runner: SweepRunner,
    claim: Claim,
    fn: Callable[..., Any] | str,
    cells: Iterable[tuple],
    *,
    params: Callable[[tuple], Mapping[str, Any]],
    label: Callable[[tuple], str],
    seed: int,
    batch_size: int,
    max_replicates: int,
) -> tuple[list[tuple[tuple, Certificate]], dict[tuple, float | None]]:
    """Certify `claim` on every cell of an envelope grid, in grid order.

    The certification twin of
    :func:`repro.experiments.common.sweep_cells`: a cell is a tuple
    ``(axis..., intensity)``, cell *i* of *n* draws its replicate seed
    root from ``spawn_seeds(seed, n)[i]`` (readable back as its
    certificate's ``base_seed``), and every cell is one
    :meth:`CertificationRunner.certify` call on `runner` — so the whole
    envelope is a pure function of ``(seed, grid, claim)``,
    bit-identical across worker counts and batch sizes.

    Args:
        runner: the sweep runner replicates execute on (its cache,
            database and retry settings apply to every cell).
        claim: the intensity-independent claim template.
        fn: the replicate task function, as for ``certify``.
        cells: the grid, in presentation order.
        params: a cell's task parameters (everything but ``seed``).
        label: a cell's display tag (tasks, certificate, campaign row).
        seed: envelope seed root.
        batch_size: replicates per sweep batch (throughput only).
        max_replicates: per-cell replicate budget.

    Returns:
        The ``(cell, certificate)`` pairs in grid order, and per axis
        ``cell[:-1]`` (first-seen order) the largest intensity whose
        claim was **accepted** — ``None`` when no level certified.
    """
    certifier = CertificationRunner(
        runner, batch_size=batch_size, max_replicates=max_replicates
    )
    cells = list(cells)
    certified = [
        (
            cell,
            certifier.certify(
                claim, fn, params(cell), label=label(cell), base_seed=cell_seed
            ),
        )
        for cell, cell_seed in zip(cells, spawn_seeds(seed, len(cells)))
    ]
    thresholds: dict[tuple, float | None] = {}
    for cell, certificate in certified:
        axis, intensity = cell[:-1], cell[-1]
        best = thresholds.setdefault(axis, None)
        if certificate.verdict is Verdict.ACCEPT and (
            best is None or intensity > best
        ):
            thresholds[axis] = intensity
    return certified, thresholds


def format_certified(
    title: str,
    event: str,
    claim: Any,
    axes: tuple[tuple[str, int], ...],
    rows: Iterable[tuple[tuple, Certificate, str]],
    footer: str,
    thresholds: Iterable[tuple],
    extra_header: str = "",
) -> str:
    """Render a certified envelope as the shared plain-text report.

    Args:
        title: first line of the report.
        event: the certified per-replicate event, as it reads inside
            ``P(...)`` on the "claim per cell" line.
        claim: the Bernoulli claim template every cell ran.
        axes: ``(heading, width)`` of each leading axis column.
        rows: per cell, its ``(axis..., intensity)`` tuple, its
            certificate and the harness's own trailing columns,
            preformatted.
        footer: heading of the threshold block.
        thresholds: ``(axis..., largest accepted intensity)`` rows.
        extra_header: headings of the trailing columns.
    """

    def lead(values: Iterable[Any]) -> str:
        return " ".join(f"{v:<{width}}" for v, (_, width) in zip(values, axes))

    lines = [
        title,
        f"  claim per cell: P({event}) >= {claim.target} "
        f"(vs <= {claim.p0:g}, alpha={claim.alpha}, beta={claim.beta})",
        "",
        f"  {lead(name for name, _ in axes)} {'intensity':>9} "
        f"{'verdict':>9} {'replicates':>10}{extra_header}",
    ]
    for (*axis, intensity), certificate, extra in rows:
        lines.append(
            f"  {lead(axis)} {intensity:>9.2f} {certificate.verdict.value:>9} "
            f"{certificate.n_observed:>4}/{certificate.budget:<5}{extra}"
        )
    lines += ["", f"  {footer}:"]
    for *axis, threshold in thresholds:
        shown = "none accepted" if threshold is None else f"{threshold:.2f}"
        lines.append(f"    {lead(axis)} {shown}")
    return "\n".join(lines) + "\n"
