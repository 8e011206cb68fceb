"""Fault injection for the execution layer itself (``repro chaos-service``).

:mod:`repro.experiments.chaos` attacks the *simulated chip*; this module
attacks the **harness** — the supervised worker fleet of
:class:`repro.runners.supervisor.FleetSupervisor` — with deterministic,
seeded injectors:

* ``worker_kill`` — the task SIGKILLs its own worker mid-task, breaking
  the process pool exactly like an OOM kill or a segfaulting native
  library;
* ``task_hang`` — the task sleeps past the runner's ``task_timeout_s``,
  exercising abandoned-worker resubmission;
* ``corrupt_payload`` — the task's serialized result fails its checksum,
  surfacing as an ordinary (retryable) task error.

Each injector misbehaves a bounded number of times per task (*strikes*,
recorded as ``O_EXCL`` marker files shared across worker processes and
retries), so a disturbed campaign must converge to the **bit-identical**
results of an undisturbed one — the service-level analogue of the
paper's claim that a NoC under fault injection still delivers.
:func:`run_campaign` measures exactly that, and
:func:`certify_service_envelope` certifies "the service stays intact at
injection intensity *x*" as :class:`repro.stats.BernoulliClaim` verdicts
through the sequential certification machinery, giving the execution
layer the same statistically certified tolerance envelope the simulated
chip gets from ``repro certify``.  See ``docs/operations.md`` for the
operator-facing failure-mode runbook.
"""

from __future__ import annotations

import os
import pickle
import shutil
import signal
import tempfile
import time
import zlib
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.metrics.extract import register_extractor
from repro.runners import SimTask, SweepRunner, spawn_seeds
from repro.runners.supervisor import PoisonedTask

__all__ = [
    "INJECTORS",
    "CampaignOutcome",
    "ChaosSpec",
    "CorruptedResultError",
    "ServiceCell",
    "ServiceEnvelope",
    "certify_service_envelope",
    "format_service_envelope",
    "run_campaign",
    "run_under_chaos",
    "spec_for",
]

#: The service-level injection axes ``repro chaos-service`` can sweep.
INJECTORS = ("worker_kill", "task_hang", "corrupt_payload")

#: Default intensity grid for the certified service envelope.
DEFAULT_LEVELS = (0.0, 0.25, 0.5)


class CorruptedResultError(RuntimeError):
    """A task's serialized result failed its integrity checksum."""


@dataclass(frozen=True)
class ChaosSpec:
    """One deterministic fault-injection plan for a campaign.

    Per task, a single uniform draw from a stream seeded by
    ``(chaos_seed, task seed)`` picks at most one misbehavior mode, so
    the plan is a pure function of the spec and the task seeds — every
    rerun of a campaign injects the same faults into the same tasks.

    Attributes:
        kill_fraction: probability a task SIGKILLs its worker.
        hang_fraction: probability a task hangs past the timeout.
        corrupt_fraction: probability a task's payload corrupts.
        hang_s: how long a hanging task sleeps (must exceed the
            campaign's ``task_timeout_s`` to actually trip it).
        strikes: times a selected task misbehaves before running clean —
            ``1`` models transient faults healed by a retry; raising it
            past the runner's ``max_attempts`` manufactures a genuine
            poison task.
        chaos_seed: seed of the injection plan (independent of the
            simulation seeds, so the same workload can be attacked many
            different ways).
    """

    kill_fraction: float = 0.0
    hang_fraction: float = 0.0
    corrupt_fraction: float = 0.0
    hang_s: float = 2.0
    strikes: int = 1
    chaos_seed: int = 0

    def __post_init__(self) -> None:
        """Validate fractions, the hang duration and the strike count."""
        for name in ("kill_fraction", "hang_fraction", "corrupt_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        total = self.kill_fraction + self.hang_fraction + self.corrupt_fraction
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"injection fractions must sum to <= 1, got {total}"
            )
        if self.hang_s <= 0:
            raise ValueError(f"hang_s must be > 0, got {self.hang_s}")
        if self.strikes < 1:
            raise ValueError(f"strikes must be >= 1, got {self.strikes}")


def spec_for(
    injector: str,
    intensity: float,
    *,
    hang_s: float = 2.0,
    strikes: int = 1,
    chaos_seed: int = 0,
) -> ChaosSpec:
    """The :class:`ChaosSpec` of one ``(injector, intensity)`` cell."""
    if injector == "worker_kill":
        return ChaosSpec(
            kill_fraction=intensity, strikes=strikes, chaos_seed=chaos_seed
        )
    if injector == "task_hang":
        return ChaosSpec(
            hang_fraction=intensity,
            hang_s=hang_s,
            strikes=strikes,
            chaos_seed=chaos_seed,
        )
    if injector == "corrupt_payload":
        return ChaosSpec(
            corrupt_fraction=intensity, strikes=strikes, chaos_seed=chaos_seed
        )
    known = ", ".join(INJECTORS)
    raise ValueError(f"unknown injector {injector!r}; known: {known}")


def _planned_mode(chaos: ChaosSpec, seed: int) -> str | None:
    """The misbehavior mode planned for the task carrying `seed`.

    One uniform draw partitioned by the spec's fractions — deterministic
    in ``(chaos_seed, seed)``, independent of everything else.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([chaos.chaos_seed, int(seed)])
    )
    draw = float(rng.uniform())
    if draw < chaos.kill_fraction:
        return "kill"
    if draw < chaos.kill_fraction + chaos.hang_fraction:
        return "hang"
    if (
        draw
        < chaos.kill_fraction + chaos.hang_fraction + chaos.corrupt_fraction
    ):
        return "corrupt"
    return None


def _take_strike(strike_dir: str, seed: int, mode: str, strikes: int) -> bool:
    """Atomically claim one of the task's misbehavior strikes.

    Strikes are ``O_CREAT | O_EXCL`` marker files shared by every worker
    process and every retry of the task, so a task selected for
    injection misbehaves exactly `strikes` times campaign-wide and then
    runs clean.  The strike is claimed *before* misbehaving — a SIGKILL
    cannot un-claim it — which is what guarantees retries converge.
    """
    for strike in range(strikes):
        path = os.path.join(strike_dir, f"{seed}-{strike}.{mode}")
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except FileExistsError:
            continue
    return False


def run_under_chaos(
    task_fn: str,
    task_params: Mapping[str, Any],
    chaos: ChaosSpec,
    strike_dir: str,
    seed: int,
) -> Any:
    """Execute one task, misbehaving first if the injection plan says so.

    The worker-side trampoline of a chaos campaign: consult the
    deterministic plan, claim a strike and act it out — SIGKILL the
    worker, sleep past the timeout, or corrupt the result payload — then
    (or instead, for non-fatal modes on later attempts) run the real
    ``task_fn`` and return its result untouched.
    """
    mode = _planned_mode(chaos, seed)
    struck = mode is not None and _take_strike(
        strike_dir, seed, mode, chaos.strikes
    )
    if struck and mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if struck and mode == "hang":
        # Sleep through the coordinator's task_timeout_s; it abandons
        # this worker and resubmits.  The value computed below is
        # delivered to an abandoned future and discarded.
        time.sleep(chaos.hang_s)
    value = SimTask(fn=task_fn, params=dict(task_params), seed=seed).execute()
    if struck and mode == "corrupt":
        blob = bytearray(pickle.dumps(value))
        blob[-1] ^= 0xFF
        if zlib.crc32(bytes(blob)) != zlib.crc32(pickle.dumps(value)):
            raise CorruptedResultError(
                f"result payload for seed {seed} failed its checksum "
                "(injected corruption)"
            )
    return value


@dataclass(frozen=True)
class CampaignOutcome:
    """What one chaos campaign did to the service, and what survived.

    Attributes:
        results: the disturbed campaign's results, task order.
        reference: the undisturbed (serial, in-process) results for the
            same seeds.
        identical: whether `results` == `reference` bit-for-bit — the
            service-level tolerance criterion.
        lost: tasks that ended quarantined (``PoisonedTask``) instead of
            producing a result.
        strikes: injected misbehaviors actually acted out.
        pool_rebuilds: worker-pool breaks the supervisor survived.
        tasks_retried: ordinary retry attempts (errors + timeouts).
        tasks_poisoned: the runner's quarantine counter (== `lost`).
    """

    results: tuple
    reference: tuple
    identical: bool
    lost: int
    strikes: int
    pool_rebuilds: int
    tasks_retried: int
    tasks_poisoned: int

    @property
    def intact(self) -> bool:
        """True when the disturbed campaign fully matched the reference."""
        return self.identical and self.lost == 0

    def to_json_dict(self) -> dict:
        """Queryable summary (results stay in the pickle, not the JSON)."""
        return {
            "n_tasks": len(self.results),
            "identical": self.identical,
            "intact": self.intact,
            "lost": self.lost,
            "strikes": self.strikes,
            "pool_rebuilds": self.pool_rebuilds,
            "tasks_retried": self.tasks_retried,
            "tasks_poisoned": self.tasks_poisoned,
        }


def run_campaign(
    chaos: ChaosSpec,
    *,
    n_tasks: int = 8,
    side: int = 3,
    max_rounds: int = 24,
    forward_probability: float = 0.75,
    n_workers: int = 4,
    max_attempts: int = 5,
    task_timeout_s: float | None = None,
    max_pool_rebuilds: int | None = None,
    backend: str = "object",
    seed: int = 0,
    strike_dir: str | None = None,
    db: Any = None,
    run_label: str = "chaos-service",
) -> CampaignOutcome:
    """One disturbed sweep campaign, verified against its clean twin.

    Runs `n_tasks` seeded broadcast simulations (the
    :func:`repro.experiments.chaos._chaos_once` workload at scenario
    intensity 0) through a supervised worker pool while `chaos` injects
    faults, then compares the survivors bit-for-bit against the same
    seeds executed serially, undisturbed, in-process.

    Args:
        chaos: the injection plan.
        n_tasks: campaign size (one simulation per task).
        side: mesh side length of the inner simulation.
        max_rounds: round budget of the inner simulation.
        forward_probability: the protocol's forwarding probability.
        n_workers: pool size of the attacked runner.
        max_attempts: retry budget — also the supervisor's poison
            conviction bar.  The default (5) keeps innocent tasks that
            absorb co-located crash blame from being convicted by their
            own single planned kill; lower it deliberately (with
            ``strikes >= max_attempts``) to manufacture quarantines.
        task_timeout_s: per-task budget; defaults to ``hang_s / 4``
            (floored at 0.25 s) when hangs are planned, else ``None``.
        max_pool_rebuilds: supervisor rebuild budget; defaults to
            ``n_tasks * strikes + 5`` so a kill storm cannot exhaust it.
        backend: engine backend of the inner simulation.
        seed: campaign seed root (task seeds derive from it).
        strike_dir: directory for the strike marker files; ``None``
            makes (and cleans up) a temporary one.
        db: optional results store for the disturbed campaign's rows.
        run_label: campaign row label when `db` is set.

    Returns:
        The :class:`CampaignOutcome` — check :attr:`CampaignOutcome.intact`.
    """
    from repro.experiments.chaos import _chaos_once

    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    seeds = spawn_seeds(seed, n_tasks)
    inner = {
        "kind": "burst_upsets",
        "intensity": 0.0,
        "forward_probability": forward_probability,
        "side": side,
        "max_rounds": max_rounds,
        "backend": backend,
    }
    # The undisturbed twin: same task function, same seeds, serial and
    # in-process — the n_workers=1 ground truth the disturbed pool run
    # must reproduce bit-for-bit.
    reference = tuple(_chaos_once(seed=s, **inner) for s in seeds)

    if task_timeout_s is None and chaos.hang_fraction > 0:
        task_timeout_s = max(0.25, chaos.hang_s / 4)
    if max_pool_rebuilds is None:
        max_pool_rebuilds = n_tasks * chaos.strikes + 5

    owns_strike_dir = strike_dir is None
    if owns_strike_dir:
        strike_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        runner = SweepRunner(
            n_workers=n_workers,
            max_attempts=max_attempts,
            retry_backoff_s=0.05,
            retry_jitter=0.0,
            task_timeout_s=task_timeout_s,
            max_pool_rebuilds=max_pool_rebuilds,
            db=db,
            run_label=run_label,
        )
        tasks = [
            SimTask.call(
                run_under_chaos,
                seed=s,
                label=f"chaos[{index}]",
                task_fn="repro.experiments.chaos:_chaos_once",
                task_params=inner,
                chaos=chaos,
                strike_dir=strike_dir,
            )
            for index, s in enumerate(seeds)
        ]
        results = tuple(runner.run(tasks, run_label=run_label))
        strikes = len(os.listdir(strike_dir))
    finally:
        if owns_strike_dir:
            shutil.rmtree(strike_dir, ignore_errors=True)

    lost = sum(1 for value in results if isinstance(value, PoisonedTask))
    return CampaignOutcome(
        results=results,
        reference=reference,
        identical=results == reference,
        lost=lost,
        strikes=strikes,
        pool_rebuilds=runner.pool_rebuilds,
        tasks_retried=runner.tasks_retried,
        tasks_poisoned=runner.tasks_poisoned,
    )


def _campaign_replicate(
    injector: str,
    intensity: float,
    n_tasks: int,
    side: int,
    max_rounds: int,
    forward_probability: float,
    hang_s: float,
    n_workers: int,
    max_attempts: int,
    backend: str,
    seed: int,
) -> CampaignOutcome:
    """One certification replicate: a full disturbed campaign.

    Module-level (picklable) so certification sweeps can treat whole
    campaigns as tasks.  The replicate `seed` drives both the injection
    plan and the campaign's task seeds, so distinct replicates attack
    distinct workloads with distinct fault patterns.
    """
    return run_campaign(
        spec_for(injector, intensity, hang_s=hang_s, chaos_seed=seed),
        n_tasks=n_tasks,
        side=side,
        max_rounds=max_rounds,
        forward_probability=forward_probability,
        n_workers=n_workers,
        max_attempts=max_attempts,
        backend=backend,
        seed=seed,
    )


def _service_intact(outcome: Any) -> float:
    """The 0/1 'service stayed intact' statistic of a campaign outcome."""
    if not isinstance(outcome, CampaignOutcome):
        raise ValueError(
            "the 'service_intact' metric needs a CampaignOutcome, got "
            f"{type(outcome).__name__}"
        )
    return 1.0 if outcome.intact else 0.0


register_extractor("service_intact", _service_intact)


@dataclass(frozen=True)
class ServiceCell:
    """One certified ``(injector, intensity)`` cell of the envelope.

    Attributes:
        injector: which fault injector attacked the service.
        intensity: the injection intensity.
        certificate: the cell's :class:`repro.stats.Certificate`.
        probe: one direct :class:`CampaignOutcome` at this cell —
            operator-readable strike/loss tallies next to the verdict.
    """

    injector: str
    intensity: float
    certificate: Any
    probe: CampaignOutcome


@dataclass(frozen=True)
class ServiceEnvelope:
    """The certified tolerance envelope of the execution layer.

    Attributes:
        cells: one :class:`ServiceCell` per swept ``(injector,
            intensity)``.
        claim: the (intensity-independent) Bernoulli claim template.
        thresholds: per injector, the largest intensity whose
            "service stays intact" claim was accepted (``None`` when no
            level certified).
    """

    cells: tuple[ServiceCell, ...]
    claim: Any
    thresholds: dict[str, float | None]


def certify_service_envelope(
    injectors: tuple[str, ...] = INJECTORS,
    levels: tuple[float, ...] = DEFAULT_LEVELS,
    *,
    n_tasks: int = 6,
    side: int = 3,
    max_rounds: int = 24,
    forward_probability: float = 0.75,
    hang_s: float = 2.0,
    n_workers: int = 4,
    max_attempts: int = 5,
    target: float = 0.9,
    indifference: float = 0.2,
    alpha: float = 0.05,
    beta: float = 0.05,
    batch_size: int = 4,
    max_replicates: int = 16,
    seed: int = 0,
    backend: str = "object",
    db: Any = None,
) -> ServiceEnvelope:
    """Certify "the service stays intact under injection" cell by cell.

    For every ``(injector, intensity)`` cell, certifies the Bernoulli
    claim "P(a disturbed campaign completes bit-identically with zero
    lost tasks) >= `target`" via Wald's SPRT over adaptive batches of
    full chaos campaigns — one :func:`repro.stats.certify_cells` grid,
    plus one direct probe campaign per cell at the cell's seed root.
    Campaign replicates run serially in the coordinating process (each
    one owns its own attacked worker pool — nesting pools would perturb
    the very layer under test).

    Args:
        injectors: injection axes to certify (see :data:`INJECTORS`).
        levels: intensity grid per axis.
        n_tasks: tasks per replicate campaign.
        side: inner-simulation mesh side.
        max_rounds: inner-simulation round budget.
        forward_probability: the protocol's forwarding probability.
        hang_s: hang duration for the ``task_hang`` injector.
        n_workers: worker-pool size each replicate campaign attacks.
        max_attempts: replicate campaigns' retry/conviction budget.
        target: claimed per-replicate intact probability.
        indifference: SPRT indifference band below `target`.
        alpha: false-accept bound.
        beta: false-reject bound.
        batch_size: replicates per certification batch.
        max_replicates: per-cell replicate budget.
        seed: envelope seed root; cell replicate seeds derive from it.
        backend: inner-simulation engine backend.
        db: optional :class:`repro.service.ResultsDB` (or path) — per
            cell the certificate and its replicate rows land in it.

    Returns:
        The :class:`ServiceEnvelope` with per-injector certified
        thresholds.
    """
    # Deferred: repro.stats imports this package's db module; importing
    # it at module scope would cycle through repro.service.__init__.
    from repro.stats import BernoulliClaim, certify_cells

    for injector in injectors:
        spec_for(injector, 0.0)  # validate axes before paying for runs
    claim = BernoulliClaim(
        metric="service_intact",
        target=target,
        indifference=indifference,
        alpha=alpha,
        beta=beta,
    )

    def params(cell: tuple) -> dict[str, Any]:
        return {
            "injector": cell[0],
            "intensity": cell[1],
            "n_tasks": n_tasks,
            "side": side,
            "max_rounds": max_rounds,
            "forward_probability": forward_probability,
            "hang_s": hang_s,
            "n_workers": n_workers,
            "max_attempts": max_attempts,
            "backend": backend,
        }

    # The outer runner is strictly serial: each replicate builds (and
    # attacks) its own inner pool.
    certified, thresholds = certify_cells(
        SweepRunner(n_workers=1, db=db),
        claim,
        "repro.service.chaos:_campaign_replicate",
        [(injector, level) for injector in injectors for level in levels],
        params=params,
        label=lambda cell: f"chaos-service {cell[0]} intensity={cell[1]}",
        seed=seed,
        batch_size=batch_size,
        max_replicates=max_replicates,
    )
    return ServiceEnvelope(
        cells=tuple(
            ServiceCell(
                *cell,
                certificate,
                _campaign_replicate(seed=certificate.base_seed, **params(cell)),
            )
            for cell, certificate in certified
        ),
        claim=claim,
        thresholds={name: best for (name,), best in thresholds.items()},
    )


def format_service_envelope(envelope: ServiceEnvelope) -> str:
    """Render a certified service envelope as the plain-text report."""
    from repro.stats import format_certified

    report = format_certified(
        "certified service tolerance envelope",
        "campaign bit-identical, zero lost tasks",
        envelope.claim,
        (("injector", 16),),
        [
            (
                (cell.injector, cell.intensity),
                cell.certificate,
                f" {cell.probe.strikes:>7} {cell.probe.pool_rebuilds:>8} "
                f"{cell.probe.lost:>5}",
            )
            for cell in envelope.cells
        ],
        "certified service thresholds (largest accepted intensity)",
        envelope.thresholds.items(),
        extra_header=f" {'strikes':>7} {'rebuilds':>8} {'lost':>5}",
    )
    total_lost = sum(cell.probe.lost for cell in envelope.cells)
    return f"{report}  lost tasks: {total_lost}\n"
