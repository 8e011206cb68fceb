"""Experiment harnesses — one module per thesis figure.

Every module exposes a ``run(...)`` returning plain dataclasses/dicts with
the same series the thesis plots; the benchmarks in ``benchmarks/`` time
these harnesses, and EXPERIMENTS.md records their output against the
paper's numbers.  Parameters default to fast, CI-friendly sizes; pass
larger values to approach the thesis' settings.

Execution convention
--------------------

Every sweep-running entry point accepts one trailing keyword argument::

    runner = SweepRunner(n_workers=4, cache_dir="cache")
    run(..., options=ExperimentOptions(runner=runner))

The :class:`repro.runners.SweepRunner` holds every execution setting —
``n_workers`` (process fan-out; results are bit-identical for any
worker count), ``cache_dir`` (on-disk result memoization), ``db`` (a
:class:`repro.service.ResultsDB` write-through record) and the
retry/timeout knobs.  :class:`repro.experiments.common.ExperimentOptions`
carries that runner and, on harnesses that support them, ``backend``
and ``collect_metrics``; without a runner a harness runs on a fresh
serial one (see ``docs/runners.md``).

Options are pure execution plumbing: they never enter task cache keys,
and harnesses keep their historical per-repetition seed strides, so
routed results match the original serial loops exactly — the reproduced
numbers do not change.

Writing a harness
-----------------

A harness is a module-level task function (one seeded run returning a
tuple or dict), a frozen result dataclass, and a ``run(...)`` that makes
one :func:`repro.experiments.common.sweep_cells` call: it names the
cells, each cell's task parameters and label, the repetition count and
the seed stride, and reduces the ``(cell, outcomes, run_metrics)``
triples it gets back.  The kernel owns everything else — option
resolution, the ``repetitions >= 1`` check, task order, ``seed + stride
* rep`` seeding, the ``collect_metrics`` / ``backend`` task parameters
of harnesses that declare them in a module-level ``SUPPORTS``, and the
regrouping of the flat batch.  ``docs/runners.md`` has a worked example.

A *certified* envelope (:mod:`~repro.experiments.certify`,
``protocol_frontier.certify_frontier``) is the same shape on
:func:`repro.stats.certify_cells`: ``(axis..., intensity)`` cells, a
claim, and the kernel owns grid order, cell seeding and the
largest-accepted threshold rule (``docs/stats.md``).
"""

from repro.experiments import (
    certify,
    chaos,
    fig3_1,
    fig4_4,
    fig4_5,
    fig4_6,
    fig4_8,
    fig4_9,
    fig4_10,
    fig4_11,
    fig5_3,
    grid_spread,
    islands,
    link_crashes,
    policy_compare,
    protocol_frontier,
)

__all__ = [
    "certify",
    "chaos",
    "fig3_1",
    "fig4_4",
    "fig4_5",
    "fig4_6",
    "fig4_8",
    "fig4_9",
    "fig4_10",
    "fig4_11",
    "fig5_3",
    "grid_spread",
    "islands",
    "link_crashes",
    "policy_compare",
    "protocol_frontier",
]
