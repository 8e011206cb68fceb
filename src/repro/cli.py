"""Command-line interface: ``python -m repro <command>``.

These commands cover the common workflows without writing a script
(``repro info`` prints the authoritative list, read off the parser):

* ``info`` — version and package map;
* ``spread`` — broadcast a rumor on a topology, print the saturation
  curve and an ASCII heat map of the final state;
* ``probe`` — Monte-Carlo delivery probability / latency profile /
  minimum-TTL search for one unicast pair (the designer tools);
* ``mp3`` — run the Fig 4-7 parallel encoder under a chosen fault level
  and report frames, bit-rate and SNR;
* ``figure`` — regenerate one thesis figure's data series;
* ``policies`` — list the registered forwarding policies, or run the
  four-policy fault-sweep comparison (``repro policies compare``);
* ``profile`` — time the engine's four per-round phases on a standard
  broadcast workload (``repro.metrics.PhaseProfiler``); with
  ``--backend fast`` also print which send / receive path each round ran;
* ``chaos`` — sweep the dynamic fault scenarios
  (``repro.faults.scenarios``) over an intensity grid and print the
  degradation report with the recomputed tolerance thresholds
  (``repro.experiments.chaos``, see ``docs/faults.md``);
* ``certify`` — re-derive the chaos tolerance envelope as *certified*
  claims: per cell, a sequential SPRT decides "P(coverage >= target)
  >= p" with explicit error bounds, stopping as soon as the verdict is
  forced (``repro.stats``, see ``docs/stats.md``);
* ``frontier`` — the paired protocol comparison: Bernoulli push gossip
  vs push-pull rumor spreading (with and without feedback termination)
  vs the deterministic adaptive-routing baseline, racing on matched
  seeds across fault levels; ``--certify`` additionally certifies each
  protocol's chaos-tolerance envelope
  (``repro.experiments.protocol_frontier``, see
  ``docs/protocols-frontier.md``);
* ``chaos-service`` — turn the fault injection on the harness itself:
  deterministic injectors SIGKILL workers mid-task, hang tasks past the
  timeout and corrupt result payloads, and the *service's* tolerance
  envelope ("a disturbed campaign completes bit-identically with zero
  lost tasks") is certified cell by cell (``repro.service.chaos``, see
  ``docs/operations.md``);
* ``db`` — inspect a :class:`repro.service.ResultsDB` results database:
  ``repro db query`` (read-only SQL), ``repro db export`` (a table as
  JSON/CSV) and ``repro db gc`` (prune old runs) — see
  ``docs/service.md``.

A command accepts exactly the execution flags it honours.  The sweep
commands (``spread``, ``figure``, ``chaos``, ``certify``, ``frontier``,
``policies compare``) share one set, declared once on a parent parser:
``--workers`` (default: the CPUs this process may run on),
``--cache-dir``, ``--db`` (write completed tasks through to a results
database) and ``--max-attempts``/``--retry-backoff``/``--task-timeout``
(validated up front: non-positive budgets are argparse errors, not
mid-sweep crashes), plus ``--backend`` and ``--metrics-out`` where the
harness supports them.  They build one :class:`repro.runners.SweepRunner`
per invocation, shared by every sweep of the command.  ``chaos-service``
declares its own ``--workers`` (the attacked fleet), ``--max-attempts``
and ``--db``; ``probe``, ``mp3`` and ``profile`` take none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Sequence

import repro
from repro.core.analysis import latency_profile, minimum_ttl
from repro.core.protocol import StochasticProtocol
from repro.faults import FaultConfig
from repro.noc.engine import NocSimulator
from repro.noc.topology import FullyConnected, Mesh2D, Torus2D
from repro.noc.trace import render_spread

#: Figures the `figure` command can regenerate.
FIGURES = (
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
)


def _build_topology(name: str, side: int):
    if name == "mesh":
        return Mesh2D(side)
    if name == "torus":
        return Torus2D(side)
    if name == "complete":
        return FullyConnected(side * side)
    raise ValueError(f"unknown topology {name!r}")


def _fault_config(args: argparse.Namespace) -> FaultConfig:
    return FaultConfig(
        p_upset=args.upset,
        p_overflow=args.overflow,
        sigma_synchr=args.sigma,
    )


def _sweep_options(args: argparse.Namespace, **extra):
    """The `ExperimentOptions` of a command's execution flags.

    One `SweepRunner` is built from the ``--workers/--cache-dir/--db``
    trio and the retry/timeout knobs; `extra` carries the per-command
    knobs (``backend=``, ``collect_metrics=``) beside it.
    """
    # Deferred: keep `repro probe --help` etc. from importing the whole
    # experiments package.
    from repro.experiments.common import ExperimentOptions
    from repro.runners import SweepRunner

    runner = SweepRunner(
        n_workers=args.workers,
        cache_dir=args.cache_dir,
        db=args.db,
        max_attempts=args.max_attempts,
        retry_backoff_s=args.retry_backoff,
        task_timeout_s=args.task_timeout,
    )
    return ExperimentOptions(runner=runner, **extra)


def _note_certificates(args: argparse.Namespace) -> None:
    """Point at the recorded certificates when ``--db`` was given."""
    if args.db is not None:
        print(f"certificates recorded in {args.db} "
              "(repro db export --table certificates)")


# ------------------------------------------------------------------ commands


def cmd_info(args: argparse.Namespace) -> int:
    del args
    print(f"repro {repro.__version__} — On-Chip Stochastic Communication")
    print("(Dumitras & Marculescu, DATE 2003 / CMU MS thesis 2003)")
    print()
    print("packages: core noc policies metrics faults crc bus energy apps "
          "mp3 diversity experiments runners service stats")
    print("commands: " + " ".join(command_names()))
    return 0


def _write_metrics_json(path: str, document: dict) -> None:
    """Write a metrics document as deterministic JSON (sorted keys)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, indent=2)
        handle.write("\n")


def cmd_spread(args: argparse.Namespace) -> int:
    from repro.experiments.grid_spread import measure_spread

    collect_metrics = args.metrics_out is not None
    topology = _build_topology(args.topology, args.side)
    measurement = measure_spread(
        topology,
        forward_probability=args.p,
        repetitions=args.repetitions,
        seed=args.seed,
        options=_sweep_options(
            args, collect_metrics=collect_metrics, backend=args.backend
        ),
    )
    if collect_metrics:
        _write_metrics_json(
            args.metrics_out,
            {
                "experiment": "grid_spread",
                "topology": measurement.topology_name,
                "forward_probability": args.p,
                "seed": args.seed,
                "aggregate": measurement.metrics.to_json_dict(),
                "runs": [m.to_json_dict() for m in measurement.run_metrics],
            },
        )
        print(f"per-round metrics written to {args.metrics_out}")
    print(
        f"{measurement.topology_name}: {measurement.n_tiles} tiles, "
        f"p = {args.p}"
    )
    print(
        f"saturation: {measurement.saturation_rounds_mean:.1f} "
        f"+/- {measurement.saturation_rounds_std:.1f} rounds "
        f"(completion {measurement.completion_rate:.0%})"
    )
    print("round : informed")
    for round_index, informed in enumerate(measurement.informed_curve):
        print(f"  {round_index:>3} : {informed:.1f}")
    # One illustrative run's final picture.
    simulator = NocSimulator(
        topology, StochasticProtocol(args.p), seed=args.seed,
        backend=args.backend,
    )
    from repro.experiments.grid_spread import _BroadcastSeed

    simulator.mount(0, _BroadcastSeed(ttl=100))
    simulator.run(
        100,
        until=lambda sim: len(sim.informed_tiles()) == topology.n_tiles,
    )
    print(render_spread(simulator))
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    topology = _build_topology(args.topology, args.side)
    fault_config = _fault_config(args)
    profile = latency_profile(
        topology,
        args.p,
        args.src,
        args.dst,
        ttl=args.ttl,
        fault_config=fault_config,
        trials=args.trials,
        seed=args.seed,
    )
    print(
        f"unicast {args.src} -> {args.dst} on {args.topology}({args.side}), "
        f"p = {args.p}, ttl = {args.ttl}"
    )
    print(f"delivery probability: {profile.delivery_rate:.3f}")
    if profile.delivery_rate > 0:
        print(
            f"latency rounds: mean {profile.rounds_mean:.1f}, "
            f"p50 {profile.rounds_p50:.0f}, p95 {profile.rounds_p95:.0f}"
        )
    if args.target is not None:
        ttl = minimum_ttl(
            topology,
            args.p,
            args.src,
            args.dst,
            target_probability=args.target,
            fault_config=fault_config,
            trials=args.trials,
            seed=args.seed,
        )
        print(f"minimum ttl for P >= {args.target}: {ttl}")
    return 0


def cmd_mp3(args: argparse.Namespace) -> int:
    from repro.apps.base import run_on_noc
    from repro.mp3 import Mp3Decoder, ParallelMp3App, reconstruction_snr_db

    app = ParallelMp3App(
        n_frames=args.frames,
        granule=args.granule,
        bitrate_bps=args.bitrate,
        skip_after=40,
        seed=args.seed,
    )
    simulator = NocSimulator(
        Mesh2D(4, 4),
        StochasticProtocol(args.p),
        _fault_config(args),
        seed=args.seed,
        default_ttl=24,
        backend=args.backend,
    )
    result = run_on_noc(app, simulator, max_rounds=args.max_rounds)
    report = app.report()
    decoder = Mp3Decoder(granule=args.granule)
    reconstruction = decoder.decode(app.output.frames, args.frames)
    snr = reconstruction_snr_db(app.source.all_frames(), reconstruction)
    print(
        f"encoded {report.frames_received}/{report.n_frames} granules in "
        f"{result.rounds} rounds "
        f"({'complete' if report.encoding_complete else 'incomplete'})"
    )
    print(f"output bit-rate: {report.bitrate_bps / 1000:.1f} kbps")
    print(f"reconstruction SNR: {snr:.2f} dB")
    print(
        f"network: {result.stats.transmissions_delivered} transmissions, "
        f"{result.stats.upsets_detected} upsets caught, "
        f"{result.stats.overflow_drops} overflow drops"
    )
    return 0 if report.encoding_complete else 1


def cmd_policies_list(args: argparse.Namespace) -> int:
    import inspect

    from repro.policies import POLICY_REGISTRY

    del args
    print("registered forwarding policies (repro.policies):")
    for kind in sorted(POLICY_REGISTRY):
        cls = POLICY_REGISTRY[kind]
        signature = inspect.signature(cls.__init__)
        params = ", ".join(
            f"{p.name}={p.default!r}" if p.default is not p.empty else p.name
            for p in signature.parameters.values()
            if p.name != "self"
        )
        print(f"  {kind:<12} {cls.__name__}({params})")
    return 0


def cmd_policies_compare(args: argparse.Namespace) -> int:
    from repro.experiments import policy_compare

    points = policy_compare.run(
        side=args.side,
        repetitions=args.repetitions,
        seed=args.seed,
        max_rounds=args.max_rounds,
        options=_sweep_options(args, backend=args.backend),
    )
    print(
        f"four-policy broadcast comparison on a {args.side}x{args.side} "
        f"mesh ({args.repetitions} repetitions per cell)"
    )
    print(policy_compare.format_table(points))
    return 0


def _figure_metrics_document(name: str, outcome: list) -> dict:
    """Assemble the ``--metrics-out`` JSON document for one figure."""
    if name == "grid_spread":
        points = [
            {
                "topology": m.topology_name,
                "n_tiles": m.n_tiles,
                "aggregate": m.metrics.to_json_dict(),
                "runs": [run.to_json_dict() for run in m.run_metrics],
            }
            for m in outcome
        ]
    else:  # fig4_4
        points = [
            {
                "application": p.application,
                "forward_probability": p.forward_probability,
                "n_dead_tiles": p.n_dead_tiles,
                "aggregate": p.metrics.to_json_dict(),
            }
            for p in outcome
        ]
    return {"experiment": name, "points": points}


def cmd_figure(args: argparse.Namespace) -> int:
    import repro.experiments as experiments

    # Each harness declares the result knobs it honors (`SUPPORTS`);
    # that declaration, not a list kept here, decides what is refused.
    def supports(name: str) -> tuple[str, ...]:
        return getattr(getattr(experiments, name), "SUPPORTS", ())

    collect_metrics = args.metrics_out is not None
    for knob, flag, requested, lacks in (
        ("collect_metrics", "--metrics-out", collect_metrics,
         "does not collect per-round metrics yet"),
        ("backend", "--backend", args.backend != "object",
         "does not route through the engine backends yet"),
    ):
        if requested and knob not in supports(args.name):
            able = [name for name in FIGURES if knob in supports(name)]
            print(
                f"{flag} supports {', '.join(able)}; {args.name} {lacks}",
                file=sys.stderr,
            )
            return 2
    module = getattr(experiments, args.name)
    # One runner per invocation: two-panel figures reuse the same worker
    # pool settings, cache directory and results database.
    opts = _sweep_options(
        args, collect_metrics=collect_metrics, backend=args.backend
    )
    print(f"=== {args.name} ===")
    if args.name in ("fig4_10", "fig4_11"):
        for point in module.run_overflow(options=opts):
            print(point)
        for point in module.run_synchronization(options=opts):
            print(point)
    else:
        outcome = module.run(options=opts)
        if isinstance(outcome, list):
            for row in outcome:
                print(row)
        else:
            print(outcome)
        if collect_metrics:
            _write_metrics_json(
                args.metrics_out,
                _figure_metrics_document(args.name, outcome),
            )
            print(f"per-round metrics written to {args.metrics_out}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments import chaos

    report = chaos.run(
        kinds=tuple(args.kinds),
        levels=tuple(args.levels),
        side=args.side,
        forward_probability=args.p,
        repetitions=args.repetitions,
        seed=args.seed,
        max_rounds=args.max_rounds,
        coverage_target=args.coverage_target,
        options=_sweep_options(
            args,
            collect_metrics=args.metrics_out is not None,
            backend=args.backend,
        ),
    )
    if args.metrics_out is not None:
        _write_metrics_json(
            args.metrics_out,
            {
                "experiment": "chaos",
                "coverage_target": report.coverage_target,
                "thresholds": report.thresholds,
                "cells": [
                    {
                        "kind": cell.kind,
                        "intensity": cell.intensity,
                        "completion_rate": cell.completion_rate,
                        "coverage_mean": cell.coverage_mean,
                        "drops_by_scenario": cell.drops_by_scenario,
                        "aggregate": cell.metrics.to_json_dict(),
                        "runs": [
                            run.to_json_dict() for run in cell.run_metrics
                        ],
                    }
                    for cell in report.cells
                ],
            },
        )
        print(f"per-round metrics written to {args.metrics_out}")
    print(
        f"chaos campaign on a {args.side}x{args.side} mesh, p = {args.p}, "
        f"{args.repetitions} repetition(s) per cell"
    )
    print(chaos.format_report(report))
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    from repro.experiments import certify

    envelope = certify.certify_chaos_envelope(
        kinds=tuple(args.kinds),
        levels=tuple(args.levels),
        side=args.side,
        forward_probability=args.p,
        seed=args.seed,
        max_rounds=args.max_rounds,
        coverage_target=args.coverage_target,
        target=args.target,
        indifference=args.indifference,
        alpha=args.alpha,
        beta=args.beta,
        batch_size=args.batch_size,
        max_replicates=args.max_replicates,
        options=_sweep_options(args, backend=args.backend),
    )
    print(
        f"certified chaos envelope on a {args.side}x{args.side} mesh, "
        f"p = {args.p}, budget {args.max_replicates} replicates/cell"
    )
    print(certify.format_envelope(envelope))
    _note_certificates(args)
    return 0


def cmd_chaos_service(args: argparse.Namespace) -> int:
    from repro.service import chaos

    envelope = chaos.certify_service_envelope(
        injectors=tuple(args.injectors),
        levels=tuple(args.levels),
        n_tasks=args.tasks,
        side=args.side,
        max_rounds=args.max_rounds,
        forward_probability=args.p,
        hang_s=args.hang_s,
        n_workers=args.workers,
        max_attempts=args.max_attempts,
        target=args.target,
        indifference=args.indifference,
        alpha=args.alpha,
        beta=args.beta,
        batch_size=args.batch_size,
        max_replicates=args.max_replicates,
        seed=args.seed,
        backend=args.backend,
        db=args.db,
    )
    print(
        f"chaos-service: attacking a {args.workers}-worker fleet with "
        f"{args.tasks}-task campaigns, budget {args.max_replicates} "
        "replicates/cell"
    )
    print(chaos.format_service_envelope(envelope))
    _note_certificates(args)
    return 0


def cmd_frontier(args: argparse.Namespace) -> int:
    from repro.experiments import protocol_frontier

    options = _sweep_options(args, backend=args.backend)
    report = protocol_frontier.run(
        side=args.side,
        upset_rates=tuple(args.upsets),
        link_crash_counts=tuple(args.link_crashes),
        repetitions=args.repetitions,
        seed=args.seed,
        max_rounds=args.max_rounds,
        deadline_rounds=args.deadline_rounds,
        options=options,
    )
    if args.metrics_out is not None:
        _write_metrics_json(
            args.metrics_out,
            {
                "experiment": "protocol_frontier",
                "deadline_rounds": report.deadline_rounds,
                "seed": args.seed,
                "points": [
                    {
                        "protocol": point.protocol,
                        "fault": point.fault,
                        "level": point.level,
                        "coverage": point.coverage,
                        "completion_rate": point.completion_rate,
                        "deadline_rate": point.deadline_rate,
                        "rounds": point.rounds,
                        "transmissions": point.transmissions,
                        "pull_requests": point.pull_requests,
                        "energy_j": point.energy_j,
                    }
                    for point in report.points
                ],
            },
        )
        print(f"comparison points written to {args.metrics_out}")
    print(
        f"protocol frontier on a {args.side}x{args.side} mesh "
        f"({args.repetitions} paired repetitions per cell)"
    )
    print(protocol_frontier.format_table(report))
    if args.certify:
        envelope = protocol_frontier.certify_frontier(
            kinds=tuple(args.certify_kinds),
            levels=tuple(args.certify_levels),
            side=args.side,
            seed=args.seed,
            max_rounds=args.certify_max_rounds,
            coverage_target=args.coverage_target,
            max_replicates=args.max_replicates,
            options=options,
        )
        print()
        print(protocol_frontier.format_envelope(envelope))
        _note_certificates(args)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.experiments.grid_spread import _BroadcastSeed
    from repro.metrics import PhaseProfiler

    topology = _build_topology(args.topology, args.side)
    profiler = PhaseProfiler()
    engine_paths: Counter[str] = Counter()
    n = topology.n_tiles
    for rep in range(args.repetitions):
        simulator = NocSimulator(
            topology,
            StochasticProtocol(args.p),
            _fault_config(args),
            seed=args.seed + rep,
            default_ttl=args.rounds,
            profiler=profiler,
            backend=args.backend,
        )
        simulator.mount(0, _BroadcastSeed(ttl=args.rounds))
        simulator.run(
            args.rounds,
            until=lambda sim: len(sim.informed_tiles()) == n,
        )
        # Only the fast backend has alternative paths to report.
        engine_paths.update(getattr(simulator, "engine_paths", {}))
    print(
        f"broadcast on {args.topology}({args.side}), p = {args.p}, "
        f"{args.repetitions} repetition(s), {profiler.rounds} rounds total"
    )
    print(profiler.format_table())
    if engine_paths:
        print("engine paths (rounds per path; upset-send words, corruptions):")
        for name, count in engine_paths.items():
            print(f"  {name:<20}{count:>12}")
    return 0


def _open_results_db(path: str):
    """Open an *existing* results database (``repro db`` never creates).

    :class:`ResultsDB` creates-and-migrates on open, which is right for
    recording but wrong for inspection — a typo'd path would silently
    materialise an empty database.  Exits with a usage error instead.
    """
    from repro.service.db import ResultsDB

    if not os.path.exists(path):
        raise SystemExit(f"repro db: no results database at {path!r}")
    return ResultsDB(path)


def cmd_db_query(args: argparse.Namespace) -> int:
    with _open_results_db(args.database) as db:
        try:
            rows = db.query(args.sql)
        except ValueError as error:
            print(f"repro db query: {error}", file=sys.stderr)
            return 2
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True, indent=2, default=repr))
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        if rows:
            writer.writerow(rows[0].keys())
            writer.writerows(row.values() for row in rows)
    else:  # jsonl
        for row in rows:
            print(json.dumps(row, sort_keys=True, default=repr))
    return 0


def cmd_db_export(args: argparse.Namespace) -> int:
    with _open_results_db(args.database) as db:
        text = db.export(args.table, fmt=args.format)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{args.table} exported to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_db_gc(args: argparse.Namespace) -> int:
    with _open_results_db(args.database) as db:
        removed = db.gc(keep_runs=args.keep_runs)
        remaining = len(db.runs())
    print(f"removed {removed} run(s), {remaining} kept")
    return 0


# -------------------------------------------------------------------- parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _positive_probability(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _writable_cache_dir(text: str) -> str:
    """Validate --cache-dir up front: create it and check writability.

    Failing here turns an hours-later mid-sweep crash ("cannot cache
    completed cell") into an immediate, clear usage error.
    """
    try:
        os.makedirs(text, exist_ok=True)
    except OSError as error:
        raise argparse.ArgumentTypeError(
            f"cannot create cache directory {text!r}: {error}"
        ) from None
    if not os.access(text, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(
            f"cache directory {text!r} is not writable"
        )
    return text


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, if known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _execution_parent() -> argparse.ArgumentParser:
    """Parent parser with the sweep commands' execution flags.

    Declared once and attached to every sweep command via ``parents=``
    so ``--workers``, ``--cache-dir`` and ``--db`` read identically
    everywhere (they build the command's
    :class:`repro.runners.SweepRunner`).
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument(
        "--workers",
        type=_positive_int,
        default=_usable_cpus(),
        metavar="N",
        help="worker processes for the sweep (default: the CPUs this "
        "process may run on; results are identical for any worker count)",
    )
    group.add_argument(
        "--cache-dir",
        type=_writable_cache_dir,
        default=None,
        metavar="DIR",
        help="cache completed simulation tasks in DIR and reuse them "
        "on rerun (default: no cache); the directory is created and "
        "checked for writability up front",
    )
    group.add_argument(
        "--db",
        default=None,
        metavar="FILE",
        help="record every completed task — result, full config "
        "provenance, per-round metrics — in this SQLite results "
        "database (repro.service.ResultsDB; created on first use, "
        "query later with 'repro db query')",
    )
    group.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=1,
        metavar="N",
        help="times a failing task is tried before the sweep aborts "
        "(default: 1, fail fast); also the fleet supervisor's "
        "poison-conviction bar (see docs/operations.md)",
    )
    group.add_argument(
        "--retry-backoff",
        type=_nonnegative_float,
        default=0.5,
        metavar="SECONDS",
        help="base delay before retrying a failed task, doubled per "
        "attempt (default: 0.5)",
    )
    group.add_argument(
        "--task-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock budget on the pool path; a task "
        "running longer counts as a failure and is retried "
        "(default: no timeout)",
    )
    return parent


def _backend_parent() -> argparse.ArgumentParser:
    """Parent parser with the engine-backend selector
    (see docs/performance.md)."""
    from repro.noc.backends import KNOWN_BACKENDS

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--backend",
        choices=KNOWN_BACKENDS,
        default="object",
        help="engine backend: 'object' (reference) or 'fast' (vectorised "
        "structure-of-arrays engine; bit-identical results, measured "
        "speedups in docs/performance.md)",
    )
    return parent


def _metrics_out_parent() -> argparse.ArgumentParser:
    """Parent parser with the per-round metrics export flag
    (see docs/observability.md)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="collect per-round metrics (repro.metrics) during the sweep "
        "and write them to FILE as JSON (default: metrics off)",
    )
    return parent


def _topology_flags(parser: argparse.ArgumentParser, side: int) -> None:
    """``--topology/--side/--p`` of the single-broadcast commands."""
    parser.add_argument(
        "--topology", choices=("mesh", "torus", "complete"), default="mesh"
    )
    parser.add_argument("--side", type=_positive_int, default=side)
    parser.add_argument("--p", type=_probability, default=0.5)


def _fault_flags(parser: argparse.ArgumentParser) -> None:
    """The static fault levels read back by :func:`_fault_config`."""
    parser.add_argument("--upset", type=_probability, default=0.0)
    parser.add_argument("--overflow", type=_probability, default=0.0)
    parser.add_argument("--sigma", type=_nonnegative_float, default=0.0)


def _chaos_grid_flags(
    parser: argparse.ArgumentParser,
    verb: str,
    coverage_help: str,
    repetitions: int | None = None,
) -> None:
    """The scenario grid ``chaos`` sweeps and ``certify`` certifies.

    `repetitions` is the fixed per-cell repetition count of the sweeping
    command; the certifying one spends replicates adaptively instead.
    """
    parser.add_argument(
        "--kinds",
        nargs="+",
        choices=("burst_upsets", "ramp_overflow", "link_flap"),
        default=["burst_upsets", "ramp_overflow", "link_flap"],
        help=f"scenario axes to {verb} (default: all three)",
    )
    parser.add_argument(
        "--levels",
        nargs="+",
        type=float,
        default=[0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0],
        help="intensity grid per axis (default: 0 .. 1.0)",
    )
    parser.add_argument("--side", type=_positive_int, default=4)
    parser.add_argument("--p", type=_probability, default=0.75)
    if repetitions is not None:
        parser.add_argument(
            "--repetitions", type=_positive_int, default=repetitions
        )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-rounds", type=_positive_int, default=96)
    parser.add_argument(
        "--coverage-target", type=float, default=0.99, help=coverage_help
    )
    _add_check(parser, lambda args: _check_scenarios(args.kinds, args.levels))


def _add_check(parser: argparse.ArgumentParser, rule) -> None:
    """Run `rule(args)` on the parsed arguments before the command does.

    A ``ValueError`` from `rule` becomes a usage error of `parser`, so an
    impossible value exits 2 up front instead of failing (and being
    retried) inside the first simulated cell.  :func:`main` runs the
    parser's ``checks`` in declaration order.
    """

    def check(args: argparse.Namespace) -> None:
        try:
            rule(args)
        except ValueError as error:
            parser.error(str(error))

    parser.set_defaults(checks=(*(parser.get_default("checks") or ()), check))


def _check_scenarios(kinds: Sequence[str], levels: Sequence[float]) -> None:
    """Build every ``(kind, level)`` scenario: its spec owns the rule."""
    from repro.experiments.chaos import scenario_for

    for kind in kinds:
        for level in levels:
            scenario_for(kind, level)


def _check_probe_tiles(args: argparse.Namespace) -> None:
    n_tiles = args.side * args.side
    for flag, tile in (("--src", args.src), ("--dst", args.dst)):
        if not 0 <= tile < n_tiles:
            raise ValueError(
                f"argument {flag}: tile {tile} is not on a {n_tiles}-tile "
                f"{args.topology} (side {args.side})"
            )


def _check_frontier_levels(args: argparse.Namespace) -> None:
    for upset in args.upsets:
        FaultConfig(p_upset=upset)
    _check_scenarios(args.certify_kinds, args.certify_levels)


def _claim_flags(
    parser: argparse.ArgumentParser,
    target_help: str,
    *,
    batch_size: int,
    batch_help: str,
    max_replicates: int,
) -> None:
    """The SPRT claim quartet plus the replicate budget pair.

    An impossible claim is a usage error of this command, not a
    traceback out of the first certified cell.
    """
    parser.add_argument(
        "--target", type=float, default=0.9,
        help=f"{target_help} (default: 0.9)",
    )
    parser.add_argument(
        "--indifference",
        type=float,
        default=0.2,
        help="SPRT indifference band below --target (default: 0.2)",
    )
    parser.add_argument(
        "--alpha", type=float, default=0.05,
        help="nominal SPRT false-accept rate (default: 0.05)",
    )
    parser.add_argument(
        "--beta", type=float, default=0.05,
        help="nominal SPRT false-reject rate (default: 0.05)",
    )
    parser.add_argument(
        "--batch-size",
        type=_positive_int,
        default=batch_size,
        help=f"{batch_help} (default: {batch_size})",
    )
    parser.add_argument(
        "--max-replicates",
        type=_positive_int,
        default=max_replicates,
        help="per-cell replicate budget; an undecided test certifies "
        f"'undecided' (default: {max_replicates})",
    )

    def check(args: argparse.Namespace) -> None:
        # BernoulliClaim owns the rule; importing it here, not at
        # parser-build time, keeps `repro --help` cheap.
        from repro.stats import BernoulliClaim

        BernoulliClaim(
            target=args.target,
            indifference=args.indifference,
            alpha=args.alpha,
            beta=args.beta,
        )

    _add_check(parser, check)


class _CommandParser(argparse.ArgumentParser):
    """A subcommand parser that reports an unknown flag in its own usage
    (plain argparse defers it to the top-level one, which names no command).
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="On-Chip Stochastic Communication — reproduction toolkit",
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )

    execution = _execution_parent()
    backend = _backend_parent()
    metrics_out = _metrics_out_parent()

    info = subparsers.add_parser("info", help="version and package map")
    info.set_defaults(handler=cmd_info)

    spread = subparsers.add_parser(
        "spread",
        help="broadcast saturation on a topology",
        parents=[execution, backend, metrics_out],
    )
    _topology_flags(spread, side=4)
    spread.add_argument("--repetitions", type=_positive_int, default=5)
    spread.add_argument("--seed", type=int, default=0)
    spread.set_defaults(handler=cmd_spread)

    probe = subparsers.add_parser(
        "probe",
        help="unicast delivery probability / latency / min TTL",
    )
    _topology_flags(probe, side=4)
    probe.add_argument("--src", type=int, default=0)
    probe.add_argument("--dst", type=int, default=15)
    probe.add_argument("--ttl", type=_positive_int, default=12)
    probe.add_argument("--trials", type=_positive_int, default=100)
    probe.add_argument("--seed", type=int, default=0)
    probe.add_argument(
        "--target",
        type=_positive_probability,
        default=None,
        help="also search the minimum TTL for this delivery probability",
    )
    _fault_flags(probe)
    _add_check(probe, _check_probe_tiles)
    probe.set_defaults(handler=cmd_probe)

    mp3 = subparsers.add_parser(
        "mp3",
        help="run the Fig 4-7 parallel encoder under faults",
        parents=[backend],
    )
    mp3.add_argument("--frames", type=_positive_int, default=6)
    mp3.add_argument("--granule", type=_positive_int, default=288)
    mp3.add_argument("--bitrate", type=int, default=192_000)
    mp3.add_argument("--p", type=_probability, default=0.5)
    mp3.add_argument("--max-rounds", type=_positive_int, default=2000)
    mp3.add_argument("--seed", type=int, default=0)
    _fault_flags(mp3)
    mp3.set_defaults(handler=cmd_mp3)

    figure = subparsers.add_parser(
        "figure",
        help="regenerate one thesis figure's data",
        parents=[execution, backend, metrics_out],
    )
    figure.add_argument("name", choices=FIGURES)
    figure.set_defaults(handler=cmd_figure)

    profile = subparsers.add_parser(
        "profile",
        help="time the engine's per-round phases on a broadcast workload",
        parents=[backend],
    )
    _topology_flags(profile, side=8)
    profile.add_argument("--rounds", type=_positive_int, default=64)
    profile.add_argument("--repetitions", type=_positive_int, default=3)
    profile.add_argument("--seed", type=int, default=0)
    _fault_flags(profile)
    profile.set_defaults(handler=cmd_profile)

    chaos = subparsers.add_parser(
        "chaos",
        help="dynamic-fault degradation report (repro.faults.scenarios)",
        parents=[execution, backend, metrics_out],
    )
    _chaos_grid_flags(
        chaos,
        "sweep",
        "mean final coverage a cell must sustain to count as tolerated "
        "(default: 0.99)",
        repetitions=3,
    )
    chaos.set_defaults(handler=cmd_chaos)

    certify = subparsers.add_parser(
        "certify",
        help="certify the chaos tolerance envelope by sequential testing "
        "(repro.stats)",
        parents=[execution, backend],
    )
    _chaos_grid_flags(
        certify,
        "certify",
        "per-run coverage bar of the certified claim (default: 0.99)",
    )
    _claim_flags(
        certify,
        "claimed per-run success probability",
        batch_size=8,
        batch_help="replicates per sweep batch — throughput plumbing only, "
        "never changes the verdict",
        max_replicates=64,
    )
    certify.set_defaults(handler=cmd_certify)

    chaos_service = subparsers.add_parser(
        "chaos-service",
        help="attack the execution layer itself — SIGKILL workers, hang "
        "tasks, corrupt payloads — and certify the service's tolerance "
        "envelope (repro.service.chaos)",
        parents=[backend],
    )
    fleet = chaos_service.add_argument_group("execution")
    fleet.add_argument(
        "--workers",
        type=_positive_int,
        default=4,
        metavar="N",
        help="size of the worker fleet each replicate campaign attacks "
        "(default: 4)",
    )
    fleet.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=5,
        metavar="N",
        help="the attacked fleet's retry budget and poison-conviction "
        "bar (default: 5; see docs/operations.md)",
    )
    fleet.add_argument(
        "--db",
        default=None,
        metavar="FILE",
        help="record each cell's certificate and replicate campaigns in "
        "this SQLite results database (created on first use)",
    )
    chaos_service.add_argument(
        "--injectors",
        nargs="+",
        choices=("worker_kill", "task_hang", "corrupt_payload"),
        default=["worker_kill", "task_hang", "corrupt_payload"],
        help="fault injectors to certify (default: all three)",
    )
    chaos_service.add_argument(
        "--levels",
        nargs="+",
        type=float,
        default=[0.0, 0.25, 0.5],
        help="injection intensity grid per injector — the fraction of a "
        "campaign's tasks planned to misbehave (default: 0 0.25 0.5)",
    )
    chaos_service.add_argument(
        "--tasks",
        type=_positive_int,
        default=6,
        help="tasks per replicate campaign (default: 6)",
    )
    chaos_service.add_argument("--side", type=_positive_int, default=3)
    chaos_service.add_argument("--p", type=_probability, default=0.75)
    chaos_service.add_argument("--seed", type=int, default=0)
    chaos_service.add_argument(
        "--max-rounds", type=_positive_int, default=24
    )
    chaos_service.add_argument(
        "--hang-s",
        type=_positive_float,
        default=2.0,
        help="hang duration of the task_hang injector; the disturbed "
        "runner's task timeout derives from it (default: 2.0)",
    )
    _claim_flags(
        chaos_service,
        "claimed P(campaign bit-identical, zero lost tasks)",
        batch_size=4,
        batch_help="replicate campaigns per certification batch",
        max_replicates=16,
    )
    chaos_service.set_defaults(handler=cmd_chaos_service)

    frontier = subparsers.add_parser(
        "frontier",
        help="paired protocol comparison: push gossip vs push-pull vs "
        "adaptive routing (repro.experiments.protocol_frontier)",
        parents=[execution, backend, metrics_out],
    )
    frontier.add_argument("--side", type=_positive_int, default=4)
    frontier.add_argument(
        "--upsets",
        nargs="+",
        type=float,
        default=[0.0, 0.2, 0.4],
        help="swept p_upset levels (default: 0.0 0.2 0.4; 0.0 is the "
        "clean baseline)",
    )
    frontier.add_argument(
        "--link-crashes",
        nargs="+",
        type=int,
        default=[4, 8],
        help="swept dead-link counts (default: 4 8)",
    )
    frontier.add_argument("--repetitions", type=_positive_int, default=5)
    frontier.add_argument("--seed", type=int, default=0)
    frontier.add_argument("--max-rounds", type=_positive_int, default=48)
    frontier.add_argument(
        "--deadline-rounds",
        type=_positive_int,
        default=None,
        help="soft real-time deadline behind the deadline-rate column "
        "(default: --max-rounds)",
    )
    frontier.add_argument(
        "--certify",
        action="store_true",
        help="additionally certify each protocol's chaos-tolerance "
        "envelope by sequential testing (repro.stats)",
    )
    frontier.add_argument(
        "--certify-kinds",
        nargs="+",
        choices=("burst_upsets", "ramp_overflow", "link_flap"),
        default=["burst_upsets"],
        help="scenario axes for --certify (default: burst_upsets)",
    )
    frontier.add_argument(
        "--certify-levels",
        nargs="+",
        type=float,
        default=[0.0, 0.5, 0.9],
        help="intensity grid for --certify (default: 0.0 0.5 0.9)",
    )
    frontier.add_argument(
        "--certify-max-rounds",
        type=_positive_int,
        default=96,
        help="per-replicate round budget for --certify (default: 96)",
    )
    frontier.add_argument(
        "--coverage-target",
        type=float,
        default=0.99,
        help="per-run coverage bar of the certified claim (default: 0.99)",
    )
    frontier.add_argument(
        "--max-replicates",
        type=_positive_int,
        default=64,
        help="per-cell replicate budget for --certify (default: 64)",
    )
    _add_check(frontier, _check_frontier_levels)
    frontier.set_defaults(handler=cmd_frontier)

    policies = subparsers.add_parser(
        "policies", help="forwarding-policy tools (repro.policies)"
    )
    policy_actions = policies.add_subparsers(dest="action", required=True)

    policies_list = policy_actions.add_parser(
        "list", help="list the registered policy kinds and their knobs"
    )
    policies_list.set_defaults(handler=cmd_policies_list)

    compare = policy_actions.add_parser(
        "compare",
        help="run the four-policy fault sweep (upsets, overflows, "
        "link crashes) and print the comparison table",
        parents=[execution, backend],
    )
    compare.add_argument("--side", type=_positive_int, default=4)
    compare.add_argument("--repetitions", type=_positive_int, default=5)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--max-rounds", type=_positive_int, default=48)
    compare.set_defaults(handler=cmd_policies_compare)

    db = subparsers.add_parser(
        "db",
        help="inspect a results database (repro.service.ResultsDB)",
    )
    db_actions = db.add_subparsers(dest="action", required=True)

    db_query = db_actions.add_parser(
        "query",
        help="run a read-only SQL statement and print the rows",
    )
    db_query.add_argument("database", help="path to the results database")
    db_query.add_argument(
        "sql", help="a SELECT/WITH/VALUES/PRAGMA/EXPLAIN statement"
    )
    db_query.add_argument(
        "--format",
        choices=("jsonl", "json", "csv"),
        default="jsonl",
        help="row output format (default: one JSON object per line)",
    )
    db_query.set_defaults(handler=cmd_db_query)

    db_export = db_actions.add_parser(
        "export",
        help="dump one table as JSON lines or CSV (blobs elided)",
    )
    db_export.add_argument("database", help="path to the results database")
    db_export.add_argument(
        "--table",
        choices=("runs", "configs", "tasks", "round_metrics",
                 "scenario_drops", "certificates"),
        default="tasks",
    )
    db_export.add_argument("--format", choices=("json", "csv"),
                           default="json")
    db_export.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write to FILE instead of stdout",
    )
    db_export.set_defaults(handler=cmd_db_export)

    db_gc = db_actions.add_parser(
        "gc",
        help="prune old campaigns (and their tasks/metrics), then VACUUM",
    )
    db_gc.add_argument("database", help="path to the results database")
    db_gc.add_argument(
        "--keep-runs",
        type=int,
        required=True,
        metavar="N",
        help="keep only the N most recent runs",
    )
    db_gc.set_defaults(handler=cmd_db_gc)

    return parser


def command_names() -> list[str]:
    """The top-level subcommands, read off :func:`build_parser`."""
    return [
        name
        for action in build_parser()._subparsers._group_actions
        for name in action.choices
    ]


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for check in getattr(args, "checks", ()):
        check(args)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
