"""The seven workloads, each measured from outside the program.

A workload is built once per child process (that is ``setup_s``), then
asked for iterations.  One iteration runs a fixed list of *ops* and
reports its wall-clock, its CPU time, one digest per op and how many
ops failed; with tracing on it also reports the per-layer numbers the
trace of that iteration gives.  ``reference()`` recomputes the op
digests a slower, independent way; ``probes()`` measures layer costs
that no iteration isolates.  `BENCHMARK.json` carries the one-line
reason for each workload; `README.md` the long one.
"""

from __future__ import annotations

import asyncio
import math
import os
import resource
import shutil
import subprocess
import sys
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import cells
from repro import SimConfig
from repro.metrics import MetricsCollector, PhaseProfiler
from repro.policies import PushPullPolicy
from repro.runners import PoisonedTask, SimTask, SweepRunner, spawn_seeds
from repro.service import JobQueue, ResultsDB
from spans import Timed, TracedRunner, Tracer

N_CELLS = 500
CELL_ROUNDS = 64
POOL_WORKERS = 2
DB_METHODS = ("begin_run", "record_task", "finish_run")


def _cpu_s() -> float:
    """User + system CPU of this process and its waited-for descendants."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage,
                         (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def best_of(call, repeats: int = 3) -> float:
    """Minimum wall-clock of `repeats` calls."""
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        call()
        best = min(best, perf_counter() - start)
    return best


class Workload:
    """Common iteration bookkeeping; subclasses provide ``_ops``."""

    #: Key of this workload's pinned digests in ``expected.json``.
    pins_key: str
    #: One label per op of an iteration, in execution order.
    labels: list[str]
    #: Do the pinned digests hold for every ``--seed``?
    seed_free = False

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self._dirs = 0

    def fresh_dir(self) -> Path:
        """A new empty directory under this run's scratch space."""
        self._dirs += 1
        path = self.scratch / f"d{self._dirs}"
        path.mkdir(parents=True)
        return path

    @contextmanager
    def timed(self, tracer: Tracer, reply: dict):
        """The measured region of one iteration: wall, CPU, root span."""
        cpu = _cpu_s()
        start = perf_counter()
        try:
            with tracer.span("bench.iteration"):
                yield
        finally:
            reply["wall_s"] = perf_counter() - start
            reply["cpu_s"] = _cpu_s() - cpu

    def iterate(self, tracer: Tracer) -> dict:
        """Run one iteration; see the module docstring for the reply."""
        reply: dict = {"errors": [], "layers": {}}
        try:
            digests = self._ops(tracer, reply)
        except Exception as error:  # noqa: BLE001 - every op of it failed
            digests = [None] * len(self.labels)
            reply["errors"].append(repr(error))
        reply["digests"] = digests
        reply["failed"] = sum(d is None for d in digests)
        if tracer.enabled:
            own = sum(s for name, s in tracer.self_times().items()
                      if name.startswith("bench."))
            reply["layers"]["bench.attributed_share"] = (
                1 - own / reply["wall_s"]
            )
        return reply

    def _ops(self, tracer: Tracer, reply: dict) -> list[str | None]:
        """Run the ops inside ``self.timed``; a failed op's digest is None."""
        raise NotImplementedError

    def reference(self) -> list[str | None]:
        """Independently recomputed op digests (None = not checked)."""
        return [None] * len(self.labels)

    def probes(self) -> dict[str, float]:
        """Layer costs measured outside the iterations (traced runs only)."""
        return {}


# ------------------------------------------------------------------ engines


@dataclass(frozen=True)
class EngineOp:
    """One engine run: a config, its rumor sources and its seed."""

    label: str
    config: SimConfig
    sources: tuple[int, ...]
    seed: int
    #: Rounds to recompute on the object engine in ``reference()``.
    cross_check: int = 0


class EngineWorkload(Workload):
    """Construct + run each op's simulator for its full round budget.

    Runs are a fixed number of rounds, a little more than the slowest
    saturation seen, so simulated work — and with it host time — is
    nearly the same for every ``--seed``; an op still fails unless every
    tile was informed by the end.
    """

    #: Also report ``us_per_transmission`` of each op under its label?
    per_op = False

    def __init__(self, scratch: Path, ops: list[EngineOp]) -> None:
        super().__init__(scratch)
        self.ops = ops
        self.labels = [op.label for op in ops]
        self.layer = f"noc.{ops[0].config.backend}"

    def _run_op(self, op: EngineOp, tracer: Tracer, stats: dict) -> str:
        layer = self.layer
        profiler = PhaseProfiler() if tracer.enabled else None
        with tracer.span(f"{layer}.construct"):
            simulator = cells.build(
                op.config, op.sources, op.seed, profiler=profiler
            )
        with tracer.span(f"{layer}.run") as span:
            result = cells.run(
                simulator, op.config.default_ttl, saturate=False
            )
        if span is not None:
            for phase, seconds in profiler.totals_s.items():
                tracer.add(f"{layer}.{phase}", seconds, span)
            stats[op.label] = (
                span["dur_s"], result.rounds,
                result.stats.transmissions_attempted,
            )
        n_tiles = op.config.topology.n_tiles
        if len(simulator.informed_tiles()) != n_tiles:
            raise RuntimeError(f"{op.label}: broadcast did not saturate")
        return cells.digest(cells.result_form(result))

    def _ops(self, tracer, reply):
        digests: list[str | None] = []
        stats: dict[str, tuple] = {}
        op_walls = []
        with self.timed(tracer, reply):
            for op in self.ops:
                start = perf_counter()
                with tracer.span("bench.op"):
                    try:
                        digests.append(self._run_op(op, tracer, stats))
                    except Exception as error:  # noqa: BLE001 - a failed op
                        digests.append(None)
                        reply["errors"].append(f"{op.label}: {error!r}")
                op_walls.append(perf_counter() - start)
        reply["op_walls"] = op_walls
        if tracer.enabled:
            reply["layers"].update(self._layers(tracer, stats))
        return digests

    def _layers(self, tracer: Tracer, stats: dict) -> dict[str, float]:
        total, _ = tracer.totals()
        layer = self.layer
        layers = {
            f"{name}_s": seconds for name, seconds in total.items()
            if name.startswith(layer)
        }
        transmissions = sum(tx for _, _, tx in stats.values())
        layers[f"{layer}.rounds"] = sum(r for _, r, _ in stats.values())
        layers[f"{layer}.transmissions"] = transmissions
        layers[f"{layer}.us_per_transmission"] = (
            total[f"{layer}.run"] / transmissions * 1e6
        )
        if self.per_op:
            for label, (run_s, _, tx) in stats.items():
                layers[f"{layer}.{label}.us_per_transmission"] = (
                    run_s / tx * 1e6
                )
        return layers

    def reference(self):
        """The same ops on the object engine, for `cross_check` rounds.

        A full-length check yields the digest the op must have.  A
        shorter one compares both engines on that prefix of the run and
        yields a message no digest equals if they differ.
        """
        def prefix(op: EngineOp, backend: str) -> str:
            simulator = cells.build(
                op.config.with_(backend=backend), op.sources, op.seed
            )
            result = cells.run(simulator, op.cross_check, saturate=False)
            return cells.digest(cells.result_form(result))

        digests: list[str | None] = []
        for op in self.ops:
            if not op.cross_check:
                digests.append(None)
            elif op.cross_check == op.config.default_ttl:
                digests.append(prefix(op, "object"))
            elif prefix(op, "object") == prefix(op, op.config.backend):
                digests.append(None)
            else:
                digests.append(f"engines differ within {op.cross_check} "
                               "rounds")
        return digests


class FastClean(EngineWorkload):
    """4 fault-free 64x64 broadcasts on the fast backend."""

    pins_key = "fast_clean"

    def __init__(self, seed: int, scratch: Path) -> None:
        config = cells.mesh_config(64, 160, "fast")
        # The object engine needs ~6 s for one full run, so seeds with no
        # pinned digest cross-check the first 32 rounds (~0.4 s) instead.
        super().__init__(scratch, [
            EngineOp(f"clean{i}", config, (0,), s, cross_check=32)
            for i, s in enumerate(spawn_seeds(seed, 4))
        ])

    def probes(self):
        """Observer and profiler cost on this workload's first op."""
        op = self.ops[0]

        def one(**hooks):
            simulator = cells.build(op.config, op.sources, op.seed, **hooks)
            cells.run(simulator, op.config.default_ttl, saturate=False)

        plain = best_of(one)
        return {
            # With an observer the fast backend replays every event, ~10x
            # the op: one repeat is all the run's time budget affords.
            "metrics.collector.overhead_share":
                best_of(lambda: one(observer=MetricsCollector()), 1) / plain
                - 1,
            "metrics.profiler.overhead_share":
                best_of(lambda: one(profiler=PhaseProfiler())) / plain - 1,
        }


class FastFaulty(EngineWorkload):
    """The fast backend's three fallback paths, one op each, at 24x24."""

    pins_key = "fast_faulty"
    per_op = True

    def __init__(self, seed: int, scratch: Path) -> None:
        seeds = spawn_seeds(seed, 3)
        super().__init__(scratch, [
            EngineOp("upset", cells.mesh_config(24, 72, "fast", p_upset=0.1),
                     (0,), seeds[0], cross_check=72),
            EngineOp("bounded",
                     cells.mesh_config(24, 40, "fast", buffer_capacity=4),
                     tuple(range(0, 576, 36)), seeds[1], cross_check=40),
            EngineOp("pushpull",
                     cells.mesh_config(24, 64, "fast",
                                       protocol=PushPullPolicy()),
                     (0,), seeds[2], cross_check=64),
        ])


class ObjectGals(EngineWorkload):
    """4 16x16 broadcasts under sync errors on the object engine."""

    pins_key = "object_gals"

    def __init__(self, seed: int, scratch: Path) -> None:
        config = cells.mesh_config(
            16, 64, "object", p_upset=0.05, sigma_synchr=0.1
        )
        super().__init__(scratch, [
            EngineOp(f"gals{i}", config, (0,), s)
            for i, s in enumerate(spawn_seeds(seed, 4))
        ])


# ---------------------------------------------------------------- campaigns


async def _through_queue(runner: SweepRunner, tasks: list[SimTask]) -> list:
    async with JobQueue(runner) as queue:
        job_id = await queue.submit(tasks, label="bench")
        return await queue.result(job_id)


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Campaign(Workload):
    """500 tiny broadcast cells; subclasses differ in how they are run."""

    pins_key = "campaign"
    passes = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(scratch)
        config = cells.mesh_config(4, CELL_ROUNDS, "fast")
        self.tasks = [
            SimTask.call(cells.broadcast_cell, config=config,
                         max_rounds=CELL_ROUNDS, seed=s)
            for s in spawn_seeds(seed, N_CELLS)
        ]
        self.labels = [f"cell{i:03d}" for i in range(N_CELLS)] * self.passes
        self._direct: list[str] | None = None

    def make_runner(self, tracer: Tracer, db_path: Path | None = None,
                    **kwargs) -> tuple[SweepRunner, ResultsDB | None]:
        """A runner (and its DB), with timing proxies when tracing."""
        db = None
        if db_path is not None:
            with tracer.span("service.db.open"):
                db = ResultsDB(db_path)
        if not tracer.enabled:
            return SweepRunner(db=db, **kwargs), db
        proxy = None if db is None else Timed(
            db, tracer, "service.db", DB_METHODS
        )
        runner = TracedRunner(tracer, db=proxy, **kwargs)
        if runner.cache is not None:
            runner.cache = Timed(
                runner.cache, tracer, "runners.cache", ("lookup", "put")
            )
        return runner, db

    def check(self, runner: SweepRunner, results: list, db: ResultsDB | None,
              *, executed: int, source: str) -> list[str | None]:
        """Structural checks of one pass; returns its per-cell digests."""
        problems = []
        if runner.tasks_executed != executed:
            problems.append(f"{runner.tasks_executed} simulations executed, "
                            f"expected {executed}")
        if runner.cache is not None and (
            runner.cache_hits != N_CELLS - executed
        ):
            problems.append(f"{runner.cache_hits} cache hits")
        if runner.tasks_retried or runner.pool_rebuilds or (
            runner.tasks_poisoned
        ):
            problems.append("tasks were retried, rebuilt or poisoned")
        if db is not None:
            rows = db.query(
                "SELECT count(*) AS n FROM tasks WHERE source = ?", (source,)
            )[0]["n"]
            if rows != N_CELLS:
                problems.append(f"{rows} {source} task rows in the DB")
        if len(results) != N_CELLS:
            problems.append(f"{len(results)} results")
        if problems:
            raise RuntimeError("; ".join(problems))
        return [
            None if value is None or isinstance(value, PoisonedTask)
            else cells.cell_digest(value)
            for value in results
        ]

    def _layers(self, tracer: Tracer, runner: TracedRunner,
                dbs: list[ResultsDB], work: Path) -> dict:
        """Per-layer numbers of the traced iteration that just finished.

        Spans cover every pass of the iteration; the counters are those
        of `runner`, the last pass (all passes do the same work).
        """
        total, calls = tracer.totals()
        self_s = tracer.self_times()
        serial = runner.n_workers == 1
        layers = {
            "runners.retried": runner.tasks_retried,
            "runners.pool_rebuilds": runner.pool_rebuilds,
            "runners.poisoned": runner.tasks_poisoned,
            "runners.runner.task_exec_s": sum(runner.durations)
            if serial else 0.0,
            "runners.runner.self_s": self_s.get("runners.runner.run", 0.0),
        }
        if "service.jobs.campaign" in total:
            # JobQueue's own time: its span minus the chunks' run() calls
            # and the begin/finish_run it issues itself.
            layers["service.jobs.overhead_s"] = (
                self_s["service.jobs.campaign"]
            )
            layers["service.jobs.chunks"] = calls["runners.runner.run"]
        if runner.cache is not None:
            entries = sum(1 for _ in runner.cache.keys())
            layers["runners.cache.hit_ratio"] = runner.cache_hits / N_CELLS
            layers["runners.cache.bytes_per_entry"] = (
                _tree_bytes(runner.cache.root) / entries
            )
            for method in ("lookup", "put"):
                name = f"runners.cache.{method}"
                if calls.get(name):
                    layers[f"{name}_us"] = total[name] / calls[name] * 1e6
        if dbs:
            busy = sum(total[f"service.db.{m}"] for m in DB_METHODS)
            rows = sum(
                db.query(f"SELECT count(*) AS n FROM {table}")[0]["n"]
                for db in dbs
                for table in ("runs", "configs", "tasks", "round_metrics",
                              "scenario_drops")
            )
            recorded = calls["service.db.record_task"]
            layers.update({
                "service.db.record_task_us":
                    total["service.db.record_task"] / recorded * 1e6,
                "service.db.begin_finish_s": total["service.db.begin_run"]
                    + total["service.db.finish_run"],
                "service.db.rows_per_s": rows / busy,
                "service.db.bytes_per_task":
                    _tree_bytes(work / "db") / recorded,
                "service.db.lock_retries":
                    sum(db.lock_retries_used for db in dbs),
            })
        return layers

    def direct(self) -> list[str]:
        """Every cell's digest from calling the cell function directly."""
        if self._direct is None:
            self._direct = [
                cells.cell_digest(task.execute()) for task in self.tasks
            ]
        return self._direct

    def reference(self):
        """The cells called directly, bypassing runner, cache, pool, DB."""
        return self.direct() * self.passes

    def probes(self):
        """Key hashing and the runner's cost of a task that does nothing."""
        tasks = self.tasks
        noops = [SimTask.call(cells.noop, seed=i) for i in range(2000)]
        return {
            "runners.hashing.key_us": best_of(
                lambda: [task.cache_key() for task in tasks]
            ) / N_CELLS * 1e6,
            "runners.runner.noop_task_us": best_of(
                lambda: SweepRunner().run(noops)
            ) / len(noops) * 1e6,
        }

    def engine_probe(self) -> dict[str, float]:
        """The engine's share of the cells: each one built and run here."""
        construct = run = 0.0
        rounds = transmissions = 0
        for task in self.tasks:
            start = perf_counter()
            simulator = cells.build(task.params["config"], (0,), task.seed,
                                    observer=MetricsCollector())
            built = perf_counter()
            result = cells.run(simulator, CELL_ROUNDS, saturate=True)
            run += perf_counter() - built
            construct += built - start
            rounds += result.rounds
            transmissions += result.stats.transmissions_attempted
        return {
            "noc.fast.construct_s": construct,
            "noc.fast.run_s": run,
            "noc.fast.rounds": rounds,
            "noc.fast.transmissions": transmissions,
            "noc.fast.us_per_transmission": run / transmissions * 1e6,
        }


class CampaignCold(Campaign):
    """The cells through JobQueue on an empty cache and an empty DB."""

    def _ops(self, tracer, reply):
        work = self.fresh_dir()
        try:
            with self.timed(tracer, reply):
                runner, db = self.make_runner(
                    tracer, work / "db" / "results.db",
                    cache_dir=str(work / "cache"),
                )
                with tracer.span("service.jobs.campaign"):
                    results = asyncio.run(_through_queue(runner, self.tasks))
            try:
                digests = self.check(runner, results, db, executed=N_CELLS,
                                     source="executed")
                if tracer.enabled:
                    reply["op_walls"] = runner.durations
                    reply["layers"].update(
                        self._layers(tracer, runner, [db], work)
                    )
            finally:
                db.close()
            return digests
        finally:
            shutil.rmtree(work)

    def probes(self):
        """Adds the engine's share of the cells."""
        return {**super().probes(), **self.engine_probe()}


class CampaignWarm(Campaign):
    """Two passes over a cache filled in setup: 0 simulations, all reads."""

    passes = 2

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.cache_dir = str(self.fresh_dir())
        filled = SweepRunner(cache_dir=self.cache_dir).run(self.tasks)
        self._direct = [cells.cell_digest(value) for value in filled]

    def _ops(self, tracer, reply):
        work = self.fresh_dir()
        try:
            passes = []
            op_walls = []
            with self.timed(tracer, reply):
                for index in range(self.passes):
                    start = perf_counter()
                    runner, db = self.make_runner(
                        tracer, work / "db" / f"results{index}.db",
                        cache_dir=self.cache_dir,
                    )
                    passes.append((runner, runner.run(self.tasks), db))
                    op_walls.append(perf_counter() - start)
            # No cell executes, so the smallest timed unit is a pass.
            reply["op_walls"] = op_walls
            try:
                digests = []
                for runner, results, db in passes:
                    digests += self.check(runner, results, db, executed=0,
                                          source="cache")
                if tracer.enabled:
                    reply["layers"].update(self._layers(
                        tracer, runner, [db for _, _, db in passes], work
                    ))
            finally:
                for _, _, db in passes:
                    db.close()
            return digests
        finally:
            shutil.rmtree(work)


class CampaignPool(Campaign):
    """The cells on a 2-worker pool, pool start included; no cache, no DB."""

    def _ops(self, tracer, reply):
        with self.timed(tracer, reply):
            runner, _ = self.make_runner(tracer, n_workers=POOL_WORKERS)
            results = runner.run(self.tasks)
        digests = self.check(runner, results, None, executed=N_CELLS,
                             source="executed")
        if tracer.enabled:
            layers = self._layers(tracer, runner, [], self.scratch)
            layers["runners.supervisor.first_result_s"] = runner.first_s
            self._pool_wall_s = reply["wall_s"]
            reply["op_walls"] = runner.durations
            reply["layers"].update(layers)
        return digests

    def probes(self):
        """Pool round trip of a no-op, and T1 / (workers x Tpool)."""
        probes = {**super().probes(), **self.engine_probe()}

        def pooled(n: int) -> float:
            noops = [SimTask.call(cells.noop, seed=i) for i in range(n)]
            return best_of(
                lambda: SweepRunner(n_workers=POOL_WORKERS).run(noops), 2
            )

        # The difference of two batch sizes cancels the pool start.
        probes["runners.supervisor.noop_roundtrip_us"] = (
            (pooled(1064) - pooled(64)) / 1000 * 1e6
        )
        serial_s = probes["noc.fast.construct_s"] + probes["noc.fast.run_s"]
        probes["runners.supervisor.parallel_efficiency"] = serial_s / (
            POOL_WORKERS * self._pool_wall_s
        )
        return probes


# ---------------------------------------------------------------------- CLI


class CliSuite(Workload):
    """Four `python -m repro` invocations, each a fresh process.

    The commands are what a user types, at their defaults, so this
    workload's inputs do not depend on ``--seed``.
    """

    pins_key = "cli_suite"
    labels = ["help", "fig4_4", "frontier", "certify"]
    seed_free = True

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(scratch)

    def argv(self, label: str, db: Path) -> list[str]:
        """The command line of one op."""
        return {
            "help": ["--help"],
            "fig4_4": ["figure", "fig4_4"],
            "frontier": ["frontier", "--backend", "fast"],
            "certify": ["certify", "--db", str(db)],
        }[label]

    def _invoke(self, label: str, db: Path) -> str:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *self.argv(label, db)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"exit {done.returncode}: {done.stderr[-300:]}")
        if label == "certify" and "certified thresholds" not in done.stdout:
            raise RuntimeError("certify printed no thresholds")
        return cells.digest(done.stdout.replace(str(db), "<db>"))

    def _ops(self, tracer, reply):
        work = self.fresh_dir()
        db = work / "certify.db"
        try:
            digests: list[str | None] = []
            op_walls = []
            with self.timed(tracer, reply):
                for label in self.labels:
                    start = perf_counter()
                    with tracer.span(f"cli.{label}"):
                        try:
                            digests.append(self._invoke(label, db))
                        except (RuntimeError, OSError) as error:
                            digests.append(None)
                            reply["errors"].append(f"{label}: {error}")
                    op_walls.append(perf_counter() - start)
            reply["op_walls"] = op_walls
            if tracer.enabled:
                with ResultsDB(db) as store:
                    certificates = store.certificates()
                layers = dict(zip(
                    ("cli.cold_start_s", "cli.fig4_4_s", "cli.frontier_s",
                     "cli.certify_s"), op_walls,
                ))
                layers["cli.cpu_over_wall"] = reply["cpu_s"] / reply["wall_s"]
                layers["stats.certify.cells"] = len(certificates)
                layers["stats.certify.replicates"] = sum(
                    row["n_observed"] for row in certificates
                )
                reply["layers"].update(layers)
            return digests
        finally:
            shutil.rmtree(work)

    def probes(self):
        """Import alone, and each harness in-process through `cli.main`."""
        from repro.cli import main

        probes = {"cli.import_s": best_of(lambda: subprocess.run(
            [sys.executable, "-c", "import repro.cli"], check=True,
        ))}
        work = self.fresh_dir()
        try:
            with open(os.devnull, "w") as sink, redirect_stdout(sink):
                for label in self.labels[1:]:
                    start = perf_counter()
                    main(self.argv(label, work / "inproc.db"))
                    probes[f"experiments.{label}.inproc_s"] = (
                        perf_counter() - start
                    )
        finally:
            shutil.rmtree(work)
        return probes


WORKLOADS = {
    "fast_clean": FastClean,
    "fast_faulty": FastFaulty,
    "object_gals": ObjectGals,
    "campaign_cold": CampaignCold,
    "campaign_warm": CampaignWarm,
    "campaign_pool": CampaignPool,
    "cli_suite": CliSuite,
}
