"""Tests for repro.service's ResultsDB SQLite store."""

from __future__ import annotations

import json
import pickle
import sqlite3
import sys
import threading

import pytest

from repro.core.protocol import StochasticProtocol
from repro.core.theory import simulate_rumor_spread
from repro.metrics import MetricsCollector
from repro.noc.config import SimConfig
from repro.noc.engine import NocSimulator
from repro.noc.topology import Mesh2D
from repro.runners import SimTask, SweepRunner
from repro.service import SCHEMA_VERSION, ResultsDB, as_results_db
from repro.service.schema import MIGRATIONS, migrate, schema_version


def _spread_task(n=16, seed=3, **extra):
    return SimTask.call(simulate_rumor_spread, n=n, seed=seed, **extra)


def _config_task(p=0.5, seed=0):
    config = SimConfig(Mesh2D(3, 3), StochasticProtocol(p))
    return SimTask(fn="m:f", params={"config": config}, seed=seed)


def _metrics_cell(config: SimConfig, seed: int) -> tuple:
    """Task function: one 8-round broadcast and its ``RunMetrics``."""
    from repro.experiments.grid_spread import _BroadcastSeed

    collector = MetricsCollector()
    simulator = NocSimulator.from_config(config, seed=seed, observer=collector)
    simulator.mount(0, _BroadcastSeed(ttl=16))
    result = simulator.run(8)
    return result.completed, result.rounds, collector.metrics()


def _metrics_tasks(n=3):
    config = SimConfig(Mesh2D(3, 3), StochasticProtocol(0.75))
    return [
        SimTask.call(_metrics_cell, config=config, seed=seed)
        for seed in range(n)
    ]


def _count(db, table):
    return db.query(f"SELECT COUNT(*) AS n FROM {table}")[0]["n"]


@pytest.fixture
def db(tmp_path):
    with ResultsDB(tmp_path / "results.db") as store:
        yield store


class TestSchema:
    def test_fresh_database_is_stamped_current(self, db):
        assert db.schema_version == SCHEMA_VERSION
        assert db.query("PRAGMA user_version")[0]["user_version"] == (
            SCHEMA_VERSION
        )

    def test_migrate_from_empty_applies_every_script(self):
        connection = sqlite3.connect(":memory:")
        assert schema_version(connection) == 0
        assert migrate(connection) == len(MIGRATIONS)
        assert schema_version(connection) == SCHEMA_VERSION
        tables = {
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert {
            "runs", "configs", "tasks", "round_metrics", "scenario_drops",
            "certificates",
        } <= tables

    def test_migrate_is_idempotent(self, db):
        connection = sqlite3.connect(db.path)
        assert migrate(connection) == 0
        connection.close()

    def test_v1_database_upgrades_in_place_preserving_rows(self, tmp_path):
        path = tmp_path / "v1.db"
        connection = sqlite3.connect(path)
        connection.executescript(MIGRATIONS[0])
        connection.execute("PRAGMA user_version = 1")
        connection.execute(
            "INSERT INTO runs (label, status, n_tasks, started_at) "
            "VALUES ('legacy', 'completed', 1, 1.0)"
        )
        connection.execute(
            "INSERT INTO tasks (run_id, task_index, cache_key, fn, "
            "params_json, source, result_pickle, created_at) "
            "VALUES (1, 0, 'k', 'm:f', '{}', 'executed', x'00', 1.0)"
        )
        connection.commit()
        connection.close()
        with ResultsDB(path) as store:
            assert store.schema_version == SCHEMA_VERSION
            assert [run["label"] for run in store.runs()] == ["legacy"]
            assert store.query("SELECT COUNT(*) AS n FROM tasks")[0]["n"] == 1
            assert store.certificates() == []

    def test_v2_database_upgrades_adding_status_and_interrupted(
        self, tmp_path
    ):
        """v2 -> v3: tasks grow a status column (backfilled 'ok') and the
        recreated runs table accepts 'interrupted' with FKs intact."""
        path = tmp_path / "v2.db"
        connection = sqlite3.connect(path)
        connection.executescript(MIGRATIONS[0])
        connection.executescript(MIGRATIONS[1])
        connection.execute("PRAGMA user_version = 2")
        connection.execute(
            "INSERT INTO runs (label, status, n_tasks, started_at) "
            "VALUES ('legacy', 'completed', 1, 1.0)"
        )
        connection.execute(
            "INSERT INTO tasks (run_id, task_index, cache_key, fn, "
            "params_json, source, result_pickle, created_at) "
            "VALUES (1, 0, 'k', 'm:f', '{}', 'executed', x'00', 1.0)"
        )
        connection.commit()
        connection.close()
        with ResultsDB(path) as store:
            assert store.schema_version == SCHEMA_VERSION
            rows = store.query("SELECT status FROM tasks")
            assert [row["status"] for row in rows] == ["ok"]
            run_id = store.begin_run("cut-short")
            store.finish_run(run_id, status="interrupted")
            statuses = {run["status"] for run in store.runs()}
            assert {"completed", "interrupted"} <= statuses
            # The runs recreate kept the tasks -> runs cascade alive.
            assert store.gc(keep_runs=0) == 2
            assert (
                store.query("SELECT COUNT(*) AS n FROM tasks")[0]["n"] == 0
            )

    def test_poisoned_task_status_is_recorded(self, db):
        task = _spread_task(n=8, seed=1)
        run_id = db.begin_run("quarantine")
        db.record_task(run_id, 0, task, task.execute())
        db.record_task(run_id, 1, task, {"reason": "crashed"},
                       status="poisoned")
        rows = db.query("SELECT status FROM tasks ORDER BY task_index")
        assert [row["status"] for row in rows] == ["ok", "poisoned"]
        with pytest.raises(sqlite3.IntegrityError):
            db.record_task(run_id, 2, task, 1, status="exploded")

    def test_newer_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "future.db"
        connection = sqlite3.connect(path)
        connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        connection.close()
        with pytest.raises(RuntimeError, match="newer than this release"):
            ResultsDB(path)

    def test_wal_journal_mode_on_disk(self, db):
        assert db.query("PRAGMA journal_mode")[0]["journal_mode"] == "wal"


class TestRecording:
    def test_roundtrip_is_bit_identical(self, db):
        task = _spread_task(n=32, seed=9)
        value = task.execute()
        run_id = db.begin_run("roundtrip", n_tasks=1)
        db.record_task(run_id, 0, task, value)
        db.finish_run(run_id)
        (loaded,) = db.results_for_run(run_id)
        assert pickle.dumps(loaded) == pickle.dumps(value)
        assert db.result_for(task.cache_key()) == value

    def test_results_come_back_in_task_order(self, db):
        tasks = [_spread_task(n=n, seed=1) for n in (8, 64, 16)]
        run_id = db.begin_run(n_tasks=3)
        # Record out of order; task_index must drive the read order.
        for index in (2, 0, 1):
            db.record_task(run_id, index, tasks[index], tasks[index].execute())
        results = db.results_for_run(run_id)
        assert [r[-1] for r in results] == [8, 64, 16]

    def test_uint64_seed_survives_as_text(self, db):
        seed = 2**63 + 12345  # exceeds SQLite's signed INTEGER range
        task = SimTask.call(simulate_rumor_spread, n=8, rounds=2, seed=seed)
        run_id = db.begin_run()
        db.record_task(run_id, 0, task, task.execute())
        row = db.query("SELECT seed FROM tasks")[0]
        assert row["seed"] == str(seed)
        assert int(row["seed"]) == seed

    def test_unknown_cache_key_raises(self, db):
        with pytest.raises(KeyError):
            db.result_for("no-such-key")

    def test_config_provenance_is_interned_once(self, db):
        run_id = db.begin_run()
        db.record_task(run_id, 0, _config_task(seed=0), 1)
        db.record_task(run_id, 1, _config_task(seed=1), 2)
        db.record_task(run_id, 2, _config_task(p=0.75, seed=0), 3)
        configs = db.query("SELECT * FROM configs ORDER BY first_seen")
        assert len(configs) == 2  # same config interned, 0.75 separate
        described = json.loads(configs[0]["describe_json"])
        assert described[1][:2] == ["StochasticProtocol", 0.5]
        tokens = db.query("SELECT DISTINCT config_token FROM tasks")
        assert len(tokens) == 2

    def test_run_metrics_fan_out_into_round_rows(self, db):
        collector = MetricsCollector()
        simulator = NocSimulator(
            Mesh2D(3, 3),
            StochasticProtocol(0.75),
            seed=1,
            default_ttl=16,
            observer=collector,
        )
        from repro.experiments.grid_spread import _BroadcastSeed

        simulator.mount(0, _BroadcastSeed(ttl=16))
        simulator.run(8)
        metrics = collector.metrics()
        task = _spread_task()
        run_id = db.begin_run()
        db.record_task(run_id, 0, task, (True, 8, metrics))
        rows = db.query(
            "SELECT round_index, informed_tiles FROM round_metrics "
            "ORDER BY round_index"
        )
        assert len(rows) == len(metrics.samples)
        assert [row["round_index"] for row in rows] == [
            sample.round_index for sample in metrics.samples
        ]
        assert [row["informed_tiles"] for row in rows] == [
            sample.informed_tiles for sample in metrics.samples
        ]


class TestQueryGuard:
    def test_reads_are_allowed(self, db):
        assert db.query("SELECT 1 AS one") == [{"one": 1}]
        assert db.query("WITH t(x) AS (VALUES (2)) SELECT x FROM t") == [
            {"x": 2}
        ]

    @pytest.mark.parametrize(
        "sql",
        [
            "DELETE FROM tasks",
            "INSERT INTO runs (started_at) VALUES (0)",
            "UPDATE runs SET status = 'failed'",
            "DROP TABLE tasks",
            "",
        ],
    )
    def test_mutations_are_rejected(self, db, sql):
        with pytest.raises(ValueError, match="read-only"):
            db.query(sql)


class TestRunnerWriteThrough:
    def test_every_completed_task_gets_a_row(self, db, cache_dir):
        tasks = [_spread_task(n=16, seed=s) for s in range(4)]
        runner = SweepRunner(cache_dir=cache_dir, db=db, run_label="cold")
        results = runner.run(tasks)

        (run,) = db.runs()
        assert run["label"] == "cold"
        assert run["status"] == "completed"
        assert run["n_tasks"] == 4
        assert run["finished_at"] is not None
        rows = db.query("SELECT source, cache_key FROM tasks ORDER BY task_id")
        assert [row["source"] for row in rows] == ["executed"] * 4
        assert {row["cache_key"] for row in rows} == {
            task.cache_key() for task in tasks
        }
        assert db.results_for_run(run["run_id"]) == results

    def test_cache_hits_are_recorded_with_cache_source(self, db, cache_dir):
        tasks = [_spread_task(n=16, seed=s) for s in range(3)]
        SweepRunner(cache_dir=cache_dir, db=db).run(tasks)
        warm = SweepRunner(cache_dir=cache_dir, db=db)
        warm_results = warm.run(tasks)
        assert warm.tasks_executed == 0
        sources = db.query(
            "SELECT run_id, source, COUNT(*) AS n FROM tasks "
            "GROUP BY run_id, source ORDER BY run_id"
        )
        assert [(row["source"], row["n"]) for row in sources] == [
            ("executed", 3),
            ("cache", 3),
        ]
        runs = db.runs()
        assert db.results_for_run(runs[1]["run_id"]) == warm_results

    def test_sql_aggregation_matches_python(self, db):
        tasks = [_spread_task(n=n, seed=2) for n in (8, 16, 32, 64)]
        runner = SweepRunner(db=db)
        results = runner.run(tasks)
        # Final informed count per curve, straight out of result_json.
        rows = db.query(
            "SELECT json_extract(result_json, "
            "'$[' || (json_array_length(result_json) - 1) || ']') AS final "
            "FROM tasks ORDER BY task_index"
        )
        assert [row["final"] for row in rows] == [
            curve[-1] for curve in results
        ]
        (agg,) = db.query(
            "SELECT SUM(json_array_length(result_json) - 1) AS rounds "
            "FROM tasks"
        )
        assert agg["rounds"] == sum(len(curve) - 1 for curve in results)

    def test_warm_run_hashes_each_task_once(
        self, db, cache_dir, monkeypatch
    ):
        """The key the runner looks a hit up by is the key its row gets."""
        tasks = [_spread_task(n=16, seed=s) for s in range(4)]
        SweepRunner(cache_dir=cache_dir).run(tasks)
        hashed = []
        cache_key = SimTask.cache_key

        def counting(task):
            hashed.append(task)
            return cache_key(task)

        monkeypatch.setattr(SimTask, "cache_key", counting)
        warm = SweepRunner(cache_dir=cache_dir, db=db)
        warm.run(tasks)
        assert warm.cache_hits == len(tasks)
        assert hashed == tasks

    def test_warm_rows_equal_cold_rows(self, db, cache_dir):
        """Batched hit rows store the same bytes as executed rows."""
        tasks = _metrics_tasks()
        cold_run = SweepRunner(cache_dir=cache_dir, db=db)
        cold_run.run(tasks)
        warm_run = SweepRunner(cache_dir=cache_dir, db=db)
        warm_run.run(tasks)
        assert warm_run.cache_hits == len(tasks)
        cold, warm = (run["run_id"] for run in db.runs())
        assert _count(db, "configs") == 1

        def tasks_rows(run_id):
            rows = db.query(
                "SELECT * FROM tasks WHERE run_id = ? ORDER BY task_index",
                (run_id,),
            )
            for row in rows:
                for column in ("task_id", "run_id", "source", "duration_s",
                               "created_at"):
                    del row[column]
            return rows

        def fan_out_rows(table, run_id):
            rows = db.query(
                f"SELECT t.task_index, m.* FROM {table} m "  # noqa: S608
                "JOIN tasks t USING (task_id) WHERE t.run_id = ? "
                "ORDER BY 1, 3, 4, 5",
                (run_id,),
            )
            for row in rows:
                del row["task_id"]
            return rows

        assert tasks_rows(warm) == tasks_rows(cold)
        assert len(tasks_rows(cold)) == len(tasks)
        for table in ("round_metrics", "scenario_drops"):
            assert fan_out_rows(table, cold), table
            assert fan_out_rows(table, warm) == fan_out_rows(table, cold)


def _explode(metrics):
    raise RuntimeError("drops")


class TestBatch:
    def test_caught_row_failure_leaves_no_rows_of_its_own(
        self, db, monkeypatch
    ):
        """A failing row inside a batch is undone; its siblings commit."""
        from repro.metrics import RunMetrics

        ok, fails_late = _metrics_tasks(2)
        config_task = _config_task(p=0.25)
        run_id = db.begin_run()
        with db.batch():
            db.record_task(run_id, 0, ok, ok.execute())
            # Fails at the tasks insert, after interning a new config.
            with pytest.raises(sqlite3.IntegrityError):
                db.record_task(run_id, 1, config_task, 1, status="exploded")
            # Fails after its round_metrics rows were written.
            value = fails_late.execute()
            with monkeypatch.context() as patch:
                patch.setattr(RunMetrics, "drops_by_scenario", _explode)
                with pytest.raises(RuntimeError, match="drops"):
                    db.record_task(run_id, 2, fails_late, value)
            # The config the failed row interned is interned again.
            db.record_task(run_id, 3, config_task, 3)
        rows = db.query("SELECT task_id, task_index FROM tasks")
        assert [row["task_index"] for row in rows] == [0, 3]
        task_ids = {row["task_id"] for row in rows}
        for table in ("round_metrics", "scenario_drops"):
            owners = db.query(f"SELECT DISTINCT task_id FROM {table}")
            assert {row["task_id"] for row in owners} == {min(task_ids)}
        assert _count(db, "configs") == 2

    def test_escaping_exception_rolls_the_batch_back(self, db):
        task = _config_task()
        run_id = db.begin_run()
        with pytest.raises(RuntimeError, match="boom"):
            with db.batch():
                db.record_task(run_id, 0, task, 1)
                raise RuntimeError("boom")
        assert _count(db, "tasks") == 0
        assert _count(db, "configs") == 0
        # The connection is usable, and interns the same config afresh.
        db.record_task(run_id, 0, task, 1)
        assert _count(db, "configs") == 1

    def test_runner_stamps_failed_when_a_hit_callback_raises(
        self, db, cache_dir
    ):
        tasks = [_spread_task(n=8, seed=s) for s in range(4)]
        SweepRunner(cache_dir=cache_dir).run(tasks)

        def on_result(completion):
            if completion.index == 2:
                raise RuntimeError("callback")

        with pytest.raises(RuntimeError, match="callback"):
            SweepRunner(cache_dir=cache_dir, db=db).run(
                tasks, on_result=on_result
            )
        (run,) = db.runs()
        assert run["status"] == "failed"
        assert _count(db, "tasks") == 0


class TestConcurrentWriters:
    def test_threads_share_one_store_through_batches(self, db):
        """Batches and single writes from several threads on one store."""
        per_thread, n_threads = 5, 4
        task = _config_task()
        run_id = db.begin_run("shared")
        errors: list[BaseException] = []

        def write(thread: int) -> None:
            try:
                with db.batch():
                    for index in range(per_thread):
                        db.record_task(run_id, thread * 100 + index, task, 1)
                db.record_task(run_id, thread * 100 + per_thread, task, 2)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=write, args=(t,)) for t in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert _count(db, "tasks") == n_threads * (per_thread + 1)
        assert _count(db, "configs") == 1

    def test_wal_allows_parallel_connections(self, tmp_path):
        path = tmp_path / "shared.db"
        ResultsDB(path).close()  # migrate once up front
        per_writer, n_writers = 6, 4
        errors: list[BaseException] = []

        def write(writer: int) -> None:
            try:
                with ResultsDB(path) as store:
                    run_id = store.begin_run(f"writer-{writer}")
                    for index in range(per_writer):
                        task = _spread_task(n=8, seed=writer * 100 + index)
                        store.record_task(run_id, index, task, [1, index])
                    store.finish_run(run_id)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=write, args=(w,)) for w in range(n_writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        with ResultsDB(path) as store:
            assert len(store.runs()) == n_writers
            (count,) = store.query("SELECT COUNT(*) AS n FROM tasks")
            assert count["n"] == n_writers * per_writer


class TestLockRetry:
    def test_transient_lock_errors_are_retried_until_the_writer_yields(
        self, tmp_path
    ):
        """A sibling hogging the write lock stalls a write, not loses it."""
        path = tmp_path / "contended.db"
        ResultsDB(path).close()  # migrate once up front
        # check_same_thread=False: the lock is released from the timer
        # thread below.
        blocker = sqlite3.connect(path, check_same_thread=False)
        blocker.execute("BEGIN IMMEDIATE")  # hold the write lock

        def release() -> None:
            blocker.commit()
            blocker.close()

        timer = threading.Timer(0.3, release)
        try:
            with ResultsDB(
                path, timeout_s=0.05, lock_retries=8, lock_backoff_s=0.02
            ) as store:
                timer.start()
                run_id = store.begin_run("contended")
                store.finish_run(run_id)
                assert store.lock_retries_used > 0
            with ResultsDB(path) as store:
                assert [run["label"] for run in store.runs()] == [
                    "contended"
                ]
        finally:
            timer.cancel()

    def test_warm_run_waits_out_a_held_write_lock(self, tmp_path, cache_dir):
        """A held lock stalls a run()'s batch of hit rows, not loses it."""
        tasks = [_spread_task(n=8, seed=s) for s in range(4)]
        SweepRunner(cache_dir=cache_dir).run(tasks)
        path = tmp_path / "contended.db"
        with ResultsDB(
            path, timeout_s=0.05, lock_retries=8, lock_backoff_s=0.02
        ) as store:
            run_id = store.begin_run("warm", n_tasks=len(tasks))
            blocker = sqlite3.connect(path, check_same_thread=False)
            blocker.execute("BEGIN IMMEDIATE")

            def release() -> None:
                blocker.commit()
                blocker.close()

            timer = threading.Timer(0.3, release)
            try:
                timer.start()
                results = SweepRunner(cache_dir=cache_dir, db=store).run(
                    tasks, run_id=run_id
                )
                assert store.lock_retries_used > 0
            finally:
                timer.cancel()
            assert store.results_for_run(run_id) == results
            rows = store.query("SELECT source FROM tasks")
            assert [row["source"] for row in rows] == ["cache"] * len(tasks)

    def test_exhausted_lock_retries_propagate(self, tmp_path):
        path = tmp_path / "stuck.db"
        ResultsDB(path).close()
        blocker = sqlite3.connect(path)
        blocker.execute("BEGIN IMMEDIATE")
        try:
            with ResultsDB(
                path, timeout_s=0.02, lock_retries=2, lock_backoff_s=0.0
            ) as store:
                with pytest.raises(sqlite3.OperationalError):
                    store.begin_run("never-lands")
                assert store.lock_retries_used == 2
        finally:
            blocker.rollback()
            blocker.close()

    def test_retry_knobs_are_validated(self, tmp_path):
        with pytest.raises(ValueError, match="lock_retries"):
            ResultsDB(tmp_path / "x.db", lock_retries=-1)
        with pytest.raises(ValueError, match="lock_backoff_s"):
            ResultsDB(tmp_path / "y.db", lock_backoff_s=-0.1)


class TestExportAndGc:
    def _populate(self, db, n=3):
        run_id = db.begin_run("export", n_tasks=n)
        for index in range(n):
            task = _spread_task(n=8, seed=index)
            db.record_task(run_id, index, task, task.execute())
        db.finish_run(run_id)
        return run_id

    def test_json_export_elides_pickles(self, db):
        self._populate(db)
        lines = db.export("tasks").strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            row = json.loads(line)
            assert "result_pickle" not in row
            assert row["source"] == "executed"

    def test_csv_export_has_header_and_rows(self, db):
        self._populate(db)
        lines = db.export("runs", fmt="csv").strip().splitlines()
        assert "run_id" in lines[0].split(",")
        assert len(lines) == 2

    def test_csv_export_column_order_is_stable_and_sorted(self, db):
        """Regression: CSV headers are the sorted column-name union.

        The header used to follow SQLite's declaration order (whatever
        ``SELECT *`` produced for the first row), so downstream parsers
        broke whenever a migration appended a column.  Sorted names are
        stable across schema versions by construction.
        """
        self._populate(db)
        for table in ("runs", "tasks", "certificates"):
            text = db.export(table, fmt="csv")
            if not text:
                continue
            header = text.splitlines()[0].split(",")
            assert header == sorted(header)
        header = db.export("tasks", fmt="csv").splitlines()[0].split(",")
        assert "result_pickle" not in header
        row = db.export("tasks", fmt="csv").splitlines()[1].split(",")
        assert len(row) >= len(header)  # quoted cells may contain commas

    def test_export_rejects_unknown_table_and_format(self, db):
        with pytest.raises(ValueError, match="unknown table"):
            db.export("sqlite_master")
        with pytest.raises(ValueError, match="fmt"):
            db.export("tasks", fmt="tsv")

    def test_gc_keeps_most_recent_runs(self, db):
        for _ in range(3):
            self._populate(db)
        assert db.gc(keep_runs=None) == 0
        assert db.gc(keep_runs=1) == 2
        runs = db.runs()
        assert len(runs) == 1
        (count,) = db.query("SELECT COUNT(*) AS n FROM tasks")
        assert count["n"] == 3  # cascade removed the pruned runs' tasks

    def test_gc_prunes_orphaned_configs(self, db):
        run_id = db.begin_run()
        db.record_task(run_id, 0, _config_task(), 1)
        db.finish_run(run_id)
        assert db.gc(keep_runs=0) == 1
        assert db.query("SELECT COUNT(*) AS n FROM configs")[0]["n"] == 0

    def test_gc_rejects_negative(self, db):
        with pytest.raises(ValueError, match="keep_runs"):
            db.gc(keep_runs=-1)


class TestAsResultsDB:
    def test_none_and_instances_pass_through(self, db):
        assert as_results_db(None) is None
        assert as_results_db(db) is db

    def test_paths_open_a_store(self, tmp_path):
        store = as_results_db(tmp_path / "opened.db")
        assert isinstance(store, ResultsDB)
        assert store.schema_version == SCHEMA_VERSION
        store.close()
