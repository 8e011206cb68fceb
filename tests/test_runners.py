"""Tests for the parallel sweep runner (repro.runners)."""

import pickle

import pytest

from repro.core.protocol import StochasticProtocol
from repro.core.theory import simulate_rumor_spread
from repro.experiments import fig4_4
from repro.experiments.common import ExperimentOptions
from repro.noc.config import SimConfig
from repro.noc.topology import Mesh2D
from repro.runners import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    SimTask,
    SweepRunner,
    canonical,
    digest,
    spawn_seeds,
)


def _spread_task(n=32, seed=7, **extra):
    return SimTask.call(simulate_rumor_spread, n=n, seed=seed, **extra)


class TestSimTask:
    def test_call_records_qualified_name(self):
        task = _spread_task()
        assert task.fn == "repro.core.theory:simulate_rumor_spread"
        assert task.params == {"n": 32}
        assert task.seed == 7

    def test_execute_matches_direct_call(self):
        assert _spread_task().execute() == simulate_rumor_spread(32, seed=7)

    def test_rejects_nested_functions(self):
        def nested():
            return 0

        with pytest.raises(ValueError, match="module-level"):
            SimTask.call(nested)
        with pytest.raises(ValueError, match="module-level"):
            SimTask.call(lambda: 0)

    def test_cache_key_is_stable_and_label_free(self):
        assert _spread_task().cache_key() == _spread_task().cache_key()
        assert (
            _spread_task(label="a").cache_key()
            == _spread_task(label="b").cache_key()
        )

    def test_cache_key_ignores_param_order(self):
        a = SimTask(fn="m:f", params={"x": 1, "y": 2}, seed=0)
        b = SimTask(fn="m:f", params={"y": 2, "x": 1}, seed=0)
        assert a.cache_key() == b.cache_key()
        assert a == b

    def test_cache_key_distinguishes_fn_params_seed(self):
        base = _spread_task()
        assert base.cache_key() != _spread_task(n=33).cache_key()
        assert base.cache_key() != _spread_task(seed=8).cache_key()
        other = SimTask(fn="m:g", params={"n": 32}, seed=7)
        assert base.cache_key() != other.cache_key()

    def test_task_pickles(self):
        task = _spread_task(label="x")
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        assert clone.execute() == task.execute()

    def test_missing_function_is_an_error(self):
        with pytest.raises(ValueError, match="not found"):
            SimTask(fn="repro.core.theory:no_such_function").resolve()


class TestCanonicalHashing:
    def test_digest_is_deterministic_across_types(self):
        value = {"b": [1, 2.5, "s"], "a": (None, True)}
        assert digest(value) == digest({"a": (None, True), "b": [1, 2.5, "s"]})

    def test_sets_are_order_insensitive(self):
        assert canonical({3, 1, 2}) == canonical({2, 3, 1})

    def test_simconfig_canonical_via_cache_token(self):
        config = SimConfig(Mesh2D(3, 3), StochasticProtocol(0.5))
        same = SimConfig(Mesh2D(3, 3), StochasticProtocol(0.5))
        other = SimConfig(Mesh2D(3, 3), StochasticProtocol(0.75))
        assert canonical(config) == canonical(same)
        assert digest(config) != digest(other)

    def test_unhashable_objects_raise(self):
        with pytest.raises(TypeError):
            canonical(object())


class TestSpawnSeeds:
    def test_deterministic_and_prefix_stable(self):
        assert spawn_seeds(42, 6) == spawn_seeds(42, 6)
        assert spawn_seeds(42, 6)[:3] == spawn_seeds(42, 3)

    def test_distinct_per_child_and_base(self):
        seeds = spawn_seeds(42, 8)
        assert len(set(seeds)) == 8
        assert seeds != spawn_seeds(43, 8)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestSweepRunner:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            SweepRunner(n_workers=0)

    def test_results_keep_task_order(self):
        runner = SweepRunner()
        tasks = [_spread_task(n=n, seed=1) for n in (8, 64, 16)]
        results = runner.run(tasks)
        assert [r[-1] for r in results] == [8, 64, 16]

    def test_parallel_matches_serial(self):
        tasks = [_spread_task(n=32, seed=s) for s in range(6)]
        serial = SweepRunner(n_workers=1).run(tasks)
        parallel = SweepRunner(n_workers=4).run(tasks)
        assert serial == parallel

    def test_base_seed_fills_missing_seeds_deterministically(self):
        tasks = [SimTask.call(simulate_rumor_spread, n=32) for _ in range(4)]
        a = SweepRunner(base_seed=5).run(tasks)
        b = SweepRunner(base_seed=5, n_workers=4).run(tasks)
        assert a == b
        assert SweepRunner(base_seed=6).run(tasks) != a


class TestResultCache:
    def test_hit_miss_roundtrip(self, cache_dir):
        cache = ResultCache(cache_dir)
        assert cache.lookup("k") == (False, None)
        cache.put("k", {"value": [1, 2]})
        assert cache.lookup("k") == (True, {"value": [1, 2]})
        assert "k" in cache and len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, cache_dir):
        cache = ResultCache(cache_dir)
        cache.put("k", 1)
        cache.path_for("k").write_bytes(b"not a pickle")
        assert cache.lookup("k") == (False, None)

    def test_clear(self, cache_dir):
        cache = ResultCache(cache_dir)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0


class TestRunnerCaching:
    def test_warm_cache_executes_nothing(self, cache_dir):
        tasks = [_spread_task(n=24, seed=s) for s in range(5)]
        cold = SweepRunner(cache_dir=cache_dir)
        cold_results = cold.run(tasks)
        assert cold.tasks_executed == 5
        assert cold.cache_hits == 0

        warm = SweepRunner(cache_dir=cache_dir)
        warm_results = warm.run(tasks)
        assert warm.tasks_executed == 0
        assert warm.cache_hits == 5
        assert warm_results == cold_results

    def test_any_simconfig_field_change_misses(self, cache_dir):
        config = SimConfig(Mesh2D(3, 3), StochasticProtocol(0.5))
        task = SimTask(fn="m:f", params={"config": config}, seed=0)
        for changed in (
            config.with_(protocol=StochasticProtocol(0.75)),
            config.with_(topology=Mesh2D(4, 4)),
            config.with_(default_ttl=9),
            config.with_(payload_bits=64),
            config.with_(link_delays={(0, 1): 2}),
        ):
            other = SimTask(fn="m:f", params={"config": changed}, seed=0)
            assert other.cache_key() != task.cache_key()
        # The identical config (rebuilt from scratch) still hits.
        rebuilt = SimConfig(Mesh2D(3, 3), StochasticProtocol(0.5))
        same = SimTask(fn="m:f", params={"config": rebuilt}, seed=0)
        assert same.cache_key() == task.cache_key()

    def test_schema_version_participates_in_key(self):
        task = _spread_task()
        assert repr(CACHE_SCHEMA_VERSION) in repr(
            (CACHE_SCHEMA_VERSION, task.fn, dict(task.params), task.seed)
        )
        # The key is exactly the digest of the versioned tuple.
        assert task.cache_key() == digest(
            (CACHE_SCHEMA_VERSION, task.fn, dict(task.params), task.seed)
        )


class TestExperimentDeterminism:
    def test_fig4_4_parallel_equals_serial(self):
        kwargs = dict(
            dead_tile_counts=(0, 2),
            probabilities=(0.5,),
            repetitions=2,
            max_rounds=200,
        )
        serial = fig4_4.run(**kwargs, options=ExperimentOptions(n_workers=1))
        parallel = fig4_4.run(
            **kwargs, options=ExperimentOptions(n_workers=4)
        )
        assert serial == parallel

    def test_fig4_4_warm_cache_runs_zero_simulations(self, cache_dir):
        kwargs = dict(
            dead_tile_counts=(0,),
            probabilities=(0.5,),
            repetitions=2,
            max_rounds=200,
        )
        cold = SweepRunner(cache_dir=cache_dir)
        first = fig4_4.run(**kwargs, options=ExperimentOptions(runner=cold))
        assert cold.tasks_executed > 0

        warm = SweepRunner(cache_dir=cache_dir)
        second = fig4_4.run(**kwargs, options=ExperimentOptions(runner=warm))
        assert warm.tasks_executed == 0
        assert warm.cache_hits == warm.tasks_submitted > 0
        assert second == first
