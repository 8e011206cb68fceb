"""Tests for the unified ExperimentOptions execution API."""

from __future__ import annotations

import inspect
import warnings

import pytest

import repro.experiments
from repro.diversity.architectures import FlatNoc
from repro.diversity.compare import compare_architectures
from repro.experiments import fig3_1, fig4_4, grid_spread, link_crashes
from repro.experiments.common import ExperimentOptions, resolve_options
from repro.noc.topology import Mesh2D
from repro.runners import SweepRunner
from repro.runners.cache import ResultCache
from repro.service import ResultsDB

#: The execution settings that may only travel inside ``options=``.
SCALAR_KNOBS = {"n_workers", "runner", "cache_dir", "collect_metrics", "backend"}


def _public_functions():
    """Every public function of the harness modules, as (where, fn)."""
    return [("diversity.compare.compare_architectures", compare_architectures)] + [
        (f"{module_name}.{fn.__name__}", fn)
        for module_name in repro.experiments.__all__
        for fn in vars(getattr(repro.experiments, module_name)).values()
        if inspect.isfunction(fn)
        and fn.__module__ == f"repro.experiments.{module_name}"
        and not fn.__name__.startswith("_")
    ]


def _entry_points():
    """The public functions that run a sweep, as (where, fn)."""
    return [
        (where, fn)
        for where, fn in _public_functions()
        if fn.__name__.startswith(("run", "measure_", "certify_", "compare_"))
    ]


#: Positional arguments of the entry points that have required ones.
REQUIRED_ARGUMENTS = {
    "grid_spread.measure_spread": (Mesh2D(3, 3),),
    "diversity.compare.compare_architectures": ([FlatNoc(2)],),
}

#: Entry points with a repetition count, and that parameter's name.
REPEATED = [
    (where, fn, name)
    for where, fn in _entry_points()
    for name in ("repetitions", "n_runs")
    if name in inspect.signature(fn).parameters
]


def _cache_keys(harness, tmp_path, name, **knobs):
    """The on-disk cache keys one `harness(options=...)` call leaves."""
    cache_dir = tmp_path / name
    harness(options=ExperimentOptions(cache_dir=str(cache_dir), **knobs))
    return list(ResultCache(cache_dir).keys())


def _one_fig4_4_task(options):
    return fig4_4.run(
        dead_tile_counts=(1,),
        probabilities=(0.5,),
        repetitions=1,
        seed=3,
        options=options,
    )


def _one_grid_spread_task(options):
    return grid_spread.measure_spread(
        Mesh2D(3, 3), repetitions=1, seed=3, options=options
    )


class TestExperimentOptions:
    def test_defaults_match_the_legacy_scalars(self):
        opts = ExperimentOptions()
        assert opts.runner is None
        assert opts.n_workers == 1
        assert opts.cache_dir is None
        assert opts.backend == "object"
        assert opts.collect_metrics is False
        assert opts.db is None

    def test_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            ExperimentOptions(n_workers=0)
        with pytest.raises(ValueError, match="backend"):
            ExperimentOptions(backend="nope")
        with pytest.raises(TypeError, match="runner"):
            ExperimentOptions(runner=object())

    def test_make_runner_builds_from_scalars(self, cache_dir):
        opts = ExperimentOptions(n_workers=2, cache_dir=cache_dir)
        runner = opts.make_runner()
        assert runner.n_workers == 2
        assert runner.cache is not None

    def test_make_runner_prefers_prebuilt_runner(self):
        prebuilt = SweepRunner(n_workers=1)
        opts = ExperimentOptions(runner=prebuilt, n_workers=4)
        assert opts.make_runner() is prebuilt

    def test_make_runner_attaches_db_to_prebuilt_runner(self, tmp_path):
        prebuilt = SweepRunner()
        opts = ExperimentOptions(runner=prebuilt, db=tmp_path / "runs.db")
        assert opts.make_runner() is prebuilt
        assert isinstance(prebuilt.db, ResultsDB)

    def test_with_runner_pins_only_the_runner(self, cache_dir):
        opts = ExperimentOptions(cache_dir=cache_dir, n_workers=3)
        runner = SweepRunner()
        pinned = opts.with_runner(runner)
        assert pinned.runner is runner
        assert pinned.cache_dir == opts.cache_dir
        assert pinned.n_workers == 3
        assert opts.runner is None  # the original is untouched


class TestResolveOptions:
    def test_no_arguments_yields_defaults(self):
        assert resolve_options(None) == ExperimentOptions()
        assert resolve_options() == ExperimentOptions()

    def test_options_pass_through_unwarned(self):
        opts = ExperimentOptions(n_workers=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_options(opts) is opts

    def test_unsupported_knob_is_a_value_error(self):
        with pytest.raises(ValueError, match="does not support"):
            resolve_options(
                ExperimentOptions(collect_metrics=True), supports=()
            )
        with pytest.raises(ValueError, match="does not support"):
            resolve_options(
                ExperimentOptions(backend="fast"), supports=()
            )
        # Declared support passes.
        opts = ExperimentOptions(collect_metrics=True, backend="fast")
        assert (
            resolve_options(opts, supports=("collect_metrics", "backend"))
            is opts
        )


class TestHarnessBehavior:
    # The digests below were computed at the last commit that still had
    # the scalar-kwargs API, where both APIs produced them: caches written
    # by any earlier version stay valid as long as these hold.

    def test_default_options_keep_the_pre_options_cache_keys(self, tmp_path):
        assert _cache_keys(
            lambda options: fig3_1.run(
                n=64, repetitions=1, seed=3, options=options
            ),
            tmp_path,
            "fig3_1",
        ) == [
            "516d00cd9256ac26505f4b88585c3fecd95b6efe95d57ec6e1cb2d4b6127407f"
        ]
        assert _cache_keys(_one_fig4_4_task, tmp_path, "fig4_4") == [
            "2278ab233774af862f5d62967f3447a1e6e81942a855639e12c5ae6cf97ced43"
        ]
        assert _cache_keys(
            _one_grid_spread_task, tmp_path, "grid_spread", backend="object"
        ) == [
            "cb5d88548569a5e4e209cccdf1bea35c4770bbc720381f2293378f8119f2bd8d"
        ]

    def test_result_knobs_keep_their_pinned_cache_keys(self, tmp_path):
        assert _cache_keys(
            _one_fig4_4_task, tmp_path, "fig4_4", collect_metrics=True
        ) == [
            "05b14f15d8d89ccfddea0744470220f929bbaa28b7bcde263d1df834896b65a5"
        ]
        assert _cache_keys(
            _one_grid_spread_task, tmp_path, "grid_spread", backend="fast"
        ) == [
            "111f2b1bf1b648b1a53b868a895a428bf151c821856f8679f5d2087f84cd020f"
        ]

    def test_options_api_emits_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fig3_1.run(n=64, repetitions=2, options=ExperimentOptions())
            link_crashes.run(
                dead_link_counts=(0,),
                repetitions=1,
                n_terms=40,
                options=ExperimentOptions(),
            )

    def test_harness_rejects_unsupported_result_knobs(self):
        with pytest.raises(ValueError, match="does not support"):
            fig3_1.run(
                n=64,
                repetitions=1,
                options=ExperimentOptions(collect_metrics=True),
            )
        with pytest.raises(ValueError, match="does not support"):
            link_crashes.run(
                dead_link_counts=(0,),
                repetitions=1,
                n_terms=40,
                options=ExperimentOptions(backend="fast"),
            )

    def test_options_is_the_only_execution_argument(self):
        for where, fn in _public_functions():
            assert not set(inspect.signature(fn).parameters) & SCALAR_KNOBS, where
        for where, fn in _entry_points():
            assert "options" in inspect.signature(fn).parameters, where
        assert len(_entry_points()) >= 23  # the walk found the harnesses

    @pytest.mark.parametrize(
        "where,fn,name", REPEATED, ids=[where for where, _, _ in REPEATED]
    )
    @pytest.mark.parametrize("count", [0, -1])
    def test_repetitions_below_one_are_refused_by_the_kernel(
        self, where, fn, name, count
    ):
        with pytest.raises(
            ValueError, match=f"repetitions must be >= 1, got {count}"
        ):
            fn(*REQUIRED_ARGUMENTS.get(where, ()), **{name: count})

    def test_every_repeating_entry_point_was_found(self):
        assert len(REPEATED) == 21

    def test_shared_runner_spans_subharness_calls(self, cache_dir):
        runner = SweepRunner(cache_dir=cache_dir)
        options = ExperimentOptions(runner=runner)
        fig3_1.run_scaling(sizes=(32, 64), repetitions=1, options=options)
        assert runner.tasks_submitted == 2
        assert runner.tasks_executed == 2

    def test_db_knob_records_provenance(self, tmp_path):
        db_path = tmp_path / "spread.db"
        points = grid_spread.run(
            side=3,
            repetitions=2,
            options=ExperimentOptions(db=db_path),
        )
        assert points
        with ResultsDB(db_path) as db:
            runs = db.runs()  # one row per swept topology's batch
            assert runs
            assert all(run["status"] == "completed" for run in runs)
            (count,) = db.query("SELECT COUNT(*) AS n FROM tasks")
            assert count["n"] == sum(run["n_tasks"] for run in runs) > 0
            # Task parameters land as queryable provenance JSON.
            rows = db.query(
                "SELECT DISTINCT json_extract(params_json, "
                "'$.forward_probability') AS p FROM tasks"
            )
            assert {row["p"] for row in rows} == {0.5}

    def test_instrumented_options_run_carries_metrics(self, tmp_path):
        db_path = tmp_path / "metrics.db"
        points = grid_spread.run(
            side=3,
            forward_probability=0.75,
            repetitions=1,
            options=ExperimentOptions(collect_metrics=True, db=db_path),
        )
        assert points[0].metrics is not None
        with ResultsDB(db_path) as db:
            (rounds,) = db.query(
                "SELECT COUNT(*) AS n FROM round_metrics"
            )
            assert rounds["n"] > 0
