"""Benchmark: serial vs 4-worker sweep execution of one figure harness.

Measures wall-clock of the same repetitions >= 8 Fig 4-4 sweep with
``n_workers=1`` and ``n_workers=4`` and asserts the results are
bit-identical.  No speedup is asserted — CI containers are often
single-core (and process pools may even fall back to serial there); the
timings are reported for machines where the comparison is meaningful.
"""

import time

from repro.experiments import fig4_4
from repro.experiments.common import ExperimentOptions
from repro.runners import SweepRunner

SWEEP = dict(
    dead_tile_counts=(0, 2),
    probabilities=(1.0, 0.5),
    repetitions=8,
    max_rounds=300,
)


def test_serial_vs_parallel_wall_clock(benchmark, shape_report):
    serial_start = time.perf_counter()
    serial = fig4_4.run(
        **SWEEP, options=ExperimentOptions(runner=SweepRunner(n_workers=1))
    )
    serial_s = time.perf_counter() - serial_start

    parallel_start = time.perf_counter()
    parallel = fig4_4.run(
        **SWEEP, options=ExperimentOptions(runner=SweepRunner(n_workers=4))
    )
    parallel_s = time.perf_counter() - parallel_start

    # The tentpole guarantee: worker count never changes the numbers.
    assert serial == parallel

    benchmark(
        fig4_4.run,
        **SWEEP,
        options=ExperimentOptions(runner=SweepRunner(n_workers=4)),
    )
    shape_report["runner_serial_vs_parallel"] = {
        "serial_s": round(serial_s, 3),
        "parallel4_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2) if parallel_s else None,
        "tasks": 2 * 2 * SWEEP["repetitions"],
    }


def test_warm_cache_skips_every_simulation(tmp_path, benchmark, shape_report):
    cache_dir = tmp_path / "cache"
    cold = SweepRunner(cache_dir=cache_dir)
    cold_start = time.perf_counter()
    first = fig4_4.run(**SWEEP, options=ExperimentOptions(runner=cold))
    cold_s = time.perf_counter() - cold_start
    assert cold.tasks_executed == cold.tasks_submitted > 0

    def warm_run():
        runner = SweepRunner(cache_dir=cache_dir)
        result = fig4_4.run(**SWEEP, options=ExperimentOptions(runner=runner))
        assert runner.tasks_executed == 0
        assert runner.cache_hits == runner.tasks_submitted
        return result

    second = benchmark(warm_run)
    assert second == first
    shape_report["runner_warm_cache"] = {
        "cold_s": round(cold_s, 3),
        "tasks_cached": cold.tasks_executed,
    }
