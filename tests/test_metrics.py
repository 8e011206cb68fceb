"""Tests for the repro.metrics observability subsystem."""

from __future__ import annotations

import json

import pytest

from repro.core.protocol import StochasticProtocol
from repro.experiments import fig4_4
from repro.experiments.common import ExperimentOptions
from repro.experiments.grid_spread import measure_spread
from repro.metrics import (
    CSV_COLUMNS,
    MetricsCollector,
    MetricsSummary,
    PHASES,
    PhaseProfiler,
    RoundSample,
    RunMetrics,
    aggregate_metrics,
)
from repro.noc.engine import NocSimulator
from repro.noc.topology import Mesh2D, Torus2D
from repro.runners import SweepRunner


def _broadcast_sim(seed=3, side=4, p=0.6, **kwargs):
    from repro.experiments.grid_spread import _BroadcastSeed

    sim = NocSimulator(
        Mesh2D(side, side), StochasticProtocol(p), seed=seed,
        default_ttl=64, **kwargs,
    )
    sim.mount(0, _BroadcastSeed(ttl=64))
    return sim


def _collect(seed=3, side=4, p=0.6, max_rounds=64):
    collector = MetricsCollector()
    sim = _broadcast_sim(seed=seed, side=side, p=p, observer=collector)
    n = side * side
    result = sim.run(
        max_rounds, until=lambda s: len(s.informed_tiles()) == n
    )
    return sim, result, collector.metrics()


class TestMetricsCollector:
    def test_requires_binding_before_metrics(self):
        with pytest.raises(RuntimeError, match="bind"):
            MetricsCollector().metrics()

    def test_totals_match_engine_stats(self):
        sim, result, metrics = _collect()
        assert metrics.total_transmissions == sim.stats.transmissions_delivered
        assert metrics.total_energy_j == pytest.approx(result.energy_j)
        assert metrics.n_tiles == 16

    def test_coverage_is_monotone_and_saturates(self):
        _, result, metrics = _collect()
        coverage = metrics.coverage
        assert coverage[0] == 1
        assert all(a <= b for a, b in zip(coverage, coverage[1:]))
        assert result.completed
        assert coverage[-1] == 16
        assert metrics.saturation_round() == result.rounds

    def test_completed_run_samples_final_round(self):
        # The completion break fires before the loop's round_end hook;
        # the engine must still emit the sample for the last round.
        _, result, metrics = _collect()
        assert metrics.rounds == result.rounds + 1
        assert [s.round_index for s in metrics.samples] == list(
            range(result.rounds + 1)
        )

    def test_buffer_occupancy_accounts_every_tile(self):
        _, _, metrics = _collect()
        for sample in metrics.samples:
            assert sum(n for _, n in sample.buffer_occupancy) == 16

    def test_rebinding_resets_state(self):
        collector = MetricsCollector()
        sim = _broadcast_sim(observer=collector)
        sim.run(8, until=lambda s: False)
        assert collector.metrics().rounds == 8
        sim2 = _broadcast_sim(observer=collector)
        sim2.run(2, until=lambda s: False)
        assert collector.metrics().rounds == 2

    def test_drop_counters_observe_dead_links(self):
        from repro.faults import FaultConfig

        collector = MetricsCollector()
        sim = _broadcast_sim(
            seed=11,
            observer=collector,
            fault_config=FaultConfig(p_link=0.4),
        )
        sim.run(24, until=lambda s: False)
        metrics = collector.metrics()
        assert metrics.drops_by_kind["dead_link"] > 0
        assert metrics.drops_by_kind["dead_link"] == sum(
            s.dead_link_drops for s in metrics.samples
        )


class TestRunMetricsExport:
    def test_json_roundtrip(self):
        _, _, metrics = _collect()
        clone = RunMetrics.from_json(metrics.to_json())
        assert clone == metrics

    def test_json_is_deterministic_for_same_seed(self):
        _, _, a = _collect(seed=9)
        _, _, b = _collect(seed=9)
        assert a.to_json() == b.to_json()
        _, _, c = _collect(seed=10)
        assert a.to_json() != c.to_json()

    def test_csv_shape(self):
        _, _, metrics = _collect()
        lines = metrics.to_csv().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == metrics.rounds + 1

    def test_rejects_unknown_schema(self):
        _, _, metrics = _collect()
        doc = metrics.to_json_dict()
        doc["schema"] = "bogus/v0"
        with pytest.raises(ValueError, match="schema"):
            RunMetrics.from_json_dict(doc)

    def test_round_sample_roundtrip(self):
        sample = RoundSample(
            round_index=3, informed_tiles=5, transmissions=7,
            deliveries=2, dead_link_drops=1, overflow_drops=0,
            crc_drops=0, upsets_injected=0, energy_j=1e-6,
            buffer_occupancy=((0, 10), (2, 6)),
        )
        assert RoundSample.from_json_dict(sample.to_json_dict()) == sample
        assert sample.drops_total == 1
        assert sample.buffered_packets == 12
        assert sample.max_buffer_occupancy == 2


class TestAggregation:
    def test_rejects_empty_and_mixed_sizes(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate_metrics([])
        _, _, small = _collect(side=3)
        _, _, big = _collect(side=4)
        with pytest.raises(ValueError, match="tile counts"):
            aggregate_metrics([small, big])

    def test_single_run_has_zero_ci(self):
        _, _, metrics = _collect()
        summary = aggregate_metrics([metrics])
        assert summary.n_runs == 1
        assert all(ci == 0.0 for ci in summary.coverage.ci95)
        assert summary.coverage.mean == tuple(
            float(v) for v in metrics.coverage
        )

    def test_alignment_pads_cumulative_series(self):
        runs = [_collect(seed=s)[2] for s in (1, 2, 3)]
        summary = aggregate_metrics(runs)
        horizon = max(r.rounds for r in runs)
        assert summary.horizon == horizon
        assert len(summary.coverage.mean) == horizon
        # All runs saturated, so the padded tail averages to n_tiles.
        assert summary.coverage.mean[-1] == pytest.approx(16.0)
        # Per-round transmissions zero-pad: final round sends nothing.
        assert summary.transmissions.mean[-1] == pytest.approx(0.0)

    def test_summary_json_roundtrip_is_deterministic(self):
        runs = [_collect(seed=s)[2] for s in (4, 5)]
        a = aggregate_metrics(runs).to_json()
        b = aggregate_metrics(list(runs)).to_json()
        assert a == b
        doc = json.loads(a)
        assert doc["schema"] == "repro.metrics/MetricsSummary/v1"


class TestSweepIntegration:
    def test_measure_spread_metrics_identical_across_worker_counts(self):
        results = {}
        for n_workers in (1, 4):
            m = measure_spread(
                Torus2D(4, 4), repetitions=4, seed=21,
                options=ExperimentOptions(
                    runner=SweepRunner(n_workers=n_workers),
                    collect_metrics=True,
                ),
            )
            results[n_workers] = m
        a, b = results[1], results[4]
        assert a.metrics is not None
        assert a.metrics.to_json() == b.metrics.to_json()
        assert [r.to_json() for r in a.run_metrics] == [
            r.to_json() for r in b.run_metrics
        ]

    def test_uninstrumented_runs_carry_no_metrics(self):
        m = measure_spread(Mesh2D(3, 3), repetitions=2, seed=5)
        assert m.run_metrics is None
        assert m.metrics is None

    def test_warm_cache_returns_metrics_without_resimulating(
        self, cache_dir
    ):
        kwargs = dict(topology=Mesh2D(3, 3), repetitions=3, seed=13)
        cold = SweepRunner(cache_dir=cache_dir)
        first = measure_spread(
            options=ExperimentOptions(runner=cold, collect_metrics=True),
            **kwargs,
        )
        assert cold.tasks_executed == 3

        warm = SweepRunner(cache_dir=cache_dir)
        second = measure_spread(
            options=ExperimentOptions(runner=warm, collect_metrics=True),
            **kwargs,
        )
        assert warm.tasks_executed == 0
        assert warm.cache_hits == 3
        assert second.metrics.to_json() == first.metrics.to_json()

    def test_instrumented_and_plain_sweeps_do_not_alias(self, cache_dir):
        kwargs = dict(topology=Mesh2D(3, 3), repetitions=2, seed=13)
        runner = SweepRunner(cache_dir=cache_dir)
        measure_spread(options=ExperimentOptions(runner=runner), **kwargs)
        assert runner.tasks_executed == 2
        measure_spread(
            options=ExperimentOptions(runner=runner, collect_metrics=True),
            **kwargs,
        )
        # The instrumented variant must re-execute, not reuse the plain
        # cache entries (its results carry an extra RunMetrics element).
        assert runner.tasks_executed == 4

    def test_fig4_4_cells_carry_summaries(self):
        points = fig4_4.run(
            application="master_slave",
            probabilities=(0.5,),
            dead_tile_counts=(0,),
            repetitions=2,
            max_rounds=80,
            options=ExperimentOptions(collect_metrics=True),
        )
        assert len(points) == 1
        summary = points[0].metrics
        assert isinstance(summary, MetricsSummary)
        assert summary.n_runs == 2
        assert summary.n_tiles == 25

    def test_fig4_4_metrics_off_by_default(self):
        points = fig4_4.run(
            application="fft2d",
            probabilities=(1.0,),
            dead_tile_counts=(0,),
            repetitions=1,
            max_rounds=80,
        )
        assert points[0].metrics is None


class TestPhaseProfiler:
    def test_records_all_four_phases(self):
        profiler = PhaseProfiler()
        sim = _broadcast_sim(profiler=profiler)
        result = sim.run(12, until=lambda s: False)
        assert result.rounds == 12
        assert profiler.rounds == 12
        report = profiler.report()
        assert set(report) == set(PHASES)
        for phase in PHASES:
            assert report[phase]["calls"] == 12
            assert report[phase]["total_s"] >= 0.0
        shares = [report[phase]["share"] for phase in PHASES]
        assert sum(shares) == pytest.approx(1.0)

    def test_reset_clears_counters(self):
        profiler = PhaseProfiler()
        profiler.record("receive", 0.5)
        profiler.reset()
        assert profiler.rounds == 0
        assert profiler.total_s == 0.0

    def test_custom_phases_are_auto_registered(self):
        profiler = PhaseProfiler()
        profiler.record("warp", 0.1)
        assert profiler.report()["warp"]["calls"] == 1
        assert profiler.total_s == pytest.approx(0.1)

    def test_format_table_mentions_each_phase(self):
        profiler = PhaseProfiler()
        _broadcast_sim(profiler=profiler).run(6)
        table = profiler.format_table()
        for phase in PHASES:
            assert phase in table

    def test_profiled_run_matches_unprofiled(self):
        plain = _broadcast_sim(seed=17).run(32, until=lambda s: False)
        profiled = _broadcast_sim(
            seed=17, profiler=PhaseProfiler()
        ).run(32, until=lambda s: False)
        assert plain.rounds == profiled.rounds
        assert plain.energy_j == profiled.energy_j
