"""Smoke + shape tests for the per-figure experiment harnesses.

Each harness runs at miniature sizes; the assertions check the *shapes*
the thesis reports, not absolute values.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig3_1,
    fig4_4,
    fig4_5,
    fig4_6,
    fig4_8,
    fig4_9,
    fig4_10,
    fig4_11,
    fig5_3,
)
from repro.experiments.common import ExperimentOptions

FAST = ExperimentOptions(backend="fast")


class TestFig3_1:
    def test_simulation_tracks_theory(self):
        curve = fig3_1.run(n=500, repetitions=3, seed=0)
        assert curve.simulated[0] == 1
        assert curve.simulated[-1] == 500
        # The Pittel estimate is within a few rounds of measurement.
        assert abs(curve.rounds_to_all - curve.predicted_rounds) < 5

    def test_thousand_nodes_under_twenty_rounds(self):
        curve = fig3_1.run(n=1000, repetitions=3, seed=1)
        assert curve.rounds_to_all < 20

    def test_scaling(self):
        curves = fig3_1.run_scaling(sizes=(64, 256), repetitions=2)
        assert curves[0].rounds_to_all < curves[1].rounds_to_all


class TestFig4_4:
    def test_flooding_fastest_and_most_expensive(self):
        points = fig4_4.run(
            "master_slave",
            dead_tile_counts=(0,),
            repetitions=3,
            max_rounds=200,
        )
        by_p = {pt.forward_probability: pt for pt in points}
        assert by_p[1.0].latency_rounds <= by_p[0.25].latency_rounds
        assert by_p[1.0].energy_j > by_p[0.25].energy_j

    def test_crashes_barely_move_latency(self):
        points = fig4_4.run(
            "fft2d",
            dead_tile_counts=(0, 2),
            probabilities=(1.0,),
            repetitions=3,
            max_rounds=200,
        )
        clean, crashed = points
        assert crashed.completion_rate >= 0.6
        assert crashed.latency_rounds < 4 * max(clean.latency_rounds, 1)

    def test_unknown_application(self):
        with pytest.raises(ValueError, match="unknown application"):
            fig4_4.run("sorting")


class TestFig4_5:
    def test_upsets_dominate_crashes(self):
        points = fig4_5.run(
            dead_tile_counts=(0,),
            upset_levels=(0.0, 0.7),
            repetitions=2,
            max_rounds=2500,
        )
        clean, upset = points
        assert clean.completion_rate == 1.0
        assert upset.completion_rate > 0.0  # terminates even at 70 %
        assert upset.latency_rounds > clean.latency_rounds


class TestFig4_6:
    def test_noc_beats_bus_on_latency(self):
        comparison = fig4_6.run(n_runs=2, n_terms=100)
        # Thesis: ~11x; allow a broad band for simulator differences.
        assert comparison.latency_ratio > 4.0
        # Energy per useful bit is the same order as the bus (the thesis
        # path accounting even favours the NoC).
        assert comparison.path_energy_ratio < 1.5
        assert comparison.gross_energy_ratio < 5.0
        # Energy x delay strongly favours the NoC (7 vs 133 in thesis).
        assert comparison.noc_energy_delay < comparison.bus_energy_delay

    def test_run_count_respected(self):
        comparison = fig4_6.run(n_runs=2, n_terms=100)
        assert len(comparison.noc_runs_latency_s) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            fig4_6.run(n_runs=0)


class TestFig4_8:
    def test_latency_monotone_in_both_axes(self):
        cells = fig4_8.run(
            probabilities=(1.0, 0.5),
            upset_levels=(0.0, 0.5),
            n_frames=4,
            repetitions=1,
            max_rounds=1000,
        )
        grid = {
            (c.forward_probability, c.p_upset): c.latency_rounds for c in cells
        }
        assert grid[(1.0, 0.0)] <= grid[(0.5, 0.0)]
        assert grid[(1.0, 0.0)] <= grid[(1.0, 0.5)]


class TestFig4_9:
    def test_energy_increases_with_p(self):
        points = fig4_9.run(
            probabilities=(0.25, 1.0), n_frames=4, repetitions=1
        )
        assert points[0].energy_j < points[1].energy_j

    def test_energy_roughly_linear(self):
        points = fig4_9.run(
            probabilities=(0.25, 0.5, 1.0), n_frames=4, repetitions=2
        )
        energies = np.array([pt.energy_j for pt in points])
        probabilities = np.array([pt.forward_probability for pt in points])
        correlation = np.corrcoef(probabilities, energies)[0, 1]
        assert correlation > 0.9


class TestFig4_10:
    def test_overflow_panel_shape(self):
        points = fig4_10.run_overflow(
            levels=(0.0, 0.5, 0.95), n_frames=4, repetitions=2
        )
        clean, moderate, extreme = points
        assert clean.completion_rate == 1.0
        assert moderate.completion_rate >= 0.5
        assert extreme.completion_rate < clean.completion_rate

    def test_sync_panel_never_fatal(self):
        points = fig4_10.run_synchronization(
            levels=(0.0, 0.5), n_frames=4, repetitions=2
        )
        assert all(pt.completion_rate == 1.0 for pt in points)


class TestFig4_11:
    def test_bitrate_sustained_then_degrades(self):
        points = fig4_11.run_overflow(
            levels=(0.0, 0.5, 0.95), n_frames=4, repetitions=2
        )
        clean, moderate, extreme = points
        # Sustained at moderate drops (thesis: up to ~60 %).
        assert moderate.bitrate_bps_mean >= 0.8 * clean.bitrate_bps_mean
        assert extreme.bitrate_bps_mean < clean.bitrate_bps_mean

    def test_sync_errors_barely_move_bitrate(self):
        points = fig4_11.run_synchronization(
            levels=(0.0, 0.75), n_frames=4, repetitions=2
        )
        clean, skewed = points
        assert skewed.bitrate_bps_mean == pytest.approx(
            clean.bitrate_bps_mean, rel=0.15
        )

    def test_snr_reported(self):
        points = fig4_11.run_overflow(levels=(0.0,), n_frames=4, repetitions=1)
        assert np.isfinite(points[0].snr_db_mean)


class TestFig5_3:
    def test_architecture_comparison_shape(self):
        rows = fig5_3.run(
            cluster_side=2,
            n_sensors=8,
            n_frames=2,
            frame_interval=2,
            repetitions=1,
            max_rounds=2500,
        )
        names = [row.name for row in rows]
        assert names == ["flat NoC", "hierarchical NoC", "bus-connected NoCs"]
        flat, hierarchical, bus = rows
        assert flat.completed and hierarchical.completed and bus.completed
        # Flat has the best latency; the bus architecture trails everyone.
        assert flat.latency_rounds <= hierarchical.latency_rounds
        assert bus.latency_rounds > hierarchical.latency_rounds

    def test_central_router_included_on_request(self):
        rows = fig5_3.run(
            cluster_side=2,
            n_sensors=4,
            n_frames=1,
            repetitions=1,
            include_central_router=True,
            max_rounds=2500,
        )
        assert rows[-1].name == "central router"


class TestBackendThreading:
    """The ``backend`` execution option on the experiment harnesses.

    Both backends are bit-identical (see test_backends_equivalence), so
    a harness run on ``backend="fast"`` must reproduce the object-backend
    measurement exactly — and object-backend tasks must keep their
    legacy cache keys (the parameter is omitted entirely).
    """

    def test_backend_params_pins_legacy_keys(self):
        from repro.experiments.common import backend_params

        assert backend_params("object") == {}
        assert backend_params("fast") == {"backend": "fast"}
        with pytest.raises(ValueError, match="backend must be one of"):
            backend_params("warp")

    def test_grid_spread_identical_across_backends(self):
        from repro.experiments.grid_spread import measure_spread
        from repro.noc.topology import Mesh2D

        kwargs = dict(repetitions=2, seed=3, max_rounds=40)
        slow = measure_spread(Mesh2D(4, 4), 0.5, **kwargs)
        fast = measure_spread(Mesh2D(4, 4), 0.5, options=FAST, **kwargs)
        assert fast == slow

    def test_chaos_identical_across_backends(self):
        from repro.experiments import chaos

        kwargs = dict(
            kinds=("burst_upsets",),
            levels=(0.0, 0.5),
            side=3,
            repetitions=1,
            max_rounds=24,
        )
        assert chaos.run(options=FAST, **kwargs) == chaos.run(**kwargs)

    def test_policy_compare_identical_across_backends(self):
        from repro.experiments import policy_compare

        kwargs = dict(
            side=3,
            upset_rates=(0.0, 0.2),
            overflow_rates=(),
            link_crash_counts=(2,),
            repetitions=1,
            max_rounds=24,
        )
        slow = policy_compare.run(**kwargs)
        fast = policy_compare.run(options=FAST, **kwargs)
        assert fast == slow
