"""Tests for the chaos campaign harness (repro.experiments.chaos)."""

import pytest

from repro.experiments import chaos
from repro.experiments.common import ExperimentOptions
from repro.faults import BurstUpsets, LinkFlap, RampOverflow
from repro.runners import SweepRunner

_FAST = dict(repetitions=2, levels=(0.0, 0.9), max_rounds=48)


class TestScenarioFor:
    def test_axes_map_to_specs(self):
        assert chaos.scenario_for("burst_upsets", 0.4) == BurstUpsets(
            p_upset=0.4, start=chaos.ONSET_ROUND
        )
        assert isinstance(
            chaos.scenario_for("ramp_overflow", 0.4), RampOverflow
        )
        assert chaos.scenario_for("link_flap", 0.4) == LinkFlap(
            mtbf_rounds=10.0, mttr_rounds=5.0, fraction=0.4
        )

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos axis"):
            chaos.scenario_for("solar_storm", 0.5)

    def test_run_validates_axes_before_sweeping(self):
        with pytest.raises(ValueError, match="unknown chaos axis"):
            chaos.run(kinds=("solar_storm",), **_FAST)


class TestCampaign:
    def test_report_shape_and_thresholds(self):
        report = chaos.run(kinds=("burst_upsets",), **_FAST)
        assert len(report.cells) == 2
        kinds = {cell.kind for cell in report.cells}
        assert kinds == {"burst_upsets"}
        # intensity 0 is a fault-free broadcast: always tolerated.
        baseline = next(c for c in report.cells if c.intensity == 0.0)
        assert baseline.coverage_mean == 1.0
        assert baseline.completion_rate == 1.0
        assert report.thresholds["burst_upsets"] is not None

    def test_total_upset_burst_degrades_coverage(self):
        report = chaos.run(
            kinds=("burst_upsets",),
            levels=(0.0, 1.0),
            repetitions=2,
            max_rounds=48,
        )
        lethal = next(c for c in report.cells if c.intensity == 1.0)
        # Every copy in flight is scrambled from the onset round on:
        # the rumor cannot spread past the tiles it reached by then.
        assert lethal.coverage_mean < 1.0
        assert lethal.completion_rate == 0.0
        assert report.thresholds["burst_upsets"] == 0.0

    def test_worker_count_does_not_change_metrics(self):
        serial = chaos.run(
            options=ExperimentOptions(collect_metrics=True), **_FAST
        )
        pooled = chaos.run(
            options=ExperimentOptions(collect_metrics=True, n_workers=4),
            **_FAST,
        )
        for cell_s, cell_p in zip(serial.cells, pooled.cells):
            assert [m.to_json() for m in cell_s.run_metrics] == [
                m.to_json() for m in cell_p.run_metrics
            ]
        assert serial.thresholds == pooled.thresholds

    def test_drop_attribution_requires_instrumentation(self):
        plain = chaos.run(kinds=("link_flap",), **_FAST)
        assert all(cell.drops_by_scenario is None for cell in plain.cells)
        instrumented = chaos.run(
            kinds=("link_flap",),
            options=ExperimentOptions(collect_metrics=True),
            **_FAST,
        )
        flap = next(
            c for c in instrumented.cells if c.intensity == 0.9
        )
        assert "link_flap" in flap.drops_by_scenario

    def test_campaign_memoizes_through_the_cache(self, tmp_path):
        runner = SweepRunner(cache_dir=str(tmp_path))
        options = ExperimentOptions(runner=runner)
        chaos.run(kinds=("burst_upsets",), options=options, **_FAST)
        executed = runner.tasks_executed
        assert executed > 0
        chaos.run(kinds=("burst_upsets",), options=options, **_FAST)
        assert runner.tasks_executed == executed  # all cells were hits

    def test_repetitions_validated(self):
        with pytest.raises(ValueError, match="repetitions"):
            chaos.run(repetitions=0)


class TestFormatReport:
    def test_mentions_every_cell_and_threshold(self):
        report = chaos.run(kinds=("burst_upsets", "link_flap"), **_FAST)
        text = chaos.format_report(report)
        assert "chaos degradation report" in text
        assert "burst_upsets" in text
        assert "link_flap" in text
        assert "tolerance thresholds" in text

    def test_marks_thresholds_below_the_sweep_floor(self):
        report = chaos.ChaosReport(
            cells=(),
            coverage_target=0.99,
            thresholds={"burst_upsets": None},
        )
        assert "below sweep floor" in chaos.format_report(report)
