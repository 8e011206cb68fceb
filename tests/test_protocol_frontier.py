"""Tests for the protocol-frontier comparison (experiments.protocol_frontier).

Covers the pairing property the campaign's claims rest on (matched
repetitions share seeds, hence fault streams, across every protocol),
registry/cache hygiene for the new policy kinds, backend and
worker-count bit-identity of whole reports, and the certified frontier.
"""

import pytest

from repro.experiments import protocol_frontier
from repro.experiments.common import ExperimentOptions
from repro.experiments.policy_compare import _draw_dead_links
from repro.noc.config import SimConfig
from repro.noc.topology import Mesh2D
from repro.policies import (
    POLICY_REGISTRY,
    AdaptiveRoutePolicy,
    FeedbackTermination,
    PolicySpec,
    PushPullPolicy,
    build_policy,
    make_policy,
)
from repro.runners import SimTask
from repro.stats import Verdict
from tests.test_harness_pins import RecordingRunner

NEW_SPECS = (
    PolicySpec.of("push_pull"),
    PolicySpec.of("push_pull", fanout=2),
    PolicySpec.of("push_pull", feedback_k=2),
    PolicySpec.of("push_pull", feedback_k=2, pull_request_bits=0),
    PolicySpec.of("adaptive_route"),
    PolicySpec.of("adaptive_route", detour_rounds=0),
)


class TestPlanPairing:
    """The common-random-numbers property, asserted on the submitted tasks."""

    @staticmethod
    def _submitted(**kwargs) -> list[SimTask]:
        runner = RecordingRunner()
        protocol_frontier.run(
            side=3, max_rounds=8, options=ExperimentOptions(runner=runner),
            **kwargs,
        )
        (batch,) = runner.batches
        return batch

    def test_matched_cells_share_seeds_across_protocols(self):
        tasks = self._submitted(
            upset_rates=(0.0, 0.4),
            link_crash_counts=(4, 8),
            repetitions=3,
            seed=17,
        )
        lineup = protocol_frontier.DEFAULT_PROTOCOLS
        assert len(tasks) == len(lineup) * 4 * 3
        by_cell: dict[tuple, dict[str, int]] = {}
        for task in tasks:
            # Labels read "frontier <protocol> <fault>=<level> rep=<rep>".
            _, fault, rep = task.label.rsplit(" ", 2)
            by_cell.setdefault((fault, rep), {})[
                task.params["spec"].name
            ] = task.seed
        assert len(by_cell) == 4 * 3
        for (fault, rep), seeds in by_cell.items():
            assert len(seeds) == len(lineup)
            assert len(set(seeds.values())) == 1, (
                f"protocols diverge at {fault} {rep}: {seeds}"
            )

    def test_repetitions_get_distinct_seeds(self):
        tasks = self._submitted(
            protocols=protocol_frontier.DEFAULT_PROTOCOLS[:1],
            upset_rates=(0.2,),
            link_crash_counts=(),
            repetitions=4,
            seed=100,
        )
        assert [task.seed for task in tasks] == [100, 101, 102, 103]

    def test_dead_link_draw_is_a_pure_function_of_seed(self):
        topology = Mesh2D(4, 4)
        first = _draw_dead_links(topology, 6, seed=9)
        second = _draw_dead_links(topology, 6, seed=9)
        other = _draw_dead_links(topology, 6, seed=10)
        assert first == second
        assert first != other
        assert all(link in set(topology.links) for link in first)


class TestRegistry:
    def test_new_kinds_registered(self):
        assert {"push_pull", "adaptive_route"} <= set(POLICY_REGISTRY)

    def test_push_pull_roundtrip(self):
        policy = make_policy(
            "push_pull", fanout=2, feedback_k=3, pull_request_bits=32
        )
        assert isinstance(policy, PushPullPolicy)
        assert policy.feedback_k == 3
        rebuilt = build_policy(policy.spec)
        assert rebuilt.spec == policy.spec
        assert rebuilt is not policy

    def test_adaptive_route_roundtrip(self):
        policy = make_policy("adaptive_route", detour_rounds=2)
        assert isinstance(policy, AdaptiveRoutePolicy)
        rebuilt = build_policy(policy.spec)
        assert rebuilt.spec == policy.spec

    def test_constructor_validation_is_loud(self):
        with pytest.raises(ValueError, match="fanout"):
            PushPullPolicy(fanout=0)
        with pytest.raises(ValueError, match="pull_request_bits"):
            PushPullPolicy(pull_request_bits=-1)
        with pytest.raises(ValueError):
            PushPullPolicy(feedback_k=0)  # FeedbackTermination validates
        with pytest.raises(ValueError, match="detour_rounds"):
            AdaptiveRoutePolicy(detour_rounds=-1)

    def test_feedback_termination_counts_and_silences(self):
        termination = FeedbackTermination(2)
        key = (0, 1)
        assert not termination.is_silenced(5, key)
        termination.observe(5, key)
        assert not termination.is_silenced(5, key)
        termination.observe(5, key)
        assert termination.is_silenced(5, key)
        termination.reset()
        assert not termination.is_silenced(5, key)
        with pytest.raises(ValueError):
            FeedbackTermination(0)


class TestCacheKeys:
    def _task(self, spec: PolicySpec) -> SimTask:
        return SimTask.call(
            protocol_frontier._frontier_once,
            side=3,
            spec=spec,
            p_upset=0.0,
            n_dead_links=0,
            max_rounds=16,
            seed=1,
        )

    def test_simconfig_tokens_distinct_across_new_specs(self):
        tokens = {
            SimConfig(Mesh2D(3, 3), spec).cache_token() for spec in NEW_SPECS
        }
        assert len(tokens) == len(NEW_SPECS)

    def test_task_keys_distinct_across_new_specs(self):
        keys = {self._task(spec).cache_key() for spec in NEW_SPECS}
        assert len(keys) == len(NEW_SPECS)

    def test_identical_spec_rebuilt_hits(self):
        rebuilt = PolicySpec.of("push_pull", feedback_k=2)
        assert (
            self._task(NEW_SPECS[2]).cache_key()
            == self._task(rebuilt).cache_key()
        )

    def test_frontier_never_aliases_policy_compare(self):
        from repro.experiments.policy_compare import _policy_once

        spec = PolicySpec.of("bernoulli", forward_probability=0.5)
        frontier_task = self._task(spec)
        compare_task = SimTask.call(
            _policy_once,
            side=3,
            spec=spec,
            p_upset=0.0,
            p_overflow=0.0,
            n_dead_links=0,
            max_rounds=16,
            seed=1,
        )
        assert frontier_task.cache_key() != compare_task.cache_key()


@pytest.mark.frontier
class TestDeterminism:
    _KWARGS = dict(
        side=4,
        repetitions=2,
        seed=5,
        max_rounds=48,
        upset_rates=(0.0, 0.3),
        link_crash_counts=(4,),
        deadline_rounds=16,
    )

    def test_backends_bit_identical(self):
        on_object = protocol_frontier.run(
            **self._KWARGS, options=ExperimentOptions(backend="object")
        )
        on_fast = protocol_frontier.run(
            **self._KWARGS, options=ExperimentOptions(backend="fast")
        )
        assert on_object == on_fast

    def test_worker_counts_bit_identical(self):
        serial = protocol_frontier.run(
            **self._KWARGS, options=ExperimentOptions(n_workers=1)
        )
        fanned = protocol_frontier.run(
            **self._KWARGS, options=ExperimentOptions(n_workers=2)
        )
        assert serial == fanned

    def test_deadline_is_aggregation_only(self):
        tight = protocol_frontier.run(**{
            **self._KWARGS, "deadline_rounds": 4,
        })
        loose = protocol_frontier.run(**{
            **self._KWARGS, "deadline_rounds": 48,
        })
        # Same physics, different deadline bookkeeping.
        for a, b in zip(tight.points, loose.points):
            assert a.coverage == b.coverage
            assert a.rounds == b.rounds
            assert a.energy_j == b.energy_j
            assert a.deadline_rate <= b.deadline_rate


@pytest.mark.frontier
class TestReport:
    def test_run_covers_every_protocol_and_axis(self):
        report = protocol_frontier.run(
            side=3,
            repetitions=2,
            max_rounds=32,
            upset_rates=(0.0,),
            link_crash_counts=(2,),
        )
        cells = {(p.protocol, p.fault, p.level) for p in report.points}
        names = {spec.name for spec in protocol_frontier.DEFAULT_PROTOCOLS}
        assert {c[0] for c in cells} == names
        assert {c[1] for c in cells} == {"upset", "link_crash"}
        assert len(names) >= 4

    def test_pull_traffic_only_for_pull_protocols(self):
        report = protocol_frontier.run(
            side=3,
            repetitions=2,
            max_rounds=32,
            upset_rates=(0.0,),
            link_crash_counts=(),
        )
        for point in report.points:
            if point.protocol.startswith("push_pull"):
                assert point.pull_requests > 0
            else:
                assert point.pull_requests == 0

    def test_format_table_groups_by_axis(self):
        report = protocol_frontier.run(
            side=3, repetitions=1, max_rounds=32,
            upset_rates=(0.0,), link_crash_counts=(2,),
        )
        text = protocol_frontier.format_table(report)
        assert "fault axis: upset" in text
        assert "fault axis: link_crash" in text
        assert "push_pull" in text
        assert "adaptive_route" in text

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="repetitions"):
            protocol_frontier.run(repetitions=0)
        with pytest.raises(ValueError, match="deadline_rounds"):
            protocol_frontier.run(deadline_rounds=0)


@pytest.mark.frontier
class TestDocsWorkedExample:
    """The numbers in docs/protocols-frontier.md are real output."""

    def test_docs_table_is_reproduced(self):
        from pathlib import Path

        doc = (
            Path(__file__).resolve().parent.parent
            / "docs"
            / "protocols-frontier.md"
        ).read_text()
        # The doc's worked example: repro frontier --side 4
        # --repetitions 3 --seed 0 --deadline-rounds 16.
        report = protocol_frontier.run(
            side=4,
            repetitions=3,
            seed=0,
            max_rounds=48,
            deadline_rounds=16,
        )
        for line in protocol_frontier.format_table(report).splitlines():
            assert line in doc, (
                f"docs/protocols-frontier.md worked example is stale; "
                f"missing line:\n{line}"
            )


@pytest.mark.frontier
class TestCertifiedFrontier:
    def test_certify_decides_clear_cells(self):
        envelope = protocol_frontier.certify_frontier(
            protocols=(PolicySpec.of("bernoulli", forward_probability=0.75),),
            kinds=("burst_upsets",),
            levels=(0.0, 1.0),
            side=4,
            max_rounds=96,
            max_replicates=32,
        )
        verdicts = {
            (cell.protocol, cell.intensity): cell.verdict
            for cell in envelope.cells
        }
        name = "bernoulli(forward_probability=0.75)"
        assert verdicts[(name, 0.0)] is Verdict.ACCEPT
        assert verdicts[(name, 1.0)] is Verdict.REJECT
        assert envelope.thresholds[name]["burst_upsets"] == 0.0
        text = protocol_frontier.format_envelope(envelope)
        assert "certified protocol-frontier envelope" in text
        assert name in text

    def test_certify_is_deterministic(self):
        kwargs = dict(
            protocols=(PolicySpec.of("push_pull"),),
            kinds=("burst_upsets",),
            levels=(0.0,),
            side=3,
            max_rounds=48,
            max_replicates=16,
        )
        first = protocol_frontier.certify_frontier(**kwargs)
        second = protocol_frontier.certify_frontier(**kwargs)
        assert first.cells == second.cells

    def test_certify_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown chaos axis"):
            protocol_frontier.certify_frontier(kinds=("solar_storm",))
