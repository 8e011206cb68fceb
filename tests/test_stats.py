"""Tests for repro.stats — claims, sequential tests, certification."""

from __future__ import annotations

import asyncio
import json
import math
import pickle

import numpy as np
import pytest

from repro.metrics import extract_statistic, register_extractor
from repro.metrics.records import RunMetrics
from repro.runners import SweepRunner
from repro.service import JobQueue, ResultsDB
from repro.stats import (
    BernoulliClaim,
    BoundedMeanClaim,
    Certificate,
    CertificationRunner,
    TrajectoryPoint,
    Verdict,
    fixed_sample_size,
)


def _coin_run(bias: float, seed: int | None = None) -> tuple:
    """A fast fake harness task following the (completed, rounds, coverage)
    convention: success with probability `bias`, deterministic per seed."""
    rng = np.random.default_rng(seed)
    hit = bool(rng.random() < bias)
    rounds = int(rng.integers(1, 12))
    coverage = 1.0 if hit else round(float(rng.random()) * 0.5, 6)
    return hit, rounds, coverage


SURE_CLAIM = BernoulliClaim(metric="completed")


class TestVerdict:
    def test_decided_property(self):
        assert Verdict.ACCEPT.decided
        assert Verdict.REJECT.decided
        assert not Verdict.UNDECIDED.decided

    def test_values_match_db_check_constraint(self):
        assert {v.value for v in Verdict} == {"accept", "reject", "undecided"}


class TestClaimSpecs:
    def test_defaults_and_derived_quantities(self):
        claim = BernoulliClaim()
        assert claim.metric == "completed"
        assert claim.p0 == pytest.approx(0.7)
        assert claim.confidence == pytest.approx(0.95)
        assert "P(completed) >= 0.9" in claim.statement

    def test_validation_is_loud(self):
        with pytest.raises(ValueError, match="target"):
            BernoulliClaim(target=1.0)
        with pytest.raises(ValueError, match="indifference"):
            BernoulliClaim(target=0.5, indifference=0.6)
        with pytest.raises(ValueError, match="alpha"):
            BernoulliClaim(alpha=0.0)
        with pytest.raises(ValueError, match="relation"):
            BoundedMeanClaim(relation="==")
        with pytest.raises(ValueError, match="lo < hi"):
            BoundedMeanClaim(lo=1.0, hi=0.0)
        with pytest.raises(ValueError, match="threshold"):
            BoundedMeanClaim(threshold=2.0)
        with pytest.raises(ValueError, match="method"):
            BoundedMeanClaim(method="bootstrap")

    def test_registry_mirrors_policies(self):
        # The JSON form round-trips through the class: drop `kind`, feed
        # the remaining fields back to the constructor.
        for claim in (
            BernoulliClaim(target=0.8, indifference=0.1),
            BoundedMeanClaim(method="hoeffding", threshold=0.5),
        ):
            doc = claim.to_json_dict()
            assert doc.pop("kind") == claim.kind
            assert type(claim)(**doc) == claim

    def test_claims_pickle_and_hash(self):
        for claim in (BernoulliClaim(), BoundedMeanClaim(method="hoeffding")):
            assert pickle.loads(pickle.dumps(claim)) == claim
            assert hash(claim) == hash(pickle.loads(pickle.dumps(claim)))

    def test_to_json_dict_carries_kind_and_fields(self):
        doc = BernoulliClaim(target=0.8, indifference=0.1).to_json_dict()
        assert doc["kind"] == "bernoulli"
        assert doc["target"] == 0.8
        json.dumps(doc)  # JSON-native throughout


class TestSPRT:
    def test_all_successes_accept_at_the_wald_boundary(self):
        claim = BernoulliClaim()  # target .9, indifference .2, a=b=.05
        test = claim.test()
        steps = []
        while not test.verdict.decided:
            steps.append(test.update(1.0))
        expected = math.ceil(
            math.log(0.95 / 0.05) / math.log(0.9 / 0.7)
        )
        assert test.verdict is Verdict.ACCEPT
        assert len(steps) == expected  # 12 at the default error rates
        assert steps[-1].statistic >= steps[-1].upper
        assert [point.index for point in steps] == list(range(len(steps)))

    def test_all_failures_reject_fast(self):
        test = BernoulliClaim().test()
        n = 0
        while not test.verdict.decided:
            test.update(0.0)
            n += 1
        assert test.verdict is Verdict.REJECT
        assert n == 3  # failures are much more informative than successes

    def test_decided_test_refuses_updates(self):
        test = BernoulliClaim().test()
        while not test.verdict.decided:
            test.update(0.0)
        with pytest.raises(RuntimeError, match="decided"):
            test.update(1.0)

    def test_non_binary_statistic_is_a_loud_error(self):
        test = BernoulliClaim(metric="coverage").test()
        with pytest.raises(ValueError, match="indicator"):
            test.update(0.97)

    def test_fixed_sample_size_formula(self):
        claim = BernoulliClaim()
        expected = math.ceil(math.log(1 / 0.05) / (2 * 0.1**2))
        assert fixed_sample_size(claim) == expected == 150
        tighter = BernoulliClaim(indifference=0.1)
        assert fixed_sample_size(tighter) > fixed_sample_size(claim)


class TestConfidenceSequence:
    def test_constant_high_mean_accepts(self):
        claim = BoundedMeanClaim(threshold=0.9, method="hoeffding")
        test = claim.test()
        n = 0
        while not test.verdict.decided and n < 5000:
            test.update(1.0)
            n += 1
        assert test.verdict is Verdict.ACCEPT

    def test_empirical_bernstein_exploits_low_variance(self):
        def stopping_time(method):
            test = BoundedMeanClaim(threshold=0.9, method=method).test()
            n = 0
            while not test.verdict.decided and n < 5000:
                test.update(1.0)
                n += 1
            return n

        assert stopping_time("empirical-bernstein") < stopping_time(
            "hoeffding"
        )

    def test_constant_low_mean_rejects(self):
        test = BoundedMeanClaim(threshold=0.9).test()
        n = 0
        while not test.verdict.decided and n < 5000:
            test.update(0.2)
            n += 1
        assert test.verdict is Verdict.REJECT

    def test_less_equal_relation(self):
        test = BoundedMeanClaim(threshold=0.3, relation="<=").test()
        n = 0
        while not test.verdict.decided and n < 5000:
            test.update(0.05)
            n += 1
        assert test.verdict is Verdict.ACCEPT

    def test_bounds_are_clamped_to_the_claimed_range(self):
        point = BoundedMeanClaim().test().update(1.0)
        assert point.lower >= 0.0
        assert point.upper <= 1.0

    def test_out_of_range_observation_is_a_loud_error(self):
        test = BoundedMeanClaim(lo=0.0, hi=1.0).test()
        with pytest.raises(ValueError, match="outside the claimed range"):
            test.update(1.5)

    def test_decided_test_refuses_updates(self):
        test = BoundedMeanClaim(threshold=0.9).test()
        while not test.verdict.decided:
            test.update(0.0)
        with pytest.raises(RuntimeError, match="decided"):
            test.update(0.0)


# Known-answer streams for the confidence sequences: seeded draws on a
# known range whose true mean is exactly `mean`.
def _bernoulli(rng, mean, shape):
    return rng.random(shape) < mean


def _beta(rng, mean, shape):
    # Concentration 10: variance mean (1 - mean) / 11.
    return rng.beta(10 * mean, 10 * (1 - mean), shape)


CS_STREAMS = {
    # name: (draw on [0, 1], lo, hi, threshold as a fraction of the range)
    "bernoulli": (_bernoulli, 0.0, 1.0, 0.7),
    "beta": (_beta, 0.0, 1.0, 0.5),
    "beta-scaled": (_beta, -2.0, 6.0, 0.4),
}
CS_STREAM_SEEDS = {"bernoulli": 11, "beta": 12, "beta-scaled": 13}
CS_METHOD_SEEDS = {"hoeffding": 1, "empirical-bernstein": 2}


def _run_streams(name, method, relation, offset, n_streams, budget):
    """Feed `n_streams` seeded streams to fresh tests of one claim.

    The true mean sits `offset` (a fraction of the range) past the
    threshold: toward the claimed side when positive.  Returns the
    verdicts and the observations each stream took.
    """
    draw, lo, hi, fraction = CS_STREAMS[name]
    span = hi - lo
    sign = 1.0 if relation == ">=" else -1.0
    claim = BoundedMeanClaim(
        threshold=lo + span * fraction, relation=relation, lo=lo, hi=hi,
        method=method,
    )
    rng = np.random.default_rng(
        [CS_STREAM_SEEDS[name], CS_METHOD_SEEDS[method], sign > 0, n_streams]
    )
    values = lo + span * draw(
        rng, fraction + sign * offset, (n_streams, budget)
    ).astype(float)
    verdicts, lengths = [], []
    for stream in values.tolist():
        test = claim.test()
        for value in stream:
            test.update(value)
            if test.verdict.decided:
                break
        verdicts.append(test.verdict)
        lengths.append(test.n)
    return claim, verdicts, lengths


@pytest.mark.parametrize("relation", [">=", "<="])
@pytest.mark.parametrize("method", sorted(CS_METHOD_SEEDS))
@pytest.mark.parametrize("stream", sorted(CS_STREAMS))
class TestConfidenceSequenceKnownAnswers:
    """Validity and power of both radii, on streams whose mean is known."""

    def test_false_accepts_stay_within_delta(self, stream, method, relation):
        # A mean 1 % of the range on the wrong side: every accept is
        # false.  The guarantee is anytime, so it holds at this horizon.
        claim, verdicts, _ = _run_streams(
            stream, method, relation, -0.01, n_streams=200, budget=150
        )
        rate = verdicts.count(Verdict.ACCEPT) / len(verdicts)
        assert rate <= claim.delta

    def test_a_clear_mean_accepts_within_the_budget(
        self, stream, method, relation
    ):
        claim, verdicts, lengths = _run_streams(
            stream, method, relation, 0.1, n_streams=3, budget=3000
        )
        assert verdicts == [Verdict.ACCEPT] * 3, lengths


class TestExtractStatistic:
    OUTCOME = (True, 12, 0.997)

    def test_registered_names(self):
        assert extract_statistic("completed", self.OUTCOME) == 1.0
        assert extract_statistic("rounds", self.OUTCOME) == 12.0
        assert extract_statistic("coverage", self.OUTCOME) == 0.997

    def test_threshold_indicator_mini_language(self):
        assert extract_statistic("coverage>=0.99", self.OUTCOME) == 1.0
        assert extract_statistic("coverage>=0.999", self.OUTCOME) == 0.0
        assert extract_statistic("rounds<=20", self.OUTCOME) == 1.0
        assert extract_statistic("rounds<=5", self.OUTCOME) == 0.0

    def test_grid_spread_curve_outcome_reads_final_coverage(self):
        outcome = (True, 3, [0.1, 0.6, 1.0])
        assert extract_statistic("coverage", outcome) == 1.0

    def test_trailing_run_metrics_is_skipped_for_scalars(self):
        metrics = RunMetrics(n_tiles=4)
        outcome = (True, 7, 0.75, metrics)
        assert extract_statistic("coverage", outcome) == 0.75
        assert extract_statistic("rounds", outcome) == 7.0

    def test_energy_requires_instrumentation(self):
        with pytest.raises(ValueError, match="instrumented"):
            extract_statistic("energy", self.OUTCOME)

    def test_unknown_and_malformed_metrics_are_loud(self):
        with pytest.raises(ValueError, match="unknown replicate metric"):
            extract_statistic("latency", self.OUTCOME)
        with pytest.raises(ValueError, match="not a number"):
            extract_statistic("coverage>=high", self.OUTCOME)

    def test_register_extractor_guards_names_and_collisions(self):
        with pytest.raises(ValueError, match="operator-free"):
            register_extractor("bad>=1", lambda outcome: 0.0)
        with pytest.raises(ValueError, match="already registered"):
            register_extractor("coverage", lambda outcome: 0.0)


class TestCertificationRunner:
    FN = "tests.test_stats:_coin_run"

    def _certify(self, bias, *, claim=SURE_CLAIM, **kwargs):
        defaults = dict(batch_size=4, max_replicates=48, base_seed=11)
        defaults.update(kwargs)
        runner = CertificationRunner(**defaults)
        return runner.certify(claim, self.FN, {"bias": bias}, label="coin")

    def test_sure_claims_decide_early(self):
        accept = self._certify(1.0)
        assert accept.verdict is Verdict.ACCEPT
        assert accept.n_observed == 12 < accept.budget
        reject = self._certify(0.0)
        assert reject.verdict is Verdict.REJECT
        assert reject.n_observed == 3

    def test_budget_exhaustion_certifies_undecided(self):
        # Two observations can reach neither Wald boundary (accept needs
        # 12 successes, reject 3 failures) — the honest verdict.
        certificate = self._certify(1.0, max_replicates=2)
        assert certificate.verdict is Verdict.UNDECIDED
        assert certificate.n_observed == certificate.budget == 2

    def test_certificate_is_frozen_picklable_and_json(self):
        certificate = self._certify(1.0)
        clone = pickle.loads(pickle.dumps(certificate))
        assert clone == certificate
        doc = certificate.to_json_dict()
        json.dumps(doc)
        assert doc["verdict"] == "accept"
        assert len(doc["trajectory"]) == certificate.n_observed
        assert certificate.final == certificate.trajectory[-1]
        assert isinstance(certificate.final, TrajectoryPoint)

    def test_bit_identical_across_batch_sizes(self):
        reference = self._certify(1.0, batch_size=1)
        for batch_size in (3, 8, 48):
            assert self._certify(1.0, batch_size=batch_size) == reference

    def test_bit_identical_across_worker_counts(self):
        serial = self._certify(1.0)
        pooled = self._certify(
            1.0, runner=SweepRunner(n_workers=4), batch_size=4,
        )
        assert pooled == serial

    def test_trajectory_is_schedule_independent_not_executions(self):
        # A big batch overruns the stopping point: more tasks execute,
        # but the certificate never sees the overrun.
        runner = CertificationRunner(
            batch_size=48, max_replicates=48, base_seed=11
        )
        certificate = runner.certify(
            SURE_CLAIM, self.FN, {"bias": 1.0}, label="coin"
        )
        assert runner.runner.tasks_submitted == 48
        assert certificate.n_observed == 12

    def test_base_seed_changes_the_replicate_stream(self):
        near = BernoulliClaim(target=0.75, indifference=0.5)
        a = self._certify(0.6, claim=near, base_seed=1)
        b = self._certify(0.6, claim=near, base_seed=2)
        assert a.trajectory != b.trajectory

    def test_invalid_construction_is_loud(self):
        with pytest.raises(ValueError, match="batch_size"):
            CertificationRunner(batch_size=0)
        with pytest.raises(ValueError, match="max_replicates"):
            CertificationRunner(max_replicates=0)


class TestDatabaseRecording:
    FN = "tests.test_stats:_coin_run"

    def test_certificate_and_campaign_rows_land_together(self):
        db = ResultsDB(":memory:")
        runner = CertificationRunner(
            batch_size=4, max_replicates=48, base_seed=11, db=db
        )
        certificate = runner.certify(
            SURE_CLAIM, self.FN, {"bias": 1.0}, label="coin accept"
        )
        (row,) = db.certificates()
        assert row["verdict"] == "accept"
        assert row["claim_kind"] == "bernoulli"
        assert row["metric"] == "completed"
        assert row["label"] == "coin accept"
        assert row["n_observed"] == certificate.n_observed
        assert row["base_seed"] == "11"
        assert json.loads(row["claim_json"]) == SURE_CLAIM.to_json_dict()
        trajectory = json.loads(row["trajectory_json"])
        assert len(trajectory) == certificate.n_observed

        (run,) = db.runs()
        assert run["status"] == "completed"
        assert run["run_id"] == row["run_id"]
        # The campaign row counts *executed* replicates (batch rounding
        # included), and every one was written through as a task row.
        n_tasks = db.query("SELECT COUNT(*) AS n FROM tasks")[0]["n"]
        assert run["n_tasks"] == n_tasks >= certificate.n_observed

    def test_failed_certification_stamps_the_run_failed(self):
        db = ResultsDB(":memory:")
        runner = CertificationRunner(
            batch_size=4, max_replicates=8, base_seed=11, db=db
        )
        with pytest.raises(ValueError, match="indicator"):
            runner.certify(
                BernoulliClaim(metric="coverage"),  # non-indicator: update
                self.FN,                            # raises mid-consume
                {"bias": 0.0},
            )
        (run,) = db.runs()
        assert run["status"] == "failed"
        assert db.certificates() == []

    def test_db_path_argument_opens_a_store(self, tmp_path):
        runner = CertificationRunner(
            batch_size=4, max_replicates=48, db=tmp_path / "cert.db"
        )
        runner.certify(SURE_CLAIM, self.FN, {"bias": 1.0})
        with ResultsDB(tmp_path / "cert.db") as store:
            assert len(store.certificates()) == 1

    def test_certificates_filter_by_run(self):
        db = ResultsDB(":memory:")
        runner = CertificationRunner(
            batch_size=4, max_replicates=48, base_seed=11, db=db
        )
        runner.certify(SURE_CLAIM, self.FN, {"bias": 1.0}, label="one")
        runner.certify(SURE_CLAIM, self.FN, {"bias": 0.0}, label="two")
        runs = db.runs()
        assert len(runs) == 2
        for run in runs:
            (row,) = db.certificates(run_id=run["run_id"])
            assert row["label"] in ("one", "two")


class TestAsyncCertification:
    FN = "tests.test_stats:_coin_run"

    def test_job_queue_path_matches_blocking_path(self):
        blocking = CertificationRunner(
            batch_size=4, max_replicates=48, base_seed=11
        ).certify(SURE_CLAIM, self.FN, {"bias": 1.0}, label="coin")

        async def scenario():
            certifier = CertificationRunner(
                batch_size=4, max_replicates=48, base_seed=11
            )
            async with JobQueue() as queue:
                return await certifier.certify_async(
                    queue, SURE_CLAIM, self.FN, {"bias": 1.0}, label="coin"
                )

        assert asyncio.run(scenario()) == blocking

    def test_async_certificates_record_into_the_queue_db(self):
        db = ResultsDB(":memory:")

        async def scenario():
            certifier = CertificationRunner(
                batch_size=4, max_replicates=48, base_seed=11
            )
            async with JobQueue(db=db) as queue:
                return await certifier.certify_async(
                    queue, SURE_CLAIM, self.FN, {"bias": 1.0}, label="async"
                )

        certificate = asyncio.run(scenario())
        (row,) = db.certificates()
        assert row["verdict"] == certificate.verdict.value
        assert row["label"] == "async"
        assert row["run_id"] is None  # batches span several queue jobs


class TestCertifiedEnvelope:
    def test_tiny_envelope_certifies_the_extremes(self):
        from repro.experiments import certify

        envelope = certify.certify_chaos_envelope(
            kinds=("burst_upsets",),
            levels=(0.0, 1.0),
            max_replicates=16,
            batch_size=8,
        )
        assert [cell.verdict for cell in envelope.cells] == [
            Verdict.ACCEPT,
            Verdict.REJECT,
        ]
        assert envelope.thresholds == {"burst_upsets": 0.0}
        text = certify.format_envelope(envelope)
        assert "certified tolerance envelope" in text
        assert "accept" in text and "reject" in text

    def test_unknown_axis_fails_before_any_simulation(self):
        from repro.experiments import certify

        with pytest.raises(ValueError, match="unknown chaos axis"):
            certify.certify_chaos_envelope(kinds=("meteor_strike",))


class TestCertifyCLI:
    def test_certify_command_prints_the_envelope(self, capsys, tmp_path):
        from repro.cli import main

        db_path = tmp_path / "certs.db"
        code = main([
            "certify",
            "--kinds", "burst_upsets",
            "--levels", "0.0", "1.0",
            "--max-replicates", "16",
            "--db", str(db_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "certified tolerance envelope" in out
        assert "accept" in out and "reject" in out
        with ResultsDB(db_path) as store:
            assert len(store.certificates()) == 2

    def test_db_export_includes_certificates_table(self, capsys, tmp_path):
        from repro.cli import main

        db_path = tmp_path / "certs.db"
        main([
            "certify", "--kinds", "burst_upsets", "--levels", "1.0",
            "--max-replicates", "8", "--db", str(db_path),
        ])
        capsys.readouterr()
        code = main([
            "db", "export", str(db_path),
            "--table", "certificates", "--format", "csv",
        ])
        out = capsys.readouterr().out
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == sorted(header)
        assert "verdict" in header

    def test_info_lists_the_stats_package_and_certify_command(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "stats" in out
        assert "certify" in out
