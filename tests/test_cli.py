"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_figure_choices(self):
        parser = build_parser()
        for name in FIGURES:
            args = parser.parse_args(["figure", name])
            assert args.name == name
        with pytest.raises(SystemExit):
            parser.parse_args(["figure", "fig9_9"])


class TestRunnerArgumentValidation:
    def test_zero_workers_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["spread", "--workers", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_negative_workers_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--workers", "-2"])

    def test_uncreatable_cache_dir_rejected(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["spread", "--cache-dir", str(blocker / "sub")]
            )
        assert "cache directory" in capsys.readouterr().err

    def test_valid_cache_dir_is_created_up_front(self, tmp_path):
        target = tmp_path / "fresh" / "cache"
        args = build_parser().parse_args(
            ["spread", "--cache-dir", str(target)]
        )
        assert args.cache_dir == str(target)
        assert target.is_dir()

    def test_zero_max_attempts_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["spread", "--max-attempts", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_negative_retry_backoff_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["certify", "--retry-backoff", "-1"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_nonpositive_task_timeout_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frontier", "--task-timeout", "0"])
        assert "must be > 0" in capsys.readouterr().err

    def test_retry_knobs_reach_experiment_options(self):
        from repro.cli import _sweep_options

        args = build_parser().parse_args(
            [
                "spread",
                "--max-attempts", "3",
                "--retry-backoff", "0.1",
                "--task-timeout", "5",
            ]
        )
        options = _sweep_options(args)
        assert options.max_attempts == 3
        assert options.retry_backoff_s == 0.1
        assert options.task_timeout_s == 5.0


class TestInfo:
    def test_prints_version(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "repro" in output
        assert "Stochastic Communication" in output

    def test_command_list_is_read_off_the_parser(self, capsys):
        """`info` cannot drift: it prints the parser's own subcommands."""
        from repro.cli import command_names

        names = command_names()
        for name in names:
            # Every listed command parses (SystemExit 0 = its --help ran).
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args([name, "--help"])
            assert exit_info.value.code == 0
        capsys.readouterr()
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "commands: " + " ".join(names) in output
        assert {"info", "spread", "frontier", "chaos-service", "db"} <= set(names)


class TestSpread:
    def test_mesh_spread(self, capsys):
        assert main(["spread", "--side", "3", "--repetitions", "2"]) == 0
        output = capsys.readouterr().out
        assert "saturation" in output
        assert "#" in output  # the heat map

    def test_complete_graph(self, capsys):
        assert (
            main(
                [
                    "spread",
                    "--topology",
                    "complete",
                    "--side",
                    "3",
                    "--repetitions",
                    "2",
                ]
            )
            == 0
        )
        assert "fully" in capsys.readouterr().out.lower() or True


class TestProbe:
    def test_probability_and_profile(self, capsys):
        code = main(
            [
                "probe",
                "--side",
                "3",
                "--src",
                "0",
                "--dst",
                "8",
                "--ttl",
                "8",
                "--trials",
                "20",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "delivery probability" in output
        assert "latency rounds" in output

    def test_minimum_ttl_search(self, capsys):
        code = main(
            [
                "probe",
                "--side",
                "3",
                "--dst",
                "8",
                "--p",
                "1.0",
                "--ttl",
                "6",
                "--trials",
                "5",
                "--target",
                "0.9",
            ]
        )
        assert code == 0
        assert "minimum ttl" in capsys.readouterr().out


class TestProfile:
    ARGS = ["profile", "--side", "4", "--rounds", "24", "--repetitions", "2",
            "--upset", "0.1"]

    def test_fast_backend_reports_engine_paths(self, capsys):
        assert main(self.ARGS + ["--backend", "fast"]) == 0
        output = capsys.readouterr().out
        _, _, listing = output.partition("engine paths")
        counts = dict(line.split() for line in listing.splitlines()[1:])
        assert int(counts["send.pooled"]) > 0
        assert int(counts["send.vectorized"]) == 0
        # A push-only run has no pull phase, but the keys are listed.
        assert int(counts["pull.vectorized"]) == 0
        assert int(counts["pull.sequential"]) == 0
        assert int(counts["pool.doubles_drawn"]) >= int(
            counts["pool.doubles_used"]
        )

    def test_object_backend_has_no_paths_to_report(self, capsys):
        assert main(self.ARGS + ["--backend", "object"]) == 0
        assert "engine paths" not in capsys.readouterr().out


class TestMp3:
    def test_clean_run_exits_zero(self, capsys):
        code = main(
            ["mp3", "--frames", "3", "--granule", "144", "--max-rounds", "400"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "complete" in output
        assert "bit-rate" in output

    def test_catastrophic_loss_exits_nonzero(self, capsys):
        code = main(
            [
                "mp3",
                "--frames",
                "3",
                "--granule",
                "144",
                "--overflow",
                "0.97",
                "--max-rounds",
                "400",
            ]
        )
        assert code == 1
        assert "incomplete" in capsys.readouterr().out


class TestFigure:
    def test_fig3_1(self, capsys, tmp_path):
        assert main(["figure", "fig3_1"]) == 0
        assert "fig3_1" in capsys.readouterr().out
        # fig3_1 declares no SUPPORTS: both result knobs are refused
        # with a message naming the figure and the ones that do.
        out = tmp_path / "metrics.json"
        assert main(["figure", "fig3_1", "--metrics-out", str(out)]) == 2
        refusal = capsys.readouterr().err
        assert "fig3_1" in refusal and "fig4_4, grid_spread" in refusal
        assert not out.exists()
        assert main(["figure", "fig3_1", "--backend", "fast"]) == 2
        refusal = capsys.readouterr().err
        assert "fig3_1" in refusal and "--backend supports grid_spread" in refusal


class TestChaos:
    _FAST = [
        "chaos",
        "--kinds",
        "burst_upsets",
        "--levels",
        "0",
        "0.9",
        "--repetitions",
        "1",
        "--max-rounds",
        "32",
    ]

    def test_prints_the_degradation_report(self, capsys):
        assert main(self._FAST) == 0
        output = capsys.readouterr().out
        assert "chaos degradation report" in output
        assert "burst_upsets" in output
        assert "tolerance thresholds" in output

    def test_metrics_out_writes_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "chaos.json"
        assert main(self._FAST + ["--metrics-out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["experiment"] == "chaos"
        assert "thresholds" in document
        assert document["cells"][0]["runs"]

    def test_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--kinds", "solar_storm"])


class TestFrontier:
    _FAST = [
        "frontier",
        "--side",
        "3",
        "--upsets",
        "0",
        "0.4",
        "--link-crashes",
        "2",
        "--repetitions",
        "2",
        "--max-rounds",
        "32",
    ]

    def test_prints_the_paired_comparison(self, capsys):
        assert main(self._FAST) == 0
        output = capsys.readouterr().out
        assert "protocol frontier" in output
        assert "fault axis: upset" in output
        assert "fault axis: link_crash" in output
        for name in ("bernoulli", "push_pull", "push_pull(feedback_k=2)",
                     "adaptive_route"):
            assert name in output

    def test_fast_backend_matches_object(self, capsys):
        assert main(self._FAST) == 0
        on_object = capsys.readouterr().out
        assert main(self._FAST + ["--backend", "fast"]) == 0
        on_fast = capsys.readouterr().out
        assert on_object == on_fast

    def test_metrics_out_writes_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "frontier.json"
        assert main(self._FAST + ["--metrics-out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["experiment"] == "protocol_frontier"
        points = document["points"]
        assert {p["protocol"] for p in points} >= {
            "push_pull", "adaptive_route",
        }
        assert all("deadline_rate" in p for p in points)

    def test_certify_leg_prints_the_envelope(self, capsys):
        code = main(
            self._FAST
            + [
                "--certify",
                "--certify-levels",
                "0",
                "--certify-max-rounds",
                "48",
                "--max-replicates",
                "8",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "certified protocol-frontier envelope" in output
        assert "certified thresholds" in output


class TestChaosService:
    def test_defaults_suit_the_attacked_fleet(self):
        args = build_parser().parse_args(["chaos-service"])
        assert args.workers == 4
        assert args.max_attempts == 5
        assert args.injectors == [
            "worker_kill", "task_hang", "corrupt_payload",
        ]
        assert args.levels == [0.0, 0.25, 0.5]

    def test_rejects_unknown_injector(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["chaos-service", "--injectors", "cosmic_ray"]
            )

    def test_rejects_nonpositive_hang(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos-service", "--hang-s", "0"])
        assert "must be > 0" in capsys.readouterr().err

    def test_certifies_a_tiny_envelope(self, capsys):
        code = main(
            [
                "chaos-service",
                "--injectors", "worker_kill",
                "--levels", "0.25",
                "--tasks", "4",
                "--target", "0.5",
                "--indifference", "0.4",
                "--alpha", "0.1",
                "--beta", "0.1",
                "--batch-size", "2",
                "--max-replicates", "4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "certified service tolerance envelope" in output
        assert "certified service thresholds" in output
        assert "lost tasks: 0" in output


class TestPolicies:
    def test_list_names_all_registered_kinds(self, capsys):
        assert main(["policies", "list"]) == 0
        output = capsys.readouterr().out
        for kind in ("bernoulli", "flood", "counter", "adaptive"):
            assert kind in output

    def test_compare_runs_the_four_policy_sweep(self, capsys):
        code = main(
            [
                "policies",
                "compare",
                "--side",
                "3",
                "--repetitions",
                "2",
                "--max-rounds",
                "24",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "fault axis: upset" in output
        assert "fault axis: link_crash" in output
        for name in ("bernoulli", "flood", "counter", "adaptive"):
            assert name in output

    def test_policies_requires_an_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["policies"])
