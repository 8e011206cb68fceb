"""Self-checks of the benchmark (outside tier-1's ``testpaths``).

Run as ``PYTHONPATH=src python -m pytest bench/ -q`` (~2.5 min here).
The smoke pass measures every workload twice (untraced, traced) at the
shortest run length, which is ~90 s: ``cli_suite`` alone is ~5 s an
iteration.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import cells  # noqa: E402
import compare  # noqa: E402
from workloads import FastClean, FastFaulty  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((BENCH / "expected.json").read_text())


def run_bench(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, check=False,
    )


@pytest.fixture(scope="module")
def document(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench_out")
    done = run_bench("--seconds", "0.5", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    (path,) = out.glob("BENCH_*.json")
    assert (out / path.name.replace("BENCH_", "trace_")).exists()
    return json.loads(path.read_text())


def test_smoke_output_matches_benchmark_json(document):
    compare.validate(document, SPEC)
    assert list(document["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for entry in document["workloads"].values():
        assert entry["fail_share"] == 0 and entry["digests_pinned"]
        for section in ("end_to_end", "per_layer"):
            assert list(entry[section]) == [m["name"] for m in SPEC[section]]
            assert all(compare.NAME.match(name) for name in entry[section])
        assert all(value > 0 for value in entry["end_to_end"].values())


def test_workloads_stress_what_they_claim(document):
    layers = {n: w["per_layer"] for n, w in document["workloads"].items()}
    warm, cold = layers["campaign_warm"], layers["campaign_cold"]
    assert warm["runners.runner.task_exec_s"] == 0
    assert warm["runners.cache.hit_ratio"] == 1.0
    assert cold["runners.cache.hit_ratio"] == 0.0
    assert cold["service.jobs.chunks"] == 125
    assert layers["cli_suite"]["stats.certify.replicates"] > 0
    for name in ("fast_clean", "fast_faulty", "campaign_warm", "cli_suite"):
        assert layers[name]["noc.object.run_s"] == 0
    assert layers["object_gals"]["noc.fast.run_s"] == 0
    same_cells = {document["workloads"][n]["sim_digest"]
                  for n in ("campaign_cold", "campaign_pool")}
    assert len(same_cells) == 1


def test_compare_of_a_file_with_itself(document):
    assert not [r for r in compare.compare(document, document, SPEC)
                if r[-1] == "worse"]
    steady = copy.deepcopy(document)
    for entry in steady["workloads"].values():
        entry["samples"] = {k: [1.0, 1.0, 1.0] for k in entry["samples"]}
    assert {r[-1] for r in compare.compare(steady, steady, SPEC)} == {"ok"}


def test_compare_flags_what_got_worse(document):
    worse = copy.deepcopy(document)
    worse["workloads"]["fast_clean"]["end_to_end"]["wall_s"] *= 1.5
    worse["workloads"]["object_gals"]["sim_digest"] = "0" * 64
    worse["workloads"]["cli_suite"]["fail_share"] = 0.25
    flagged = {(r[0], r[1]) for r in compare.compare(document, worse, SPEC)
               if r[-1] == "worse"}
    assert flagged == {("fast_clean", "wall_s"),
                       ("object_gals", "sim_digest"),
                       ("cli_suite", "fail_share")}


@pytest.mark.parametrize("workload", [FastClean, FastFaulty])
def test_pinned_digests_hold_on_the_object_engine(workload, tmp_path):
    """The equivalence gate, re-asserted on the benchmark's own inputs.

    The smoke run already showed the fast backend reproduces the pins.
    """
    pins = PINS["ops"][workload.pins_key]
    for op in workload(PINS["seed"], tmp_path).ops:
        simulator = cells.build(
            op.config.with_(backend="object"), op.sources, op.seed
        )
        result = cells.run(simulator, op.config.default_ttl, saturate=False)
        assert cells.digest(cells.result_form(result)) == pins[op.label]


def test_doctored_digest_is_a_failed_op(tmp_path):
    doctored = copy.deepcopy(PINS)
    doctored["ops"]["object_gals"]["gals2"] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(doctored))
    done = run_bench("--workload", "object_gals", "--seed", str(PINS["seed"]),
                     "--seconds", "0.5", "--trace", "0",
                     "--expected", str(path))
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["failed"] == 1 and not line["correct"]
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_unpinned_seed_is_checked_against_a_reference():
    done = run_bench("--workload", "fast_faulty", "--seed", "77",
                     "--seconds", "0.5", "--trace", "1")
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "fast_clean", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
