"""The benchmark's one command.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    measures one workload and prints, as its last line, the JSON object
    the benchmark contract asks for (end-to-end metrics with ``--trace
    0``, per-layer metrics with ``--trace 1``).

``python3 bench/run.py [--seed N] [--seconds S]``
    measures every workload, untraced then traced, prints every metric
    by name with its unit and writes ``bench/out/BENCH_<sha>.json`` and
    ``bench/out/trace_<sha>.json``.

``python3 bench/run.py compare A.json B.json``
    judges B against A, one row per (workload, end-to-end metric).

``python3 bench/run.py pin``
    rewrites ``bench/expected.json`` from the default seed.

It is a closed loop with one client: this driver asks one child process
(``worker.py``) for one iteration at a time; the only concurrency is the
program's own 2-worker pool in ``campaign_pool``.  This file never
imports the program, so its own time and memory stay out of the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from compare import compare_files, iqr, validate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SCHEMA = 1
DEFAULT_SEED = 1
#: Fresh children started per run; ``setup_s`` is the median of their
#: start-to-ready times.
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Child:
    """One ``worker.py`` process and the request/reply channel to it."""

    def __init__(self, workload: str, seed: int, scratch: Path,
                 expected: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        scratch.mkdir(parents=True)
        start = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
             str(scratch), str(expected)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.ready = self._reply()
        self.setup_s = perf_counter() - start

    def _reply(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"worker exited with code {self.process.wait()}"
            )
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"worker failed:\n{reply['error']}")
        return reply

    def call(self, cmd: str, **arguments) -> dict:
        """Send one request and wait for its reply."""
        self.process.stdin.write(json.dumps({"cmd": cmd, **arguments}) + "\n")
        self.process.stdin.flush()
        return self._reply()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.process.stdin.close()
        self.process.stdout.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def _high_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, or (0, 0)."""
    if len(samples) < 11:
        return 0.0, 0.0
    index = len(samples) - 11
    return sorted(samples)[index], 100.0 * (index + 1) / len(samples)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            expected: Path) -> dict:
    """Set up, warm up, iterate for `seconds`, verify; see module doc."""
    scratch = BENCH / "out" / "scratch" / f"{workload}-{os.getpid()}"
    try:
        setups = []
        for index in range(SETUP_REPEATS - 1):
            with Child(workload, seed, scratch / f"s{index}", expected) as c:
                setups.append(c.setup_s)
        with Child(workload, seed, scratch / "main", expected) as child:
            setups.append(child.setup_s)
            warmup = child.call("iterate", trace=False)
            runs: list[tuple[bool, dict]] = []
            deadline = perf_counter() + seconds
            while len(runs) < 2 or perf_counter() < deadline:
                # A traced run alternates, so both kinds see the same noise.
                traced = trace and len(runs) % 2 == 1
                runs.append((traced, child.call("iterate", trace=traced)))
            probes = child.call("probes") if trace else {}
            verdict = child.call("verify")
            spans = child.call("spans")["spans"]
            numpy_version = child.ready["numpy"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain = [run for traced, run in runs if not traced]
    best = min(plain, key=lambda run: run["wall_s"])
    n_ops = best["attempted"]
    result = {
        "workload": workload,
        "attempted": sum(run["attempted"] for _, run in runs),
        "failed": sum(run["failed"] for _, run in runs) + verdict["failed"],
        "errors": [e for _, run in runs for e in run["errors"]]
        + verdict["errors"],
        "sim_digest": warmup["sim_digest"],
        "pinned": verdict["pinned"],
        "checked_ops": verdict["checked"],
        "numpy": numpy_version,
        "samples": {
            "setup_s": setups,
            "wall_s": [run["wall_s"] for run in plain],
            "cpu_s": [run["cpu_s"] for run in plain],
        },
        "spans": spans,
    }
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": best["wall_s"],
            "ops_per_s": n_ops / best["wall_s"],
            "cpu_s": best["cpu_s"],
            "peak_rss_mb": max(run["peak_rss_mb"] for _, run in runs),
        }
        return result

    best_traced = min((run for traced, run in runs if traced),
                      key=lambda run: run["wall_s"])
    walls = [run["wall_s"] for run in plain]
    op_walls = [w for _, run in runs for w in run.get("op_walls", [])]
    op_hi_s, op_hi_pct = _high_percentile(op_walls)
    measured = {
        **best_traced["layers"],
        **probes,
        "bench.warmup_s": warmup["wall_s"],
        "bench.trace_overhead_share":
            best_traced["wall_s"] / best["wall_s"] - 1,
        "bench.iter_median_s": statistics.median(walls),
        "bench.iter_iqr_s": iqr(walls),
        "bench.op_p50_s": statistics.median(op_walls) if op_walls else 0.0,
        "bench.op_hi_s": op_hi_s,
        "bench.op_hi_pct": op_hi_pct,
        "bench.op_count": len(op_walls),
    }
    unknown = set(measured) - set(UNITS)
    if unknown:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    # A layer the workload never enters reads 0.
    result["metrics"] = {
        m["name"]: measured.get(m["name"], 0.0) for m in SPEC["per_layer"]
    }
    return result


def print_metrics(result: dict) -> None:
    """Every metric by name, with its unit."""
    for name, value in result["metrics"].items():
        print(f"{result['workload']:14s} {name:42s} {value:14.6g} "
              f"{UNITS[name]}")
    for error in result["errors"]:
        print(f"{result['workload']:14s} FAILED {error}")


def contract_line(result: dict) -> str:
    """The one JSON object the benchmark contract ends a run with."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in result["metrics"].items()
        },
    })


# -------------------------------------------------------------- full suite


def _git(*arguments: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *arguments], capture_output=True,
            text=True, check=False,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding `path` (longest mount-point match)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        _, mount, fstype = line.split()[:3]
        if path.is_relative_to(mount) and len(mount) > len(best):
            best, kind = mount, fstype
    return kind


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, seconds: float, numpy_version: str) -> dict:
    """Where, on what and how this set of runs was made."""
    sha = _git("rev-parse", "--short=12", "HEAD")
    return {
        "schema": SCHEMA,
        "git_sha": sha or "nogit",
        "git_dirty": bool(_git("status", "--porcelain")) if sha else None,
        "seed": seed,
        "seconds_per_run": seconds,
        "setup_repeats": SETUP_REPEATS,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "scratch_fs": _filesystem(BENCH / "out"),
    }


def suite(seed: int, seconds: float, expected: Path, only: list[str],
          out_dir: Path) -> int:
    """Both passes over every workload; writes BENCH and trace files."""
    workloads: dict[str, dict] = {}
    traces = {}
    for name in only:
        plain = measure(name, seed, seconds, False, expected)
        print_metrics(plain)
        traced = measure(name, seed, seconds, True, expected)
        print_metrics(traced)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        if plain["sim_digest"] != traced["sim_digest"]:
            failed = attempted
            plain["errors"].append("passes disagree on sim_digest")
        workloads[name] = {
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "fail_share": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "errors": plain["errors"] + traced["errors"],
            "sim_digest": plain["sim_digest"],
            "digests_pinned": plain["pinned"],
            "checked_ops": plain["checked_ops"],
            "iterations": len(plain["samples"]["wall_s"]),
            "samples": plain["samples"],
        }
        traces[name] = traced["spans"]
    # Both run the same 500 cells once, so they must share one digest.
    same_cells = [workloads[n] for n in ("campaign_cold", "campaign_pool")
                  if n in workloads]
    if len({entry["sim_digest"] for entry in same_cells}) > 1:
        for entry in same_cells:
            entry["errors"].append("campaign_cold != campaign_pool results")
            entry["failed"], entry["fail_share"] = entry["attempted"], 1.0
    document = {
        "provenance": provenance(seed, seconds, plain["numpy"]),
        "workloads": workloads,
    }
    validate(document, SPEC)
    out_dir.mkdir(parents=True, exist_ok=True)
    sha = document["provenance"]["git_sha"]
    bench_file = out_dir / f"BENCH_{sha}.json"
    bench_file.write_text(json.dumps(document, indent=1) + "\n")
    (out_dir / f"trace_{sha}.json").write_text(json.dumps(traces) + "\n")
    failed = sum(w["failed"] for w in document["workloads"].values())
    print(f"wrote {bench_file} ({failed} failed ops)")
    return 1 if failed else 0


def pin(expected: Path) -> int:
    """Rewrite the pinned digests from one iteration at the default seed."""
    ops: dict[str, dict[str, str]] = {}
    scratch = BENCH / "out" / "scratch" / f"pin-{os.getpid()}"
    try:
        for name in WORKLOADS:
            with Child(name, DEFAULT_SEED, scratch / name, expected) as child:
                child.call("iterate", trace=False)
                reply = child.call("digests")
            got = dict(zip(reply["labels"], reply["digests"]))
            want = dict(zip(reply["labels"], reply["reference"]))
            wrong = [label for label in got
                     if got[label] is None
                     or want[label] not in (None, got[label])]
            if wrong:
                print(f"{name}: {wrong[:5]} failed or differ from the "
                      "reference; nothing written", file=sys.stderr)
                return 1
            if ops.setdefault(reply["key"], got) != got:
                print(f"{name}: differs from the other workloads sharing "
                      f"{reply['key']!r}; nothing written", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    expected.write_text(json.dumps(
        {"schema": SCHEMA, "seed": DEFAULT_SEED, "ops": ops}, indent=1
    ) + "\n")
    print(f"pinned {sum(map(len, ops.values()))} op digests in {expected}")
    return 0


def main(argv: list[str]) -> int:
    """Dispatch ``compare`` / ``pin`` / a run."""
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare_files(args.a, args.b, SPEC)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="measure only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: print the contract's JSON "
                        "line for end-to-end (0) or per-layer (1) metrics")
    parser.add_argument("--expected", type=Path,
                        default=BENCH / "expected.json",
                        help="pinned digests to verify against")
    parser.add_argument("--out", type=Path, default=BENCH / "out",
                        help="where the full suite writes its files")
    if argv[:1] == ["pin"]:
        return pin(parser.parse_args(argv[1:]).expected)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.trace is None:
        only = [args.workload] if args.workload else WORKLOADS
        return suite(args.seed, args.seconds, args.expected, only, args.out)
    if args.workload is None:
        parser.error("--trace needs a --workload")
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.expected)
    print_metrics(result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
