"""A/B the benchmark between two git refs, pair by pair, with a sign test.

Run from the repository root (stdlib only; it never imports ``repro``)::

    python3 tools/ab.py PARENT [CHANGE] [--workloads W ...] [--seconds S]
                        [--max-pairs N] [--out FILE]

``CHANGE`` defaults to ``HEAD``.  Each ref is exported with
``git archive REF | tar -x`` into a temporary directory, so no worktree
is registered in the repository.  Then, per workload, pairs of runs of
``python3 bench/run.py --workload W --seconds S --trace 0`` alternate
which side goes first, and the last JSON line of each run is parsed.

After every pair, each end-to-end metric of ``BENCHMARK.json`` gets an
exact two-sided sign test on the per-pair order of change and parent
(ties dropped).  A metric is decided once its p-value reaches 0.05 and
its medians differ by more than the parent runs' interquartile range:
``better`` or ``worse`` by the metric's direction.  A workload
stops when every metric is decided, or after ``--max-pairs`` (10) pairs,
where the undecided ones read ``unresolved``.  Six pairs are the fewest
that can decide at 0.05, since 2 * 0.5**5 > 0.05.  ``tools/ab.py HEAD
HEAD`` is the A/A check: every metric should come back unresolved.

The JSON written to ``--out`` holds the per-pair rows, each side's
median and interquartile range, the median ratio, the verdicts and a
host fingerprint.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALPHA = 0.05


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value for `wins` against `losses`."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def iqr(values: list[float]) -> float:
    """Distance between the quartiles of `values`."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str) -> tuple[str, float]:
    """``better`` / ``worse`` / ``unresolved`` for one metric's pairs.

    Decided when the sign test on the per-pair order reaches ALPHA and
    the medians differ by more than the parent's interquartile range: a
    consistent order inside the run-to-run spread (a warm page cache, one
    tree's position on disk) is not an effect.
    """
    lower = sum(c < a for a, c in zip(parent, change))
    higher = sum(c > a for a, c in zip(parent, change))
    p = sign_test(lower, higher)
    gap = statistics.median(change) - statistics.median(parent)
    if p > ALPHA or abs(gap) <= iqr(parent):
        return "unresolved", p
    improved = gap < 0 if better == "lower" else gap > 0
    return ("better" if improved else "worse"), p


def export(ref: str, into: Path) -> Path:
    """``git archive REF | tar -x`` into a fresh directory under `into`."""
    tree = Path(tempfile.mkdtemp(prefix="ab-", dir=into))
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", ref], stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"ab: git archive {ref} failed")
    # Byte-compile now, so neither side's first run pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "bench"],
        cwd=tree, check=True, stdout=subprocess.DEVNULL,
    )
    return tree


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One ``bench/run.py`` run; the metrics of its last JSON line."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"ab: {workload} failed in {tree} (exit {done.returncode}):\n"
            f"{done.stderr[-2000:]}"
        )
    line = json.loads(lines[-1])
    return {
        "correct": line["correct"],
        "failed": line["failed"],
        "metrics": {k: v["value"] for k, v in line["metrics"].items()},
    }


def fingerprint() -> dict:
    """What the numbers were measured on."""
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "load_avg": os.getloadavg() if hasattr(os, "getloadavg") else None,
    }


def compare(trees: dict, workload: str, metrics: list, args) -> dict:
    """Alternating pairs on one workload until decided or out of pairs."""
    pairs = []
    summary = {}
    for index in range(args.max_pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        row = {"pair": index, "first": order[0]}
        for side in order:
            row[side] = run_once(trees[side], workload, args.seconds)
        pairs.append(row)
        summary = {}
        for metric in metrics:
            name = metric["name"]
            parent = [p["parent"]["metrics"][name] for p in pairs]
            change = [p["change"]["metrics"][name] for p in pairs]
            ratios = [c / a if a else math.inf for a, c in zip(parent, change)]
            state, p = verdict(parent, change, metric["better"])
            summary[name] = {
                "verdict": state,
                "p": p,
                "better": metric["better"],
                "median_ratio": statistics.median(ratios),
                "parent_median": statistics.median(parent),
                "parent_iqr": iqr(parent),
                "change_median": statistics.median(change),
                "change_iqr": iqr(change),
            }
        print(
            f"{workload} pair {index + 1}: "
            + ", ".join(f"{k} {v['verdict']}" for k, v in summary.items()),
            file=sys.stderr,
        )
        if all(v["verdict"] != "unresolved" for v in summary.values()):
            break
    return {"pairs": pairs, "metrics": summary}


def main(argv: list[str]) -> int:
    """Parse the command line, export both refs and run every workload."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--workloads", nargs="+", help="default: all")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--max-pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=Path("ab.json"))
    args = parser.parse_args(argv)
    if args.max_pairs < 1:
        parser.error("--max-pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {
            "parent": export(args.parent, Path(scratch)),
            "change": export(args.change, Path(scratch)),
        }
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        workloads = args.workloads or [w["name"] for w in spec["workloads"]]
        results = {
            name: compare(trees, name, spec["end_to_end"], args)
            for name in workloads
        }
    document = {
        "parent": args.parent,
        "change": args.change,
        "seconds": args.seconds,
        "alpha": ALPHA,
        "max_pairs": args.max_pairs,
        "host": fingerprint(),
        "workloads": results,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    for name, result in results.items():
        for metric, row in result["metrics"].items():
            print(
                f"{name:14s} {metric:12s} {row['verdict']:10s} "
                f"ratio {row['median_ratio']:.3f}  p {row['p']:.3g}  "
                f"pairs {len(result['pairs'])}"
            )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
