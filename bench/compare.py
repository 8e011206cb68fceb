"""Schema check of a ``BENCH_*.json`` and the A-versus-B verdict.

Verdict per (workload, end-to-end metric), B judged against A:

* ``worse`` — B is worse than A by more than the metric's bound;
* ``unresolved`` — the gap is inside the bound, but the iterations of
  either file spread (IQR / median) wider than the bound, so "unchanged"
  cannot be claimed — unless every iteration of B beats every one of A;
* ``ok`` — otherwise.

A higher ``fail_share`` or, at equal seeds, a different ``sim_digest``
is always ``worse``: a timing only counts if the results are the same.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
PROVENANCE_KEYS = {
    "schema", "git_sha", "git_dirty", "seed", "seconds_per_run",
    "setup_repeats", "python", "numpy", "nproc", "cpu_model", "threads_env",
    "scratch_fs",
}
WORKLOAD_KEYS = {
    "end_to_end", "per_layer", "fail_share", "attempted", "failed", "errors",
    "sim_digest", "digests_pinned", "checked_ops", "iterations", "samples",
}
#: Which per-iteration samples show a metric's run-to-run spread.
SAMPLES_OF = {"setup_s": "setup_s", "wall_s": "wall_s", "ops_per_s": "wall_s",
              "cpu_s": "cpu_s"}


def validate(document: dict, spec: dict) -> None:
    """Raise ``ValueError`` unless `document` has the benchmark's shape."""
    problems = []
    missing = PROVENANCE_KEYS - set(document.get("provenance", {}))
    if missing:
        problems.append(f"provenance lacks {sorted(missing)}")
    known = {w["name"] for w in spec["workloads"]}
    wanted = {
        section: [m["name"] for m in spec[section]]
        for section in ("end_to_end", "per_layer")
    }
    for name, entry in document.get("workloads", {}).items():
        if name not in known:
            problems.append(f"workload {name!r} is not in BENCHMARK.json")
        if set(entry) != WORKLOAD_KEYS:
            problems.append(f"{name}: keys {sorted(set(entry) ^ WORKLOAD_KEYS)}")
            continue
        for section, names in wanted.items():
            if list(entry[section]) != names:
                problems.append(f"{name}: {section} names differ from "
                                "BENCHMARK.json")
            for metric, value in entry[section].items():
                if not NAME.match(metric):
                    problems.append(f"{name}: bad metric name {metric!r}")
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    problems.append(f"{name}: {metric} is not a number")
        if not 0 <= entry["failed"] <= entry["attempted"] or (
            entry["attempted"] < 1
        ):
            problems.append(f"{name}: failed/attempted out of range")
    if not document.get("workloads"):
        problems.append("no workloads")
    if problems:
        raise ValueError("; ".join(problems))


def iqr(samples: list[float]) -> float:
    """Q3 - Q1, or 0 with fewer than two samples."""
    if len(samples) < 2:
        return 0.0
    low, _, high = statistics.quantiles(samples, n=4)
    return high - low


def _spread(samples: list[float]) -> float:
    return iqr(samples) / statistics.median(samples)


def judge(a: dict, b: dict, metric: dict) -> tuple[float, str]:
    """(B / A, verdict) of one end-to-end metric of one workload."""
    name, bound = metric["name"], metric["bound"]
    value_a, value_b = a["end_to_end"][name], b["end_to_end"][name]
    lower = metric["better"] == "lower"
    worsening = value_b / value_a - 1 if lower else value_a / value_b - 1
    if worsening > bound:
        return value_b / value_a, "worse"
    key = SAMPLES_OF.get(name)
    if key is not None:
        samples_a, samples_b = a["samples"][key], b["samples"][key]
        # Lower is better for every sampled quantity (times).
        separated = max(samples_b) < min(samples_a)
        if max(_spread(samples_a), _spread(samples_b)) > bound and (
            not separated
        ):
            return value_b / value_a, "unresolved"
    return value_b / value_a, "ok"


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    """Rows ``(workload, metric, A, B, B/A, unit, bound, verdict)``."""
    same_seed = a["provenance"]["seed"] == b["provenance"]["seed"]
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            ratio, verdict = judge(wa, wb, metric)
            rows.append((name, metric["name"], wa["end_to_end"][metric["name"]],
                         wb["end_to_end"][metric["name"]], ratio,
                         metric["unit"], metric["bound"], verdict))
        rows.append((name, "fail_share", wa["fail_share"], wb["fail_share"],
                     None, "ratio", 0.0,
                     "worse" if wb["fail_share"] > wa["fail_share"] else "ok"))
        if same_seed:
            same = wa["sim_digest"] == wb["sim_digest"]
            rows.append((name, "sim_digest", wa["sim_digest"][:12],
                         wb["sim_digest"][:12], None, "sha256", 0.0,
                         "ok" if same else "worse"))
    return rows


def compare_files(path_a: Path, path_b: Path, spec: dict) -> int:
    """Print the comparison; exit status 1 if any row is ``worse``."""
    documents = []
    for path in (path_a, path_b):
        document = json.loads(path.read_text())
        validate(document, spec)
        documents.append(document)
    rows = compare(*documents, spec)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':14s} {'metric':12s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'(base A)':>18s} {'bound':>6s}  verdict")
    for name, metric, va, vb, ratio, unit, bound, verdict in rows:
        if ratio is None:
            print(f"{name:14s} {metric:12s} {va!s:>12s} {vb!s:>12s} "
                  f"{'':7s} {'':18s} {bound:6.2f}  {verdict}")
        else:
            print(f"{name:14s} {metric:12s} {va:12.5g} {vb:12.5g} "
                  f"{ratio:7.3f} {f'of {va:.4g} {unit}':>18s} {bound:6.2f}  "
                  f"{verdict}")
    counts = {v: sum(r[-1] == v for r in rows)
              for v in ("ok", "unresolved", "worse")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0
