"""Reachability census: which ``src/repro`` functions a user path runs.

Run from the repository root (stdlib only; about 15 minutes on one core)::

    python tools/census.py [--records DIR]

It runs three path sets with a function-entry recorder on ``PYTHONPATH``
and writes ``docs/census.md``, which tags every function under
``src/repro`` *user-reached* (set a), *test-only* (sets b/c only) or
*unreached*:

* (a) user paths: every ``--help``, every ``repro figure`` at its
  defaults, the benchmark's four CLI ops, every ``python -m repro`` line
  in ``.github/workflows/ci.yml``, the remaining commands at their
  defaults, the two ``--metrics-out`` exports, every ``examples/*.py``
  and ``bench/run.py --seconds 0.5``;
* (b) the tier-1 suite (``tests/``);
* (c) ``benchmarks/``.

The recorder is a generated ``sitecustomize`` that calls :func:`install`
in every interpreter started with it on the path, so ``python -m repro``
subprocesses and process-pool workers are recorded too.  It hooks
``sys.setprofile`` / ``threading.setprofile`` (available on every
supported Python) and appends a code object to a per-pid file the first
time the process enters it.  Appending at once, not dumping at exit, is
what records forked pool workers (multiprocessing skips exit handlers in
them) and workers the chaos injectors SIGKILL.

``--records DIR`` keeps the raw per-process records in ``DIR/<set>/``; a
set whose directory already exists is read back instead of re-run, so
editing :data:`REASONS` only needs a re-render.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro") + os.sep


def install(out_dir: str) -> None:
    """Record each ``src/repro`` code object this process enters once."""
    seen: set[int] = set()
    alive: list = []  # keeps recorded ids from being reused
    owner = {"pid": None, "fd": None}

    def record(code) -> None:
        pid = os.getpid()
        if owner["pid"] != pid:  # first record, or a forked child
            owner["pid"] = pid
            owner["fd"] = os.open(
                os.path.join(out_dir, f"{pid}.txt"),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        line = f"{code.co_filename}\t{code.co_firstlineno}\n"
        os.write(owner["fd"], line.encode())

    def profile(frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen.add(id(code))
                alive.append(code)
                if code.co_filename.startswith(PACKAGE):
                    record(code)

    sys.setprofile(profile)
    threading.setprofile(profile)


# ------------------------------------------------------------------ main

OUT = os.path.join(ROOT, "docs", "census.md")
TAGS = ("user-reached", "test-only", "unreached")
SET_NAMES = {"a": "user paths", "b": "tier-1", "c": "benchmarks/"}

#: Why a kept test-only function stays, by ``file::qualname`` prefix; the
#: first matching prefix wins.  "Deletable" marks a row kept only because
#: deleting it means deleting the tests that are its sole callers (ROADMAP
#: item 5(f)).  :func:`main` lists test-only rows no prefix covers.
DELETABLE = "deletable with its tests (item 5(f))"
REASONS: list[tuple[str, str]] = [
    ("cli.py::_", "input validation: argparse runs it only on an explicit "
     "flag value, never on the defaults the user paths pass"),
    ("apps/", "case-study result / completion accessors the app tests "
     "check against reference answers"),
    ("bus/arbiter.py::", "arbiter ablation (bench_ablation_arbiters.py) "
     "against the default round-robin"),
    ("bus/simulator.py::BusResult.energy_delay_product",
     "energy x delay of the bus-vs-NoC claim (item 9)"),
    ("noc/engine.py::SimulationResult.energy_delay_product",
     "energy x delay of the bus-vs-NoC claim (item 9)"),
    ("core/packet.py::PacketFactory.stream", DELETABLE),
    ("core/protocol.py::StochasticProtocol.", "protocol interface that "
     "LegacyProtocolPolicy forwards (item 5(a) refactor)"),
    ("core/theory.py::", "item 6 theory reference"),
    ("crc/engine.py::", "CRC catalogue check values (test_crc.py)"),
    ("diversity/islands.py::", "islands harness: pinned in "
     "test_harness_pins.py; item 11's registry wires it in"),
    ("experiments/islands.py::", "islands harness: pinned in "
     "test_harness_pins.py; item 11's registry wires it in"),
    ("experiments/link_crashes.py::", "link_crashes harness: pinned in "
     "test_harness_pins.py; item 11's registry wires it in"),
    ("energy/model.py::", "Eq. 2 / Eq. 3 closed forms the energy tests "
     "check the engine's accounting against (item 6(a0))"),
    ("experiments/certify.py::CertifiedCell.verdict",
     "certified-envelope result accessor"),
    ("experiments/protocol_frontier.py::FrontierCell.verdict",
     "certified-envelope result accessor"),
    ("experiments/fig3_1.py::run_scaling", "Fig 3-1 scaling claim, gated "
     "by bench_fig3_1.py in the paper-claims job (item 9)"),
    ("experiments/grid_spread.py::_BroadcastSeed.complete",
     "IPCore completion hook; the spread harness stops on coverage"),
    ("faults/config.py::", "fault-config predicate the engine tests pin"),
    ("faults/errors.py::", "random-bit-error model, compared with the "
     "default by bench_ablation_error_models.py"),
    ("faults/injector.py::", "crash-plan accessors the fault tests read"),
    ("faults/scenarios.py::_RegionOutage", "RegionOutage is an input to "
     "the bit-identity gates"),
    ("faults/scenarios.py::RegionOutage", "RegionOutage is an input to "
     "the bit-identity gates"),
    ("faults/scenarios.py::_Composite", "Composite is an input to the "
     "bit-identity gates"),
    ("faults/scenarios.py::Composite", "Composite is an input to the "
     "bit-identity gates"),
    ("faults/scenarios.py::", "scenario description / by-kind "
     "construction the scenario tests pin"),
    ("metrics/collector.py::MetricsCollector.on_", "observer hook for a "
     "drop kind no instrumented user path suffers"),
    ("metrics/collector.py::run_with_metrics", DELETABLE),
    ("metrics/extract.py::", "claim statistics over instrumented runs "
     "(repro.stats); item 9 claims use them"),
    ("metrics/records.py::RunMetrics.to_csv",
     "export format documented in docs/observability.md"),
    ("metrics/", "JSON round-trip and accessors of the metrics records"),
    ("mp3/", "codec API beyond the pipeline's needs (decoding, synthesis, "
     "window switching), checked by the codec tests"),
    ("noc/backends/base.py::available_backends", "backend registry "
     "introspection (test_backend_fast.py)"),
    ("noc/backends/fast.py::FastNocSimulator._receive_ordered", "the only "
     "exact fast receive for on_receive IPs and bounded relay buffers, "
     "which no user path runs on the fast backend; kept"),
    ("noc/backends/fast.py::", "fast-backend mirror of the object "
     "engine's tile API / delay and crash paths, driven by the "
     "bit-identity gates"),
    ("noc/clock.py::", "GALS clock accessors (test_clock.py)"),
    ("noc/config.py::", "SimConfig value semantics"),
    ("noc/engine.py::NocSimulator.schedule_", "mid-run crash scheduling "
     "(README); test_midrun_crashes.py and the bit-identity gates"),
    ("noc/link.py::", "per-link Eq. 3 energy the link tests check"),
    ("noc/routing.py::", "deterministic XY baseline for §1's fragility "
     "claim (bench_ablation_routing.py)"),
    ("noc/stats.py::", "NetworkStats accessors (test_report.py)"),
    ("noc/tile.py::IPCore.complete", "IPCore interface default"),
    ("noc/topology.py::RingTopology", "Ring is an input to the "
     "bit-identity gates"),
    ("noc/topology.py::StarTopology", "StarTopology is an input to the "
     "bit-identity gates"),
    ("noc/topology.py::", "topology accessors and invariants "
     "(test_topology.py, the bit-identity gates)"),
    ("noc/trace.py::FanoutObserver", "composes observers; item 3's batch "
     "surface forwards through it"),
    ("noc/trace.py::Observer.", "Observer hook default"),
    ("noc/trace.py::TraceRecorder", "trace queries of the trace-analysis "
     "tests"),
    ("policies/base.py::LegacyProtocolPolicy", "item 5(a) refactor "
     "target; its cache tokens are pinned"),
    ("policies/", "forwarding-policy spec / batch interface the policy "
     "property and cache-key tests exercise"),
    ("runners/cache.py::", "cache-quarantine failure paths: safety code"),
    ("runners/runner.py::SimTask.__eq__", "task value semantics"),
    ("runners/runner.py::SweepRunner.map", DELETABLE),
    ("runners/runner.py::", "retry failure path: safety code"),
    ("runners/supervisor.py::", "supervisor failure paths: safety code"),
    ("service/db.py::", "ResultsDB read API of the service-parity tests"),
    ("service/jobs.py::", "JobQueue cancel / stream / join: safety code "
     "of campaign control"),
    ("stats/certify.py::", "asynchronous certification the JobQueue "
     "tests drive"),
    ("stats/claims.py::", "item 6 reference: BoundedMeanClaim and the "
     "confidence-sequence test"),
]

#: Item 14's questions: (question, rows of (label, ``file::qualname``
#: prefix)); a row's tag is the strongest tag under its prefix.
QUESTIONS = [
    (
        "Which of `faults/scenarios.py`'s five spec kinds can a command build?",
        [
            (kind, f"faults/scenarios.py::{kind}.__post_init__")
            for kind in ("BurstUpsets", "RampOverflow", "LinkFlap",
                         "RegionOutage", "Composite")
        ],
    ),
    (
        "Which `core/__init__` analysis exports does a user reach? "
        "(`core/tuning.py` was test-only and is deleted.)",
        [
            (name, f"core/{module}.py::{name}")
            for module, names in (
                ("analysis", ("delivery_probability", "minimum_ttl",
                              "latency_profile")),
                ("theory", ("deterministic_spread",
                            "expected_rounds_to_inform_all",
                            "recommended_ttl", "rounds_until_informed",
                            "simulate_rumor_spread")),
            )
            for name in names
        ],
    ),
    (
        "Does anything outside tests reach `LegacyProtocolPolicy` "
        "(item 5(a))?",
        [
            ("LegacyProtocolPolicy", "policies/base.py::LegacyProtocolPolicy."),
            ("StochasticProtocol", "core/protocol.py::StochasticProtocol."),
        ],
    ),
    (
        "Which export formats of `metrics/records.py` does a user reach?",
        [
            (name, f"metrics/records.py::RunMetrics.{name}")
            for name in ("to_json_dict", "to_json", "from_json_dict",
                         "from_json", "to_csv")
        ],
    ),
    (
        "What of `noc/trace.py` is reached beyond `Observer` and "
        "`render_spread`?",
        [
            (name, f"noc/trace.py::{name}")
            for name in ("Observer.", "render_spread", "as_observer",
                         "FanoutObserver.", "TraceRecorder.")
        ],
    ),
]


def _help_paths(parser, prefix: tuple = ()):
    yield prefix
    for action in getattr(parser._subparsers, "_group_actions", ()):
        for name, sub in action.choices.items():
            yield from _help_paths(sub, (*prefix, name))


def _ci_commands() -> list[list[str]]:
    """Every ``python -m repro`` line of the CI workflow, as argv."""
    import shlex

    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml")) as handle:
        text = handle.read().replace("\\\n", " ")
    commands = []
    for line in text.splitlines():
        _, found, rest = line.partition("python -m repro ")
        if found:
            words = shlex.split(rest.split("|")[0])
            cut = [i for i, word in enumerate(words) if word[:2] in ("2>", ">")]
            commands.append(words[: cut[0]] if cut else words)
    return commands


def path_sets() -> dict[str, list[list[str]]]:
    """Set name -> argv lists; ``repro`` stands for ``python -m repro``."""
    sys.path.insert(0, SRC)
    from repro.cli import FIGURES, build_parser

    repro = [["repro", *path, "--help"] for path in _help_paths(build_parser())]
    repro += [["repro", "figure", name] for name in FIGURES]
    repro += [  # the benchmark's cli_suite ops not listed above
        ["repro", "frontier", "--backend", "fast"],
        ["repro", "certify", "--db", "cli_suite.db"],
    ]
    repro += [["repro", *argv] for argv in _ci_commands()]
    repro += [["repro", *argv.split()] for argv in (
        "probe", "mp3", "profile", "chaos", "info", "policies list",
        "policies compare", "spread --metrics-out spread.json",
        "figure fig4_4 --metrics-out fig4_4.json --cache-dir cache",
    )]
    examples = sorted(
        name for name in os.listdir(os.path.join(ROOT, "examples"))
        if name.endswith(".py")
    )
    user = [argv for i, argv in enumerate(repro) if argv not in repro[:i]]
    user += [["python", f"examples/{name}"] for name in examples]
    user.append(["python", "bench/run.py", "--seconds", "0.5"])
    pytest = ["python", "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    return {
        "a": user,
        "b": [[*pytest, "tests"]],
        "c": [[*pytest, "--benchmark-disable", "benchmarks"]],
    }


def run_set(commands: list[list[str]], out_dir: str) -> None:
    """Run `commands` under the recorder, appending into `out_dir`."""
    import subprocess
    import tempfile

    os.makedirs(out_dir)
    with tempfile.TemporaryDirectory() as hook, \
            tempfile.TemporaryDirectory() as work:
        with open(os.path.join(hook, "sitecustomize.py"), "w") as handle:
            handle.write(
                "import importlib.util, os\n"
                f"spec = importlib.util.spec_from_file_location("
                f"'_census', {os.path.abspath(__file__)!r})\n"
                "module = importlib.util.module_from_spec(spec)\n"
                "spec.loader.exec_module(module)\n"
                "module.install(os.environ['CENSUS_OUT'])\n"
            )
        env = {**os.environ, "CENSUS_OUT": os.path.abspath(out_dir),
               "PYTHONPATH": os.pathsep.join([hook, SRC])}
        for argv in commands:
            if argv[0] == "repro":
                command = [sys.executable, "-m", "repro", *argv[1:]]
            else:
                command = [sys.executable, *argv[1:]]
            # Repo-relative scripts run from the root; CLI files land in work.
            cwd = ROOT if argv[0] == "python" else work
            done = subprocess.run(
                command, cwd=cwd, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True, check=False,
            )
            print(f"  exit {done.returncode}: {' '.join(argv)}", file=sys.stderr)
            if done.returncode not in (0, 2):  # 2: the CI's usage errors
                print(done.stdout[-2000:], file=sys.stderr)


def reached(out_dir: str) -> set[tuple[str, int]]:
    """``(file relative to src/repro, first line)`` of every entered code."""
    keys = set()
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name)) as handle:
            for line in handle:
                filename, first = line.rstrip("\n").rsplit("\t", 1)
                keys.add((os.path.relpath(filename, PACKAGE), int(first)))
    return keys


def functions() -> list[dict]:
    """Every function under ``src/repro``, with its own line count.

    A function's lines run from its first decorator to its last line,
    minus the lines of the functions nested in it, so every line inside
    a function is counted once.
    """
    import ast

    rows: list[dict] = []

    def visit(node, file: str, qual: str, parent: dict | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] +
                            [d.lineno for d in child.decorator_list])
                span = child.end_lineno - first + 1
                row = {"file": file, "name": qual + child.name,
                       "line": first, "lines": span}
                rows.append(row)
                if parent is not None:
                    parent["lines"] -= span
                visit(child, file, f"{row['name']}.", row)
            elif isinstance(child, ast.ClassDef):
                visit(child, file, f"{qual}{child.name}.", parent)
            else:
                visit(child, file, qual, parent)

    for directory, _, names in sorted(os.walk(PACKAGE)):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path) as handle:
                    tree = ast.parse(handle.read())
                visit(tree, os.path.relpath(path, PACKAGE), "", None)
    return rows


def tag_rows(rows: list[dict], sets: dict[str, set]) -> None:
    for row in rows:
        key = (row["file"], row["line"])
        row["sets"] = "".join(name for name in sorted(sets) if key in sets[name])
        if "a" in row["sets"]:
            row["tag"] = "user-reached"
        elif row["sets"]:
            row["tag"] = "test-only"
        else:
            row["tag"] = "unreached"
        row["reason"] = ""
        if row["tag"] == "test-only":
            full = f"{row['file']}::{row['name']}"
            row["reason"] = next(
                (why for prefix, why in REASONS if full.startswith(prefix)),
                "",
            )


def render(rows: list[dict], commands: dict[str, list[list[str]]]) -> str:
    import shlex

    def strongest(prefix: str) -> str:
        tags = [row["tag"] for row in rows
                if f"{row['file']}::{row['name']}".startswith(prefix)]
        return min(tags, key=TAGS.index) if tags else "absent"

    def totals(subset):
        return {tag: (sum(r["lines"] for r in subset if r["tag"] == tag),
                      sum(1 for r in subset if r["tag"] == tag))
                for tag in TAGS}

    out = [
        "# Reachability census",
        "",
        "Generated by `python tools/census.py`; do not edit by hand.  Every",
        "function under `src/repro` is tagged by the path sets that entered",
        "it: **user-reached** (set a), **test-only** (only sets b and/or c)",
        "or **unreached**.  Lines are a function's own lines, from its first",
        "decorator to its end minus nested functions, so no line counts",
        "twice; module-level code and class bodies are not counted.",
        "Entries are recorded per process, pool workers and SIGKILLed",
        "workers included.  A property or an abstract hook default that no",
        "run happens to enter reads *unreached* even when referenced: check",
        "with `grep -rn` over `src tests examples bench benchmarks docs`",
        "before deleting a row.",
        "",
        "## Totals",
        "",
        "| Tag | Lines | Functions |",
        "| --- | ---: | ---: |",
    ]
    for tag, (lines, count) in totals(rows).items():
        out.append(f"| {tag} | {lines} | {count} |")
    out += ["", "## Item 14's questions", ""]
    for number, (question, items) in enumerate(QUESTIONS, 1):
        found = [(label, strongest(prefix)) for label, prefix in items]
        users = sum(tag == "user-reached" for _, tag in found)
        out.append(f"{number}. {question} {users} of {len(found)} "
                   "user-reached:")
        out += [f"   - `{label}`: {tag}" for label, tag in found]
    out += [
        "",
        "## Path sets",
        "",
        "`repro` is `python -m repro`; each line runs as a fresh process.",
        "",
    ]
    for name, argvs in commands.items():
        out.append(f"- ({name}) {SET_NAMES[name]}:")
        out += [f"  - `{shlex.join(argv)}`" for argv in argvs]
    out += [
        "",
        "## Per file",
        "",
        "| File | user-reached | test-only | unreached | Functions |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    files = sorted({row["file"] for row in rows})
    for file in files:
        subset = [row for row in rows if row["file"] == file]
        cells = " | ".join(str(totals(subset)[tag][0]) for tag in TAGS)
        out.append(f"| `{file}` | {cells} | {len(subset)} |")
    out += [
        "",
        "## Every function",
        "",
        "*Sets* lists the path sets that entered the function.  Every kept",
        "test-only row gives the reason it stays.",
    ]
    for file in files:
        out += ["", f"### `{file}`", "",
                "| Function | Tag | Lines | Sets | Why kept |",
                "| --- | --- | ---: | --- | --- |"]
        for row in rows:
            if row["file"] == file:
                out.append(
                    f"| `{row['name']}` | {row['tag']} | {row['lines']} "
                    f"| {row['sets'] or '-'} | {row['reason']} |"
                )
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--records", metavar="DIR",
        help="keep per-process records in DIR/<set>/ and reuse existing sets",
    )
    args = parser.parse_args(argv)
    commands = path_sets()
    with tempfile.TemporaryDirectory() as scratch:
        records = args.records or scratch
        sets = {}
        for name, argvs in commands.items():
            out_dir = os.path.join(records, name)
            if not os.path.isdir(out_dir):
                print(f"path set ({name}): {len(argvs)} command(s)",
                      file=sys.stderr)
                run_set(argvs, out_dir)
            sets[name] = reached(out_dir)
    rows = functions()
    tag_rows(rows, sets)
    with open(OUT, "w") as handle:
        handle.write(render(rows, commands))
    missing = [f"{r['file']}::{r['name']}" for r in rows
               if r["tag"] == "test-only" and not r["reason"]]
    if missing:
        print(f"{len(missing)} test-only row(s) without a reason:",
              *missing, sep="\n  ", file=sys.stderr)
    print(f"wrote {os.path.relpath(OUT, ROOT)}", file=sys.stderr)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
