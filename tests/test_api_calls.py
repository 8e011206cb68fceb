"""Constructor calls in the docs and scripts cannot drift from the API.

Nothing executes most of the code shown in ``README.md`` and ``docs/``,
nor ``benchmarks/bench_runner.py`` (no CI job runs it), so a renamed or
deleted keyword would survive there unnoticed.  This test parses every
```` ```python ```` block of the docs and every ``examples/*.py`` and
``benchmarks/*.py`` script, and checks each call to an execution-layer
constructor against that constructor's ``inspect.signature``.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentOptions
from repro.runners import SweepRunner
from repro.service import JobQueue
from repro.stats import CertificationRunner

ROOT = Path(__file__).resolve().parent.parent

#: The constructors whose calls are checked, by the name they are called as.
CONSTRUCTORS = {
    cls.__name__: inspect.signature(cls)
    for cls in (SweepRunner, ExperimentOptions, JobQueue, CertificationRunner)
}

_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def _sources() -> dict[str, list[tuple[int, str]]]:
    """Every checked file, with its code as (first line, source) pieces."""
    sources = {}
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = doc.read_text(encoding="utf-8")
        sources[str(doc.relative_to(ROOT))] = [
            (text[: block.start()].count("\n") + 2, block.group(1))
            for block in _PYTHON_BLOCK.finditer(text)
        ]
    for folder in ("examples", "benchmarks"):
        for script in sorted((ROOT / folder).glob("*.py")):
            source = script.read_text(encoding="utf-8")
            sources[str(script.relative_to(ROOT))] = [(1, source)]
    return sources


def _constructor_calls(source: str) -> list[ast.Call]:
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in CONSTRUCTORS:
            calls.append(node)
    return calls


SOURCES = _sources()


def test_the_walk_finds_the_docs_and_scripts():
    assert "README.md" in SOURCES and "docs/runners.md" in SOURCES
    assert "benchmarks/bench_runner.py" in SOURCES
    calls = sum(
        len(_constructor_calls(source))
        for pieces in SOURCES.values()
        for _, source in pieces
    )
    assert calls >= 15


@pytest.mark.parametrize("path", sorted(SOURCES))
def test_constructor_calls_bind_to_the_signature(path):
    errors = []
    for first_line, source in SOURCES[path]:
        for call in _constructor_calls(source):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else func.attr
            where = f"{path}:{first_line + call.lineno - 1}: {name}(...)"
            signature = CONSTRUCTORS[name]
            keywords = {k.arg: None for k in call.keywords if k.arg is not None}
            if any(isinstance(arg, ast.Starred) for arg in call.args) or (
                len(keywords) < len(call.keywords)
            ):
                # `*args` / `**kwargs`: only the spelled-out keywords count.
                unknown = sorted(set(keywords) - set(signature.parameters))
                if unknown:
                    errors.append(f"{where}: unknown keywords {unknown}")
                continue
            try:
                signature.bind(*call.args, **keywords)
            except TypeError as error:
                errors.append(f"{where}: {error}")
    assert not errors, "\n".join(errors)
