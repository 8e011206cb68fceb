"""``tools/ab.py``'s decision rule, without running a benchmark."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_sign_test_exact_values() -> None:
    assert ab.sign_test(0, 0) == 1.0
    assert ab.sign_test(6, 0) == ab.sign_test(0, 6) == 2 / 64
    assert ab.sign_test(5, 0) == 2 / 32
    assert ab.sign_test(5, 5) == 1.0
    # 8 against 2: 2 * (1 + 10 + 45) / 1024.
    assert math.isclose(ab.sign_test(8, 2), 112 / 1024)


def test_six_pairs_are_the_fewest_that_decide() -> None:
    assert min(n for n in range(1, 20) if ab.sign_test(n, 0) <= 0.05) == 6


SPREAD = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0]


@pytest.mark.parametrize(
    ("change", "better", "expected"),
    [
        ([0.9] * 6, "lower", "better"),
        ([0.9] * 6, "higher", "worse"),
        ([1.1] * 6, "higher", "better"),
        ([1.1] * 6, "lower", "worse"),
        # Five pairs cannot decide; alternating signs do not either.
        ([0.9] * 5, "lower", "unresolved"),
        ([0.9, 1.1] * 3, "lower", "unresolved"),
        # Ties carry no sign: six wins and four ties still decide.
        ([0.9] * 6 + [1.0] * 4, "lower", "better"),
        # Every pair ordered the same way, but inside the parent's spread.
        ([x - 0.005 for x in SPREAD], "lower", "unresolved"),
    ],
)
def test_verdicts(change, better, expected) -> None:
    parent = (SPREAD + [1.0] * 4)[: len(change)]
    assert ab.verdict(parent, change, better)[0] == expected


def test_iqr() -> None:
    assert ab.iqr([5.0]) == 0.0
    assert ab.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
