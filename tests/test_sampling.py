"""``sample_ports``: the stream canary for batched push-pull.

The helper reproduces ``Generator.choice(n, size, replace=False)`` and
``Generator.integers(n)`` from one uint32 block, which ties it to how the
installed numpy implements them (Floyd's algorithm, Lemire's bounded
integers, the result shuffle).  ``pyproject.toml`` allows ``numpy>=1.24``;
a release that changes either algorithm must fail *here*, by name, before
it shows up as an unexplained digest mismatch between the two backends.
A declined half, end to end, must still match the object engine; that
it never reaches the object engine's per-transmission methods is gated
in ``tests/test_scalar_hooks.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.packet import BROADCAST
from repro.noc import Mesh2D, NocSimulator, SimConfig
from repro.noc.tile import IPCore, TileContext
from repro.policies import PolicySpec, sampling
from repro.policies.sampling import sample_ports
from tests.twins import assert_twins, run_twins

CANARY = (
    f"sample_ports no longer matches numpy {np.__version__}: "
    "Generator.choice(replace=False) / Generator.integers changed how they "
    "consume the bit stream. Batched push-pull on backend='fast' would "
    "diverge from backend='object'; update repro/policies/sampling.py to "
    "the new algorithm (or make it decline) before trusting fast results."
)


def _generators(seed: int, pending_half_word: bool):
    """Two generators at one stream position, optionally mid-uint64."""
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending_half_word:
        # A 32-bit draw leaves the other half of PCG64's output buffered.
        assert batched.integers(5) == scalar.integers(5)
        assert batched.bit_generator.state["has_uint32"] == 1
    return batched, scalar


def _scalar_picks(rng, degree: int, size: int, use_integers: bool) -> set[int]:
    if degree <= size:
        # What the policies do without asking numpy: every port, no draw.
        return set(range(degree))
    if use_integers:
        return {int(rng.integers(degree))}
    return set(rng.choice(degree, size=size, replace=False).tolist())


def _assert_rows_match(batched, scalar, degrees, size, use_integers=False):
    mask = sample_ports(batched, np.asarray(degrees, dtype=np.int64), size)
    assert mask is not None, CANARY
    for row, degree in enumerate(degrees):
        expected = _scalar_picks(scalar, degree, size, use_integers)
        assert set(np.nonzero(mask[row])[0].tolist()) == expected, CANARY
    assert batched.random() == scalar.random(), CANARY


@pytest.mark.parametrize("pending_half_word", [False, True])
def test_each_degree_and_size_matches_choice(pending_half_word: bool) -> None:
    for degree in range(1, 10):
        for size in range(1, degree + 1):
            for seed in range(20):
                _assert_rows_match(
                    *_generators(seed, pending_half_word), [degree] * 3, size
                )


@pytest.mark.parametrize("pending_half_word", [False, True])
def test_size_one_matches_integers(pending_half_word: bool) -> None:
    for degree in range(1, 10):
        for seed in range(20):
            _assert_rows_match(
                *_generators(seed, pending_half_word),
                [degree] * 3,
                1,
                use_integers=True,
            )


@pytest.mark.parametrize("pending_half_word", [False, True])
@pytest.mark.parametrize("n_rows", [1, 2, 5, 8, 13])
def test_mixed_degree_batches(n_rows: int, pending_half_word: bool) -> None:
    """Odd and even batch lengths leave an odd or even uint32 count; rows
    of degree 0 (silenced / informed) and degree <= size draw nothing."""
    for seed in range(40):
        degrees = (
            np.random.default_rng(1000 + seed).integers(0, 10, n_rows).tolist()
        )
        for size in (1, 2, 3, 4):
            _assert_rows_match(
                *_generators(seed, pending_half_word), degrees, size
            )


def test_mask_width_and_zero_degree_rows() -> None:
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    mask = sample_ports(rng, np.array([0, 1, 2]), 2, width=4)
    assert mask.tolist() == [
        [False] * 4,
        [True, False, False, False],
        [True, True, False, False],
    ]
    assert rng.bit_generator.state == before


def test_rejection_restores_the_generator_and_declines(monkeypatch) -> None:
    monkeypatch.setattr(sampling, "_rejected", lambda products, bounds: True)
    for pending_half_word in (False, True):
        rng, _ = _generators(7, pending_half_word)
        before = rng.bit_generator.state
        assert sample_ports(rng, np.array([4, 4, 2, 3]), 2) is None
        assert rng.bit_generator.state == before


def test_real_rejection_zone_is_detected() -> None:
    """u = 0 is in the rejection zone of every bound that is not a power
    of two; the largest u never is."""
    bounds = np.array([[3, 5, 6, 7]], dtype=np.uint64)
    assert sampling._rejected(np.zeros_like(bounds), bounds)
    assert not sampling._rejected(np.uint64(2**32 - 1) * bounds, bounds)
    powers = np.array([[2, 4, 8]], dtype=np.uint64)
    assert not sampling._rejected(np.zeros_like(powers), powers)


# --------------------------------------------------- declined rounds, end to end


class _Seed(IPCore):
    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor")


def _make(backend: str, observer) -> NocSimulator:
    config = SimConfig(
        Mesh2D(6, 6),
        PolicySpec.of("push_pull", fanout=2),
        default_ttl=24,
        backend=backend,
    )
    sim = NocSimulator.from_config(config, seed=9, observer=observer)
    sim.mount(0, _Seed())
    sim.mount(35, _Seed())
    return sim


@pytest.mark.parametrize("declined", ["push", "pull"])
def test_a_declined_half_still_matches_the_object_engine(
    declined: str, monkeypatch
) -> None:
    """A round whose push declines while its pull batches (the batched
    responses must arrive after the per-row push's copies), and the
    reverse."""
    # fanout=2 push rows take three draws each, pull rows one.  Only the
    # fast backend's batched hooks sample through `_rejected`.
    draws_per_row = 3 if declined == "push" else 1
    monkeypatch.setattr(
        sampling, "_rejected", lambda _, bounds: bounds.shape[1] == draws_per_row
    )
    twins = run_twins(_make, rounds=24, until=lambda sim: False)
    assert_twins(twins)
    scalar, batched = (
        ("send.sequential", "pull.vectorized")
        if declined == "push"
        else ("pull.sequential", "send.matrix")
    )
    paths = twins[1].sim.engine_paths
    assert paths[scalar] > 4 and paths[batched] > 4
