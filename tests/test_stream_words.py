"""Canary: the word model of numpy's PCG64 stream against numpy itself.

The fast backend's upset send reads its draws off raw PCG64 words
(:mod:`repro.noc.backends.words`).  Each test runs a sequence of
``Generator`` calls on one generator and the word model on a twin, then
compares every value and the full ``bit_generator.state`` afterwards.  A
failure after a numpy upgrade means the fast backend's upset path is
wrong, not the test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.errors import (
    RandomBitError,
    RandomErrorVector,
    bit_error_probability,
)
from repro.noc.backends import words
from repro.noc.backends.words import WordStream

SEEDS = [0, 1, 7, 12345]


def _twins(seed: int, carry: bool):
    """Two generators at the same state, with or without a buffered half."""
    rng = np.random.default_rng(seed)
    if carry:
        rng.integers(0, 2**32, dtype=np.uint32)
    twin = np.random.default_rng(seed)
    twin.bit_generator.state = rng.bit_generator.state
    return rng, twin


def _script(seed: int, n_ops: int = 60):
    """A random interleaving of the draw kinds the upset send makes."""
    pick = np.random.default_rng(1000 + seed)
    ops = []
    for _ in range(n_ops):
        kind = pick.integers(4)
        if kind == 0:
            ops.append(("double", 1))
        elif kind == 1:
            ops.append(("doubles", int(pick.integers(0, 9))))
        elif kind == 2:
            ops.append(("uint8", int(pick.integers(0, 19))))
        else:
            ops.append(("bounded", int(pick.integers(1, 700))))
    return ops


def _numpy(rng, op):
    kind, n = op
    if kind == "double":
        return [rng.random()]
    if kind == "doubles":
        return rng.random(n).tolist()
    if kind == "uint8":
        return rng.integers(0, 256, size=n, dtype=np.uint8).tolist()
    return [int(rng.integers(0, n))]


def _model(stream: WordStream, pos: int, op):
    kind, n = op
    if kind in ("double", "doubles"):
        stream.reserve(pos + n)
        return pos + n, stream.doubles[pos : pos + n].tolist()
    if kind == "uint8":
        pos, values = stream.uint8s(pos, n)
        return pos, values.tolist()
    pos, value = stream.bounded(pos, n)
    return pos, [value]


@pytest.fixture(params=[1, 3, 256], ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    """Refills after 1 or 3 spare words land inside every kind of draw."""
    monkeypatch.setattr(words, "WORD_BLOCK", request.param)
    return request.param


@pytest.mark.parametrize("carry", [False, True], ids=["even", "odd"])
@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_generator(seed: int, carry: bool, block: int) -> None:
    rng, twin = _twins(seed, carry)
    stream = WordStream.draw(twin.bit_generator, 0)
    pos = 0
    for op in _script(seed):
        pos, got = _model(stream, pos, op)
        assert got == _numpy(rng, op), op
    stream.commit(pos)
    assert twin.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6, 7, 8, 66, 67])
@pytest.mark.parametrize("carry", [False, True], ids=["even", "odd"])
def test_uint8_draws_at_every_length_mod_4(length: int, carry: bool) -> None:
    rng, twin = _twins(length, carry)
    stream = WordStream.draw(twin.bit_generator, 0)
    pos = 0
    for _ in range(5):
        expected = rng.integers(0, 256, size=length, dtype=np.uint8)
        pos, got = stream.uint8s(pos, length)
        assert got.tolist() == expected.tolist()
        assert rng.random() == stream.doubles[pos]
        pos += 1
    stream.commit(pos)
    assert twin.bit_generator.state == rng.bit_generator.state


MODELS = {
    "vector": RandomErrorVector(),
    "bit": RandomBitError(bit_error_probability(0.1, 512)),
    "bit-dense": RandomBitError(0.05),
    "bit-single": RandomBitError(0.0),
}


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("carry", [False, True], ids=["even", "odd"])
@pytest.mark.parametrize("seed", SEEDS)
def test_error_models_match_corrupt(
    name: str, seed: int, carry: bool, block: int
) -> None:
    """Corruptions between upset doubles, as the send walk reads them."""
    model = MODELS[name]
    rng, twin = _twins(seed, carry)
    stream = WordStream.draw(twin.bit_generator, 0, model)
    payloads = np.random.default_rng(seed + 99)
    pos = 0
    expected = []
    for length in [66, 1, 2, 3, 4, 5, 13, 66, 67, 68, 69, 66]:
        original = payloads.integers(0, 256, size=length, dtype=np.uint8)
        original = original.tobytes()
        n = int(payloads.integers(0, 4))
        stream.reserve(pos + n)
        assert stream.doubles[pos : pos + n].tolist() == rng.random(n).tolist()
        pos = stream.corrupt(pos + n, original)
        expected.append(model.corrupt(original, rng))
    stream.commit(pos)
    assert twin.bit_generator.state == rng.bit_generator.state
    scrambled = stream.scrambled()
    assert len(stream) == len(expected)
    for row, want in zip(scrambled, expected):
        assert row[: len(want)].tobytes() == want


@pytest.mark.parametrize("carry", [False, True], ids=["even", "odd"])
def test_scramble_equal_to_the_original_is_redrawn(carry: bool) -> None:
    """Against numpy: the payload is the scramble the stream draws first."""
    rng, twin = _twins(5, carry)
    peek = np.random.default_rng(0)
    peek.bit_generator.state = rng.bit_generator.state
    original = peek.integers(0, 256, size=66, dtype=np.uint8).tobytes()
    expected = RandomErrorVector().corrupt(original, rng)
    assert expected != original
    stream = WordStream.draw(twin.bit_generator, 0, RandomErrorVector())
    pos = stream.corrupt(0, original)
    stream.commit(pos)
    assert stream.scrambled()[0].tobytes() == expected
    assert twin.bit_generator.state == rng.bit_generator.state


def test_synthetic_block_forces_the_resample() -> None:
    """Words whose first 8 bytes are the original: the model reads on."""
    original = bytes(range(1, 9))
    first = np.frombuffer(original, dtype="<u8")[0]
    block = np.array([first, first, 0x0102030405060708], dtype=np.uint64)
    stream = WordStream(block, error_model=RandomErrorVector())
    # Two equal draws (words 0 and 1), then word 2's bytes.
    assert stream.corrupt(0, original) == 3
    assert stream.scrambled()[0].tobytes() == int(block[2]).to_bytes(8, "little")
    # A 3-byte original takes one half-word per draw: the low half of
    # word 0 equals it, so the buffered high half is the scramble.
    stream = WordStream(block, error_model=RandomErrorVector())
    assert stream.corrupt(0, original[:3]) == 1
    assert not stream.carry
    assert stream.scrambled()[0].tobytes() == original[4:7]


def _lemire_reject(n: int) -> int:
    """A 32-bit draw that Lemire's method rejects for bound `n`."""
    threshold = ((1 << 32) - n) % n
    for k in range(1, 10_000):
        u = -((-k << 32) // n)
        if (u * n) & 0xFFFFFFFF < threshold:
            return u
    raise AssertionError("no rejected draw found")


def test_synthetic_block_forces_a_lemire_rejection() -> None:
    n = 528
    rejected = _lemire_reject(n)
    accepted = 0x12345678
    block = np.array([(accepted << 32) | rejected], dtype=np.uint64)
    stream = WordStream(block)
    assert stream.bounded(0, n) == (1, (accepted * n) >> 32)
    assert not stream.carry
    # A bit error that flips no bit resolves its one bit the same way.
    stream = WordStream(block, error_model=RandomBitError(0.0))
    assert stream.corrupt(0, bytes(66)) == 1
    flipped = stream.scrambled()[0]
    bit = (accepted * n) >> 32
    assert np.flatnonzero(np.unpackbits(flipped, bitorder="little")) == [bit]


# A position in seed 0's stream whose low half-word Lemire rejects for
# n = 528 (8 bits x a 66-byte codeword): about one draw in 10 million.
REJECTING_SEED, REJECTING_WORD = 0, 3_438_684


def test_real_lemire_rejection_matches_integers() -> None:
    bit_generator = np.random.PCG64(REJECTING_SEED)
    bit_generator.advance(REJECTING_WORD)
    rng = np.random.Generator(bit_generator)
    twin = np.random.default_rng(0)
    twin.bit_generator.state = rng.bit_generator.state
    stream = WordStream.draw(twin.bit_generator, 0)
    low = int(stream.words[0]) & 0xFFFFFFFF
    assert (low * 528) & 0xFFFFFFFF < ((1 << 32) - 528) % 528
    pos, value = stream.bounded(0, 528)
    assert value == rng.integers(0, 528)
    assert (pos, stream.carry) == (1, False)
    stream.commit(pos)
    assert twin.bit_generator.state == rng.bit_generator.state


def _send_round(seed: int):
    """A synthetic send round: Bernoulli, fixed and silent rows, dead ports."""
    pick = np.random.default_rng(500 + seed)
    n_rows, width = 40, 4
    deg = pick.integers(2, width + 1, size=n_rows)
    valid = np.arange(width)[None, :] < deg[:, None]
    live = valid & (pick.random((n_rows, width)) > 0.1)
    p_row = pick.choice([0.5, 0.5, 0.5, 0.3, 1.0, 0.0], size=n_rows)
    drawing = (p_row > 0.0) & (p_row < 1.0)
    n_dec = np.where(drawing, deg, 0)
    n_fixed = np.where(p_row >= 1.0, np.count_nonzero(live, axis=1), 0)
    originals = [
        pick.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        for length in pick.choice([66, 7, 3], size=n_rows)
    ]
    return p_row, n_dec, n_fixed, live, originals


def _reference_round(rng, model, p_upset, p_row, n_dec, n_fixed, live, originals):
    """The object engine's order, one Generator call at a time."""
    decisions, hits, scrambles, sent = [], [], [], 0
    for row, p in enumerate(p_row.tolist()):
        k = int(n_fixed[row])
        if n_dec[row]:
            doubles = rng.random(int(n_dec[row]))
            decisions.append(doubles.tolist())
            k = int(np.count_nonzero(live[row, : n_dec[row]] & (doubles < p)))
        for _ in range(k):
            if rng.random() < p_upset:
                hits.append(sent)
                scrambles.append(model.corrupt(originals[row], rng))
            sent += 1
    return decisions, hits, scrambles


@pytest.mark.parametrize("p_upset", [0.1, 0.5])
@pytest.mark.parametrize("name", ["vector", "bit"])
@pytest.mark.parametrize("carry", [False, True], ids=["even", "odd"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_walk_matches_the_object_order(
    seed: int, carry: bool, name: str, p_upset: float, block: int
) -> None:
    """A whole send round, refilled from a tiny block, against numpy."""
    model = MODELS[name]
    p_row, n_dec, n_fixed, live, originals = _send_round(seed)
    rng, twin = _twins(seed, carry)
    decisions, hits, scrambles = _reference_round(
        rng, model, p_upset, p_row, n_dec, n_fixed, live, originals
    )
    stream = WordStream.draw(twin.bit_generator, 0, model)
    pos, starts, walked = stream.walk(
        p_upset, p_row, n_dec, n_fixed, live, originals.__getitem__
    )
    stream.commit(pos)
    assert twin.bit_generator.state == rng.bit_generator.state
    assert walked == hits
    drawn = [
        stream.doubles[start : start + n].tolist()
        for start, n in zip(starts.tolist(), n_dec[n_dec > 0].tolist())
    ]
    assert drawn == decisions
    assert len(stream) == len(scrambles)
    for row, want in zip(stream.scrambled(), scrambles):
        assert row[: len(want)].tobytes() == want


def test_self_check_passes_and_leaves_the_callers_generator_alone(
    monkeypatch,
) -> None:
    monkeypatch.setattr(words, "_checked", False)
    checked = WordStream.draw(np.random.PCG64(3), 5)
    assert words._checked
    unchecked = WordStream.draw(np.random.PCG64(3), 5)
    assert checked.words.tolist() == unchecked.words.tolist()
    assert checked._bit_generator.state == unchecked._bit_generator.state


def test_self_check_names_numpy_when_the_model_is_wrong(monkeypatch) -> None:
    bounded = WordStream.bounded

    def off_by_one(self, pos: int, n: int) -> tuple[int, int]:
        pos, value = bounded(self, pos, n)
        return pos, value + 1

    monkeypatch.setattr(WordStream, "bounded", off_by_one)
    monkeypatch.setattr(words, "_checked", False)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}.*object"):
        WordStream.draw(np.random.PCG64(0), 1)
    assert not words._checked
