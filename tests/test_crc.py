"""Tests for the CRC substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crc import CRC, CRC8, CRC16_CCITT, CRC32, CrcSpec, crc_for
from repro.crc.engine import _reflect


ALL_CODECS = [CRC8, CRC16_CCITT, CRC32]


class TestCatalogueVectors:
    def test_crc8_check_value(self):
        assert CRC8.compute(b"123456789") == 0xF4

    def test_crc16_ccitt_check_value(self):
        assert CRC16_CCITT.compute(b"123456789") == 0x29B1

    def test_crc32_check_value(self):
        assert CRC32.compute(b"123456789") == 0xCBF43926

    def test_crc32_known_strings(self):
        # Standard IEEE 802.3 values.
        assert CRC32.compute(b"") == 0x00000000
        assert CRC32.compute(b"a") == 0xE8B7BE43
        assert CRC32.compute(b"abc") == 0x352441C2

    def test_lookup_by_name(self):
        assert crc_for("CRC-32").width == 32
        assert crc_for("CRC-8").width == 8

    def test_lookup_unknown_name(self):
        with pytest.raises(KeyError, match="unknown CRC"):
            crc_for("CRC-7/NOPE")


class TestSpecValidation:
    def test_rejects_narrow_width(self):
        with pytest.raises(ValueError, match="width"):
            CrcSpec("bad", 4, 0x3, 0, False, False, 0, 0)

    def test_rejects_non_byte_width(self):
        with pytest.raises(ValueError, match="width"):
            CrcSpec("bad", 12, 0x80F, 0, False, False, 0, 0)

    def test_rejects_oversized_polynomial(self):
        with pytest.raises(ValueError, match="polynomial"):
            CrcSpec("bad", 8, 0x1FF, 0, False, False, 0, 0)

    def test_rejects_wrong_check_value(self):
        spec = CrcSpec("bad-check", 8, 0x07, 0x00, False, False, 0x00, 0x00)
        with pytest.raises(ValueError, match="self-test failed"):
            CRC(spec)


class TestEncodeCheck:
    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.spec.name)
    def test_roundtrip(self, codec):
        data = b"the quick brown fox"
        codeword = codec.encode(data)
        assert codec.check(codeword)
        assert codec.extract(codeword) == data

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.spec.name)
    def test_codeword_length(self, codec):
        assert len(codec.encode(b"xyz")) == 3 + codec.n_check_bytes

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.spec.name)
    def test_single_bit_flip_detected_everywhere(self, codec):
        codeword = bytearray(codec.encode(b"payload!"))
        for byte_index in range(len(codeword)):
            for bit in range(8):
                corrupted = bytearray(codeword)
                corrupted[byte_index] ^= 1 << bit
                assert not codec.check(bytes(corrupted)), (
                    f"bit {bit} of byte {byte_index} escaped"
                )

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.spec.name)
    def test_burst_errors_shorter_than_width_detected(self, codec):
        codeword = codec.encode(b"burst error test payload")
        width = codec.width
        for start_bit in range(0, 8 * len(codeword) - width, 7):
            corrupted = bytearray(codeword)
            for offset in range(width):
                bit = start_bit + offset
                corrupted[bit // 8] ^= 1 << (7 - bit % 8)
            assert not codec.check(bytes(corrupted))

    def test_truncated_codeword_fails(self):
        assert not CRC32.check(b"\x01")
        assert not CRC32.check(b"")

    def test_extract_raises_on_corruption(self):
        codeword = bytearray(CRC16_CCITT.encode(b"data"))
        codeword[0] ^= 0xFF
        with pytest.raises(ValueError, match="corrupt"):
            CRC16_CCITT.extract(bytes(codeword))

    def test_random_scramble_escape_rate_matches_width(self):
        # A uniformly random scramble escapes with probability ~2^-16 for
        # CRC-16; over 3000 trials we should see (almost surely) zero.
        rng = np.random.default_rng(7)
        data = b"0123456789abcdef"
        escapes = 0
        for _ in range(3000):
            scrambled = rng.integers(
                0, 256, size=len(data) + 2, dtype=np.uint8
            ).tobytes()
            if CRC16_CCITT.check(scrambled):
                escapes += 1
        assert escapes <= 2


def _bitwise_crc(spec: CrcSpec, data: bytes) -> int:
    """The Rocksoft model one bit at a time: a reference for the tables."""
    top, mask = 1 << (spec.width - 1), (1 << spec.width) - 1
    register = spec.init
    for byte in data:
        if spec.reflect_in:
            byte = _reflect(byte, 8)
        register ^= byte << (spec.width - 8)
        for _ in range(8):
            shifted = (register << 1) & mask
            register = shifted ^ spec.polynomial if register & top else shifted
    if spec.reflect_out:
        register = _reflect(register, spec.width)
    return register ^ spec.xor_out


def _spec(name, width, poly, init, ref_in, ref_out, xor_out) -> CrcSpec:
    draft = CrcSpec(name, width, poly, init, ref_in, ref_out, xor_out, 0)
    check = _bitwise_crc(draft, b"123456789")
    return CrcSpec(name, width, poly, init, ref_in, ref_out, xor_out, check)


#: The catalogue plus every reflection combination and the widest width.
ROW_CODECS = ALL_CODECS + [
    CRC(_spec("CRC-16/ARC", 16, 0x8005, 0, True, True, 0)),
    CRC(_spec("out-only", 16, 0x1021, 0xFFFF, False, True, 0x1234)),
    CRC(_spec("in-only", 32, 0x04C11DB7, 0, True, False, 0xFFFFFFFF)),
    CRC(
        _spec(
            "CRC-64/XZ", 64, 0x42F0E1EBA9EA3693, 2**64 - 1, True, True,
            2**64 - 1,
        )
    ),
]


class TestCheckRows:
    """``check_rows`` against ``check``, row for row."""

    @pytest.mark.parametrize("codec", ROW_CODECS, ids=lambda c: c.spec.name)
    @pytest.mark.parametrize("length", [0, 1, 3, 4, 8, 9, 66, 67])
    def test_agrees_with_check(self, codec, length):
        rng = np.random.default_rng(length)
        rows = list(rng.integers(0, 256, size=(40, length), dtype=np.uint8))
        n_data = length - codec.n_check_bytes
        if n_data >= 0:
            for _ in range(40):
                data = rng.integers(0, 256, size=n_data, dtype=np.uint8)
                intact = np.frombuffer(codec.encode(data.tobytes()), np.uint8)
                flipped = intact.copy()
                bit = int(rng.integers(0, 8 * length))
                flipped[bit // 8] ^= 1 << (bit % 8)
                rows += [intact, flipped]
        matrix = np.array(rows, dtype=np.uint8).reshape(len(rows), length)
        expected = [codec.check(row.tobytes()) for row in matrix]
        assert codec.check_rows(matrix).tolist() == expected
        if n_data >= 0:
            assert any(expected) and not all(expected)

    @pytest.mark.parametrize("codec", ROW_CODECS, ids=lambda c: c.spec.name)
    def test_reference_matches_compute(self, codec):
        data = bytes(range(256))
        assert codec.compute(data) == _bitwise_crc(codec.spec, data)

    def test_no_rows(self):
        assert CRC16_CCITT.check_rows(np.zeros((0, 66), np.uint8)).size == 0


class TestReflection:
    def test_reflect_involution(self):
        for value in (0, 1, 0xA5, 0xFFFF, 0x12345678):
            assert _reflect(_reflect(value, 32), 32) == value

    def test_reflect_known(self):
        assert _reflect(0b0001, 4) == 0b1000
        assert _reflect(0x01, 8) == 0x80


@given(data=st.binary(min_size=0, max_size=256))
@settings(max_examples=100, deadline=None)
def test_property_roundtrip_crc32(data):
    assert CRC32.extract(CRC32.encode(data)) == data


@given(
    data=st.binary(min_size=1, max_size=64),
    bit=st.integers(min_value=0, max_value=8 * 64 + 31),
)
@settings(max_examples=150, deadline=None)
def test_property_any_single_flip_detected(data, bit):
    codeword = bytearray(CRC32.encode(data))
    bit %= 8 * len(codeword)
    codeword[bit // 8] ^= 1 << (bit % 8)
    assert not CRC32.check(bytes(codeword))


@given(data=st.binary(min_size=0, max_size=128))
@settings(max_examples=100, deadline=None)
def test_property_compute_deterministic(data):
    assert CRC16_CCITT.compute(data) == CRC16_CCITT.compute(data)
