"""A generic, table-driven CRC engine.

The engine is parameterised by a :class:`CrcSpec` (width, polynomial,
initial value, reflection flags, final XOR), the same model used by the
"Rocksoft" CRC catalogue.  Three standard codes are pre-registered:

* ``CRC8`` (SMBus: poly 0x07) — the 1-byte code a cheap NoC tile would use;
* ``CRC16_CCITT`` (poly 0x1021) — the thesis cites shift-register CRCs as the
  canonical on-chip error detector (§3.2.2);
* ``CRC32`` (IEEE 802.3) — for experiments on longer payloads.

All checks operate on :class:`bytes`; the fault injector flips bits in the
payload *and/or* the stored checksum, so detection behaves exactly like a
hardware decoder: any single burst shorter than the CRC width is caught, and
a random scramble escapes with probability ~2^-width.  :meth:`CRC.check_rows`
gives the same verdict for a whole matrix of equal-length codewords at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class CrcSpec:
    """Parameters of a CRC in the Rocksoft model.

    Attributes:
        name: human-readable identifier (unique in the registry).
        width: register width in bits (8, 16, 32, ...).
        polynomial: generator polynomial, normal (MSB-first) representation
            without the implicit leading 1 term.
        init: initial shift-register contents.
        reflect_in: process input bytes least-significant-bit first.
        reflect_out: reflect the register before the final XOR.
        xor_out: value XOR-ed onto the register to produce the checksum.
        check: checksum of the ASCII bytes ``b"123456789"`` — the standard
            catalogue self-test vector.
    """

    name: str
    width: int
    polynomial: int
    init: int
    reflect_in: bool
    reflect_out: bool
    xor_out: int
    check: int

    def __post_init__(self) -> None:
        if self.width < 8 or self.width > 64 or self.width % 8:
            raise ValueError(
                f"unsupported CRC width {self.width}: the table-driven engine "
                "handles whole-byte widths between 8 and 64"
            )
        mask = (1 << self.width) - 1
        for field in ("polynomial", "init", "xor_out", "check"):
            value = getattr(self, field)
            if value & ~mask:
                raise ValueError(
                    f"{self.name}: {field}=0x{value:x} does not fit in "
                    f"{self.width} bits"
                )


def _reflect(value: int, width: int) -> int:
    """Reverse the lowest `width` bits of `value`."""
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


@lru_cache(maxsize=None)
def _build_table(width: int, polynomial: int, reflect_in: bool) -> tuple[int, ...]:
    """Precompute the 256-entry byte-at-a-time lookup table."""
    mask = (1 << width) - 1
    top_bit = 1 << (width - 1)
    table = []
    for byte in range(256):
        if reflect_in:
            register = _reflect(byte, 8) << (width - 8)
        else:
            register = byte << (width - 8)
        for _ in range(8):
            if register & top_bit:
                register = ((register << 1) ^ polynomial) & mask
            else:
                register = (register << 1) & mask
        if reflect_in:
            register = _reflect(register, width)
        table.append(register)
    return tuple(table)


class CRC:
    """A concrete CRC calculator built from a :class:`CrcSpec`.

    >>> CRC16_CCITT.compute(b"123456789") == CRC16_CCITT.spec.check
    True
    """

    def __init__(self, spec: CrcSpec) -> None:
        self.spec = spec
        self._mask = (1 << spec.width) - 1
        self._table = _build_table(spec.width, spec.polynomial, spec.reflect_in)
        #: codeword length -> (per-position syndrome table, intact syndrome).
        self._row_tables: dict[int, tuple[np.ndarray, int]] = {}
        self._verify_check_value()

    def _verify_check_value(self) -> None:
        actual = self.compute(b"123456789")
        if actual != self.spec.check:
            raise ValueError(
                f"{self.spec.name}: self-test failed "
                f"(got 0x{actual:x}, expected 0x{self.spec.check:x})"
            )

    @property
    def width(self) -> int:
        return self.spec.width

    @property
    def n_check_bytes(self) -> int:
        """Bytes occupied by the checksum when appended to a packet."""
        return (self.spec.width + 7) // 8

    def compute(self, data: bytes) -> int:
        """Return the checksum of `data`."""
        spec = self.spec
        width = spec.width
        register = spec.init
        if spec.reflect_in:
            register = _reflect(register, width)
            for byte in data:
                index = (register ^ byte) & 0xFF
                register = (register >> 8) ^ self._table[index]
        else:
            shift = width - 8
            for byte in data:
                index = ((register >> shift) ^ byte) & 0xFF
                register = ((register << 8) & self._mask) ^ self._table[index]
        if spec.reflect_out != spec.reflect_in:
            register = _reflect(register, width)
        return (register ^ spec.xor_out) & self._mask

    def encode(self, data: bytes) -> bytes:
        """Append the big-endian checksum to `data` (a framed codeword)."""
        checksum = self.compute(data)
        return data + checksum.to_bytes(self.n_check_bytes, "big")

    def check(self, codeword: bytes) -> bool:
        """Return True when a codeword produced by :meth:`encode` is intact."""
        n = self.n_check_bytes
        if len(codeword) < n:
            return False
        data, trailer = codeword[:-n], codeword[-n:]
        return self.compute(data) == int.from_bytes(trailer, "big")

    def check_rows(self, codewords: np.ndarray) -> np.ndarray:
        """:meth:`check` for every row of a (k, length) ``uint8`` matrix.

        A CRC is affine over GF(2): the data's checksum XOR the trailer
        is the XOR of one table entry per (position, byte value), so the
        verdict for all k rows is one gather and one XOR reduction.
        """
        codewords = np.asarray(codewords, dtype=np.uint8)
        k, length = codewords.shape
        if length < self.n_check_bytes:
            return np.zeros(k, dtype=bool)
        tables = self._row_tables.get(length)
        if tables is None:
            tables = self._row_tables[length] = self._syndrome_table(length)
        table, intact = tables
        syndrome = np.bitwise_xor.reduce(
            table[np.arange(length), codewords], axis=1
        )
        return syndrome == np.uint64(intact)

    def _syndrome_table(self, length: int) -> tuple[np.ndarray, int]:
        """Per-position contributions to ``compute(data) ^ trailer``.

        Row j < len(data) holds, for each byte value b, the linear part of
        the checksum of b followed by ``len(data) - 1 - j`` zero bytes
        (from a zero register, zero bytes ahead of b change nothing): the
        table-driven step over zero bytes, run backwards from the last
        position.  Trailer rows hold b at its big-endian place.  An
        intact codeword's row XOR equals the checksum of all-zero data.
        """
        spec = self.spec
        width = spec.width
        n_data = length - self.n_check_bytes
        table = np.zeros((length, 256), dtype=np.uint64)
        step = np.asarray(self._table, dtype=np.uint64)
        register = step.copy()
        mask, byte = np.uint64(self._mask), np.uint64(0xFF)
        eight, shift = np.uint64(8), np.uint64(width - 8)
        for j in range(n_data - 1, -1, -1):
            table[j] = register
            if spec.reflect_in:
                register = (register >> eight) ^ step[register & byte]
            else:
                register = ((register << eight) & mask) ^ step[
                    (register >> shift) & byte
                ]
        if spec.reflect_out != spec.reflect_in:
            data = table[:n_data]
            reflected = np.zeros_like(data)
            for bit in range(width):
                reflected |= ((data >> np.uint64(bit)) & np.uint64(1)) << (
                    np.uint64(width - 1 - bit)
                )
            table[:n_data] = reflected
        values = np.arange(256, dtype=np.uint64)
        for t in range(self.n_check_bytes):
            table[n_data + t] = values << np.uint64(
                8 * (self.n_check_bytes - 1 - t)
            )
        return table, self.compute(bytes(n_data))

    def extract(self, codeword: bytes) -> bytes:
        """Strip the checksum trailer, returning the original payload.

        Raises:
            ValueError: if the codeword fails the CRC check.
        """
        if not self.check(codeword):
            raise ValueError(f"{self.spec.name}: corrupt codeword")
        return codeword[: -self.n_check_bytes]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CRC({self.spec.name})"


#: Catalogue entries with their standard check values.
_SPECS = [
    CrcSpec("CRC-8", 8, 0x07, 0x00, False, False, 0x00, 0xF4),
    CrcSpec("CRC-16/CCITT-FALSE", 16, 0x1021, 0xFFFF, False, False, 0x0000, 0x29B1),
    CrcSpec("CRC-32", 32, 0x04C11DB7, 0xFFFFFFFF, True, True, 0xFFFFFFFF, 0xCBF43926),
]

REGISTERED_SPECS: dict[str, CrcSpec] = {spec.name: spec for spec in _SPECS}

CRC8 = CRC(REGISTERED_SPECS["CRC-8"])
CRC16_CCITT = CRC(REGISTERED_SPECS["CRC-16/CCITT-FALSE"])
CRC32 = CRC(REGISTERED_SPECS["CRC-32"])


def crc_for(name: str) -> CRC:
    """Look up a pre-registered CRC by catalogue name.

    >>> crc_for("CRC-32").width
    32
    """
    try:
        spec = REGISTERED_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(REGISTERED_SPECS))
        raise KeyError(f"unknown CRC {name!r}; known: {known}") from None
    return CRC(spec)
