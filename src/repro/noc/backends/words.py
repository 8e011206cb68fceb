"""numpy's PCG64 stream read as words, for the fast backend's upset send.

Everything the upset send draws from ``numpy.random.Generator`` is
arithmetic on the bit generator's 64-bit output words:

* ``random()`` takes one whole word ``w`` and returns
  ``(w >> 11) * 2**-53``; ``random(n)`` takes ``n`` words;
* a 32-bit draw returns the half-word PCG64 buffered (``has_uint32`` /
  ``uinteger`` in its state) if there is one, and otherwise the low half of
  a fresh word, buffering its high half.  Whole-word draws leave that
  buffer alone, so it carries across them;
* ``integers(0, 256, L, dtype=uint8)`` is the first ``L`` little-endian
  bytes of ceil(L/4) 32-bit draws;
* ``integers(0, n)`` with ``1 < n < 2**32`` is Lemire's multiply-shift
  ``(u * n) >> 32`` over 32-bit draws ``u``, redrawn while
  ``(u * n) % 2**32 < (2**32 - n) % n``.

:class:`WordStream` holds a block of raw words (``random_raw``) and reads
the two error models of :mod:`repro.faults.errors` off it by index, so a
round of upsets makes no generator call per corruption.  :meth:`commit`
then leaves the generator exactly where the equivalent ``Generator``
calls would, buffered half-word included.  ``tests/test_stream_words.py``
pins the model against the installed numpy, and the first :meth:`draw` in
a process runs :func:`self_check`, a short script of the same kind.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from repro.faults.errors import ErrorModel, RandomBitError, RandomErrorVector

#: Raw words a stream draws beyond what it was asked for, at the start and
#: on every refill.  A constant, not a setting: tests shrink it to 1 and 3
#: so refills land inside every kind of draw.
WORD_BLOCK = 64

_HALF = 0xFFFFFFFF
_DOUBLE = 2.0**-53

#: Set once :func:`self_check` has passed in this process.
_checked = False


class WordStream:
    """A block of PCG64 output words, read by position.

    Positions count whole words from the start of the block: the double
    at position i is ``doubles[i]``.  The 32-bit draws, which may take a
    buffered half-word instead of a whole one, go through :meth:`uint8s`,
    :meth:`bounded` and :meth:`corrupt`, which track the buffer.
    :meth:`walk` reads a whole send round; each :meth:`corrupt` is
    recorded, and :meth:`scrambled` returns them all as one matrix.
    """

    def __init__(
        self,
        words,
        has_uint32: int = 0,
        uinteger: int = 0,
        *,
        error_model: ErrorModel | None = None,
        bit_generator=None,
    ) -> None:
        """Wrap a block of words.

        Args:
            words: the raw ``uint64`` output words.
            has_uint32, uinteger: the bit generator's half-word buffer when
                the first word was drawn.
            error_model: the model :meth:`corrupt` reproduces.
            bit_generator: the generator the words came from, which
                :meth:`reserve` draws more from and :meth:`commit`
                repositions; None for a fixed block (reading past it is
                then an IndexError).
        """
        self._bit_generator = bit_generator
        self._anchor = None
        self.carry = bool(has_uint32)
        #: Index in :meth:`_half_table` of the half-word last buffered; -1 is
        #: the ``uinteger`` the block started with.
        self.carry_at = -1
        self._uinteger = int(uinteger)
        self._vector = error_model is None or error_model.name == "vector"
        self._p_bit = float(getattr(error_model, "p_bit", 0.0))
        self._originals: list[bytes] = []
        #: Per corruption: ``(first, word, carried)`` of its last uint8
        #: draws (vector model), or ``(first double, bit)`` (bit model,
        #: one of them -1).
        self._draws: list[tuple] = []
        self.words = np.asarray(words, dtype=np.uint64)
        self.doubles = (self.words >> np.uint64(11)) * _DOUBLE
        self.size = int(self.words.size)

    @classmethod
    def draw(cls, bit_generator, n: int, error_model=None) -> "WordStream":
        """Draw ``n + WORD_BLOCK`` words from `bit_generator`.

        The first draw in a process runs :func:`self_check` first.
        """
        if not _checked:
            self_check()
        return cls._draw(bit_generator, n, error_model)

    @classmethod
    def _draw(cls, bit_generator, n: int, error_model) -> "WordStream":
        anchor = bit_generator.state
        stream = cls(
            bit_generator.random_raw(n + WORD_BLOCK),
            anchor["has_uint32"],
            anchor["uinteger"],
            error_model=error_model,
            bit_generator=bit_generator,
        )
        stream._anchor = anchor
        return stream

    def reserve(self, end: int) -> None:
        """Make positions ``[0, end)`` readable, drawing more if short."""
        if end <= self.size:
            return
        if self._bit_generator is None:
            raise IndexError(f"word {end - 1} is past a block of {self.size}")
        more = self._bit_generator.random_raw(end - self.size + WORD_BLOCK)
        self.words = np.concatenate((self.words, more))
        self.doubles = np.concatenate(
            (self.doubles, (more >> np.uint64(11)) * _DOUBLE)
        )
        self.size = int(self.words.size)

    def walk(self, p_upset, p_row, n_dec, n_fixed, live, original):
        """Read one send round's draws, in the object engine's order.

        Row r (of a round's arrays) draws its `n_dec[r]` decision doubles
        (one per port when ``0 < p_row[r] < 1``), then one upset double
        per live port it transmits on — `n_fixed[r]` of them for a row of
        fixed entries — and, right after each upset double below
        `p_upset`, the error model's corruption of ``original(r)``.  The
        walk takes one step per row plus one per corruption: rows at the
        round's first p with every port live count their transmissions
        off a running count of doubles below p, and upset windows jump to
        the next hit through the sorted hit positions.  Both lists grow
        with the block when the walk runs short.

        Returns ``(pos, starts, hits)``: the words used, the position of
        each drawing row's first decision double, and the ordinal of each
        corrupted transmission among the round's live transmissions.
        """
        drawing = n_dec > 0
        p0 = float(p_row[np.argmax(drawing)])
        simple = (
            drawing & (p_row == p0)
            & (np.count_nonzero(live, axis=1) == n_dec)
        )
        if (drawing & ~simple).any():
            p_l, live_l = p_row.tolist(), live.tolist()

        # hit_at: positions of the doubles below p_upset, then the block
        # size; count[i]: how many doubles before position i are below p0.
        hit_at, count = [0], [0]
        counted = simple.any()

        def extend(end: int, derived: int) -> int:
            self.reserve(end)
            new = self.doubles[derived:]
            hit_at.pop()
            hit_at.extend((np.flatnonzero(new < p_upset) + derived).tolist())
            hit_at.append(self.size)
            if counted:
                count.extend((np.cumsum(new < p0) + count[-1]).tolist())
            return self.size

        size = extend(0, 0)
        pos = sent = i = 0
        starts: list[int] = []
        hits: list[int] = []
        busy = np.flatnonzero(n_dec + n_fixed)
        for row, n_draws, k, easy in zip(
            busy.tolist(),
            n_dec[busy].tolist(),
            n_fixed[busy].tolist(),
            simple[busy].tolist(),
        ):
            if n_draws:
                if pos + 2 * n_draws > size:
                    size = extend(pos + 2 * n_draws, size)
                starts.append(pos)
                if easy:
                    k = count[pos + n_draws] - count[pos]
                else:
                    window = self.doubles[pos : pos + n_draws].tolist()
                    k = sum(map(p_l[row].__gt__, compress(window, live_l[row])))
                pos += n_draws
            elif pos + k > size:
                size = extend(pos + k, size)
            while k:
                while hit_at[i] < pos:
                    i += 1
                hit = hit_at[i] + 1
                if hit > pos + k:
                    pos += k
                    sent += k
                    break
                k -= hit - pos
                sent += hit - pos
                hits.append(sent - 1)
                pos = self.corrupt(hit, original(row))
                if pos + k > size or self.size != size:
                    size = extend(pos + k, size)
        return pos, np.asarray(starts, dtype=np.int64), hits

    # --------------------------------------------------------- 32-bit draws

    def _half_at(self, index: int) -> int:
        """The 32-bit value at `index` of :meth:`_half_table`."""
        if index < 0:
            return self._uinteger
        return (self.words.item(index >> 1) >> (32 * (index & 1))) & _HALF

    def _take_halves(self, pos: int, count: int) -> tuple[int, int, bool]:
        """Take `count` 32-bit draws at `pos` without reading them.

        Returns the next position, the :meth:`_half_table` index of the first
        draw and whether it was the buffered half-word.
        """
        carried = self.carry and count > 0
        first = self.carry_at if carried else 2 * pos
        fresh = count - carried
        n_words = (fresh + 1) // 2
        self.reserve(pos + n_words)
        if fresh:
            # The last fresh word's high half was buffered, and is still
            # buffered when the draws used an odd number of fresh halves.
            self.carry = bool(fresh & 1)
            self.carry_at = 2 * (pos + n_words) - 1
        elif carried:
            self.carry = False
        return pos + n_words, first, carried

    def _gather(self, first, word, carried, length: int) -> np.ndarray:
        """The bytes of uint8 draws recorded as ``(first, word, carried)``.

        Array arguments give one row per draw; draw i's 32-bit values are
        ``_half_table()[first[i]]`` and then consecutive halves from word
        ``word[i]`` on.
        """
        count = (length + 3) // 4
        index = (
            2 * np.asarray(word, dtype=np.int64)[:, None]
            + np.arange(count)
            - np.asarray(carried, dtype=np.int64)[:, None]
        )
        index[:, 0] = first
        values = self._half_table()[index].astype("<u4", copy=False)
        return values.view(np.uint8).reshape(len(index), 4 * count)[:, :length]

    def _half_table(self) -> np.ndarray:
        """The block's 32-bit halves, low first, then the starting buffer."""
        out = np.empty(2 * self.size + 1, dtype=np.uint32)
        out[0:-1:2] = self.words & np.uint64(_HALF)
        out[1:-1:2] = self.words >> np.uint64(32)
        out[-1] = self._uinteger
        return out

    def uint8s(self, pos: int, length: int) -> tuple[int, np.ndarray]:
        """``integers(0, 256, length, dtype=uint8)`` at `pos`."""
        start = pos
        pos, first, carried = self._take_halves(pos, (length + 3) // 4)
        if not length:
            return pos, np.zeros(0, dtype=np.uint8)
        return pos, self._gather([first], [start], [carried], length)[0]

    def bounded(self, pos: int, n: int) -> tuple[int, int]:
        """``integers(0, n)`` at `pos`, for ``1 <= n < 2**32``."""
        if n == 1:
            return pos, 0
        threshold = ((1 << 32) - n) % n
        while True:
            pos, first, _ = self._take_halves(pos, 1)
            product = self._half_at(first) * n
            if product & _HALF >= threshold:
                return pos, product >> 32

    # ----------------------------------------------------------- corruption

    def corrupt(self, pos: int, original: bytes) -> int:
        """The error model's corruption of `original` at `pos`.

        Returns the next position; the corruption is recorded for
        :meth:`scrambled`.
        """
        if self._vector:
            return self._scramble(pos, original)
        return self._flip(pos, original)

    def _scramble(self, pos: int, original: bytes) -> int:
        """``RandomErrorVector.corrupt(original)`` at `pos`.

        Uint8 draws are re-read while they equal `original`; the first
        32-bit draw settles that for all but a 2**-32 share of them.
        """
        length = len(original)
        count = (length + 3) // 4
        prefix = int.from_bytes(original[:4], "little")
        mask = (1 << (8 * min(length, 4))) - 1
        while True:
            start = pos
            pos, first, carried = self._take_halves(pos, count)
            if (
                not count
                or (self._half_at(first) & mask) != prefix
                or (
                    count > 1
                    and self._gather([first], [start], [carried], length)
                    .tobytes() != original
                )
            ):
                break
        self._originals.append(original)
        self._draws.append((first, start, carried))
        return pos

    def _flip(self, pos: int, original: bytes) -> int:
        """``RandomBitError(p_bit).corrupt(original)`` at `pos`."""
        n_bits = 8 * len(original)
        first = bit = -1
        if n_bits:
            if self._p_bit > 0.0:
                self.reserve(pos + n_bits)
                if self.doubles[pos : pos + n_bits].min() < self._p_bit:
                    first = pos
                pos += n_bits
            if first < 0:
                pos, bit = self.bounded(pos, n_bits)
        self._originals.append(original)
        self._draws.append((first, bit))
        return pos

    def __len__(self) -> int:
        """Corruptions recorded so far."""
        return len(self._originals)

    def scrambled(self) -> np.ndarray:
        """Every recorded corruption's codeword, one row each, in order.

        Rows are zero-padded to the longest codeword.  Built per length
        with numpy: vector scrambles gather their halves, bit errors XOR a
        flip mask (packed from the doubles, or one Lemire bit) onto the
        original.
        """
        lengths = [len(original) for original in self._originals]
        out = np.zeros((len(lengths), max(lengths, default=0)), np.uint8)
        for length in set(lengths):
            rows = [r for r, n in enumerate(lengths) if n == length]
            if length:
                out[rows, :length] = self._rows(rows, length)
        return out

    def _rows(self, rows: list[int], length: int) -> np.ndarray:
        draws = np.asarray([self._draws[r] for r in rows], dtype=np.int64)
        if self._vector:
            return self._gather(draws[:, 0], draws[:, 1], draws[:, 2], length)
        flips = np.zeros((len(rows), length), dtype=np.uint8)
        first, bit = draws[:, 0], draws[:, 1]
        masked = first >= 0
        if masked.any():
            at = first[masked][:, None] + np.arange(8 * length)
            flips[masked] = np.packbits(
                self.doubles[at] < self._p_bit, axis=1, bitorder="little"
            )
        single = np.flatnonzero(~masked)
        flips[single, bit[single] >> 3] = np.left_shift(1, bit[single] & 7)
        original = np.frombuffer(
            b"".join([self._originals[r] for r in rows]), dtype=np.uint8
        )
        return original.reshape(len(rows), length) ^ flips

    # ------------------------------------------------------------ the end

    def commit(self, pos: int) -> None:
        """Leave the generator `pos` words past where the block began.

        ``advance`` clears PCG64's half-word buffer, so both buffer fields
        are written back: the flag, and the last half-word buffered, which
        numpy keeps even after handing it out.
        """
        bit_generator = self._bit_generator
        bit_generator.state = self._anchor
        bit_generator.advance(pos)
        state = bit_generator.state
        state["has_uint32"] = int(self.carry)
        state["uinteger"] = self._half_at(self.carry_at)
        bit_generator.state = state


# ----------------------------------------------------------- numpy canary

#: Codewords the self-check corrupts, one stream (error model) each.
_CHECK_CORRUPTIONS = (
    (RandomErrorVector(), 66),
    (RandomBitError(0.05), 8),  # flips read off doubles
    (RandomBitError(0.0), 66),  # one Lemire-drawn bit
)


def self_check() -> None:
    """Run a fixed script on a throwaway generator and the model on a twin.

    The script covers doubles, uint8 runs that start with and without a
    buffered half-word, bounded draws (``2**31 + 1`` rejects about half its
    32-bit draws) and one corruption per error model; every value and the
    final ``bit_generator.state`` must agree.  Raises ``RuntimeError`` if
    the installed numpy draws differently, since the fast backend's upset
    send would then be wrong.
    """
    global _checked
    rng = np.random.default_rng(2003)
    twin = np.random.default_rng(2003)
    payloads = np.random.default_rng(7).integers(0, 256, 66, np.uint8)
    agree = True
    for model, length in _CHECK_CORRUPTIONS:
        stream = WordStream._draw(twin.bit_generator, 0, model)
        pos, got, want = 0, [], []
        for n in (3, 6):  # from no buffered half, then from the one left
            pos, values = stream.uint8s(pos, n)
            got += values.tolist()
            want += rng.integers(0, 256, n, np.uint8).tolist()
        for _ in range(3):
            pos, value = stream.bounded(pos, 2**31 + 1)
            got.append(value)
            want.append(int(rng.integers(0, 2**31 + 1)))
        stream.reserve(pos + 2)
        got += stream.doubles[pos : pos + 2].tolist()
        want += rng.random(2).tolist()
        original = payloads[:length].tobytes()
        pos = stream.corrupt(pos + 2, original)
        stream.commit(pos)
        agree = (
            agree
            and got == want
            and stream.scrambled()[0].tobytes() == model.corrupt(original, rng)
            and twin.bit_generator.state == rng.bit_generator.state
        )
    if not agree:
        raise RuntimeError(
            f"numpy {np.__version__} draws differently from the PCG64 word "
            "model of repro.noc.backends.words, so the fast backend's upset "
            "send would be wrong; run with backend='object'"
        )
    _checked = True
