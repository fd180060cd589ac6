"""EWAH: 64-bit Enhanced Word-Aligned Hybrid compressed bitmap.

This is the compressed bitset the paper plugs into BIGrid (reference [22],
Lemire et al., "Sorting improves word-aligned bitmap indexes").  An EWAH
stream alternates *marker* words and *dirty* (literal) words.  A marker
encodes a run of *clean* words (all zeros or all ones) followed by a count of
dirty words.  We keep the stream as a list of segments

    (run_bit, run_len, dirty_words)

which maps one-to-one onto marker words; :meth:`serialize` emits the
canonical on-disk marker format.  Word size is 64 bits.

Runs compress exactly the patterns the paper calls out: long ``00...0``
stretches from sparse space (most objects absent from a cell) and ``11...1``
stretches from dense space.  The cost of a binary operation is linear in the
*compressed* sizes of the operands, matching the paper's cost model
``cost(b, b') = O(size(b) + size(b'))`` (footnote 6).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.bitset.base import Bitset, packed_row_lengths

WORD_BITS = 64
_ALL = (1 << WORD_BITS) - 1

# Field widths of the serialized marker word: 1 run bit, 32-bit run length,
# 31-bit dirty count (the layout used by the reference implementation).
_RUN_LEN_BITS = 32
_DIRTY_LEN_BITS = 31
_MAX_RUN_LEN = (1 << _RUN_LEN_BITS) - 1
_MAX_DIRTY_LEN = (1 << _DIRTY_LEN_BITS) - 1

_Segment = Tuple[int, int, List[int]]


class _Builder:
    """Accumulates 64-bit words into a canonical compressed segment list."""

    __slots__ = ("segments", "n_words", "cardinality")

    def __init__(self) -> None:
        self.segments: List[_Segment] = []
        self.n_words = 0
        self.cardinality = 0

    def append(self, word: int, count: int = 1) -> None:
        """Append ``count`` copies of ``word`` to the uncompressed stream."""
        if count <= 0:
            return
        self.n_words += count
        if word == 0 or word == _ALL:
            run_bit = 1 if word == _ALL else 0
            if run_bit:
                self.cardinality += WORD_BITS * count
            if self.segments:
                last_bit, last_len, last_dirty = self.segments[-1]
                if not last_dirty and last_bit == run_bit:
                    self.segments[-1] = (run_bit, last_len + count, last_dirty)
                    return
            self.segments.append((run_bit, count, []))
        else:
            self.cardinality += word.bit_count() * count
            if not self.segments:
                self.segments.append((0, 0, []))
            self.segments[-1][2].extend([word] * count)

    def finish(self) -> Tuple[List[_Segment], int, int]:
        """Drop trailing zero runs and return (segments, n_words, cardinality)."""
        while self.segments:
            run_bit, run_len, dirty = self.segments[-1]
            if dirty or run_bit:
                break
            self.segments.pop()
            self.n_words -= run_len
        return self.segments, self.n_words, self.cardinality


def _chunks(segments: List[_Segment]) -> Iterator[Tuple[int, int]]:
    """Yield (count, word) chunks of the uncompressed stream."""
    for run_bit, run_len, dirty in segments:
        if run_len:
            yield run_len, _ALL if run_bit else 0
        for word in dirty:
            yield 1, word


class _Cursor:
    """Stateful chunk reader that pads with infinite trailing zero words."""

    __slots__ = ("_iter", "_count", "_word", "exhausted")

    def __init__(self, segments: List[_Segment]) -> None:
        self._iter = _chunks(segments)
        self._count = 0
        self._word = 0
        self.exhausted = False
        self._advance_chunk()

    def _advance_chunk(self) -> None:
        try:
            self._count, self._word = next(self._iter)
        except StopIteration:
            self.exhausted = True
            self._count = 0
            self._word = 0

    def peek(self) -> Tuple[int, int]:
        """Return (available_count, word); exhausted cursors yield zeros."""
        if self.exhausted:
            return 1 << 62, 0
        return self._count, self._word

    def advance(self, count: int) -> None:
        if self.exhausted:
            return
        self._count -= count
        if self._count <= 0:
            self._advance_chunk()


class EWAHBitset(Bitset):
    """Mutable EWAH-compressed bit vector.

    Bits appended in increasing order (the access pattern of Algorithm 3,
    which scans objects ``o_0, o_1, ...``) take amortized O(1); setting an
    already-set bit is a no-op; setting an arbitrary earlier bit falls back
    to a rebuild, which the BIGrid algorithms never trigger on cell bitsets.
    """

    __slots__ = ("_segments", "_n_words", "_cardinality", "_int_cache")

    def __init__(self) -> None:
        self._segments: List[_Segment] = []
        self._n_words = 0
        self._cardinality = 0
        #: Lazily decoded big-int form; the query engine's hot loops operate
        #: on these (CPython big-int bitwise ops run in C) while the
        #: compressed stream remains the stored, accounted representation.
        self._int_cache: int | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_int(cls, value: int) -> "EWAHBitset":
        if value < 0:
            raise ValueError("bit patterns must be non-negative")
        builder = _Builder()
        while value:
            builder.append(value & _ALL)
            value >>= WORD_BITS
        return cls._from_builder(builder)

    @classmethod
    def _from_builder(cls, builder: _Builder) -> "EWAHBitset":
        bitset = cls()
        segments, n_words, cardinality = builder.finish()
        bitset._segments = segments
        bitset._n_words = n_words
        bitset._cardinality = cardinality
        return bitset

    def copy(self) -> "EWAHBitset":
        clone = EWAHBitset()
        clone._segments = [(bit, length, list(dirty)) for bit, length, dirty in self._segments]
        clone._n_words = self._n_words
        clone._cardinality = self._cardinality
        clone._int_cache = self._int_cache
        return clone

    # ------------------------------------------------------------------
    # Mutation and inspection
    # ------------------------------------------------------------------

    def set(self, index: int) -> None:
        if index < 0:
            raise ValueError("bit index must be non-negative")
        word_index, offset = divmod(index, WORD_BITS)
        if word_index >= self._n_words:
            self._append_bit(word_index, offset)
            self._int_cache = None
        elif not self.get(index):
            self._rebuild(self.to_int() | (1 << index))

    def _append_bit(self, word_index: int, offset: int) -> None:
        """Fast path: the new bit lies beyond every stored word."""
        gap = word_index - self._n_words
        if gap:
            if self._segments and not self._segments[-1][2] and self._segments[-1][0] == 0:
                bit, length, dirty = self._segments[-1]
                self._segments[-1] = (0, length + gap, dirty)
            else:
                self._segments.append((0, gap, []))
        if not self._segments:
            self._segments.append((0, 0, []))
        self._segments[-1][2].append(1 << offset)
        self._n_words = word_index + 1
        self._cardinality += 1

    def _rebuild(self, value: int) -> None:
        rebuilt = EWAHBitset.from_int(value)
        self._segments = rebuilt._segments
        self._n_words = rebuilt._n_words
        self._cardinality = rebuilt._cardinality
        self._int_cache = value

    def get(self, index: int) -> bool:
        if index < 0:
            raise ValueError("bit index must be non-negative")
        word_index, offset = divmod(index, WORD_BITS)
        if word_index >= self._n_words:
            return False
        position = 0
        for count, word in _chunks(self._segments):
            position += count
            if word_index < position:
                return bool((word >> offset) & 1)
        return False

    def cardinality(self) -> int:
        return self._cardinality

    def to_int(self) -> int:
        if self._int_cache is not None:
            return self._int_cache
        value = 0
        position = 0
        for count, word in _chunks(self._segments):
            if word == _ALL:
                value |= ((1 << (WORD_BITS * count)) - 1) << (WORD_BITS * position)
            elif word:
                value |= word << (WORD_BITS * position)
            position += count
        self._int_cache = value
        return value

    def iter_set_bits(self) -> Iterator[int]:
        position = 0
        for count, word in _chunks(self._segments):
            base = position * WORD_BITS
            if word == _ALL:
                yield from range(base, base + count * WORD_BITS)
            elif word:
                remaining = word
                while remaining:
                    low = remaining & -remaining
                    yield base + low.bit_length() - 1
                    remaining ^= low
            position += count

    def word_count(self) -> int:
        """Number of 64-bit words in the compressed stream (markers + dirty)."""
        total = 0
        for _bit, run_len, dirty in self._segments:
            markers = max(1, -(-run_len // _MAX_RUN_LEN), -(-len(dirty) // _MAX_DIRTY_LEN))
            total += markers + len(dirty)
        return total

    def uncompressed_word_count(self) -> int:
        """Number of 64-bit words an uncompressed bitmap would need."""
        return self._n_words

    def size_in_bytes(self) -> int:
        return 8 * self.word_count()

    @classmethod
    def packed_sizes_in_bytes(cls, packed: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`size_in_bytes` over packed uint64 rows.

        The stream :class:`_Builder` produces for a row has one marker per
        segment plus its dirty words, after trailing zero words are
        dropped.  A segment starts at the first word and at every clean
        word that differs from the word before it (a clean word after a
        dirty word, or after a clean run of the other bit); dirty words
        never start one.  Exact for rows shorter than ``_MAX_DIRTY_LEN``
        words (16 GiB), where no marker's run or dirty count overflows.
        """
        rows, words = packed.shape
        live = np.arange(words) < packed_row_lengths(packed)[:, None]
        clean = (packed == 0) | (packed == np.uint64(_ALL))
        starts = np.empty((rows, words), dtype=bool)
        starts[:, :1] = True
        starts[:, 1:] = clean[:, 1:] & (packed[:, 1:] != packed[:, :-1])
        markers = np.count_nonzero(starts & live, axis=1)
        dirty = words - np.count_nonzero(clean, axis=1)
        return 8 * (markers + dirty).astype(np.int64)

    def compression_ratio(self) -> float:
        """Fraction of bytes saved versus the uncompressed bitmap (0..1)."""
        if self._n_words == 0:
            return 0.0
        return 1.0 - self.word_count() / self._n_words

    # ------------------------------------------------------------------
    # Binary operations
    # ------------------------------------------------------------------

    def _binary(self, other: Bitset, op) -> "EWAHBitset":
        if not isinstance(other, EWAHBitset):
            other = EWAHBitset.from_int(other.to_int())
        builder = _Builder()
        cursor_a = _Cursor(self._segments)
        cursor_b = _Cursor(other._segments)
        total = max(self._n_words, other._n_words)
        position = 0
        while position < total:
            count_a, word_a = cursor_a.peek()
            count_b, word_b = cursor_b.peek()
            step = min(count_a, count_b, total - position)
            builder.append(op(word_a, word_b), step)
            cursor_a.advance(step)
            cursor_b.advance(step)
            position += step
        return EWAHBitset._from_builder(builder)

    def or_(self, other: Bitset) -> "EWAHBitset":
        return self._binary(other, lambda a, b: a | b)

    def and_(self, other: Bitset) -> "EWAHBitset":
        return self._binary(other, lambda a, b: a & b)

    def andnot(self, other: Bitset) -> "EWAHBitset":
        return self._binary(other, lambda a, b: a & (b ^ _ALL))

    def xor(self, other: Bitset) -> "EWAHBitset":
        return self._binary(other, lambda a, b: a ^ b)

    # ------------------------------------------------------------------
    # Serialization (canonical marker-word format)
    # ------------------------------------------------------------------

    def serialize(self) -> bytes:
        """Encode as the marker/dirty 64-bit word stream, little endian."""
        words: List[int] = []
        for run_bit, run_len, dirty in self._segments:
            remaining_run = run_len
            remaining_dirty = list(dirty)
            emitted = False
            while remaining_run or remaining_dirty or not emitted:
                take_run = min(remaining_run, _MAX_RUN_LEN)
                take_dirty = min(len(remaining_dirty), _MAX_DIRTY_LEN)
                # A marker may carry a run and dirty words only once the run
                # is exhausted; emit run-only markers first.
                if take_run and take_run < remaining_run:
                    take_dirty = 0
                marker = run_bit | (take_run << 1) | (take_dirty << (1 + _RUN_LEN_BITS))
                words.append(marker)
                words.extend(remaining_dirty[:take_dirty])
                remaining_run -= take_run
                del remaining_dirty[:take_dirty]
                emitted = True
        return b"".join(word.to_bytes(8, "little") for word in words)

    @classmethod
    def deserialize(cls, data: bytes) -> "EWAHBitset":
        """Decode a stream produced by :meth:`serialize`."""
        if len(data) % 8:
            raise ValueError("EWAH stream length must be a multiple of 8 bytes")
        words = [int.from_bytes(data[i:i + 8], "little") for i in range(0, len(data), 8)]
        builder = _Builder()
        index = 0
        while index < len(words):
            marker = words[index]
            index += 1
            run_bit = marker & 1
            run_len = (marker >> 1) & _MAX_RUN_LEN
            dirty_len = marker >> (1 + _RUN_LEN_BITS)
            builder.append(_ALL if run_bit else 0, run_len)
            for _ in range(dirty_len):
                builder.append(words[index])
                index += 1
        return cls._from_builder(builder)


def union_all(bitsets: Iterable[EWAHBitset]) -> EWAHBitset:
    """OR together an iterable of EWAH bitsets (empty input -> empty bitset)."""
    result = EWAHBitset()
    for bitset in bitsets:
        result = result.or_(bitset)
    return result
