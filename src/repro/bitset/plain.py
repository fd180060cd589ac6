"""Uncompressed bitset backed by an arbitrary-precision integer.

This is the baseline the paper's footnote 4 compares EWAH against: every
cell bitset occupies ``ceil(n / 64)`` words regardless of content.  CPython
big-int bitwise operations run in C, so this backend is also the fastest
pure-Python option and serves as the semantic oracle for EWAH in tests.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.bitset.base import Bitset, packed_row_lengths

WORD_BITS = 64


class PlainBitset(Bitset):
    """Mutable uncompressed bit vector."""

    __slots__ = ("_value",)

    def __init__(self, value: int = 0) -> None:
        if value < 0:
            raise ValueError("bit patterns must be non-negative")
        self._value = value

    @classmethod
    def from_int(cls, value: int) -> "PlainBitset":
        return cls(value)

    def copy(self) -> "PlainBitset":
        return PlainBitset(self._value)

    def set(self, index: int) -> None:
        if index < 0:
            raise ValueError("bit index must be non-negative")
        self._value |= 1 << index

    def get(self, index: int) -> bool:
        if index < 0:
            raise ValueError("bit index must be non-negative")
        return bool((self._value >> index) & 1)

    def cardinality(self) -> int:
        return self._value.bit_count()

    def to_int(self) -> int:
        return self._value

    def iter_set_bits(self) -> Iterator[int]:
        value = self._value
        while value:
            low = value & -value
            yield low.bit_length() - 1
            value ^= low

    def size_in_bytes(self) -> int:
        """Whole 64-bit words up to the highest set bit (uncompressed cost)."""
        words = -(-self._value.bit_length() // WORD_BITS)
        return 8 * words

    @classmethod
    def packed_sizes_in_bytes(cls, packed: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`size_in_bytes`: 8 bytes per word up to the
        last nonzero word of each row."""
        return 8 * packed_row_lengths(packed)

    def or_(self, other: Bitset) -> "PlainBitset":
        return PlainBitset(self._value | other.to_int())

    def and_(self, other: Bitset) -> "PlainBitset":
        return PlainBitset(self._value & other.to_int())

    def andnot(self, other: Bitset) -> "PlainBitset":
        return PlainBitset(self._value & ~other.to_int())

    def xor(self, other: Bitset) -> "PlainBitset":
        return PlainBitset(self._value ^ other.to_int())
