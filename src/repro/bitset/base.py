"""Common bitset interface.

Every backend represents a (conceptually unbounded) sequence of bits indexed
from 0, where bit ``i`` corresponds to object ``o_i`` of the collection.  The
operations below are exactly those the BIGrid algorithms need:

* ``set`` while building grid cells (Algorithm 3),
* ``|`` (bitwise OR) for lower/upper bounding (Algorithms 4 and 5),
* ``andnot`` (set difference) and ``cardinality`` for verification
  (Algorithm 6, where ``b <- b_adj(c) - b(o_i)`` and ``|b|`` drive pruning),
* ``iter_set_bits`` to enumerate candidate objects,
* ``size_in_bytes`` for the memory accounting reported in Figs. 5(f)-(j).

:meth:`Bitset.packed_sizes_in_bytes` answers ``size_in_bytes`` for every
row of a packed ``(rows, words)`` uint64 matrix at once, so a grid that
keeps its cell bitsets packed can be sized without building one object
per row.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator

import numpy as np


class Bitset(ABC):
    """Abstract bit vector keyed by object index."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "Bitset":
        """Build a bitset with the given bit positions set."""
        bitset = cls()
        for index in sorted(set(indices)):
            bitset.set(index)
        return bitset

    @classmethod
    @abstractmethod
    def from_int(cls, value: int) -> "Bitset":
        """Build a bitset whose bit ``i`` is ``(value >> i) & 1``."""

    @classmethod
    def packed_sizes_in_bytes(cls, packed: np.ndarray) -> np.ndarray:
        """``size_in_bytes`` of every row of a packed uint64 matrix.

        Row ``j`` of ``packed`` (shape ``(rows, words)``) holds one bitset,
        word ``i`` carrying bits ``64*i .. 64*i+63``.  Returns an int64
        array of per-row sizes, each equal to
        ``cls.from_int(row_value).size_in_bytes()``.  This default builds
        exactly those objects; backends whose size is a function of the
        word pattern override it with array reductions.
        """
        sizes = np.zeros(packed.shape[0], dtype=np.int64)
        for index, row in enumerate(packed):
            sizes[index] = cls.from_int(row_int(row)).size_in_bytes()
        return sizes

    # ------------------------------------------------------------------
    # Mutation and inspection
    # ------------------------------------------------------------------

    @abstractmethod
    def set(self, index: int) -> None:
        """Set bit ``index`` to 1 (idempotent)."""

    @abstractmethod
    def get(self, index: int) -> bool:
        """Return whether bit ``index`` is 1."""

    @abstractmethod
    def cardinality(self) -> int:
        """Return the number of set bits (``|b|`` in the paper)."""

    @abstractmethod
    def to_int(self) -> int:
        """Return the bit pattern as an arbitrary-precision integer."""

    @abstractmethod
    def iter_set_bits(self) -> Iterator[int]:
        """Yield set bit positions in increasing order."""

    @abstractmethod
    def size_in_bytes(self) -> int:
        """Return the storage footprint of the encoded form."""

    # ------------------------------------------------------------------
    # Binary operations (pure: return a new bitset of the same backend)
    # ------------------------------------------------------------------

    @abstractmethod
    def or_(self, other: "Bitset") -> "Bitset":
        """Return ``self | other``."""

    @abstractmethod
    def and_(self, other: "Bitset") -> "Bitset":
        """Return ``self & other``."""

    @abstractmethod
    def andnot(self, other: "Bitset") -> "Bitset":
        """Return ``self & ~other`` (set difference)."""

    @abstractmethod
    def xor(self, other: "Bitset") -> "Bitset":
        """Return ``self ^ other``."""

    @abstractmethod
    def copy(self) -> "Bitset":
        """Return an independent copy."""

    # ------------------------------------------------------------------
    # Convenience / operator sugar
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        """Return whether no bit is set."""
        return self.cardinality() == 0

    def __or__(self, other: "Bitset") -> "Bitset":
        return self.or_(other)

    def __and__(self, other: "Bitset") -> "Bitset":
        return self.and_(other)

    def __sub__(self, other: "Bitset") -> "Bitset":
        return self.andnot(other)

    def __xor__(self, other: "Bitset") -> "Bitset":
        return self.xor(other)

    def __contains__(self, index: int) -> bool:
        return self.get(index)

    def __len__(self) -> int:
        return self.cardinality()

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __iter__(self) -> Iterator[int]:
        return self.iter_set_bits()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitset):
            return NotImplemented
        return self.to_int() == other.to_int()

    def __hash__(self) -> int:
        return hash(self.to_int())

    def __repr__(self) -> str:
        bits = list(self.iter_set_bits())
        preview = ", ".join(str(b) for b in bits[:8])
        suffix = ", ..." if len(bits) > 8 else ""
        return f"{type(self).__name__}({{{preview}{suffix}}})"


def row_int(words: np.ndarray) -> int:
    """One packed uint64 row -> the big-int bitset value (word i at bit 64*i)."""
    return int.from_bytes(words.astype("<u8", copy=False).tobytes(), "little")


def packed_row_lengths(packed: np.ndarray) -> np.ndarray:
    """Per-row word count up to and including the last nonzero word.

    That is the length of each row once trailing zero words are dropped
    (0 for an all-zero row), as an int64 array.
    """
    nonzero = packed != 0
    last = packed.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), last, 0).astype(np.int64)
