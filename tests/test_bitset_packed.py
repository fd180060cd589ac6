"""Unit tests for sizing packed uint64 rows without building bitsets.

``Bitset.packed_sizes_in_bytes`` must agree, row for row, with
``cls.from_int(value).size_in_bytes()`` -- the numpy kernel's memory
accounting (Fig. 5) rests on it.  The edge rows below are the word
patterns EWAH's marker/dirty encoding distinguishes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitset import EWAHBitset, PlainBitset, RoaringBitset
from repro.bitset.base import packed_row_lengths

ALL = (1 << 64) - 1
BACKENDS = (EWAHBitset, PlainBitset, RoaringBitset)

EDGE_ROWS = {
    "all-zero": [0, 0, 0, 0],
    "all-ones": [ALL, ALL, ALL, ALL],
    "ones-then-zeros": [ALL, ALL, 0, 0],
    "zeros-then-ones": [0, 0, ALL, ALL],
    "dirty-clean-alternation": [5, 0, 7, ALL, 9, 0, 11, ALL],
    "clean-run-switches": [0, ALL, 0, ALL, 0, ALL, 0, ALL],
    "trailing-zero-words": [3, ALL, 1 << 63, 0, 0, 0],
    "leading-zero-words": [0, 0, 0, 1],
    "one-word-dirty": [0x5555],
    "one-word-ones": [ALL],
    "one-word-zero": [0],
    "many-words-dirty": [(index * 0x9E3779B97F4A7C15) & ALL or 1 for index in range(40)],
    "many-words-sparse": [0] * 39 + [1 << 17],
}


def row_value(words):
    return sum(word << (64 * index) for index, word in enumerate(words))


def reference_sizes(cls, rows):
    return [cls.from_int(row_value(words)).size_in_bytes() for words in rows]


def packed(rows):
    return np.array(rows, dtype=np.uint64).reshape(len(rows), -1)


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("name", sorted(EDGE_ROWS))
def test_edge_row_matches_from_int(cls, name):
    words = EDGE_ROWS[name]
    assert cls.packed_sizes_in_bytes(packed([words])).tolist() == reference_sizes(
        cls, [words]
    )


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda cls: cls.__name__)
def test_mixed_rows_in_one_call(cls):
    # Rows of one matrix share a width; pad the edge rows to the longest.
    width = max(len(words) for words in EDGE_ROWS.values())
    rows = [words + [0] * (width - len(words)) for words in EDGE_ROWS.values()]
    sizes = cls.packed_sizes_in_bytes(packed(rows))
    assert sizes.dtype == np.int64
    assert sizes.tolist() == reference_sizes(cls, rows)


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda cls: cls.__name__)
def test_empty_matrix(cls):
    assert cls.packed_sizes_in_bytes(np.zeros((0, 3), dtype=np.uint64)).tolist() == []


def test_row_lengths_drop_trailing_zero_words():
    rows = packed([[0, 0, 0], [1, 0, 0], [0, 0, 1], [0, ALL, 0]])
    assert packed_row_lengths(rows).tolist() == [0, 1, 3, 2]


WORDS = st.sampled_from([0, ALL, 1, 1 << 63, 0x5555, ALL - 1]) | st.integers(0, ALL)


@given(
    width=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_hypothesis_rows_match_from_int(width, data):
    rows = data.draw(
        st.lists(st.lists(WORDS, min_size=width, max_size=width), min_size=1, max_size=8)
    )
    for cls in BACKENDS:
        assert cls.packed_sizes_in_bytes(packed(rows)).tolist() == reference_sizes(
            cls, rows
        )
