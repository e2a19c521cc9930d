"""The one popcount and the kernels built on it, against the oracles.

Every production kernel that counts bits — ``popcount``,
``hamming_distance``, ``hamming_cross`` and the carry-save accumulator —
is property-checked against :mod:`repro.testing.oracles`, whose
reference implementations count through ``np.unpackbits`` and so share
nothing with ``np.bitwise_count``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hdc import (
    condensed_pairwise_hamming,
    hamming_cross,
    hamming_distance,
    hamming_to_query,
    kernel_runtime,
    pairwise_hamming_blocked,
    popcount,
)
from repro.hdc.bitops import counts_from_planes, csa_accumulate
from repro.testing import oracles


@st.composite
def packed_matrices(draw, max_rows=6, max_words=5, words=None, signed=False):
    rows = draw(st.integers(1, max_rows))
    if words is None:
        words = draw(st.integers(1, max_words))
    bounds = (-(2**63), 2**63 - 1) if signed else (0, 2**64 - 1)
    flat = draw(
        st.lists(
            st.integers(*bounds), min_size=rows * words, max_size=rows * words
        )
    )
    dtype = np.int64 if signed else np.uint64
    return np.array(flat, dtype=dtype).reshape(rows, words)


def _cross_oracle(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    dense = oracles.pairwise_hamming(np.vstack([first, second]))
    return dense[: len(first), len(first) :]


class TestPopcount:
    @settings(max_examples=40, deadline=None)
    @given(words=packed_matrices())
    def test_matches_oracle(self, words):
        got = popcount(words)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, oracles.popcount(words))

    @settings(max_examples=40, deadline=None)
    @given(words=packed_matrices(signed=True))
    def test_signed_input_counts_its_uint64_view(self, words):
        # np.bitwise_count counts |x| for signed dtypes (-1 -> 1 bit);
        # the packed words are raw bits, so the uint64 view is the truth.
        np.testing.assert_array_equal(
            popcount(words), oracles.popcount(words.view(np.uint64))
        )
        assert popcount(np.int64(-1)) == 64

    @pytest.mark.parametrize(
        "shape", [(), (0,), (7,), (3, 4), (2, 3, 5)],
        ids=["scalar", "empty", "1d", "2d", "3d"],
    )
    def test_keeps_shape_any_rank(self, shape, rng):
        words = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        got = popcount(words)
        assert got.shape == shape
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, oracles.popcount(words))

    def test_runtime_record(self):
        assert kernel_runtime() == {
            "popcount": "numpy.bitwise_count",
            "numpy": np.__version__,
        }


class TestHammingKernels:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hamming_cross_matches_oracle(self, data):
        queries = data.draw(packed_matrices())
        refs = data.draw(packed_matrices(words=queries.shape[1]))
        block_rows = data.draw(st.none() | st.integers(1, 7))
        got = hamming_cross(queries, refs, block_rows=block_rows)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _cross_oracle(queries, refs))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hamming_distance_broadcasts(self, data):
        first = data.draw(packed_matrices())
        second = data.draw(packed_matrices(words=first.shape[1]))
        expected = _cross_oracle(first, second)
        got = hamming_distance(first[:, None, :], second[None, :, :])
        assert got.shape == (len(first), len(second))
        np.testing.assert_array_equal(got, expected)
        rows = min(len(first), len(second))
        np.testing.assert_array_equal(
            hamming_distance(first[:rows], second[:rows]),
            np.diag(expected)[:rows],
        )


#: Every public distance entry point on a packed ``(rows, words)`` matrix,
#: paired with the oracle result it must reproduce.
DISTANCE_ENTRY_POINTS = {
    "hamming_distance": (
        lambda m: hamming_distance(m[:, None, :], m[None]),
        oracles.pairwise_hamming,
    ),
    "hamming_to_query": (
        lambda m: hamming_to_query(m, m[0]),
        lambda m: oracles.pairwise_hamming(m)[0],
    ),
    "hamming_cross": (
        lambda m: hamming_cross(m, m[::-1], block_rows=2),
        lambda m: oracles.pairwise_hamming(m)[:, ::-1],
    ),
    "pairwise_hamming_blocked": (
        lambda m: pairwise_hamming_blocked(m, block_rows=2),
        oracles.pairwise_hamming,
    ),
    "condensed_pairwise_hamming": (
        lambda m: condensed_pairwise_hamming(m, block_rows=2),
        oracles.condensed_pairwise_hamming,
    ),
}


@pytest.mark.parametrize("entry", sorted(DISTANCE_ENTRY_POINTS))
def test_signed_words_count_their_raw_bits(entry, rng):
    # Words with the sign bit set are negative as int64, where
    # np.bitwise_count would count |x|; every entry point must count the
    # raw bits whichever integer view it is handed.
    unsigned = rng.integers(0, 2**64, size=(5, 3), dtype=np.uint64)
    unsigned[:, 0] |= np.uint64(1 << 63)
    kernel, oracle = DISTANCE_ENTRY_POINTS[entry]
    expected = oracle(unsigned)
    np.testing.assert_array_equal(kernel(unsigned), expected)
    np.testing.assert_array_equal(kernel(unsigned.view(np.int64)), expected)


class TestCarrySaveAccumulator:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_csa_and_counts_match_oracle(self, data):
        count = data.draw(st.integers(1, 19))
        groups = data.draw(st.integers(1, 3))
        words = data.draw(st.integers(1, 3))
        flat = data.draw(
            packed_matrices(max_rows=1, words=count * groups * words)
        )
        rows = flat.reshape(count, groups, words)
        planes = csa_accumulate(rows, capacity=count)
        lanes = words * 64
        # The oracle sees the same rows grouped per lane group.
        by_group = rows.transpose(1, 0, 2).reshape(groups * count, words)
        starts = np.arange(groups) * count
        np.testing.assert_array_equal(
            counts_from_planes(planes, lanes),
            oracles.accumulate_bit_counts(by_group, starts, lanes),
        )
