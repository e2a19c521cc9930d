"""Property-based tests for the condensed layout and the fast kernels.

Complements ``test_property_hdc.py`` (pack/unpack round-trip, metric
axioms) with the condensed-index ↔ squareform consistency contract and
kernel/oracle equivalence (``repro.testing.oracles``) under random shapes
and block sizes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hdc import (
    condensed_index,
    condensed_pairwise_hamming,
    pack_bits,
    pairwise_hamming_blocked,
    squareform,
)
from repro.testing import oracles


@st.composite
def packed_matrices(draw, min_rows=2, max_rows=8, max_words=4):
    rows = draw(st.integers(min_rows, max_rows))
    words = draw(st.integers(1, max_words))
    flat = draw(
        st.lists(
            st.integers(0, 2 ** 64 - 1),
            min_size=rows * words,
            max_size=rows * words,
        )
    )
    return np.array(flat, dtype=np.uint64).reshape(rows, words)


class TestCondensedSquareformConsistency:
    @given(vectors=packed_matrices())
    @settings(max_examples=50, deadline=None)
    def test_condensed_index_matches_dense(self, vectors):
        n = vectors.shape[0]
        dense = pairwise_hamming_blocked(vectors)
        condensed = condensed_pairwise_hamming(vectors)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                index = condensed_index(i, j, n)
                assert condensed[index] == dense[i, j]

    @given(vectors=packed_matrices())
    @settings(max_examples=50, deadline=None)
    def test_squareform_roundtrip(self, vectors):
        n = vectors.shape[0]
        condensed = condensed_pairwise_hamming(vectors)
        dense = squareform(condensed, n)
        np.testing.assert_array_equal(
            dense, oracles.pairwise_hamming(vectors).astype(np.float64)
        )

    @given(vectors=packed_matrices(), block_rows=st.integers(1, 9))
    @settings(max_examples=50, deadline=None)
    def test_condensed_blocked_equals_reference(self, vectors, block_rows):
        np.testing.assert_array_equal(
            condensed_pairwise_hamming(vectors, block_rows=block_rows),
            oracles.condensed_pairwise_hamming(vectors),
        )


class TestBlockedKernelProperties:
    @given(
        vectors=packed_matrices(max_rows=7),
        block_rows=st.integers(1, 9),
    )
    @settings(max_examples=50, deadline=None)
    def test_blocked_equals_reference_any_block(self, vectors, block_rows):
        np.testing.assert_array_equal(
            pairwise_hamming_blocked(vectors, block_rows=block_rows),
            oracles.pairwise_hamming(vectors),
        )

    @given(vectors=packed_matrices(max_rows=6))
    @settings(max_examples=40, deadline=None)
    def test_blocked_metric_axioms(self, vectors):
        matrix = pairwise_hamming_blocked(vectors)
        n = vectors.shape[0]
        assert np.all(np.diag(matrix) == 0)
        assert np.array_equal(matrix, matrix.T)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert matrix[i, j] <= matrix[i, k] + matrix[k, j]


@st.composite
def grouped_bits(draw, max_groups=4, max_group_rows=5, max_dim=130):
    groups = draw(st.integers(1, max_groups))
    sizes = [
        draw(st.integers(1, max_group_rows)) for _ in range(groups)
    ]
    dim = draw(st.integers(1, max_dim))
    total = sum(sizes)
    flat = draw(
        st.lists(
            st.integers(0, 1), min_size=total * dim, max_size=total * dim
        )
    )
    bits = np.array(flat, dtype=np.uint8).reshape(total, dim)
    return bits, sizes, dim


class TestWordLevelAccumulation:
    @given(data=grouped_bits())
    @settings(max_examples=50, deadline=None)
    def test_accumulate_matches_per_group_sums(self, data):
        bits, sizes, dim = data
        packed = pack_bits(bits)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        counts = oracles.accumulate_bit_counts(packed, starts, dim)
        row = 0
        for group, size in enumerate(sizes):
            np.testing.assert_array_equal(
                counts[group],
                bits[row : row + size].sum(axis=0, dtype=np.int64),
            )
            row += size
