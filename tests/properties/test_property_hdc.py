"""Property-based tests (hypothesis) for HDC data structures."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hdc import (
    hamming_distance,
    majority_bundle,
    pack_bits,
    pairwise_hamming_blocked,
    popcount,
    unpack_bits,
    words_for_dim,
)

dims = st.integers(min_value=1, max_value=300)


@st.composite
def bit_matrices(draw, max_rows=6, max_dim=200):
    rows = draw(st.integers(1, max_rows))
    dim = draw(st.integers(1, max_dim))
    flat = draw(
        st.lists(
            st.integers(0, 1), min_size=rows * dim, max_size=rows * dim
        )
    )
    return np.array(flat, dtype=np.uint8).reshape(rows, dim)


class TestPackRoundtrip:
    @given(bits=bit_matrices())
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip(self, bits):
        dim = bits.shape[1]
        packed = pack_bits(bits)
        assert packed.shape == (bits.shape[0], words_for_dim(dim))
        np.testing.assert_array_equal(unpack_bits(packed, dim), bits)

    @given(bits=bit_matrices())
    @settings(max_examples=40, deadline=None)
    def test_popcount_equals_bit_sum(self, bits):
        packed = pack_bits(bits)
        counts = popcount(packed).sum(axis=1)
        np.testing.assert_array_equal(counts, bits.sum(axis=1))


class TestHammingMetricAxioms:
    @given(bits=bit_matrices(max_rows=5))
    @settings(max_examples=40, deadline=None)
    def test_identity_symmetry_triangle(self, bits):
        packed = pack_bits(bits)
        matrix = pairwise_hamming_blocked(packed)
        n = bits.shape[0]
        # Identity and symmetry.
        assert np.all(np.diag(matrix) == 0)
        assert np.array_equal(matrix, matrix.T)
        # Triangle inequality.
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert matrix[i, j] <= matrix[i, k] + matrix[k, j]

    @given(bits=bit_matrices(max_rows=2))
    @settings(max_examples=40, deadline=None)
    def test_distance_equals_xor_weight(self, bits):
        if bits.shape[0] < 2:
            return
        packed = pack_bits(bits)
        distance = hamming_distance(packed[0], packed[1])
        assert distance == int((bits[0] != bits[1]).sum())

    @given(bits=bit_matrices(max_rows=1))
    @settings(max_examples=30, deadline=None)
    def test_distance_bounded_by_dim(self, bits):
        packed = pack_bits(bits)
        complement_bits = 1 - bits
        complement = pack_bits(complement_bits)
        assert hamming_distance(packed[0], complement[0]) == bits.shape[1]


class TestMajorityProperties:
    @given(
        counts=st.lists(st.integers(0, 9), min_size=1, max_size=64),
        total=st.integers(1, 9),
    )
    @settings(max_examples=50, deadline=None)
    def test_majority_output_binary(self, counts, total):
        accumulator = np.minimum(np.array(counts), total)
        result = majority_bundle(accumulator, total)
        assert set(np.unique(result)) <= {0, 1}

    @given(total=st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_all_ones_majority_is_one(self, total):
        accumulator = np.full(8, total)
        assert np.all(majority_bundle(accumulator, total) == 1)

    @given(total=st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_all_zeros_majority_is_zero(self, total):
        accumulator = np.zeros(8, dtype=int)
        assert np.all(majority_bundle(accumulator, total) == 0)
