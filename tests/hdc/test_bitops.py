"""Tests for packed-bit hypervector primitives."""

import numpy as np
import pytest

from repro.errors import EncodingError
from repro.hdc import (
    WORD_BITS,
    flip_bits,
    hamming_distance,
    majority_bundle,
    pack_bits,
    popcount,
    random_hypervectors,
    unpack_bits,
    words_for_dim,
)


class TestWordsForDim:
    @pytest.mark.parametrize("dim,expected", [(1, 1), (64, 1), (65, 2), (2048, 32)])
    def test_values(self, dim, expected):
        assert words_for_dim(dim) == expected

    def test_zero_rejected(self):
        with pytest.raises(EncodingError):
            words_for_dim(0)


class TestPackUnpack:
    def test_roundtrip_2d(self, rng):
        bits = rng.integers(0, 2, size=(7, 200), dtype=np.uint8)
        packed = pack_bits(bits)
        assert packed.shape == (7, words_for_dim(200))
        assert packed.dtype == np.uint64
        np.testing.assert_array_equal(unpack_bits(packed, 200), bits)

    def test_roundtrip_1d(self, rng):
        bits = rng.integers(0, 2, size=128, dtype=np.uint8)
        packed = pack_bits(bits)
        assert packed.shape == (2,)
        np.testing.assert_array_equal(unpack_bits(packed, 128), bits)

    def test_bit_position_layout(self):
        # Bit d lives in word d//64 at position d%64 (little-endian).
        bits = np.zeros(128, dtype=np.uint8)
        bits[65] = 1
        packed = pack_bits(bits)
        assert packed[0] == 0
        assert packed[1] == np.uint64(1) << np.uint64(1)

    def test_3d_rejected(self):
        with pytest.raises(EncodingError):
            pack_bits(np.zeros((2, 2, 2)))


class TestPopcount:
    def test_known_values(self):
        words = np.array(
            [0, 1, 0xFFFF_FFFF_FFFF_FFFF, 0x5555_5555_5555_5555],
            dtype=np.uint64,
        )
        np.testing.assert_array_equal(popcount(words), [0, 1, 64, 32])

    def test_matches_python_bitcount(self, rng):
        words = rng.integers(0, 2 ** 63, size=50, dtype=np.uint64)
        expected = [bin(int(w)).count("1") for w in words]
        np.testing.assert_array_equal(popcount(words), expected)

    def test_2d_shape_preserved(self, rng):
        words = rng.integers(0, 2 ** 63, size=(3, 4), dtype=np.uint64)
        assert popcount(words).shape == (3, 4)


class TestHamming:
    def test_self_distance_zero(self, rng):
        vectors = random_hypervectors(3, 256, rng)
        np.testing.assert_array_equal(
            hamming_distance(vectors, vectors), [0, 0, 0]
        )

    def test_single_bit_flip_distance_one(self, rng):
        vector = random_hypervectors(1, 256, rng)[0]
        flipped = flip_bits(vector, np.array([100]), 256)
        assert hamming_distance(vector, flipped) == 1

    def test_complement_distance_is_dim(self, rng):
        vector = random_hypervectors(1, 128, rng)[0]
        complement = ~vector
        assert hamming_distance(vector, complement) == 128

    def test_random_vectors_near_half_dim(self, rng):
        dim = 4096
        pairs = random_hypervectors(2, dim, rng)
        distance = hamming_distance(pairs[0], pairs[1])
        assert abs(distance - dim / 2) < dim * 0.1

    def test_width_mismatch_is_typed(self):
        with pytest.raises(EncodingError, match="word-count mismatch"):
            hamming_distance(np.zeros(2, np.uint64), np.zeros(3, np.uint64))


class TestFlipBits:
    def test_flip_is_involution(self, rng):
        vector = random_hypervectors(1, 256, rng)[0]
        positions = np.array([0, 17, 255])
        twice = flip_bits(flip_bits(vector, positions, 256), positions, 256)
        np.testing.assert_array_equal(twice, vector)

    def test_out_of_range_rejected(self, rng):
        vector = random_hypervectors(1, 256, rng)[0]
        with pytest.raises(EncodingError):
            flip_bits(vector, np.array([256]), 256)


class TestMajority:
    def test_strict_majority(self):
        accumulator = np.array([0, 1, 2, 3])
        # count=3: need > 1.5 ones.
        np.testing.assert_array_equal(
            majority_bundle(accumulator, 3), [0, 0, 1, 1]
        )

    def test_tie_breaks_to_zero(self):
        accumulator = np.array([2])
        assert majority_bundle(accumulator, 4)[0] == 0

    def test_zero_count_rejected(self):
        with pytest.raises(EncodingError):
            majority_bundle(np.array([1]), 0)
