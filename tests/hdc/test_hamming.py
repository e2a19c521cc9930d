"""Tests for Hamming-distance kernels and the condensed matrix layout."""

import numpy as np
import pytest

from repro.errors import EncodingError
from repro.hdc import (
    condensed_index,
    condensed_pairwise_hamming,
    hamming_cross,
    hamming_distance,
    hamming_to_query,
    normalized_hamming,
    pairwise_hamming_blocked,
    random_hypervectors,
    squareform,
)
from repro.testing import oracles


@pytest.fixture()
def vectors(rng):
    return random_hypervectors(12, 256, rng)


class TestPairwise:
    def test_symmetric_zero_diagonal(self, vectors):
        matrix = pairwise_hamming_blocked(vectors)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)

    def test_matches_bitwise_reference(self, vectors):
        np.testing.assert_array_equal(
            pairwise_hamming_blocked(vectors),
            oracles.pairwise_hamming(vectors),
        )

    def test_1d_input_rejected(self, vectors):
        with pytest.raises(EncodingError):
            pairwise_hamming_blocked(vectors[0])


class TestQueryDistance:
    def test_matches_pairwise_row(self, vectors):
        matrix = pairwise_hamming_blocked(vectors)
        row = hamming_to_query(vectors, vectors[3])
        np.testing.assert_array_equal(row, matrix[3])

    def test_shape_mismatch_rejected(self, vectors):
        with pytest.raises(EncodingError):
            hamming_to_query(vectors, vectors[0][:2])


class TestCrossDistance:
    def test_matches_stacked_query_rows(self, rng):
        queries = random_hypervectors(9, 256, rng)
        refs = random_hypervectors(23, 256, rng)
        expected = np.stack(
            [hamming_to_query(refs, query) for query in queries]
        )
        np.testing.assert_array_equal(hamming_cross(queries, refs.T), expected)

    def test_block_size_is_invisible(self, rng):
        queries = random_hypervectors(17, 192, rng)
        refs = random_hypervectors(31, 192, rng)
        reference = hamming_cross(queries, refs.T)
        for block_rows in (1, 2, 5, 17, 100):
            np.testing.assert_array_equal(
                hamming_cross(queries, refs.T, block_rows=block_rows),
                reference,
            )

    @pytest.mark.parametrize("words_per_pass", [1, 2, 5, 17])
    def test_word_grouping_is_invisible(self, rng, monkeypatch,
                                        words_per_pass):
        # 17 words: one per pass, ragged pairs, ragged fives, all at once.
        import repro.hdc.hamming as hamming_module

        queries = random_hypervectors(6, 17 * 64, rng)
        refs = random_hypervectors(9, 17 * 64, rng)
        queries[:, 0] |= np.uint64(1 << 63)
        monkeypatch.setattr(
            hamming_module, "_CROSS_BLOCK_BYTES", words_per_pass * 6 * 9 * 8
        )
        np.testing.assert_array_equal(
            hamming_cross(queries, refs.T),
            oracles.cross_hamming(queries, refs),
        )
        np.testing.assert_array_equal(
            hamming_cross(queries, refs.T, block_rows=4),
            oracles.cross_hamming(queries, refs),
        )

    def test_empty_sides(self, rng):
        queries = random_hypervectors(4, 128, rng)
        refs = random_hypervectors(6, 128, rng)
        assert hamming_cross(queries[:0], refs.T).shape == (0, 6)
        assert hamming_cross(queries, refs[:0].T).shape == (4, 0)
        assert hamming_cross(queries[:0], refs[:0].T).shape == (0, 0)

    def test_single_row_each_side(self, rng):
        queries = random_hypervectors(1, 128, rng)
        refs = random_hypervectors(1, 128, rng)
        cross = hamming_cross(queries, refs.T)
        assert cross.shape == (1, 1)
        assert cross[0, 0] == hamming_to_query(refs, queries[0])[0]

    def test_identical_rows_give_zero(self, rng):
        vectors = random_hypervectors(5, 256, rng)
        cross = hamming_cross(vectors, vectors.T)
        np.testing.assert_array_equal(np.diag(cross), np.zeros(5, np.int64))

    def test_shape_errors(self, rng):
        vectors = random_hypervectors(4, 128, rng)
        with pytest.raises(EncodingError):
            hamming_cross(vectors[0], vectors.T)
        with pytest.raises(EncodingError):
            hamming_cross(vectors, vectors[:, :1].T)
        with pytest.raises(EncodingError):
            hamming_cross(vectors, vectors.T, block_rows=0)


class TestCondensedLayout:
    def test_index_formula(self):
        # n=4: (1,0)->0 (2,0)->1 (2,1)->2 (3,0)->3 (3,1)->4 (3,2)->5
        expected = {(1, 0): 0, (2, 0): 1, (2, 1): 2, (3, 0): 3, (3, 1): 4, (3, 2): 5}
        for (i, j), position in expected.items():
            assert condensed_index(i, j, 4) == position
            assert condensed_index(j, i, 4) == position  # symmetric

    def test_diagonal_rejected(self):
        with pytest.raises(EncodingError):
            condensed_index(2, 2, 4)

    def test_condensed_matches_dense(self, vectors):
        dense = pairwise_hamming_blocked(vectors)
        condensed = condensed_pairwise_hamming(vectors)
        n = vectors.shape[0]
        assert condensed.shape == (n * (n - 1) // 2,)
        assert condensed.dtype == np.uint16
        for i in range(n):
            for j in range(i):
                assert condensed[condensed_index(i, j, n)] == dense[i, j]

    def test_squareform_roundtrip(self, vectors):
        dense = pairwise_hamming_blocked(vectors).astype(np.float64)
        condensed = condensed_pairwise_hamming(vectors)
        recovered = squareform(condensed, vectors.shape[0])
        np.testing.assert_array_equal(recovered, dense)

    def test_squareform_wrong_length(self):
        with pytest.raises(EncodingError):
            squareform(np.zeros(5), 4)


class TestNormalization:
    def test_normalized_range(self, vectors):
        matrix = pairwise_hamming_blocked(vectors)
        normalised = normalized_hamming(matrix, 256)
        assert normalised.max() <= 1.0
        assert normalised.min() >= 0.0

    def test_invalid_dim(self):
        with pytest.raises(EncodingError):
            normalized_hamming(np.zeros(3), 0)


class TestDistanceDtypeOverflowGuard:
    """Regression: dim > 65535 would silently wrap the uint16 distances."""

    def test_condensed_rejects_oversized_dim(self):
        from repro.hdc import MAX_CONDENSED_DIM

        # 1024 words = 65536 bits: one past the uint16-losslessness limit.
        vectors = np.zeros((2, 1024), dtype=np.uint64)
        with pytest.raises(EncodingError):
            condensed_pairwise_hamming(vectors)
        assert MAX_CONDENSED_DIM == 65535

    def test_condensed_accepts_boundary_dim(self):
        # 1023 words = 65472 bits <= 65535: still lossless in uint16.
        vectors = np.zeros((2, 1023), dtype=np.uint64)
        vectors[0, :] = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
        condensed = condensed_pairwise_hamming(vectors)
        assert condensed.tolist() == [1023 * 64]

    def test_cross_rejects_oversized_dim(self):
        # The cross scan accumulates in uint16 too: dim >= 65536 refused,
        # even when one side is empty.
        vectors = np.zeros((2, 1024), dtype=np.uint64)
        for queries, refs in ((vectors, vectors), (vectors[:0], vectors)):
            with pytest.raises(EncodingError, match="65535"):
                hamming_cross(queries, refs.T)

    def test_cross_accepts_boundary_dim(self):
        vectors = np.zeros((2, 1023), dtype=np.uint64)
        vectors[0, :] = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
        assert hamming_cross(vectors[:1], vectors.T).tolist() == [
            [0, 1023 * 64]
        ]


class TestWidthMismatch:
    """Packed operands of different word counts are an EncodingError."""

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda a, b: hamming_distance(a[:, None, :], b[None, :, :]),
            lambda a, b: hamming_to_query(a, b[0]),
            lambda a, b: hamming_cross(a, b.T),
        ],
        ids=["hamming_distance", "hamming_to_query", "hamming_cross"],
    )
    def test_raises_encoding_error(self, kernel, vectors):
        with pytest.raises(EncodingError, match="word-count mismatch"):
            kernel(vectors, vectors[:, :3])


class TestResultDtypes:
    def test_distances_are_int64_condensed_and_cross_are_uint16(
        self, vectors
    ):
        # uint64 distances would promote to float64 against int64 ones.
        assert hamming_distance(vectors, vectors[:1]).dtype == np.int64
        assert hamming_distance(vectors[0], vectors[1]).dtype == np.int64
        assert hamming_to_query(vectors, vectors[0]).dtype == np.int64
        assert hamming_cross(vectors, vectors.T).dtype == np.uint16
        assert pairwise_hamming_blocked(vectors).dtype == np.int64
        assert condensed_pairwise_hamming(vectors).dtype == np.uint16
