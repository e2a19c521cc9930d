"""Tests for the bit-slice medoid index and the batched top-k kernel."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hdc import hamming_cross, random_hypervectors
from repro.store import BitSliceMedoidIndex, batched_topk


@pytest.fixture()
def medoids(rng):
    vectors = random_hypervectors(64, 256, rng)
    vectors[7] = vectors[0]
    vectors[31] = vectors[0]
    return vectors


class TestBatchedTopk:
    def test_matches_stable_sort(self, rng):
        distances = rng.integers(0, 8, size=(10, 40)).astype(np.int64)
        indices, kept = batched_topk(distances, 5)
        for row in range(10):
            order = np.lexsort((np.arange(40), distances[row]))[:5]
            np.testing.assert_array_equal(indices[row], order)
            np.testing.assert_array_equal(kept[row], distances[row][order])

    def test_ties_break_to_lowest_ordinal(self):
        distances = np.zeros((3, 9), dtype=np.int64)  # all tied
        indices, kept = batched_topk(distances, 4)
        np.testing.assert_array_equal(
            indices, np.tile(np.arange(4), (3, 1))
        )
        assert (kept == 0).all()

    def test_k_larger_than_columns(self, rng):
        distances = rng.integers(0, 100, size=(4, 6)).astype(np.int64)
        indices, kept = batched_topk(distances, 50)
        assert indices.shape == (4, 6)
        assert (np.diff(kept, axis=1) >= 0).all()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            batched_topk(np.zeros(4, dtype=np.int64), 1)
        with pytest.raises(ConfigurationError):
            batched_topk(np.zeros((2, 2), dtype=np.int64), 0)


class TestIndexBuild:
    def test_plane_layout(self, medoids):
        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=32)
        assert index.probe_bits == 32
        assert index.count == 64
        assert index.planes.shape == (32, 1)  # 64 medoids -> 1 word/plane
        assert (np.diff(index.positions) > 0).all()  # sorted, unique

    def test_probe_bits_capped_at_dim(self, medoids):
        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=1000)
        assert index.probe_bits == 256

    def test_deterministic_layout(self, medoids):
        first = BitSliceMedoidIndex.build(medoids, 256, probe_bits=64)
        second = BitSliceMedoidIndex.build(medoids, 256, probe_bits=64)
        np.testing.assert_array_equal(first.positions, second.positions)
        np.testing.assert_array_equal(first.planes, second.planes)

    def test_rejects_bad_inputs(self, medoids):
        with pytest.raises(ConfigurationError):
            BitSliceMedoidIndex.build(medoids[:0], 256)
        with pytest.raises(ConfigurationError):
            BitSliceMedoidIndex.build(medoids, 256, probe_bits=0)
        with pytest.raises(ConfigurationError):
            BitSliceMedoidIndex.build(medoids, 10_000)


class TestIndexQueries:
    @pytest.mark.parametrize("probe_bits", [1, 16, 128, 256])
    @pytest.mark.parametrize("k", [1, 3, 64, 100])
    def test_topk_equals_dense_scan(self, medoids, rng, probe_bits, k):
        queries = random_hypervectors(11, 256, rng)
        queries[0] = medoids[0]  # exact, triple-tied hit
        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=probe_bits)
        brute = batched_topk(hamming_cross(queries, medoids.T), k)
        indexed = index.topk(medoids, queries, k)
        np.testing.assert_array_equal(indexed[0], brute[0])
        np.testing.assert_array_equal(indexed[1], brute[1])

    def test_lower_bounds_never_exceed_distances(self, medoids, rng):
        queries = random_hypervectors(5, 256, rng)
        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=64)
        bounds = index.lower_bounds(queries)
        distances = hamming_cross(queries, medoids.T)
        assert (bounds <= distances).all()
        full = BitSliceMedoidIndex.build(medoids, 256, probe_bits=256)
        np.testing.assert_array_equal(full.lower_bounds(queries), distances)

    def test_single_medoid(self, rng):
        vectors = random_hypervectors(1, 128, rng)
        index = BitSliceMedoidIndex.build(vectors, 128, probe_bits=8)
        indices, distances = index.topk(
            vectors, random_hypervectors(3, 128, rng), 5
        )
        assert indices.shape == (3, 1)
        assert (indices == 0).all()

    def test_empty_query_batch(self, medoids, rng):
        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=16)
        queries = random_hypervectors(2, 256, rng)[:0]
        indices, distances = index.topk(medoids, queries, 3)
        assert indices.shape == (0, 3)

    def test_count_mismatch_rejected(self, medoids, rng):
        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=16)
        with pytest.raises(ConfigurationError):
            index.topk(medoids[:10], random_hypervectors(2, 256, rng), 3)
