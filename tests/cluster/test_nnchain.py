"""Tests for NN-chain HAC, including SciPy cross-validation."""

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import squareform as scipy_squareform

from repro.cluster import (
    SUPPORTED_LINKAGES,
    cut_at_height,
    naive_linkage,
    nn_chain_linkage,
)
from repro.errors import ClusteringError


def canonical(labels):
    mapping = {}
    out = []
    for label in labels:
        if label not in mapping:
            mapping[label] = len(mapping)
        out.append(mapping[label])
    return out


def euclidean_matrix(rng, n=35, d=4):
    points = rng.normal(size=(n, d))
    deltas = points[:, None, :] - points[None, :, :]
    return np.sqrt((deltas ** 2).sum(axis=-1))


class TestInputValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ClusteringError, match="square"):
            nn_chain_linkage(np.zeros((3, 4)))

    def test_asymmetric_rejected(self):
        matrix = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ClusteringError, match="symmetric"):
            nn_chain_linkage(matrix)

    def test_near_symmetric_accepted(self):
        # Round-off asymmetry passes the tolerant allclose fallback.
        matrix = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        assert nn_chain_linkage(matrix).merges[0, 3] == 2

    def test_uint16_input_is_left_unchanged(self):
        matrix = np.array([[0, 3], [3, 0]], dtype=np.uint16)
        result = nn_chain_linkage(matrix, "ward")
        assert result.merges[0, 2] == pytest.approx(3.0)
        assert matrix.tolist() == [[0, 3], [3, 0]]

    def test_negative_rejected(self):
        matrix = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ClusteringError, match="non-negative"):
            nn_chain_linkage(matrix)

    def test_nan_rejected(self):
        # argmin would pick the NaN: (0, 2) merged at NaN ahead of (0, 1).
        matrix = np.array(
            [[0.0, 1.0, np.nan], [1.0, 0.0, 5.0], [np.nan, 5.0, 0.0]]
        )
        for run in (nn_chain_linkage, naive_linkage):
            with pytest.raises(ClusteringError, match="NaN"):
                run(matrix)

    def test_unknown_linkage_rejected(self, random_distance_matrix):
        with pytest.raises(ClusteringError, match="unknown linkage"):
            nn_chain_linkage(random_distance_matrix, "median")


class TestSmallCases:
    def test_single_observation(self):
        result = nn_chain_linkage(np.zeros((1, 1)))
        assert result.merges.shape == (0, 4)

    def test_two_observations(self):
        matrix = np.array([[0.0, 3.0], [3.0, 0.0]])
        result = nn_chain_linkage(matrix, "complete")
        assert result.merges.shape == (1, 4)
        assert result.merges[0, 2] == pytest.approx(3.0)
        assert result.merges[0, 3] == 2

    def test_three_observations_chain(self):
        matrix = np.array(
            [[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]]
        )
        result = nn_chain_linkage(matrix, "single")
        heights = sorted(result.heights())
        assert heights == pytest.approx([1.0, 4.0])


class TestScipyEquivalence:
    """NN-chain must reproduce SciPy's exact dendrogram for every linkage."""

    @pytest.mark.parametrize("linkage", SUPPORTED_LINKAGES)
    def test_merge_heights_match(self, linkage, rng):
        matrix = euclidean_matrix(rng)
        condensed = scipy_squareform(matrix, checks=False)
        mine = nn_chain_linkage(matrix, linkage)
        theirs = scipy_linkage(condensed, method=linkage)
        np.testing.assert_allclose(
            np.sort(mine.heights()), np.sort(theirs[:, 2]), rtol=1e-10
        )

    @pytest.mark.parametrize("linkage", SUPPORTED_LINKAGES)
    def test_flat_cuts_match(self, linkage, rng):
        matrix = euclidean_matrix(rng)
        condensed = scipy_squareform(matrix, checks=False)
        mine = nn_chain_linkage(matrix, linkage)
        theirs = scipy_linkage(condensed, method=linkage)
        for quantile in (0.25, 0.5, 0.75):
            threshold = float(np.quantile(theirs[:, 2], quantile))
            my_labels = canonical(cut_at_height(mine, threshold))
            scipy_labels = canonical(
                fcluster(theirs, threshold, criterion="distance")
            )
            assert my_labels == scipy_labels

    @pytest.mark.parametrize("linkage", SUPPORTED_LINKAGES)
    def test_matches_naive(self, linkage, rng):
        matrix = euclidean_matrix(rng, n=25)
        chain = nn_chain_linkage(matrix, linkage)
        naive = naive_linkage(matrix, linkage)
        np.testing.assert_allclose(
            np.sort(chain.heights()), np.sort(naive.heights()), rtol=1e-10
        )

    def test_scipy_linkage_matrix_format(self, rng):
        matrix = euclidean_matrix(rng, n=20)
        mine = nn_chain_linkage(matrix, "average").to_scipy_linkage()
        theirs = scipy_linkage(
            scipy_squareform(matrix, checks=False), method="average"
        )
        np.testing.assert_allclose(mine[:, 2], theirs[:, 2], rtol=1e-10)
        np.testing.assert_allclose(mine[:, 3], theirs[:, 3])


class TestOperationCounts:
    def test_nnchain_quadratic_naive_cubic(self, rng):
        """The Fig. 2 claim: NN-chain does O(n^2) work, naive O(n^3)."""
        small_n, large_n = 30, 90
        small = euclidean_matrix(rng, n=small_n)
        large = euclidean_matrix(rng, n=large_n)
        ratio = large_n / small_n  # 3x

        chain_small = nn_chain_linkage(small).stats.distance_scans
        chain_large = nn_chain_linkage(large).stats.distance_scans
        naive_small = naive_linkage(small).stats.distance_scans
        naive_large = naive_linkage(large).stats.distance_scans

        chain_growth = chain_large / chain_small
        naive_growth = naive_large / naive_small
        # Quadratic growth ~ ratio^2 = 9; cubic ~ ratio^3 = 27.
        assert chain_growth < ratio ** 2 * 2.0
        assert naive_growth > ratio ** 2 * 2.0

    def test_merge_count_is_n_minus_one(self, random_distance_matrix):
        result = nn_chain_linkage(random_distance_matrix)
        assert result.stats.merges == random_distance_matrix.shape[0] - 1

    def test_update_counts_equal_between_algorithms(self, rng):
        matrix = euclidean_matrix(rng, n=20)
        chain = nn_chain_linkage(matrix, "complete")
        naive = naive_linkage(matrix, "complete")
        # Both apply the same Lance-Williams updates per merge.
        assert chain.stats.distance_updates == naive.stats.distance_updates


class TestTies:
    def test_equidistant_points_terminate(self):
        """All-equal distances are the worst tie case; must not loop."""
        n = 10
        matrix = np.ones((n, n)) - np.eye(n)
        result = nn_chain_linkage(matrix, "complete")
        assert result.merges.shape == (n - 1, 4)
        assert np.allclose(result.heights(), 1.0)

    def test_duplicate_points(self):
        matrix = np.zeros((4, 4))
        result = nn_chain_linkage(matrix, "average")
        assert np.allclose(result.heights(), 0.0)
        labels = cut_at_height(result, 0.0)
        assert len(set(labels)) == 1
