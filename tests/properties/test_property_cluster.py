"""Property-based tests for clustering invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    clustered_spectra_ratio,
    completeness,
    cut_at_height,
    incorrect_clustering_ratio,
    naive_linkage,
    nn_chain_linkage,
)
from repro.testing import oracles


@st.composite
def distance_matrices(draw, max_n=12):
    """Random symmetric non-negative matrices from random points."""
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    deltas = points[:, None, :] - points[None, :, :]
    return np.sqrt((deltas ** 2).sum(axis=-1))


LINKAGES = st.sampled_from(["single", "complete", "average", "ward"])


@st.composite
def tie_heavy_matrices(draw, max_n=14):
    """Symmetric zero-diagonal matrices of small integers (0-4): many ties."""
    n = draw(st.integers(1, max_n))
    upper = draw(
        st.lists(
            st.integers(0, 4),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    matrix = np.zeros((n, n), dtype=np.int64)
    matrix[np.triu_indices(n, 1)] = upper
    return matrix + matrix.T


class TestHACInvariants:
    @given(matrix=distance_matrices(), linkage=LINKAGES)
    @settings(max_examples=40, deadline=None)
    def test_nnchain_equals_naive(self, matrix, linkage):
        """For every reducible linkage, both algorithms agree on heights."""
        chain = nn_chain_linkage(matrix, linkage)
        naive = naive_linkage(matrix, linkage)
        np.testing.assert_allclose(
            np.sort(chain.heights()), np.sort(naive.heights()), rtol=1e-9
        )

    @given(
        matrix=tie_heavy_matrices(),
        linkage=LINKAGES,
        dtype=st.sampled_from([np.float64, np.uint16]),
    )
    @settings(max_examples=200, deadline=None)
    def test_nnchain_matches_masking_oracle(self, matrix, linkage, dtype):
        """Scanning rows in place gives the masking loop's exact output."""
        mine = nn_chain_linkage(matrix.astype(dtype), linkage)
        reference = oracles.nn_chain_linkage(
            matrix.astype(np.float64), linkage
        )
        assert np.array_equal(mine.merges, reference.merges)
        assert mine.stats == reference.stats

    @given(matrix=distance_matrices(), linkage=LINKAGES)
    @settings(max_examples=30, deadline=None)
    def test_merge_count(self, matrix, linkage):
        result = nn_chain_linkage(matrix, linkage)
        assert result.merges.shape[0] == matrix.shape[0] - 1

    @given(matrix=distance_matrices(), linkage=LINKAGES)
    @settings(max_examples=30, deadline=None)
    def test_merge_sizes_telescoping(self, matrix, linkage):
        """The final merge's size equals n; sizes are always >= 2."""
        result = nn_chain_linkage(matrix, linkage)
        sizes = result.merges[:, 3]
        assert sizes.min() >= 2
        assert sizes.max() == matrix.shape[0]

    @given(matrix=distance_matrices())
    @settings(max_examples=30, deadline=None)
    def test_cut_produces_partition(self, matrix):
        result = nn_chain_linkage(matrix, "complete")
        threshold = float(np.median(result.heights()))
        labels = cut_at_height(result, threshold)
        assert labels.shape == (matrix.shape[0],)
        # Labels are 0..k-1 with no gaps.
        unique = np.unique(labels)
        np.testing.assert_array_equal(unique, np.arange(unique.size))

    @given(matrix=distance_matrices())
    @settings(max_examples=20, deadline=None)
    def test_cluster_count_monotone(self, matrix):
        result = nn_chain_linkage(matrix, "average")
        thresholds = np.linspace(0, result.heights().max() + 1, 6)
        counts = [len(set(cut_at_height(result, t))) for t in thresholds]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestMetricInvariants:
    labels_and_truth = st.integers(2, 30).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-1, 5), min_size=n, max_size=n),
            st.lists(
                st.sampled_from(["A", "B", "C", None]),
                min_size=n,
                max_size=n,
            ),
        )
    )

    @given(data=labels_and_truth)
    @settings(max_examples=60, deadline=None)
    def test_metrics_in_unit_range(self, data):
        labels, truth = data
        labels = np.array(labels)
        assert 0.0 <= clustered_spectra_ratio(labels) <= 1.0
        assert 0.0 <= incorrect_clustering_ratio(labels, truth) <= 1.0
        # Completeness can be marginally negative only by float error.
        assert completeness(labels, truth) >= -1e-9
        assert completeness(labels, truth) <= 1.0 + 1e-9

    @given(data=labels_and_truth)
    @settings(max_examples=30, deadline=None)
    def test_icr_zero_when_all_singletons(self, data):
        _, truth = data
        labels = np.arange(len(truth))
        assert incorrect_clustering_ratio(labels, truth) == 0.0
