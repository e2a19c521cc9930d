"""Statistical fidelity of the HDC encoding against ground-truth similarity.

The whole SpecHD premise is that Hamming distance between ID-Level
hypervectors tracks true spectral similarity well enough to cluster on.
These tests quantify that: rank correlation between normalised Hamming
distance and peak-level cosine distance across a labelled dataset, and
separation statistics between within-peptide and between-peptide pairs.
"""

import numpy as np
import pytest
from scipy import stats

from repro.datasets import generate_dataset, get_workload
from repro.hdc import (
    EncoderConfig,
    IDLevelEncoder,
    normalized_hamming,
    pairwise_hamming_blocked,
)
from repro.spectrum import (
    cosine_distance_matrix,
    preprocess_batch,
)


@pytest.fixture(scope="module")
def fidelity_data():
    data = generate_dataset(get_workload("easy"))
    spectra = preprocess_batch(data.spectra)
    encoder = IDLevelEncoder(
        EncoderConfig(dim=2048, mz_bins=16_000, intensity_levels=64)
    )
    vectors = encoder.encode_batch(spectra)
    hamming = normalized_hamming(pairwise_hamming_blocked(vectors), 2048)
    cosine = cosine_distance_matrix(spectra)
    peptides = [s.metadata["peptide"] for s in spectra]
    return hamming, cosine, peptides


def upper_triangle(matrix):
    n = matrix.shape[0]
    return matrix[np.triu_indices(n, k=1)]


class TestRankCorrelation:
    def test_hamming_tracks_cosine(self, fidelity_data):
        """HD distance saturates near 0.5 for unrelated pairs (that is the
        point of a distributed code), so global rank correlation is modest
        but must be clearly positive and overwhelmingly significant."""
        hamming, cosine, _ = fidelity_data
        rho, p_value = stats.spearmanr(
            upper_triangle(hamming), upper_triangle(cosine)
        )
        assert rho > 0.25, f"rank correlation too weak: {rho:.3f}"
        assert p_value < 1e-10

    def test_binned_means_monotone(self, fidelity_data):
        """Mean HD distance must rise monotonically across cosine-distance
        bins — the calibration property clustering relies on."""
        hamming, cosine, _ = fidelity_data
        h = upper_triangle(hamming)
        c = upper_triangle(cosine)
        edges = [0.0, 0.3, 0.6, 0.9, 1.01]
        means = []
        for low, high in zip(edges, edges[1:]):
            mask = (c >= low) & (c < high)
            if mask.sum() >= 5:
                means.append(h[mask].mean())
        assert len(means) >= 3
        assert all(a < b for a, b in zip(means, means[1:]))


class TestClassSeparation:
    def test_within_vs_between_peptide_margins(self, fidelity_data):
        hamming, _, peptides = fidelity_data
        n = len(peptides)
        within = []
        between = []
        for i in range(n):
            for j in range(i + 1, n):
                if peptides[i] == peptides[j]:
                    within.append(hamming[i, j])
                else:
                    between.append(hamming[i, j])
        within = np.array(within)
        between = np.array(between)
        # Replicate pairs sit well below the orthogonality distance ...
        assert within.mean() < 0.35
        # ... unrelated pairs near it ...
        assert between.mean() > 0.42
        # ... with a usable margin between the distributions.
        assert np.percentile(between, 5) > np.percentile(within, 95)

    def test_separation_supports_threshold_band(self, fidelity_data):
        """There exists a threshold band that admits nearly all replicate
        pairs while rejecting nearly all unrelated pairs — the band the
        pipeline's default 0.3-0.36 thresholds live in."""
        hamming, _, peptides = fidelity_data
        n = len(peptides)
        within = []
        between = []
        for i in range(n):
            for j in range(i + 1, n):
                (within if peptides[i] == peptides[j] else between).append(
                    hamming[i, j]
                )
        threshold = 0.36
        within = np.array(within)
        between = np.array(between)
        true_accept = float((within <= threshold).mean())
        false_accept = float((between <= threshold).mean())
        assert true_accept > 0.8
        assert false_accept < 0.05
