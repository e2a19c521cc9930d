"""Tests for cluster membership and consensus spectra.

The medoid rule is tested with the bucket step that owns it
(``tests/test_pipeline.py::TestBucketStep``).
"""

import numpy as np
import pytest

from repro.cluster import cluster_members, consensus_spectrum
from repro.errors import ClusteringError
from repro.spectrum import MassSpectrum


class TestClusterMembers:
    def test_noise_excluded(self):
        labels = np.array([0, 0, -1, 1, 1])
        members = cluster_members(labels)
        assert -1 not in members
        assert sorted(members) == [0, 1]


class TestConsensusSpectrum:
    def make_members(self):
        return [
            MassSpectrum(
                "a", 500.0, 2,
                np.array([150.00, 300.00, 450.00]),
                np.array([1.0, 2.0, 3.0]),
            ),
            MassSpectrum(
                "b", 500.1, 2,
                np.array([150.01, 300.01]),
                np.array([1.2, 2.2]),
            ),
            MassSpectrum(
                "c", 499.9, 2,
                np.array([150.02, 300.02, 800.0]),
                np.array([0.8, 1.8, 0.5]),
            ),
        ]

    def test_majority_peaks_survive(self):
        consensus = consensus_spectrum(
            self.make_members(), [0, 1, 2], min_occurrence_fraction=0.5
        )
        # 150.x and 300.x in all three; 450 in 1/3; 800 in 1/3.
        assert consensus.peak_count == 2
        assert consensus.mz[0] == pytest.approx(150.01, abs=0.02)

    def test_all_peaks_with_low_occurrence(self):
        consensus = consensus_spectrum(
            self.make_members(), [0, 1, 2], min_occurrence_fraction=0.01
        )
        # Every occupied bin survives; jittered peaks may straddle bins, so
        # the count sits between "4 distinct ions" and "one bin per peak".
        assert 4 <= consensus.peak_count <= 8

    def test_precursor_is_mean(self):
        consensus = consensus_spectrum(self.make_members(), [0, 1, 2])
        assert consensus.precursor_mz == pytest.approx(500.0, abs=0.1)

    def test_metadata_records_size(self):
        consensus = consensus_spectrum(self.make_members(), [0, 1])
        assert consensus.metadata["cluster_size"] == "2"

    def test_empty_members_rejected(self):
        with pytest.raises(ClusteringError):
            consensus_spectrum(self.make_members(), [])

    def test_invalid_bin_width(self):
        with pytest.raises(ClusteringError):
            consensus_spectrum(self.make_members(), [0], bin_width=0.0)
