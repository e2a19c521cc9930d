"""Tests for the end-to-end SpecHD pipeline."""

import numpy as np
import pytest

from repro import SpecHDConfig, SpecHDPipeline
from repro.errors import ConfigurationError
from repro.hdc import EncoderConfig
from repro.spectrum import MassSpectrum
from repro.testing import oracles


@pytest.fixture(scope="module")
def pipeline():
    return SpecHDPipeline(
        SpecHDConfig(
            encoder=EncoderConfig(dim=1024, mz_bins=8_000, intensity_levels=32),
            cluster_threshold=0.35,
        )
    )


@pytest.fixture(scope="module")
def result(pipeline, labelled_dataset):
    return pipeline.run(labelled_dataset.spectra)


class TestConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ConfigurationError):
            SpecHDConfig(cluster_threshold=1.5)

    def test_kernel_count_bounds(self):
        with pytest.raises(ConfigurationError):
            SpecHDConfig(num_cluster_kernels=0)

    def test_encode_batch_size_bounds(self):
        with pytest.raises(ConfigurationError):
            SpecHDConfig(encode_batch_size=0)


class TestRun:
    def test_labels_cover_kept_spectra(self, result):
        assert result.labels.shape == (len(result.spectra),)
        assert result.labels.min() >= 0

    def test_kept_indices_map_back(self, result, labelled_dataset):
        full = result.labels_for_input(len(labelled_dataset.spectra))
        assert full.shape == (len(labelled_dataset.spectra),)
        kept_mask = full >= 0
        assert kept_mask.sum() == len(result.spectra)

    def test_quality_recovers_structure(self, result, labelled_dataset):
        report = result.quality(labelled_dataset.labels)
        assert report.clustered_spectra_ratio > 0.3
        assert report.incorrect_clustering_ratio < 0.05
        assert report.completeness > 0.5

    def test_hypervectors_shape(self, result):
        assert result.hypervectors.shape == (
            len(result.spectra),
            1024 // 64,
        )

    def test_clusters_respect_buckets(self, result):
        """No cluster may span two precursor buckets."""
        cluster_to_bucket = {}
        for key, members in result.bucket_keys.items():
            for member in members:
                label = int(result.labels[member])
                if label in cluster_to_bucket:
                    assert cluster_to_bucket[label] == key
                else:
                    cluster_to_bucket[label] = key

    def test_medoids_belong_to_their_cluster(self, result):
        for label, medoid in result.medoids.items():
            assert result.labels[medoid] == label

    def test_hardware_report_populated(self, result):
        assert result.hardware.encoder_cycles > 0
        assert result.hardware.cluster_cycles > 0
        assert result.hardware.encode_seconds > 0
        assert result.hardware.cluster_seconds > 0

    def test_representatives_cover_all_clusters(self, result):
        reps = result.representatives()
        rep_labels = {int(result.labels[r]) for r in reps}
        all_labels = set(int(l) for l in result.labels)
        assert rep_labels == all_labels

    def test_representatives_match_oracle(self, result):
        sizes = np.bincount(result.labels)
        assert len(result.bucket_keys) > 1
        assert result.medoids and (sizes == 1).any()
        assert result.representatives() == oracles.representatives(result)

    def test_bucket_distances_are_uint16(self, result):
        assert result.distances_by_bucket
        for matrix in result.distances_by_bucket.values():
            assert matrix.dtype == np.uint16

    def test_empty_input(self, pipeline):
        empty = pipeline.run([])
        assert empty.labels.size == 0
        assert empty.num_clusters == 0

    def test_single_spectrum_bucket(self, pipeline, simple_spectrum):
        single = pipeline.run([simple_spectrum])
        assert single.labels.tolist() == [0]
        assert single.num_clusters == 1
        assert single.distances_by_bucket == {}

    def test_two_singleton_buckets(self, pipeline):
        spectra = [
            MassSpectrum(
                identifier=f"s{index}",
                precursor_mz=400.0 + 50.0 * index,
                precursor_charge=2,
                mz=np.linspace(150.0, 900.0, 12),
                intensity=np.linspace(0.1, 1.0, 12),
            )
            for index in range(2)
        ]
        assert sorted(pipeline.run(spectra).labels.tolist()) == [0, 1]

    def test_deterministic(self, pipeline, labelled_dataset):
        again = pipeline.run(labelled_dataset.spectra)
        np.testing.assert_array_equal(
            again.labels, pipeline.run(labelled_dataset.spectra).labels
        )


class TestThresholdBehaviour:
    def test_zero_threshold_mostly_singletons(self, labelled_dataset):
        pipeline = SpecHDPipeline(
            SpecHDConfig(
                encoder=EncoderConfig(
                    dim=1024, mz_bins=8_000, intensity_levels=32
                ),
                cluster_threshold=0.0,
            )
        )
        result = pipeline.run(labelled_dataset.spectra)
        report = result.quality(labelled_dataset.labels)
        assert report.incorrect_clustering_ratio == 0.0

    def test_higher_threshold_more_clustering(self, labelled_dataset):
        encoder = EncoderConfig(dim=1024, mz_bins=8_000, intensity_levels=32)
        low = SpecHDPipeline(
            SpecHDConfig(encoder=encoder, cluster_threshold=0.1)
        ).run(labelled_dataset.spectra)
        high = SpecHDPipeline(
            SpecHDConfig(encoder=encoder, cluster_threshold=0.45)
        ).run(labelled_dataset.spectra)
        low_report = low.quality(labelled_dataset.labels)
        high_report = high.quality(labelled_dataset.labels)
        assert (
            high_report.clustered_spectra_ratio
            >= low_report.clustered_spectra_ratio
        )


class TestLinkages:
    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_all_supported_linkages_run(self, labelled_dataset, linkage):
        pipeline = SpecHDPipeline(
            SpecHDConfig(
                encoder=EncoderConfig(
                    dim=512, mz_bins=4_000, intensity_levels=16
                ),
                linkage=linkage,
                cluster_threshold=0.3,
            )
        )
        result = pipeline.run(labelled_dataset.spectra[:100])
        assert result.labels.size > 0
