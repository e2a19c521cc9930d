"""Tests for the incremental cluster store."""

import numpy as np
import pytest

from repro.cluster import quality_report
from repro.cluster.linkage import SUPPORTED_LINKAGES
from repro.datasets import SyntheticConfig, generate_dataset
from repro.errors import ConfigurationError
from repro.hdc import EncoderConfig
from repro.incremental import IncrementalClusterStore
from repro.pipeline import SpecHDConfig, SpecHDPipeline


@pytest.fixture(scope="module")
def population():
    return generate_dataset(
        SyntheticConfig(
            num_peptides=10,
            replicates_per_peptide=12,
            peptides_per_mass_group=1,
            seed=31,
        )
    )


def make_store(threshold=0.36):
    return IncrementalClusterStore(
        encoder_config=EncoderConfig(
            dim=1024, mz_bins=8_000, intensity_levels=32
        ),
        cluster_threshold=threshold,
    )


class TestConstruction:
    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            IncrementalClusterStore(cluster_threshold=2.0)

    def test_empty_store(self):
        store = make_store()
        assert len(store) == 0
        assert store.num_clusters == 0
        assert store.labels().size == 0


def same_partition(left: np.ndarray, right: np.ndarray) -> bool:
    """True when two labelings group the same rows (labels renamed)."""
    if left.shape != right.shape:
        return False
    pairs = np.unique(np.stack([left, right]), axis=1).shape[1]
    return pairs == np.unique(left).size == np.unique(right).size


@pytest.fixture(scope="module")
def bucketed_population():
    """Several peptides per precursor bucket, plus singletons."""
    return generate_dataset(
        SyntheticConfig(
            num_peptides=60,
            replicates_per_peptide=10,
            extra_singleton_peptides=80,
            seed=3,
        )
    )


class TestMatchesBatchPipeline:
    """One batch into an empty store clusters like ``SpecHDPipeline.run``.

    Multi-batch ingest absorbs into existing medoids first, so it is not
    the batch pipeline's clustering and is not pinned here.
    """

    @pytest.mark.parametrize("linkage", SUPPORTED_LINKAGES)
    def test_single_batch_partition(self, bucketed_population, linkage):
        encoder = EncoderConfig(dim=1024, mz_bins=8_000, intensity_levels=32)
        store = IncrementalClusterStore(
            encoder_config=encoder, cluster_threshold=0.36, linkage=linkage
        )
        store.add_batch(bucketed_population.spectra)
        result = SpecHDPipeline(
            SpecHDConfig(
                encoder=encoder, cluster_threshold=0.36, linkage=linkage
            )
        ).run(bucketed_population.spectra)
        assert len(store) == result.labels.size
        assert store.num_clusters == result.num_clusters
        assert same_partition(store.labels(), result.labels)


class TestSingleBatch:
    def test_matches_batch_clustering_quality(self, population):
        store = make_store()
        report = store.add_batch(population.spectra)
        assert report.num_added == len(store)
        assert report.num_absorbed == 0  # nothing to absorb into
        quality = quality_report(store.labels(), population.labels[: len(store)])
        assert quality.incorrect_clustering_ratio < 0.05
        assert quality.clustered_spectra_ratio > 0.5

    def test_labels_are_contiguous_non_negative(self, population):
        store = make_store()
        store.add_batch(population.spectra)
        labels = store.labels()
        assert labels.min() >= 0
        assert set(store.cluster_sizes()) == set(np.unique(labels))


class TestIncrementalUpdates:
    def test_second_run_absorbs(self, population):
        half = len(population) // 2
        store = make_store()
        store.add_batch(population.spectra[:half])
        clusters_before = store.num_clusters
        report = store.add_batch(population.spectra[half:])
        # Replicates of already-seen peptides join existing clusters.
        assert report.num_absorbed > report.num_added * 0.5
        assert store.num_clusters < clusters_before + report.num_added

    def test_absorbed_labels_consistent_with_truth(self, population):
        half = len(population) // 2
        store = make_store()
        store.add_batch(population.spectra[:half])
        store.add_batch(population.spectra[half:])
        quality = quality_report(
            store.labels(), population.labels[: len(store)]
        )
        assert quality.incorrect_clustering_ratio < 0.05

    def test_unrelated_batch_creates_new_clusters(self, population):
        other = generate_dataset(
            SyntheticConfig(
                num_peptides=5,
                replicates_per_peptide=4,
                peptides_per_mass_group=1,
                seed=999,
            )
        )
        store = make_store()
        store.add_batch(population.spectra)
        report = store.add_batch(other.spectra)
        # Different peptides (different masses): nothing should absorb.
        assert report.num_absorbed <= report.num_added * 0.2
        assert report.num_new_clusters >= 1

    def test_empty_batch(self, population):
        store = make_store()
        report = store.add_batch([])
        assert report.num_added == 0
        assert report.absorption_rate == 0.0

    def test_qc_failures_counted_as_dropped(self):
        from repro.spectrum import MassSpectrum

        bad = MassSpectrum(
            "bad", 500.0, 2, np.array([150.0]), np.array([1.0])
        )
        store = make_store()
        report = store.add_batch([bad])
        assert report.num_dropped == 1
        assert len(store) == 0


class TestMedoidMaintenance:
    def test_incremental_medoids_equal_exact_recompute(self, population):
        """The amortised distance sums must pin the exact medoid.

        After a mix of cluster creations and absorptions, every cluster's
        medoid must equal the argmin of a from-scratch pairwise mean, with
        the same first-minimum tie-breaking.
        """
        from repro.hdc import pairwise_hamming_blocked

        store = make_store()
        third = len(population) // 3
        store.add_batch(population.spectra[:third])
        store.add_batch(population.spectra[third : 2 * third])
        store.add_batch(population.spectra[2 * third :])

        checked = 0
        for label, cluster in store._clusters.items():
            rows = np.array(cluster.member_rows)
            if rows.size == 1:
                assert cluster.medoid_row == int(rows[0])
                continue
            pairwise = pairwise_hamming_blocked(store._vectors[rows])
            mean_distance = pairwise.sum(axis=1) / (rows.size - 1)
            expected = int(rows[int(np.argmin(mean_distance))])
            assert cluster.medoid_row == expected
            np.testing.assert_array_equal(
                np.array(cluster.dist_sums), pairwise.sum(axis=1)
            )
            checked += 1
        assert checked > 0  # the dataset must actually form multi-member clusters

    def test_absorption_updates_sums_incrementally(self, population):
        store = make_store()
        half = len(population) // 2
        store.add_batch(population.spectra[:half])
        report = store.add_batch(population.spectra[half:])
        assert report.num_absorbed > 0  # the update path was exercised


class TestSharedEncoder:
    def test_encoder_can_be_shared(self, population):
        from repro.errors import ConfigurationError
        from repro.hdc import EncoderConfig, IDLevelEncoder

        config = EncoderConfig(dim=1024, mz_bins=8_000, intensity_levels=32)
        shared = IDLevelEncoder(config)
        first = IncrementalClusterStore(
            encoder_config=config, cluster_threshold=0.36, encoder=shared
        )
        second = IncrementalClusterStore(
            encoder_config=config, cluster_threshold=0.36, encoder=shared
        )
        assert first.encoder is shared and second.encoder is shared
        with pytest.raises(ConfigurationError, match="shared encoder"):
            IncrementalClusterStore(
                encoder_config=EncoderConfig(dim=512), encoder=shared
            )


class TestEncodedBatches:
    def test_add_encoded_matches_add_batch(self, population):
        """Feeding pre-encoded vectors labels exactly like raw spectra."""
        from repro.spectrum import preprocess_spectrum

        reference = make_store()
        reference.add_batch(population.spectra)

        encoded = make_store()
        processed = [
            preprocess_spectrum(s, encoded.preprocessing)
            for s in population.spectra
        ]
        processed = [s for s in processed if s is not None]
        vectors = encoded.encoder.encode_batch(processed)
        report = encoded.add_encoded(
            vectors,
            [s.precursor_mz for s in processed],
            [s.precursor_charge for s in processed],
            [s.identifier for s in processed],
        )
        assert report.num_added == len(processed)
        np.testing.assert_array_equal(
            encoded.labels(), reference.labels()
        )

    def test_add_encoded_validates_shape(self):
        from repro.errors import ConfigurationError

        store = make_store()
        with pytest.raises(ConfigurationError, match="uint64"):
            store.add_encoded(
                np.zeros((2, 3), dtype=np.uint64), [500.0, 501.0], [2, 2],
                ["a", "b"],
            )
        with pytest.raises(ConfigurationError, match="unequal"):
            store.add_encoded(
                np.zeros((2, 1024 // 64), dtype=np.uint64), [500.0], [2, 2],
                ["a", "b"],
            )

    def test_add_encoded_refuses_unbucketable_row_unchanged(self, population):
        store = make_store()
        store.add_batch(population.spectra[:20])
        before = (len(store), store.labels(), store.medoid_rows())
        with pytest.raises(ConfigurationError, match="cannot be bucketed"):
            store.add_encoded(
                np.zeros((2, 1024 // 64), dtype=np.uint64),
                [500.0, 501.0],
                [2, 0],
                ["a", "b"],
            )
        assert len(store) == before[0]
        np.testing.assert_array_equal(store.labels(), before[1])
        assert store.medoid_rows() == before[2]


class TestStorage:
    def test_stored_bytes_grow_linearly(self, population):
        store = make_store()
        store.add_batch(population.spectra[:30])
        first = store.stored_bytes()
        store.add_batch(population.spectra[30:60])
        second = store.stored_bytes()
        assert second == pytest.approx(2 * first, rel=0.1)

    def test_footprint_is_dim_over_8_per_spectrum(self, population):
        store = make_store()
        store.add_batch(population.spectra[:20])
        assert store.stored_bytes() == len(store) * (1024 // 8)
