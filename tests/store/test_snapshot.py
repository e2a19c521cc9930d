"""Snapshot/restore of the incremental cluster store.

The load-bearing guarantee: ``save → load → add_batch`` labels future
batches *identically* to a store that was never persisted.
"""

import json

import numpy as np
import pytest

from repro.errors import ParseError
from repro.hdc import EncoderConfig, IDLevelEncoder
from repro.incremental import IncrementalClusterStore


def make_store(repo_encoder, encoder=None):
    return IncrementalClusterStore(
        encoder_config=repo_encoder,
        cluster_threshold=0.36,
        encoder=encoder,
    )


class TestRoundTripEquivalence:
    @pytest.mark.parametrize("persisted_batches", [1, 2])
    def test_labels_identical_after_persistence(
        self, tmp_path, repo_dataset, repo_encoder, persisted_batches
    ):
        third = len(repo_dataset) // 3
        batches = [
            repo_dataset.spectra[:third],
            repo_dataset.spectra[third : 2 * third],
            repo_dataset.spectra[2 * third :],
        ]

        never_persisted = make_store(repo_encoder)
        for batch in batches:
            never_persisted.add_batch(batch)

        persisted = make_store(repo_encoder)
        for batch in batches[:persisted_batches]:
            persisted.add_batch(batch)
        persisted.save(tmp_path, stem="checkpoint")
        restored = IncrementalClusterStore.load(tmp_path, stem="checkpoint")
        for batch in batches[persisted_batches:]:
            restored.add_batch(batch)

        np.testing.assert_array_equal(
            restored.labels(), never_persisted.labels()
        )
        assert restored.num_clusters == never_persisted.num_clusters
        assert restored.medoid_rows() == never_persisted.medoid_rows()


class TestSnapshotContents:
    def test_restored_metadata_survives(self, tmp_path, repo_dataset, repo_encoder):
        store = make_store(repo_encoder)
        store.add_batch(repo_dataset.spectra[:20])
        store.save(tmp_path)
        restored = IncrementalClusterStore.load(tmp_path)
        assert len(restored) == len(store)
        assert restored.cluster_sizes() == store.cluster_sizes()
        rows = range(len(store))
        identifiers, mz, charge = store.metadata_at(rows)
        copy_identifiers, copy_mz, copy_charge = restored.metadata_at(rows)
        # A row is its vector plus these three columns, exactly; no peaks
        # are kept, before or after the round trip.
        assert copy_identifiers == identifiers
        assert copy_mz.dtype == np.float64 and copy_charge.dtype == np.int16
        np.testing.assert_array_equal(copy_mz, mz)
        np.testing.assert_array_equal(copy_charge, charge)
        np.testing.assert_array_equal(
            restored.vectors_at(rows), store.vectors_at(rows)
        )

    def test_shared_encoder_reused(self, tmp_path, repo_dataset, repo_encoder):
        shared = IDLevelEncoder(repo_encoder)
        store = make_store(repo_encoder, encoder=shared)
        store.add_batch(repo_dataset.spectra[:10])
        store.save(tmp_path)
        restored = IncrementalClusterStore.load(tmp_path, encoder=shared)
        assert restored.encoder is shared

    def test_missing_state_file_raises(self, tmp_path, repo_dataset, repo_encoder):
        store = make_store(repo_encoder)
        store.add_batch(repo_dataset.spectra[:10])
        store.save(tmp_path)
        (tmp_path / "store.state.json").unlink()
        with pytest.raises(ParseError, match="missing cluster state"):
            IncrementalClusterStore.load(tmp_path)

    def test_corrupt_state_file_raises(self, tmp_path, repo_dataset, repo_encoder):
        store = make_store(repo_encoder)
        store.add_batch(repo_dataset.spectra[:10])
        store.save(tmp_path)
        (tmp_path / "store.state.json").write_text("{ nope", encoding="utf-8")
        with pytest.raises(ParseError, match="corrupt cluster state"):
            IncrementalClusterStore.load(tmp_path)

    def test_forward_state_version_raises(
        self, tmp_path, repo_dataset, repo_encoder
    ):
        store = make_store(repo_encoder)
        store.add_batch(repo_dataset.spectra[:10])
        store.save(tmp_path)
        state_path = tmp_path / "store.state.json"
        state = json.loads(state_path.read_text(encoding="utf-8"))
        state["state_version"] = 99
        state_path.write_text(json.dumps(state), encoding="utf-8")
        with pytest.raises(ParseError, match="unsupported cluster state"):
            IncrementalClusterStore.load(tmp_path)
