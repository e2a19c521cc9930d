"""Tests for the top-k medoid query service."""

import numpy as np
import pytest

from repro.store import ClusterRepository, QueryService


@pytest.fixture()
def populated(tmp_path, repo_config, repo_dataset):
    repository = ClusterRepository.create(tmp_path / "repo", repo_config)
    repository.add_batch(repo_dataset.spectra)
    return repository


class TestQueries:
    def test_replicate_finds_its_own_cluster(self, populated, repo_dataset):
        with QueryService(populated) as service:
            results = service.query(repo_dataset.spectra[:10], k=3)
        labels = populated.labels()
        for position, matches in enumerate(results):
            assert matches, "query spectrum unexpectedly failed QC"
            assert matches[0].global_label == labels[position]
            distances = [m.distance for m in matches]
            assert distances == sorted(distances)

    def test_matches_carry_medoid_metadata(self, populated, repo_dataset):
        with QueryService(populated) as service:
            (matches,) = service.query([repo_dataset.spectra[0]], k=1)
        match = matches[0]
        assert match.cluster_size >= 1
        assert match.medoid_charge >= 1
        assert match.medoid_precursor_mz > 0
        assert 0.0 <= match.normalized_distance <= 1.0
        assert match.medoid_identifier

    def test_k_larger_than_cluster_count(self, populated, repo_dataset):
        with QueryService(populated) as service:
            (matches,) = service.query(
                [repo_dataset.spectra[0]], k=10 * populated.num_clusters
            )
        assert len(matches) == populated.num_clusters

    def test_empty_repository(self, tmp_path, repo_config, repo_dataset):
        repository = ClusterRepository.create(tmp_path / "empty", repo_config)
        with QueryService(repository) as service:
            results = service.query(repo_dataset.spectra[:2], k=3)
        assert results == [[], []]

    def test_failed_qc_query_gets_empty_slot(self, populated, repo_dataset):
        from repro.spectrum import MassSpectrum

        bad = MassSpectrum(
            "bad", 500.0, 2, np.array([150.0]), np.array([1.0])
        )
        with QueryService(populated) as service:
            results = service.query(
                [repo_dataset.spectra[0], bad, repo_dataset.spectra[1]], k=2
            )
        assert len(results) == 3
        assert results[0] and results[2]
        assert results[1] == []

    def test_query_vectors_validates_shape(self, populated):
        with QueryService(populated) as service:
            with pytest.raises(ValueError):
                service.query_vectors(np.zeros(16, dtype=np.uint64))
            assert service.query_vectors(
                np.zeros((0, 16), dtype=np.uint64)
            ) == []


class TestOneScanPath:
    def test_no_option_selects_a_scan_path(self):
        import dataclasses
        import inspect

        from repro.service import ServiceConfig
        from repro.store import RepositoryConfig

        assert list(inspect.signature(QueryService).parameters) == [
            "repository"
        ]
        assert "use_index" not in {
            f.name for f in dataclasses.fields(ServiceConfig)
        }
        assert not {
            f.name for f in dataclasses.fields(RepositoryConfig)
        } & {"index_probe_bits", "index_min_medoids"}

    def test_no_checkpointed_index_surface(self):
        from repro.store import RepositorySnapshot
        from repro.store import index as index_module

        for reader in (ClusterRepository, RepositorySnapshot):
            assert not hasattr(reader, "cached_query_index")
        assert not hasattr(ClusterRepository, "_save_query_indexes")
        for name in ("INDEX_MIN_MEDOIDS", "worth_indexing", "index_path",
                     "load_checkpointed_indexes", "INDEX_FORMAT_VERSION"):
            assert not hasattr(index_module, name)


class TestIndexMaintenance:
    def test_index_refreshes_after_ingest(
        self, tmp_path, repo_config, repo_dataset
    ):
        half = len(repo_dataset) // 2
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        repository.add_batch(repo_dataset.spectra[:half])
        service = QueryService(repository)
        before = service.query([repo_dataset.spectra[0]], k=1)
        assert before[0]
        clusters_before = repository.num_clusters
        repository.add_batch(repo_dataset.spectra[half:])
        after = service.query([repo_dataset.spectra[0]], k=1)
        # The service saw the new state (its index version moved with the
        # repository) and still resolves the same best cluster.
        assert service._indexed_version == repository.version
        assert after[0][0].global_label == before[0][0].global_label
        assert repository.num_clusters >= clusters_before
        service.close()

    def test_change_during_rebuild_is_not_marked_seen(
        self, tmp_path, repo_config, repo_dataset
    ):
        half = len(repo_dataset) // 2
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        repository.add_batch(repo_dataset.spectra[:half])
        queries = repo_dataset.spectra[:: max(1, len(repo_dataset) // 8)]
        service = QueryService(repository)
        built_at = repository.version
        shard = repository.shard
        last = repository.num_shards - 1
        landed = []

        def shard_with_ingest(shard_id):
            # An add_batch lands while the service is mid-build: after
            # every shard but the last has been snapshotted.
            if shard_id == last and not landed:
                landed.append(True)
                repository.add_batch(repo_dataset.spectra[half:])
            return shard(shard_id)

        repository.shard = shard_with_ingest
        during = service.query(queries, k=3)
        del repository.shard
        assert landed
        assert service._indexed_version == built_at < repository.version
        after = service.query(queries, k=3)
        assert after == QueryService(repository).query(queries, k=3)
        assert after != during
        service.close()
