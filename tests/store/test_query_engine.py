"""Pins for the batched query engine against the per-query oracle.

The engine computes results with one cross-Hamming pass + argpartition
per shard (or the bit-slice index for large shards) and one vectorised
merge, but must not change a single byte of *what* is returned.  These
tests hold it byte-identical to :mod:`repro.testing.oracles` — most
importantly on tie-heavy inputs, where any deviation in the (distance,
shard, label) order would surface — with every shard indexed and with
every shard scanned densely.
"""

import numpy as np
import pytest

from repro.hdc import EncoderConfig, random_hypervectors
from repro.io.hvstore import HypervectorStore
from repro.store import ClusterRepository, QueryService, RepositoryConfig
from repro.store import index as index_module
from repro.testing import oracles

#: ``INDEX_MIN_MEDOIDS`` values that index every populated shard, or none.
THRESHOLDS = {"indexed": 1, "dense": 1 << 40}


@pytest.fixture(params=sorted(THRESHOLDS))
def scan_path(request, monkeypatch):
    """Run the test once with every shard indexed, once all dense."""
    monkeypatch.setattr(
        index_module, "INDEX_MIN_MEDOIDS", THRESHOLDS[request.param]
    )
    return request.param


@pytest.fixture(scope="module")
def tie_heavy(tmp_path_factory):
    """A repository whose clusters share identical medoid hypervectors.

    Precursor masses route the rows to different buckets (and therefore
    different shards), but many rows carry the *same* packed vector, so
    every query produces distance ties across shards and labels — the
    adversarial input for merge determinism.
    """
    config = RepositoryConfig(
        num_shards=3,
        shard_width=1,
        encoder=EncoderConfig(dim=256, mz_bins=4_000, intensity_levels=16),
        cluster_threshold=0.3,
    )
    directory = tmp_path_factory.mktemp("tie-heavy") / "repo"
    repository = ClusterRepository.create(directory, config)
    rng = np.random.default_rng(99)
    distinct = random_hypervectors(8, 256, rng)
    vectors = distinct[np.arange(48) % 8]  # every vector repeated 6x
    store = HypervectorStore(
        vectors=vectors,
        precursor_mz=np.array([300.0 + 0.7 * i for i in range(48)]),
        charge=np.full(48, 2, dtype=np.int16),
        labels=np.full(48, -1, dtype=np.int64),
        identifiers=[f"m{i}" for i in range(48)],
        dim=256,
        encoder_seed=config.encoder.seed,
    )
    repository.add_store(store)
    queries = np.vstack([distinct, random_hypervectors(8, 256, rng)])
    return repository, queries


class TestBatchedEqualsReference:
    def test_shard_scans_are_byte_identical(self, tie_heavy, scan_path):
        repository, queries = tie_heavy
        service = QueryService(repository)
        service._refresh_indexes()
        shards = [i for i in service._indexes if i.local_labels]
        assert len(shards) >= 2, "tie-heavy fixture should span shards"
        for shard in shards:
            assert (shard.bitslice is not None) == (scan_path == "indexed")
            for k in (1, 3, 100):
                reference = oracles.shard_topk(
                    shard.medoid_vectors, queries, k
                )
                batched = shard.topk(queries, k)
                np.testing.assert_array_equal(batched[0], reference[0])
                np.testing.assert_array_equal(batched[1], reference[1])

    def test_merge_byte_identical_on_ties(self, tie_heavy, scan_path):
        repository, queries = tie_heavy
        service = QueryService(repository)
        for k in (1, 6, 100):
            assert service.query_vectors(queries, k=k) == (
                oracles.query_matches(service, queries, k)
            )

    def test_indexed_equals_dense(self, tie_heavy, monkeypatch):
        repository, queries = tie_heavy
        answers = {}
        for path, threshold in THRESHOLDS.items():
            monkeypatch.setattr(index_module, "INDEX_MIN_MEDOIDS", threshold)
            answers[path] = QueryService(repository).query_vectors(
                queries, k=6
            )
        assert answers["indexed"] == answers["dense"]

    def test_k_zero_yields_empty_lists(self, tie_heavy):
        repository, queries = tie_heavy
        service = QueryService(repository)
        assert service.query_vectors(queries, k=0) == (
            oracles.query_matches(service, queries, 0)
        )
        assert service.query_vectors(queries, k=0) == [
            [] for _ in range(len(queries))
        ]


class TestCheckpointedIndex:
    def test_reopen_reuses_checkpointed_index(
        self, tmp_path, rng, monkeypatch
    ):
        monkeypatch.setattr(index_module, "INDEX_MIN_MEDOIDS", 1)
        config = RepositoryConfig(
            num_shards=2,
            shard_width=1,
            encoder=EncoderConfig(
                dim=256, mz_bins=4_000, intensity_levels=16
            ),
        )
        repository = ClusterRepository.create(tmp_path / "repo", config)
        vectors = random_hypervectors(40, 256, rng)
        store = HypervectorStore(
            vectors=vectors,
            precursor_mz=np.array([300.0 + 0.7 * i for i in range(40)]),
            charge=np.full(40, 2, dtype=np.int16),
            labels=np.full(40, -1, dtype=np.int64),
            identifiers=[f"m{i}" for i in range(40)],
            dim=256,
            encoder_seed=config.encoder.seed,
        )
        repository.add_store(store)
        assert repository.cached_query_index(0) is None
        repository.checkpoint()
        cached = repository.cached_query_index(0)
        assert cached is not None
        assert cached.probe_bits == min(index_module.PROBE_BITS, 256)

        reopened = ClusterRepository.open(tmp_path / "repo")
        restored = reopened.cached_query_index(0)
        assert restored is not None
        np.testing.assert_array_equal(restored.planes, cached.planes)
        queries = vectors[:10]
        expected = QueryService(repository).query_vectors(queries, k=3)
        service = QueryService(reopened)
        assert service._shard_bitslice(
            0, service.repository.shard(0).vectors_at(
                [r for _, r in sorted(
                    service.repository.shard(0).medoid_rows().items()
                )]
            )
        ) is restored  # reused, not rebuilt
        assert service.query_vectors(queries, k=3) == expected

        # Any ingest invalidates the cached index.
        reopened.add_store(store)
        assert reopened.cached_query_index(0) is None
        results = QueryService(reopened).query_vectors(queries, k=3)
        assert all(matches for matches in results)

    @pytest.mark.parametrize("reader", ["repository", "snapshot"])
    def test_unreadable_index_file_is_rebuilt(
        self, tmp_path, rng, monkeypatch, reader
    ):
        from repro.store import RepositorySnapshot
        from repro.store.index import index_path

        monkeypatch.setattr(index_module, "INDEX_MIN_MEDOIDS", 1)
        config = RepositoryConfig(
            num_shards=2,
            shard_width=1,
            encoder=EncoderConfig(
                dim=256, mz_bins=4_000, intensity_levels=16
            ),
        )
        directory = tmp_path / "repo"
        repository = ClusterRepository.create(directory, config)
        vectors = random_hypervectors(40, 256, rng)
        repository.add_store(
            HypervectorStore(
                vectors=vectors,
                precursor_mz=np.array([300.0 + 0.7 * i for i in range(40)]),
                charge=np.full(40, 2, dtype=np.int16),
                labels=np.full(40, -1, dtype=np.int64),
                identifiers=[f"m{i}" for i in range(40)],
                dim=256,
                encoder_seed=config.encoder.seed,
            )
        )
        generation = repository.checkpoint()
        expected = QueryService(repository).query_vectors(vectors[:10], k=3)
        generation_dir = directory / "segments" / f"gen-{generation:06d}"
        index_path(generation_dir, 0).write_bytes(b"not an npz archive")
        # Integrity verification would refuse the damaged generation
        # outright; with it off, the damaged cache file is skipped.
        source = (
            ClusterRepository.open(directory, verify="off")
            if reader == "repository"
            else RepositorySnapshot.open(directory, verify="off")
        )
        try:
            assert source.cached_query_index(0) is None
            assert source.cached_query_index(1) is not None
            assert QueryService(source).query_vectors(
                vectors[:10], k=3
            ) == expected
        finally:
            source.close()
