"""Pins for the batched query engine against the per-query oracle.

Every shard is scanned one way — a word-major cross-Hamming pass +
argpartition top-k — and merged with one vectorised merge, but must not
change a single byte of *what* is returned.  These tests hold it
byte-identical to :mod:`repro.testing.oracles`, most importantly on
tie-heavy inputs, where any deviation in the (distance, shard, label)
order would surface.  Generations written with a bit-slice index sidecar
(older checkpoints) must still open, verify, replicate and answer
byte-identically.
"""

import json
import shutil

import numpy as np
import pytest

from repro.hdc import EncoderConfig, random_hypervectors
from repro.io.hvstore import HypervectorStore
from repro.store import (
    BitSliceMedoidIndex,
    ClusterRepository,
    GenerationScrubber,
    QueryService,
    RepositoryConfig,
    RepositorySnapshot,
    verify_generation,
)
from repro.store.integrity import integrity_records
from repro.store.manifest import RepositoryManifest
from repro.testing import oracles


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
    def test_shard_scans_are_byte_identical(self, tie_heavy):
        repository, queries = tie_heavy
        service = QueryService(repository)
        service._refresh_indexes()
        shards = [i for i in service._indexes if i.local_labels]
        assert len(shards) >= 2, "tie-heavy fixture should span shards"
        for shard in shards:
            assert shard.medoids_T.flags.c_contiguous
            assert shard.medoids_T.shape == (4, len(shard.local_labels))
            for k in (1, 3, 100):
                reference = oracles.shard_topk(
                    shard.medoids_T.T, queries, k
                )
                batched = shard.topk(queries, k)
                np.testing.assert_array_equal(batched[0], reference[0])
                np.testing.assert_array_equal(batched[1], reference[1])

    def test_merge_byte_identical_on_ties(self, tie_heavy):
        repository, queries = tie_heavy
        service = QueryService(repository)
        for k in (1, 6, 100):
            assert service.query_vectors(queries, k=k) == (
                oracles.query_matches(service, queries, k)
            )

    def test_k_zero_yields_empty_lists(self, tie_heavy):
        repository, queries = tie_heavy
        service = QueryService(repository)
        assert service.query_vectors(queries, k=0) == (
            oracles.query_matches(service, queries, 0)
        )
        assert service.query_vectors(queries, k=0) == [
            [] for _ in range(len(queries))
        ]


def _add_legacy_sidecars(directory):
    """Write the index sidecars an older checkpoint published, as it did.

    Older checkpoints saved one ``shard-NNNN.index.npz`` bit-slice index
    per shard (format version 1: sampled plane positions, packed planes
    and a JSON meta record) beside the segments, and digested it with
    the rest of the generation into the manifest's integrity map.
    """
    manifest = RepositoryManifest.load(directory)
    generation_dir = directory / "segments" / f"gen-{manifest.generation:06d}"
    with RepositorySnapshot.open(directory) as snapshot:
        for shard_id in range(manifest.num_shards):
            shard = snapshot.shard(shard_id)
            rows_by_label = shard.medoid_rows()
            vectors = shard.vectors_at(
                [rows_by_label[label] for label in sorted(rows_by_label)]
            )
            index = BitSliceMedoidIndex.build(vectors, manifest.encoder.dim)
            np.savez(
                generation_dir / f"shard-{shard_id:04d}.index.npz",
                positions=index.positions,
                planes=index.planes,
                meta=np.array(json.dumps({
                    "format_version": 1,
                    "dim": index.dim,
                    "count": index.count,
                })),
            )
    manifest.integrity = integrity_records(generation_dir)
    manifest.save(directory)
    return generation_dir


class TestLegacyIndexSidecar:
    @pytest.fixture()
    def repositories(self, tmp_path, rng):
        """``(legacy, plain, vectors)``: one generation with and without
        the sidecars."""
        config = RepositoryConfig(
            num_shards=2,
            shard_width=1,
            encoder=EncoderConfig(dim=256, mz_bins=4_000, intensity_levels=16),
        )
        plain = tmp_path / "plain"
        repository = ClusterRepository.create(plain, config)
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
        repository.checkpoint()
        repository.close()
        legacy = tmp_path / "legacy"
        shutil.copytree(plain, legacy)
        _add_legacy_sidecars(legacy)
        return legacy, plain, vectors

    def test_sidecar_generation_verifies_and_scrubs(self, repositories):
        legacy, _, _ = repositories
        manifest = RepositoryManifest.load(legacy)
        sidecars = {"shard-0000.index.npz", "shard-0001.index.npz"}
        assert sidecars <= set(manifest.integrity)
        verified = verify_generation(
            legacy, manifest.generation, manifest.integrity, "full"
        )
        assert sidecars <= set(verified)
        report = GenerationScrubber().scrub(
            legacy, manifest.generation, manifest.integrity
        )
        assert report.clean and report.complete
        assert report.files_checked == len(manifest.integrity)

    @pytest.mark.parametrize("reader", ["repository", "snapshot"])
    def test_answers_match_a_sidecar_free_copy(self, repositories, reader):
        legacy, plain, vectors = repositories
        opener = (
            ClusterRepository.open
            if reader == "repository"
            else RepositorySnapshot.open
        )
        answers = []
        for directory in (legacy, plain):
            source = opener(directory, verify="full")
            try:
                answers.append(
                    QueryService(source).query_vectors(vectors[:12], k=5)
                )
            finally:
                source.close()
        legacy_bytes, plain_bytes = (
            b"".join(column.tobytes() for column in answer.wire_columns())
            for answer in answers
        )
        assert legacy_bytes == plain_bytes
        assert len(answers[0]) == 12 and all(answers[0])

    def test_sidecar_generation_replicates(self, repositories, tmp_path):
        from repro.fleet import Replicator
        from repro.service import ClusterService, ServiceClient, ServiceConfig
        from repro.store.generation import list_generation_files

        legacy, plain, vectors = repositories
        target = tmp_path / "follower"
        with ClusterService(legacy, ServiceConfig()) as service:
            service.start()
            with ServiceClient(port=service.port) as client:
                assert Replicator(chunk_bytes=1024).pull(client, target) == 1
        files = list_generation_files(target, 1)
        assert files == list_generation_files(legacy, 1)
        assert "shard-0000.index.npz" in {entry.name for entry in files}
        with RepositorySnapshot.open(target, verify="full") as snapshot:
            replicated = QueryService(snapshot).query_vectors(
                vectors[:12], k=5
            )
        with RepositorySnapshot.open(plain) as snapshot:
            assert replicated == QueryService(snapshot).query_vectors(
                vectors[:12], k=5
            )

    def test_next_checkpoint_writes_no_sidecar(self, repositories):
        legacy, _, vectors = repositories
        repository = ClusterRepository.open(legacy)
        try:
            repository.add_store(
                HypervectorStore(
                    vectors=vectors[:5],
                    precursor_mz=np.array([600.0 + i for i in range(5)]),
                    charge=np.full(5, 2, dtype=np.int16),
                    labels=np.full(5, -1, dtype=np.int64),
                    identifiers=[f"n{i}" for i in range(5)],
                    dim=256,
                    encoder_seed=repository.manifest.encoder.seed,
                )
            )
            generation = repository.checkpoint()
        finally:
            repository.close()
        generation_dir = legacy / "segments" / f"gen-{generation:06d}"
        assert not list(generation_dir.glob("*.index.npz"))
        manifest = RepositoryManifest.load(legacy)
        assert not [n for n in manifest.integrity if n.endswith(".index.npz")]
