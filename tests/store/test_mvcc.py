"""MVCC snapshot isolation: pinned readers under a concurrent writer.

The serving-layer contract (ISSUE 5 acceptance): a query pinned to
generation G returns byte-identical results before, during and after a
concurrent checkpoint publishes G+1, and generation G's files survive
on disk exactly until the snapshot closes.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import SpecHDError
from repro.io import write_mgf
from repro.store import (
    ClusterRepository,
    QueryService,
    RepositorySnapshot,
    StreamingIngestor,
    generations_on_disk,
    pinned_generations,
    sweep_generations,
)
from repro.store.snapshot import _write_pin


@pytest.fixture()
def repository(tmp_path, repo_config):
    return ClusterRepository.create(tmp_path / "repo", repo_config)


def first_half(dataset):
    return dataset.spectra[: len(dataset) // 2]


def second_half(dataset):
    return dataset.spectra[len(dataset) // 2 :]


class TestSnapshotIsolation:
    def test_pinned_results_identical_across_checkpoints(
        self, repository, repo_dataset
    ):
        """Before / during / after: the acceptance criterion, sequential."""
        repository.add_batch(first_half(repo_dataset))
        generation = repository.checkpoint()
        queries = second_half(repo_dataset)[:6]

        snapshot = repository.snapshot()
        assert snapshot.generation == generation
        with QueryService(snapshot) as service:
            before = service.query(queries, k=4)
            # Writer moves on: new batches, a new published generation.
            repository.add_batch(second_half(repo_dataset))
            assert repository.checkpoint() == generation + 1
            during = service.query(queries, k=4)
            repository.add_batch(first_half(repo_dataset))
            repository.checkpoint()
            after = service.query(queries, k=4)
        snapshot.close()

        assert before == during == after
        # And the pinned view kept the old cluster state, not the new.
        assert len(snapshot) == len(first_half(repo_dataset))

    def test_generation_survives_until_snapshot_closes(
        self, repository, repo_dataset, tmp_path
    ):
        repository.add_batch(first_half(repo_dataset))
        g1 = repository.checkpoint()
        snapshot = repository.snapshot()

        repository.add_batch(second_half(repo_dataset))
        g2 = repository.checkpoint()
        # The checkpoint's sweep ran, but G1 is pinned: still on disk.
        assert generations_on_disk(tmp_path / "repo") == [g1, g2]
        assert pinned_generations(tmp_path / "repo") == {g1: 1}

        # Closing releases the pin; the next sweep collects G1.
        snapshot.close()
        assert repository.sweep() == [g1]
        assert generations_on_disk(tmp_path / "repo") == [g2]

    def test_snapshot_reads_match_checkpoint_state(
        self, repository, repo_dataset
    ):
        repository.add_batch(repo_dataset.spectra)
        repository.checkpoint()
        expected_labels = repository.labels()
        with repository.snapshot() as snapshot:
            np.testing.assert_array_equal(snapshot.labels(), expected_labels)
            assert len(snapshot) == len(repository)
            assert snapshot.num_clusters == repository.num_clusters
            assert snapshot.shard_stats() == repository.shard_stats()
            # Post-checkpoint ingest is invisible to the pinned view.
            repository.add_batch(first_half(repo_dataset))
            np.testing.assert_array_equal(snapshot.labels(), expected_labels)

    def test_snapshot_of_empty_repository(self, repository):
        with repository.snapshot() as snapshot:
            assert snapshot.generation == 0
            assert len(snapshot) == 0
            with QueryService(snapshot) as service:
                assert service.query_vectors(
                    np.zeros((2, 16), dtype=np.uint64), k=3
                ) == [[], []]

    def test_snapshot_encodes_with_a_private_clone(self, repository):
        # A reader thread encoding queries on the snapshot must never share
        # encode scratch with the writer's encoder (they race otherwise).
        with repository.snapshot() as snapshot:
            assert snapshot.encoder is not repository.encoder
            shared = repository.encoder.item_memory
            assert snapshot.encoder.item_memory is shared

    def test_snapshot_lags_unckeckpointed_wal(self, repository, repo_dataset):
        repository.add_batch(first_half(repo_dataset))
        repository.checkpoint()
        repository.add_batch(second_half(repo_dataset))  # journaled only
        with repository.snapshot() as snapshot:
            assert len(snapshot) == len(first_half(repo_dataset))
        assert repository.wal_pending_batches == 1

    def test_concurrent_reader_under_streaming_ingest(
        self, repository, repo_dataset, tmp_path
    ):
        """Reader queries a pinned snapshot while StreamingIngestor runs.

        The writer streams files and checkpoints mid-stream
        (checkpoint_every_batches) on another thread; every read the
        pinned reader performs must equal its first.
        """
        repository.add_batch(first_half(repo_dataset))
        g1 = repository.checkpoint()
        files = []
        for index in range(3):
            path = tmp_path / f"stream{index}.mgf"
            write_mgf(second_half(repo_dataset)[index::3], path)
            files.append(path)

        snapshot = repository.snapshot()
        service = QueryService(snapshot)
        queries = second_half(repo_dataset)[:5]
        reference = service.query(queries, k=3)
        results = []
        failures = []

        def reader():
            try:
                for _ in range(20):
                    results.append(service.query(queries, k=3))
            except BaseException as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        report = StreamingIngestor(
            repository, batch_size=7, checkpoint_every_batches=2
        ).ingest(files)
        repository.checkpoint()
        thread.join()

        assert not failures
        assert report.num_added == len(second_half(repo_dataset))
        assert all(result == reference for result in results)
        # Mid-stream checkpoints really published generations past G1…
        assert repository.manifest.generation > g1 + 1
        # …and the pinned one is still readable and on disk.
        assert g1 in generations_on_disk(tmp_path / "repo")
        service.close()
        snapshot.close()
        assert g1 in repository.sweep()


class TestPins:
    def test_stale_pin_of_dead_process_is_collected(
        self, repository, repo_dataset, tmp_path
    ):
        repository.add_batch(first_half(repo_dataset))
        g1 = repository.checkpoint()
        pin = _write_pin(tmp_path / "repo", g1)
        # Rewrite the pin as if a crashed reader (dead pid) owned it.
        pin.write_text(
            '{"generation": %d, "pid": 999999999, "created": 0}' % g1,
            encoding="utf-8",
        )
        assert pinned_generations(tmp_path / "repo") == {}
        assert not pin.exists()

    def test_unreadable_pin_is_collected(
        self, repository, repo_dataset, tmp_path
    ):
        repository.add_batch(first_half(repo_dataset))
        g1 = repository.checkpoint()
        pin = _write_pin(tmp_path / "repo", g1)
        pin.write_text("not json", encoding="utf-8")
        assert pinned_generations(tmp_path / "repo") == {}

    def test_live_pin_counts(self, repository, repo_dataset, tmp_path):
        repository.add_batch(first_half(repo_dataset))
        g1 = repository.checkpoint()
        with repository.snapshot(), repository.snapshot():
            assert pinned_generations(tmp_path / "repo") == {g1: 2}
        assert pinned_generations(tmp_path / "repo") == {}

    def test_sweep_never_touches_current_generation(
        self, repository, repo_dataset, tmp_path
    ):
        repository.add_batch(first_half(repo_dataset))
        g1 = repository.checkpoint()
        assert sweep_generations(tmp_path / "repo", g1) == []
        assert generations_on_disk(tmp_path / "repo") == [g1]

    def test_open_missing_repository_raises(self, tmp_path):
        with pytest.raises(SpecHDError):
            RepositorySnapshot.open(tmp_path / "nothing")


class TestWalPendingAndInfo:
    def test_pending_counts_follow_ingest_and_checkpoint(
        self, repository, repo_dataset
    ):
        assert repository.wal_pending_batches == 0
        repository.add_batch(first_half(repo_dataset))
        repository.add_batch(second_half(repo_dataset))
        assert repository.wal_pending_batches == 2
        repository.checkpoint()
        assert repository.wal_pending_batches == 0

    def test_pending_counts_survive_reopen_replay(
        self, repository, repo_dataset, tmp_path
    ):
        repository.add_batch(first_half(repo_dataset))
        repository.checkpoint()
        repository.add_batch(second_half(repo_dataset))
        repository.close()
        reopened = ClusterRepository.open(tmp_path / "repo")
        assert reopened.wal_pending_batches == 1

    def test_info_is_json_ready_and_complete(
        self, repository, repo_dataset, tmp_path
    ):
        import json

        repository.add_batch(first_half(repo_dataset))
        g1 = repository.checkpoint()
        with repository.snapshot():
            record = json.loads(json.dumps(repository.info()))
            assert record["generation"] == g1
            assert record["num_spectra"] == len(first_half(repo_dataset))
            assert record["wal_pending_batches"] == 0
            assert record["generations_on_disk"] == [g1]
            assert record["pinned_generations"] == {str(g1): 1}
            assert len(record["shards"]) == repository.num_shards
            assert record["encoder"]["dim"] == repository.encoder.dim


class TestClosedAndReadOnlyOpens:
    def test_ingest_after_close_raises(self, repository, repo_dataset):
        repository.close()
        with pytest.raises(SpecHDError, match="closed"):
            repository.add_batch(first_half(repo_dataset))
        with pytest.raises(SpecHDError, match="closed"):
            repository.checkpoint()

    def test_readonly_open_does_not_truncate_torn_tail(
        self, repository, repo_dataset, tmp_path
    ):
        """A query-path open must never mutate a live writer's journal."""
        repository.add_batch(first_half(repo_dataset))
        repository.close()
        wal = tmp_path / "repo" / "wal.log"
        torn = wal.read_bytes() + b'{"crc": 1, "body": "mid-appen'
        wal.write_bytes(torn)

        reader = ClusterRepository.open(tmp_path / "repo", recover_wal=False)
        assert len(reader) == len(first_half(repo_dataset))
        assert wal.read_bytes() == torn  # untouched
        reader.close()

        writer = ClusterRepository.open(tmp_path / "repo")  # default heals
        assert wal.read_bytes() != torn
        writer.close()


class TestMidStreamCheckpointEquivalence:
    def test_labels_identical_with_and_without_auto_checkpoint(
        self, repo_config, repo_dataset, tmp_path
    ):
        files = []
        for index in range(2):
            path = tmp_path / f"part{index}.mgf"
            write_mgf(repo_dataset.spectra[index::2], path)
            files.append(path)

        plain = ClusterRepository.create(tmp_path / "plain", repo_config)
        StreamingIngestor(plain, batch_size=9).ingest(files)
        plain.checkpoint()

        auto = ClusterRepository.create(tmp_path / "auto", repo_config)
        StreamingIngestor(
            auto, batch_size=9, checkpoint_every_batches=3
        ).ingest(files)
        auto.checkpoint()

        np.testing.assert_array_equal(auto.labels(), plain.labels())
        assert auto.manifest.generation > plain.manifest.generation
        assert auto.wal_pending_batches == 0
