"""Streamed ingest determinism: byte-identical to sequential ``add_batch``.

The acceptance bar of the streaming dataflow: for the same files and the
same batch size, :class:`repro.store.StreamingIngestor` must produce
labels, checkpoint manifests, shard states and catalogs identical to a
plain sequential loop of raw ``add_batch`` calls, and a mid-stream crash
must recover through WAL replay exactly like the sequential path does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, SpecHDError
from repro.io import read_spectra, write_mgf
from repro.spectrum import MassSpectrum
from repro.store import ClusterRepository, StreamingIngestor

BATCH = 13

#: One spectrum per WAL record, the default chop, and one batch per file
#: (every file holds 32 spectra): the plans a streamed ingest must match.
BATCH_SIZES = [1, BATCH, 64]


@pytest.fixture(scope="module")
def ingest_files(repo_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("stream-ingest-files")
    paths = []
    for index in range(3):
        path = root / f"run{index}.mgf"
        write_mgf(repo_dataset.spectra[index::3], path)
        paths.append(path)
    return paths


def sequential_ingest(
    directory, config, paths, checkpoint=True, batch_size=BATCH
):
    """The pre-streaming reference: per-file raw batches via add_batch."""
    repository = ClusterRepository.create(directory, config)
    for path in paths:
        batch = []
        for spectrum in read_spectra(path):
            batch.append(spectrum)
            if len(batch) >= batch_size:
                repository.add_batch(batch)
                batch = []
        if batch:
            repository.add_batch(batch)
    generation = repository.checkpoint() if checkpoint else None
    return repository, generation


def streamed_ingest(
    directory, config, paths, checkpoint=True, batch_size=BATCH
):
    repository = ClusterRepository.create(directory, config)
    report = StreamingIngestor(repository, batch_size=batch_size).ingest(
        paths
    )
    generation = repository.checkpoint() if checkpoint else None
    return repository, generation, report


def assert_checkpoints_identical(
    left_dir, left_generation, right_dir, right_generation, num_shards
):
    assert (left_dir / "manifest.json").read_bytes() == (
        right_dir / "manifest.json"
    ).read_bytes()
    left_gen = left_dir / "segments" / f"gen-{left_generation:06d}"
    right_gen = right_dir / "segments" / f"gen-{right_generation:06d}"
    for shard in range(num_shards):
        stem = f"shard-{shard:04d}"
        assert (left_gen / f"{stem}.state.json").read_bytes() == (
            right_gen / f"{stem}.state.json"
        ).read_bytes()
        with np.load(left_gen / f"{stem}.npz") as a, np.load(
            right_gen / f"{stem}.npz"
        ) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                np.testing.assert_array_equal(a[key], b[key])
    with np.load(left_gen / "catalog.npz") as a, np.load(
        right_gen / "catalog.npz"
    ) as b:
        for key in a.files:
            np.testing.assert_array_equal(a[key], b[key])


class TestDeterminism:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_labels_and_checkpoint_match_sequential(
        self, tmp_path, repo_config, ingest_files, batch_size
    ):
        sequential, seq_generation = sequential_ingest(
            tmp_path / "sequential",
            repo_config,
            ingest_files,
            batch_size=batch_size,
        )
        streamed, stream_generation, report = streamed_ingest(
            tmp_path / "streamed",
            repo_config,
            ingest_files,
            batch_size=batch_size,
        )
        np.testing.assert_array_equal(streamed.labels(), sequential.labels())
        assert len(streamed) == len(sequential)
        assert streamed.num_clusters == sequential.num_clusters
        assert report.num_added == len(sequential)
        assert streamed.manifest.applied_seq == (
            sequential.manifest.applied_seq
        )
        assert_checkpoints_identical(
            tmp_path / "sequential",
            seq_generation,
            tmp_path / "streamed",
            stream_generation,
            repo_config.num_shards,
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_wal_replay_reproduces_streamed_ingest(
        self, tmp_path, repo_config, ingest_files, batch_size
    ):
        streamed, _gen, _report = streamed_ingest(
            tmp_path / "streamed",
            repo_config,
            ingest_files,
            checkpoint=False,  # leave everything in the WAL
            batch_size=batch_size,
        )
        labels = streamed.labels()
        reopened = ClusterRepository.open(tmp_path / "streamed")
        np.testing.assert_array_equal(reopened.labels(), labels)

    def test_qc_dropped_batches_keep_seq_parity(
        self, tmp_path, repo_config, repo_dataset
    ):
        # A batch whose spectra all fail QC must still consume a WAL
        # sequence number, keeping applied_seq — and the manifest —
        # aligned with the sequential path.
        bad = MassSpectrum(
            "bad", 640.0, 2, np.array([200.0, 300.0]), np.array([1.0, 2.0])
        )
        spectra = list(repo_dataset.spectra[:BATCH]) + [
            bad.copy() for _ in range(BATCH)
        ] + list(repo_dataset.spectra[BATCH : 2 * BATCH])
        path = tmp_path / "mixed.mgf"
        write_mgf(spectra, path)

        sequential, seq_generation = sequential_ingest(
            tmp_path / "sequential", repo_config, [path]
        )
        streamed, stream_generation, report = streamed_ingest(
            tmp_path / "streamed", repo_config, [path]
        )
        assert report.num_dropped == BATCH
        assert streamed.manifest.applied_seq == sequential.manifest.applied_seq == 3
        assert_checkpoints_identical(
            tmp_path / "sequential",
            seq_generation,
            tmp_path / "streamed",
            stream_generation,
            repo_config.num_shards,
        )


class TestCrashRecovery:
    # With 3-spectrum batches each 32-spectrum file is 11 batches, so 11
    # crashes exactly on a file boundary and 1 / 4 inside the first file.
    @pytest.mark.parametrize("crash_after", [1, 4, 11])
    def test_mid_stream_crash_replays_applied_prefix(
        self, tmp_path, repo_config, ingest_files, crash_after
    ):
        class Boom(RuntimeError):
            pass

        def crash_progressor(snapshot):
            if snapshot["batches_applied"] >= crash_after:
                raise Boom()

        directory = tmp_path / "crashed"
        repository = ClusterRepository.create(directory, repo_config)
        from repro.store.ingest import PROGRESS_EVERY_BATCHES

        assert crash_after % PROGRESS_EVERY_BATCHES != 0 or crash_after > 0
        # Small batches so the crash lands mid-file.
        ingestor = StreamingIngestor(repository, batch_size=3)
        with pytest.raises(Boom):
            # Fire on every applied batch so the crash point is exact.
            import repro.store.ingest as ingest_module

            original = ingest_module.PROGRESS_EVERY_BATCHES
            ingest_module.PROGRESS_EVERY_BATCHES = 1
            try:
                ingestor.ingest(ingest_files, progress=crash_progressor)
            finally:
                ingest_module.PROGRESS_EVERY_BATCHES = original

        # The journal holds exactly the acknowledged batches; reopening
        # replays them to the same labels the crashed instance held.
        crashed_labels = repository.labels()
        assert len(crashed_labels) > 0
        reopened = ClusterRepository.open(directory)
        np.testing.assert_array_equal(reopened.labels(), crashed_labels)

        # And that prefix matches a sequential ingest truncated to the
        # same number of batches.
        reference_dir = tmp_path / "reference"
        reference = ClusterRepository.create(reference_dir, repo_config)
        applied = 0
        for path in ingest_files:
            batch = []
            for spectrum in read_spectra(path):
                batch.append(spectrum)
                if len(batch) >= 3:
                    if applied < crash_after:
                        reference.add_batch(batch)
                        applied += 1
                    batch = []
            if batch and applied < crash_after:
                reference.add_batch(batch)
                applied += 1
        np.testing.assert_array_equal(
            reopened.labels(), reference.labels()
        )


class TestAddEncodedBatch:
    def test_rejects_wrong_width(self, tmp_path, repo_config):
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        with pytest.raises(ConfigurationError, match="uint64"):
            repository.add_encoded_batch(
                np.zeros((2, 3), dtype=np.uint64), [500.0, 501.0], [2, 2],
                ["a", "b"],
            )

    def test_rejects_negative_dropped(self, tmp_path, repo_config):
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        words = repo_config.encoder.dim // 64
        with pytest.raises(ConfigurationError, match="num_dropped"):
            repository.add_encoded_batch(
                np.zeros((1, words), dtype=np.uint64), [500.0], [2], ["a"],
                num_dropped=-1,
            )

    def test_empty_batch_consumes_sequence_number(
        self, tmp_path, repo_config
    ):
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        words = repo_config.encoder.dim // 64
        report = repository.add_encoded_batch(
            np.zeros((0, words), dtype=np.uint64), [], [], [], num_dropped=5
        )
        assert report.num_added == 0
        assert report.num_dropped == 5
        assert report.seq == 1
        # The empty record replays cleanly.
        reopened = ClusterRepository.open(tmp_path / "repo")
        assert len(reopened) == 0
        assert reopened._applied_seq == 1

    def test_poisoned_repository_refuses(self, tmp_path, repo_config):
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        repository._poisoned = True
        words = repo_config.encoder.dim // 64
        with pytest.raises(SpecHDError, match="inconsistent"):
            repository.add_encoded_batch(
                np.zeros((1, words), dtype=np.uint64), [500.0], [2], ["a"]
            )


class TestAddEncodedBatchValidation:
    def test_length_mismatch_rejected_before_journaling(
        self, tmp_path, repo_config
    ):
        # A mismatched record fsynced to the WAL would fail on every
        # replay; the guard must fire before any journaling.
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        words = repo_config.encoder.dim // 64
        for mz, ch, ids in (
            ([500.0], [2, 2], ["a", "b"]),
            ([500.0, 501.0], [2], ["a", "b"]),
            ([500.0, 501.0], [2, 2], ["a"]),
        ):
            with pytest.raises(ConfigurationError, match="unequal"):
                repository.add_encoded_batch(
                    np.zeros((2, words), dtype=np.uint64), mz, ch, ids
                )
        assert repository.wal_bytes() == 0  # nothing was journaled
        # The repository is still usable afterwards.
        report = repository.add_encoded_batch(
            np.zeros((1, words), dtype=np.uint64), [500.0], [2], ["ok"]
        )
        assert report.num_added == 1


class TestZeroBatchIngest:
    def test_reports_live_applied_seq(
        self, tmp_path, repo_config, repo_dataset
    ):
        # Un-checkpointed adds advance the live sequence; an ingest that
        # applies zero batches must report that, not the manifest value.
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        repository.add_batch(repo_dataset.spectra[:5])
        empty = tmp_path / "empty.mgf"
        empty.write_text("")
        report = StreamingIngestor(repository).ingest([empty])
        assert report.num_added == 0
        assert report.seq == repository._applied_seq == 1

    def test_ingestor_reuse_resets_stats(
        self, tmp_path, repo_config, ingest_files
    ):
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        ingestor = StreamingIngestor(repository, batch_size=BATCH)
        ingestor.ingest(ingest_files)
        first = ingestor.stats.snapshot()
        ingestor.ingest([ingest_files[0]])
        second = ingestor.stats.snapshot()
        assert first["files_total"] == 3
        assert second["files_total"] == 1
        assert second["files_done"] == 1
        assert second["spectra_applied"] < first["spectra_applied"]
