"""Stage-graph tests: deterministic output, backpressure, error paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import SyntheticConfig, generate_dataset
from repro.errors import ConfigurationError, ParseError
from repro.execution import EXECUTION_BACKENDS, ExecutionPool
from repro.hdc import EncoderConfig, IDLevelEncoder
from repro.io import SpectrumSource, write_mgf
from repro.spectrum import MassSpectrum, PreprocessingConfig
from repro.streaming import (
    EncodedBatch,
    StreamConfig,
    StreamStats,
    stream_encoded_batches,
)

ENCODER = EncoderConfig(dim=512, mz_bins=4_000, intensity_levels=16)
PREPROCESSING = PreprocessingConfig()


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        SyntheticConfig(
            num_peptides=10,
            replicates_per_peptide=6,
            peptides_per_mass_group=1,
            seed=7,
        )
    )


@pytest.fixture(scope="module")
def spectrum_files(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("stream-files")
    paths = []
    for index in range(3):
        path = root / f"part{index}.mgf"
        write_mgf(dataset.spectra[index::3], path)
        paths.append(path)
    return paths


def collect(paths, backend, workers, batch_size=7, **kwargs):
    return list(
        stream_encoded_batches(
            SpectrumSource(paths),
            PREPROCESSING,
            ENCODER,
            StreamConfig(
                batch_size=batch_size, backend=backend, workers=workers
            ),
            **kwargs,
        )
    )


def assert_batches_equal(reference, candidate):
    assert len(reference) == len(candidate)
    for left, right in zip(reference, candidate):
        assert (left.file_index, left.batch_index) == (
            right.file_index,
            right.batch_index,
        )
        assert (left.raw_start, left.raw_count) == (
            right.raw_start,
            right.raw_count,
        )
        assert left.identifiers == right.identifiers
        np.testing.assert_array_equal(left.kept_offsets, right.kept_offsets)
        np.testing.assert_array_equal(left.precursor_mz, right.precursor_mz)
        np.testing.assert_array_equal(left.charge, right.charge)
        np.testing.assert_array_equal(left.vectors, right.vectors)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            StreamConfig(queue_depth=0)
        with pytest.raises(ConfigurationError):
            StreamConfig(backend="gpu")
        with pytest.raises(ConfigurationError):
            StreamConfig(workers=0)

    def test_encoder_config_mismatch_rejected(self, spectrum_files):
        other = IDLevelEncoder(EncoderConfig(dim=256, mz_bins=2_000))
        with pytest.raises(ConfigurationError, match="does not match"):
            list(
                stream_encoded_batches(
                    SpectrumSource(spectrum_files),
                    PREPROCESSING,
                    ENCODER,
                    encoder=other,
                )
            )


class TestDeterminism:
    @pytest.mark.parametrize(
        "backend,workers",
        [("threads", 3), ("threads", 1), ("processes", 2)],
    )
    def test_backends_match_serial(self, spectrum_files, backend, workers):
        reference = collect(spectrum_files, "serial", None)
        assert_batches_equal(
            reference, collect(spectrum_files, backend, workers)
        )

    def test_batches_never_span_files(self, spectrum_files):
        for batch in collect(spectrum_files, "threads", 3, batch_size=1000):
            # batch_size exceeds every file: exactly one batch per file.
            assert batch.batch_index == 0

    def test_matches_encode_batch_content(self, spectrum_files):
        from repro.spectrum import preprocess_spectrum

        encoder = IDLevelEncoder(ENCODER)
        batches = collect(spectrum_files, "serial", None, batch_size=5)
        source = SpectrumSource(spectrum_files)
        for file_index, entry in enumerate(source.files):
            spectra = list(entry.read())
            for batch in (b for b in batches if b.file_index == file_index):
                raw = spectra[batch.raw_start: batch.raw_start + batch.raw_count]
                kept = [
                    s
                    for s in (
                        preprocess_spectrum(r, PREPROCESSING) for r in raw
                    )
                    if s is not None
                ]
                assert batch.identifiers == [s.identifier for s in kept]
                np.testing.assert_array_equal(
                    batch.vectors, encoder.encode_batch(kept)
                )

    def test_keep_spectra_carries_preprocessed(self, spectrum_files):
        for batch in collect(
            spectrum_files, "threads", 2, keep_spectra=True
        ):
            assert batch.spectra is not None
            assert len(batch.spectra) == batch.num_kept
            assert [s.identifier for s in batch.spectra] == batch.identifiers

    def test_spectra_omitted_by_default(self, spectrum_files):
        assert all(
            batch.spectra is None
            for batch in collect(spectrum_files, "serial", None)
        )


class TestQCDrops:
    @pytest.mark.parametrize("backend,workers", [("serial", None), ("threads", 2)])
    def test_dropped_counted_and_offsets_correct(
        self, tmp_path, backend, workers
    ):
        good = MassSpectrum(
            "good",
            500.0,
            2,
            np.linspace(150.0, 900.0, 30),
            np.linspace(1.0, 30.0, 30),
        )
        bad = MassSpectrum(  # too few peaks: dropped by QC
            "bad", 500.0, 2, np.array([200.0, 300.0]), np.array([1.0, 2.0])
        )
        path = tmp_path / "mixed.mgf"
        write_mgf([good, bad, good.copy(), bad.copy(), good.copy()], path)
        (batch,) = collect([path], backend, workers, batch_size=10)
        assert batch.raw_count == 5
        assert batch.num_kept == 3
        assert batch.num_dropped == 2
        np.testing.assert_array_equal(batch.kept_offsets, [0, 2, 4])

    def test_all_dropped_batch_is_yielded_empty(self, tmp_path):
        bad = MassSpectrum(
            "bad", 500.0, 2, np.array([200.0, 300.0]), np.array([1.0, 2.0])
        )
        path = tmp_path / "allbad.mgf"
        write_mgf([bad, bad.copy()], path)
        (batch,) = collect([path], "serial", None, batch_size=10)
        assert batch.num_kept == 0
        assert batch.num_dropped == 2
        assert batch.vectors.shape == (0, ENCODER.dim // 64)


class TestStats:
    @pytest.mark.parametrize(
        "backend,workers",
        [("serial", None), ("threads", 3), ("processes", 2)],
    )
    def test_counters(self, spectrum_files, backend, workers):
        stats = StreamStats()
        batches = collect(spectrum_files, backend, workers, stats=stats)
        snapshot = stats.snapshot()
        assert snapshot["files_total"] == 3
        assert snapshot["files_done"] == 3
        assert snapshot["batches_encoded"] == len(batches)
        assert snapshot["spectra_parsed"] == sum(b.raw_count for b in batches)
        assert snapshot["spectra_kept"] == sum(b.num_kept for b in batches)

    def test_note_applied(self):
        stats = StreamStats()
        batch = EncodedBatch(
            file_index=0,
            batch_index=0,
            raw_start=0,
            raw_count=4,
            kept_offsets=np.arange(3),
            identifiers=["a", "b", "c"],
            precursor_mz=np.zeros(3),
            charge=np.zeros(3, dtype=np.int16),
            vectors=np.zeros((3, 8), dtype=np.uint64),
        )
        stats.note_applied(batch)
        snapshot = stats.snapshot()
        assert snapshot["batches_applied"] == 1
        assert snapshot["spectra_applied"] == 3


class TestErrorPaths:
    @pytest.fixture()
    def corrupt_plan(self, spectrum_files, tmp_path):
        bad = tmp_path / "bad.mgf"
        bad.write_text(
            "BEGIN IONS\nTITLE=x\nPEPMASS=not-a-number\nEND IONS\n"
        )
        return [spectrum_files[0], bad, spectrum_files[1]]

    @pytest.mark.parametrize(
        "backend,workers",
        [("serial", None), ("threads", 3), ("processes", 2)],
    )
    def test_mid_stream_parse_error_propagates(
        self, corrupt_plan, backend, workers
    ):
        with pytest.raises(ParseError):
            collect(corrupt_plan, backend, workers)

    def test_borrowed_pool_survives_stage_error(self, corrupt_plan):
        with ExecutionPool("threads", 3) as pool:
            with pytest.raises(ParseError):
                list(
                    stream_encoded_batches(
                        SpectrumSource(corrupt_plan),
                        PREPROCESSING,
                        ENCODER,
                        StreamConfig(backend="threads", workers=3),
                        pool=pool,
                    )
                )
            # Borrowed pools are never closed by the stage graph.
            assert pool.submit(len, [1, 2]).result() == 2

    @pytest.mark.parametrize("backend,workers", [("threads", 3), ("processes", 2)])
    def test_early_close_unblocks_producers(
        self, spectrum_files, backend, workers
    ):
        batches = stream_encoded_batches(
            SpectrumSource(spectrum_files),
            PREPROCESSING,
            ENCODER,
            StreamConfig(
                batch_size=2,
                queue_depth=1,
                backend=backend,
                workers=workers,
            ),
        )
        assert next(batches) is not None
        # Closing the generator mid-stream must tear the stage pool down
        # (blocked producers included) without hanging.
        batches.close()


class TestEncoderSharing:
    def test_custom_item_memory_rejected(self, spectrum_files):
        from repro.hdc.itemmemory import ItemMemory, ItemMemoryConfig

        # Workers rebuild encoders from encoder_config alone, so an
        # encoder carrying a non-config-derived item memory would
        # silently diverge on the processes backend; every backend must
        # reject it up front.
        custom = ItemMemory(
            ItemMemoryConfig(
                dim=ENCODER.dim,
                mz_bins=ENCODER.mz_bins,
                intensity_levels=ENCODER.intensity_levels,
                seed=ENCODER.seed + 1,
            )
        )
        with pytest.raises(ConfigurationError, match="item memory"):
            list(
                stream_encoded_batches(
                    SpectrumSource(spectrum_files),
                    PREPROCESSING,
                    ENCODER,
                    encoder=IDLevelEncoder(ENCODER, item_memory=custom),
                )
            )

    def test_cold_encoder_threads_ingest(self, spectrum_files):
        # Regression: concurrent clone() of a never-used encoder must
        # not observe half-built augmented tables.
        for _ in range(5):
            cold = IDLevelEncoder(ENCODER)
            batches = collect(
                spectrum_files, "threads", 3, batch_size=3, encoder=cold
            )
            assert sum(b.num_kept for b in batches) == 60
