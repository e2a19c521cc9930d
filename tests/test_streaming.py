"""Streaming dataflow tests: deterministic output, QC drops, error paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import SyntheticConfig, generate_dataset
from repro.errors import ConfigurationError, ParseError
from repro.hdc import EncoderConfig, IDLevelEncoder
from repro.io import SpectrumSource, write_mgf
from repro.spectrum import MassSpectrum, PreprocessingConfig
from repro.streaming import (
    EncodedBatch,
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


def collect(paths, batch_size=7, **kwargs):
    return list(
        stream_encoded_batches(
            SpectrumSource(paths), PREPROCESSING, ENCODER, batch_size, **kwargs
        )
    )


class TestConfig:
    def test_validation(self, spectrum_files):
        with pytest.raises(ConfigurationError, match="batch_size"):
            collect(spectrum_files, batch_size=0)

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
    def test_batches_follow_the_plan(self, spectrum_files):
        batches = collect(spectrum_files)
        source = SpectrumSource(spectrum_files)
        expected = [
            (file_index, batch_index, len(raw))
            for file_index, batch_index, raw in source.iter_batches(7)
        ]
        assert [
            (b.file_index, b.batch_index, b.raw_count) for b in batches
        ] == expected

    def test_batches_never_span_files(self, spectrum_files):
        for batch in collect(spectrum_files, batch_size=1000):
            # batch_size exceeds every file: exactly one batch per file.
            assert batch.batch_index == 0

    def test_matches_encode_batch_content(self, spectrum_files):
        from repro.spectrum import preprocess_spectrum

        encoder = IDLevelEncoder(ENCODER)
        batches = collect(spectrum_files, batch_size=5)
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
        for batch in collect(spectrum_files, keep_spectra=True):
            assert batch.spectra is not None
            assert len(batch.spectra) == batch.num_kept
            assert [s.identifier for s in batch.spectra] == batch.identifiers

    def test_spectra_omitted_by_default(self, spectrum_files):
        assert all(
            batch.spectra is None
            for batch in collect(spectrum_files)
        )


class TestQCDrops:
    def test_dropped_counted_and_offsets_correct(self, tmp_path):
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
        (batch,) = collect([path], batch_size=10)
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
        (batch,) = collect([path], batch_size=10)
        assert batch.num_kept == 0
        assert batch.num_dropped == 2
        assert batch.vectors.shape == (0, ENCODER.dim // 64)


class TestStats:
    @pytest.mark.parametrize("batch_size", [1, 7, 1000])
    def test_counters(self, spectrum_files, batch_size):
        stats = StreamStats()
        batches = collect(spectrum_files, batch_size=batch_size, stats=stats)
        snapshot = stats.snapshot()
        assert snapshot["files_total"] == 3
        assert snapshot["files_done"] == 3
        # Three files of 20 spectra; a batch never spans two of them.
        assert snapshot["batches_encoded"] == len(batches) == (
            3 * -(-20 // batch_size)
        )
        assert snapshot["spectra_parsed"] == 60
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
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_mid_stream_parse_error_propagates(
        self, spectrum_files, tmp_path, position
    ):
        bad = tmp_path / "bad.mgf"
        bad.write_text(
            "BEGIN IONS\nTITLE=x\nPEPMASS=not-a-number\nEND IONS\n"
        )
        plan = list(spectrum_files[:2])
        plan.insert(position, bad)
        batches = stream_encoded_batches(
            SpectrumSource(plan), PREPROCESSING, ENCODER, 7
        )
        # Files ahead of the damaged one stream in full (20 spectra: three
        # batches each); the damage surfaces on its own file, in plan order.
        yielded = []
        with pytest.raises(ParseError):
            for batch in batches:
                yielded.append(batch.file_index)
        assert yielded == [
            index for index in range(position) for _ in range(3)
        ]

    def test_missing_file_fails_before_any_batch(self, spectrum_files):
        missing = spectrum_files[0].parent / "missing.mgf"
        with pytest.raises(ParseError, match="no such file"):
            SpectrumSource([spectrum_files[0], missing])


class TestEncoderSharing:
    def test_custom_item_memory_is_used(self, spectrum_files):
        from repro.hdc.itemmemory import ItemMemory, ItemMemoryConfig
        from repro.spectrum import preprocess_spectrum

        # A shared encoder is used as given, item memory included.
        custom = ItemMemory(
            ItemMemoryConfig(
                dim=ENCODER.dim,
                mz_bins=ENCODER.mz_bins,
                intensity_levels=ENCODER.intensity_levels,
                seed=ENCODER.seed + 1,
            )
        )
        encoder = IDLevelEncoder(ENCODER, item_memory=custom)
        first = spectrum_files[:1]
        (batch,) = collect(first, batch_size=1000, encoder=encoder)
        kept = [
            preprocess_spectrum(raw, PREPROCESSING)
            for raw in SpectrumSource(first)
        ]
        kept = [spectrum for spectrum in kept if spectrum is not None]
        np.testing.assert_array_equal(
            batch.vectors, encoder.encode_batch(kept)
        )
        (default,) = collect(first, batch_size=1000)
        assert not np.array_equal(batch.vectors, default.vectors)


def _resolve(dotted):
    """``"module:Attr.attr"`` -> the object."""
    import importlib

    module_name, _, attribute_path = dotted.partition(":")
    target = importlib.import_module(module_name)
    for attribute in attribute_path.split("."):
        target = getattr(target, attribute)
    return target


#: Every option that chose another writer path, by owner and name.
RETIRED_WRITER_OPTIONS = [
    ("repro.pipeline:SpecHDConfig", "execution_backend"),
    ("repro.pipeline:SpecHDConfig", "num_workers"),
    ("repro.streaming:stream_encoded_batches", "config"),
    ("repro.streaming:stream_encoded_batches", "pool"),
    ("repro.store:StreamingIngestor", "queue_depth"),
    ("repro.store:StreamingIngestor", "backend"),
    ("repro.store:StreamingIngestor", "workers"),
    ("repro.incremental:IncrementalClusterStore", "execution_backend"),
    ("repro.incremental:IncrementalClusterStore", "num_workers"),
    ("repro.incremental:IncrementalClusterStore.load", "execution_backend"),
    ("repro.incremental:IncrementalClusterStore.load", "num_workers"),
    (
        "repro.incremental:IncrementalClusterStore.from_snapshot",
        "execution_backend",
    ),
    ("repro.incremental:IncrementalClusterStore.from_snapshot", "num_workers"),
    ("repro.store:ClusterRepository", "execution_backend"),
    ("repro.store:ClusterRepository", "num_workers"),
    ("repro.store:ClusterRepository.create", "execution_backend"),
    ("repro.store:ClusterRepository.create", "num_workers"),
    ("repro.store:ClusterRepository.open", "execution_backend"),
    ("repro.store:ClusterRepository.open", "num_workers"),
    ("repro.service:ServiceConfig", "backend"),
    ("repro.service:ServiceConfig", "workers"),
]

#: Names that selected or served another writer path, by module.
RETIRED_WRITER_NAMES = [
    ("repro", "EXECUTION_BACKENDS"),
    ("repro", "ExecutionPool"),
    ("repro", "execution_map"),
    ("repro", "StreamConfig"),
    ("repro.streaming", "StreamConfig"),
    ("repro.streaming", "DEFAULT_QUEUE_DEPTH"),
    ("repro.pipeline", "cluster_bucket_labels"),
]


class TestOneWriterPath:
    @pytest.mark.parametrize(
        "owner,option",
        RETIRED_WRITER_OPTIONS,
        ids=[
            f"{owner.partition(':')[2]}-{option}"
            for owner, option in RETIRED_WRITER_OPTIONS
        ],
    )
    def test_no_option_selects_a_writer_path(self, owner, option):
        import inspect

        assert option not in inspect.signature(_resolve(owner)).parameters

    @pytest.mark.parametrize(
        "module,name",
        RETIRED_WRITER_NAMES,
        ids=[f"{module}-{name}" for module, name in RETIRED_WRITER_NAMES],
    )
    def test_retired_name_is_gone(self, module, name):
        import importlib

        assert not hasattr(importlib.import_module(module), name)

    def test_execution_module_is_gone(self):
        import importlib.util

        assert importlib.util.find_spec("repro.execution") is None

    def test_one_batch_in_flight(self, spectrum_files):
        stats = StreamStats()
        batches = stream_encoded_batches(
            SpectrumSource(spectrum_files), PREPROCESSING, ENCODER, 3,
            stats=stats,
        )
        assert stats.batches_encoded == 0  # nothing runs before the ask
        next(batches)
        batches.close()
        snapshot = stats.snapshot()
        assert snapshot["batches_encoded"] == 1
        assert snapshot["spectra_parsed"] == 3
        assert snapshot["files_done"] == 0
        assert set(snapshot) == {
            "files_total", "files_done", "spectra_parsed", "spectra_kept",
            "spectra_dropped", "batches_encoded", "batches_applied",
            "spectra_applied",
        }

    def test_ingestor_rejects_bad_batch_size(self, tmp_path):
        from repro.store import ClusterRepository, RepositoryConfig
        from repro.store import StreamingIngestor

        repository = ClusterRepository.create(
            tmp_path / "repo", RepositoryConfig(encoder=ENCODER)
        )
        with pytest.raises(ConfigurationError, match="batch_size"):
            StreamingIngestor(repository, batch_size=0)
