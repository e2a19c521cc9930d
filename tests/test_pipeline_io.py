"""Tests for the pipeline's file and store entry points."""

import numpy as np
import pytest

from repro import SpecHDConfig, SpecHDPipeline
from repro.datasets import SyntheticConfig, generate_dataset
from repro.hdc import EncoderConfig
from repro.io import write_mgf, write_ms2
from repro.io.hvstore import HypervectorStore


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        SyntheticConfig(
            num_peptides=8,
            replicates_per_peptide=6,
            peptides_per_mass_group=1,
            seed=17,
        )
    )


@pytest.fixture(scope="module")
def pipeline():
    return SpecHDPipeline(
        SpecHDConfig(
            encoder=EncoderConfig(dim=1024, mz_bins=8_000, intensity_levels=32),
            cluster_threshold=0.35,
        )
    )


class TestRunFiles:
    def test_single_file_matches_in_memory(self, dataset, pipeline, tmp_path):
        path = tmp_path / "run.mgf"
        write_mgf(dataset.spectra, path)
        from_file = pipeline.run_files([path])
        in_memory = pipeline.run(dataset.spectra)
        assert from_file.num_clusters == in_memory.num_clusters
        np.testing.assert_array_equal(from_file.labels, in_memory.labels)

    def test_multiple_files_concatenate(self, dataset, pipeline, tmp_path):
        half = len(dataset.spectra) // 2
        first = tmp_path / "a.mgf"
        second = tmp_path / "b.ms2"
        write_mgf(dataset.spectra[:half], first)
        write_ms2(dataset.spectra[half:], second)
        result = pipeline.run_files([first, second])
        assert len(result.spectra) <= len(dataset.spectra)
        assert len(result.spectra) > half

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_streamed_batch_size_does_not_change_results(
        self, dataset, tmp_path, batch_size
    ):
        # run_files streams encode batches that never span files; labels,
        # kept indices and hypervectors must not depend on the batch size.
        paths = []
        for index in range(3):
            path = tmp_path / f"part{index}.mgf"
            write_mgf(dataset.spectra[index::3], path)
            paths.append(path)
        config = dict(
            encoder=EncoderConfig(dim=1024, mz_bins=8_000, intensity_levels=32),
            cluster_threshold=0.35,
        )
        whole = SpecHDPipeline(SpecHDConfig(**config)).run_files(paths)
        chopped = SpecHDPipeline(
            SpecHDConfig(**config, encode_batch_size=batch_size)
        ).run_files(paths)
        np.testing.assert_array_equal(chopped.labels, whole.labels)
        assert chopped.kept_indices == whole.kept_indices
        np.testing.assert_array_equal(
            chopped.hypervectors, whole.hypervectors
        )

    def test_missing_file_is_a_parse_error(self, pipeline, tmp_path):
        from repro.errors import ParseError

        with pytest.raises(ParseError, match="no such file"):
            pipeline.run_files([tmp_path / "missing.mgf"])

    def test_run_files_gzip_matches_plain(self, dataset, pipeline, tmp_path):
        import gzip

        plain = tmp_path / "run.mgf"
        write_mgf(dataset.spectra, plain)
        compressed = tmp_path / "run.mgf.gz"
        compressed.write_bytes(gzip.compress(plain.read_bytes()))
        from_plain = pipeline.run_files([plain])
        from_gz = pipeline.run_files([compressed])
        np.testing.assert_array_equal(from_gz.labels, from_plain.labels)


class TestEncodeOnly:
    def test_store_contents(self, dataset, pipeline):
        store = pipeline.encode_only(dataset.spectra)
        assert isinstance(store, HypervectorStore)
        assert len(store) <= len(dataset.spectra)
        assert store.dim == 1024
        assert np.all(store.labels == -1)

    def test_store_roundtrip_preserves_vectors(
        self, dataset, pipeline, tmp_path
    ):
        store = pipeline.encode_only(dataset.spectra)
        path = tmp_path / "encoded.npz"
        store.save(path)
        loaded = HypervectorStore.load(path)
        np.testing.assert_array_equal(loaded.vectors, store.vectors)

    def test_vectors_match_full_run(self, dataset, pipeline):
        store = pipeline.encode_only(dataset.spectra)
        result = pipeline.run(dataset.spectra)
        np.testing.assert_array_equal(store.vectors, result.hypervectors)
