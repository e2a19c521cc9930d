"""Bit-exactness harness: the fast HDC paths against the reference paths.

The vectorised batch encoder and the blocked Hamming kernels are pure
performance rewrites — every byte of their output must match the reference
implementations in `repro.testing.oracles` (`encode_batch`, one `encode`
per spectrum, and the Hamming oracles).  These golden tests pin that
contract across dimensionalities, block sizes, odd/even peak counts
(majority tie cases), ragged batches, and the word-level CSA counting
primitives themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hdc import (
    EncoderConfig,
    IDLevelEncoder,
    condensed_pairwise_hamming,
    pairwise_hamming_blocked,
    random_hypervectors,
    unpack_bits,
)
from repro.hdc.bitops import csa_accumulate, planes_greater_than
from repro.spectrum import MassSpectrum
from repro.testing import oracles


def _random_spectrum(rng: np.random.Generator, peaks: int, tag: str):
    """A random in-window spectrum with exactly ``peaks`` peaks."""
    mz = np.sort(rng.uniform(101.0, 1500.0, size=peaks))
    intensity = rng.uniform(0.0, 1.0, size=peaks)
    return MassSpectrum(
        identifier=f"rand-{tag}",
        precursor_mz=float(rng.uniform(300.0, 1200.0)),
        precursor_charge=2,
        mz=mz,
        intensity=intensity,
    )


def _encoder(dim: int) -> IDLevelEncoder:
    return IDLevelEncoder(
        EncoderConfig(dim=dim, mz_bins=2_000, intensity_levels=16)
    )


class TestEncoderEquivalence:
    @pytest.mark.parametrize("dim", [256, 2048])
    def test_batch_bit_identical_to_reference(self, dim, rng):
        # Odd and even peak counts mixed, including 1-peak and the
        # budget-unfriendly primes; even counts exercise majority ties.
        peak_counts = [1, 2, 3, 4, 7, 8, 16, 33, 50, 64, 100]
        spectra = [
            _random_spectrum(rng, peaks, f"{dim}-{index}")
            for index, peaks in enumerate(peak_counts * 3)
        ]
        encoder = _encoder(dim)
        reference = oracles.encode_batch(encoder, spectra)
        fast = encoder.encode_batch(spectra)
        assert fast.dtype == np.uint64
        assert fast.shape == reference.shape
        assert fast.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("dim", [256, 2048])
    def test_single_spectrum_matches_encode(self, dim, rng):
        encoder = _encoder(dim)
        for peaks in (1, 2, 5, 31):
            spectrum = _random_spectrum(rng, peaks, f"single-{peaks}")
            np.testing.assert_array_equal(
                encoder.encode_batch([spectrum])[0],
                encoder.encode(spectrum),
            )

    def test_even_count_tie_breaks_toward_zero(self, rng):
        # With exactly two peaks every dimension where the bound vectors
        # disagree has count 1 out of 2 — an exact tie, which the FPGA
        # comparator (acc > count >> 1) resolves to 0.  The fast path must
        # reproduce that, so the pair's majority equals the AND of the two
        # bound vectors.
        encoder = _encoder(256)
        spectra = [
            _random_spectrum(rng, 2, f"tie-{index}") for index in range(20)
        ]
        reference = oracles.encode_batch(encoder, spectra)
        fast = encoder.encode_batch(spectra)
        assert fast.tobytes() == reference.tobytes()

    def test_reference_lives_with_the_tests(self):
        assert not hasattr(IDLevelEncoder, "encode_batch_reference")

    def test_empty_batch_and_empty_spectrum(self):
        encoder = _encoder(256)
        assert encoder.encode_batch([]).shape == (0, 4)
        empty = MassSpectrum(
            identifier="empty",
            precursor_mz=500.0,
            precursor_charge=2,
            mz=np.array([]),
            intensity=np.array([]),
        )
        from repro.errors import EncodingError

        with pytest.raises(EncodingError):
            encoder.encode_batch([empty])

    def test_stream_matches_batch(self, rng):
        encoder = _encoder(256)
        spectra = [
            _random_spectrum(rng, int(peaks), f"stream-{index}")
            for index, peaks in enumerate(rng.integers(1, 40, size=23))
        ]
        streamed = np.vstack(list(encoder.encode_stream(spectra, 5)))
        np.testing.assert_array_equal(
            streamed, encoder.encode_batch(spectra)
        )


class TestHammingEquivalence:
    @pytest.mark.parametrize("dim", [256, 2048])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64])
    def test_blocked_pairwise_matches_reference(self, dim, n, rng):
        vectors = random_hypervectors(n, dim, rng)
        reference = oracles.pairwise_hamming(vectors)
        blocked = pairwise_hamming_blocked(vectors)
        assert blocked.dtype == np.uint16
        np.testing.assert_array_equal(blocked, reference)

    @pytest.mark.parametrize("block_rows", [1, 2, 7, 1000])
    def test_blocked_pairwise_any_block_size(self, block_rows, rng):
        vectors = random_hypervectors(23, 256, rng)
        np.testing.assert_array_equal(
            pairwise_hamming_blocked(vectors, block_rows=block_rows),
            oracles.pairwise_hamming(vectors),
        )

    @pytest.mark.parametrize("dim", [256, 2048])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64])
    def test_blocked_condensed_matches_reference(self, dim, n, rng):
        vectors = random_hypervectors(n, dim, rng)
        reference = oracles.condensed_pairwise_hamming(vectors)
        blocked = condensed_pairwise_hamming(vectors)
        assert blocked.dtype == reference.dtype
        assert blocked.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("block_rows", [1, 3, 8, 1000])
    def test_blocked_condensed_any_block_size(self, block_rows, rng):
        vectors = random_hypervectors(19, 256, rng)
        np.testing.assert_array_equal(
            condensed_pairwise_hamming(vectors, block_rows=block_rows),
            oracles.condensed_pairwise_hamming(vectors),
        )


class TestCountingPrimitives:
    def test_accumulate_bit_counts_matches_group_sums(self, rng):
        dim = 256
        counts_per_group = [1, 2, 5, 8, 3]
        total = sum(counts_per_group)
        vectors = random_hypervectors(total, dim, rng)
        starts = np.concatenate(
            ([0], np.cumsum(counts_per_group)[:-1])
        )
        got = oracles.accumulate_bit_counts(vectors, starts, dim)
        bits = unpack_bits(vectors, dim)
        row = 0
        for group, size in enumerate(counts_per_group):
            np.testing.assert_array_equal(
                got[group], bits[row : row + size].sum(axis=0)
            )
            row += size

    @pytest.mark.parametrize("rows", [1, 2, 7, 8, 9, 33, 64, 100])
    def test_csa_accumulate_counts_exactly(self, rows, rng):
        words = 4
        stacked = rng.integers(
            0, 2 ** 63, size=(rows, 6, words), dtype=np.uint64
        )
        planes = csa_accumulate(stacked, rows)
        # Reconstruct counts from the bit-planes and compare to brute force.
        weights = (1 << np.arange(planes.shape[0], dtype=np.int64))
        reconstructed = np.zeros((6, words * 64), dtype=np.int64)
        for k in range(planes.shape[0]):
            reconstructed += weights[k] * unpack_bits(
                planes[k], words * 64
            ).astype(np.int64)
        brute = np.zeros_like(reconstructed)
        for j in range(rows):
            brute += unpack_bits(stacked[j], words * 64).astype(np.int64)
        np.testing.assert_array_equal(reconstructed, brute)

    def test_csa_zero_row_padding_is_neutral(self, rng):
        words = 3
        rows = rng.integers(0, 2 ** 63, size=(5, 4, words), dtype=np.uint64)
        padded = np.concatenate(
            [rows, np.zeros((3, 4, words), dtype=np.uint64)], axis=0
        )
        lhs = csa_accumulate(rows, 8)
        rhs = csa_accumulate(padded, 8)
        np.testing.assert_array_equal(lhs, rhs)

    @pytest.mark.parametrize("rows", [1, 2, 8, 33])
    def test_planes_greater_than_majority(self, rows, rng):
        words = 4
        stacked = rng.integers(
            0, 2 ** 63, size=(rows, 5, words), dtype=np.uint64
        )
        counts = np.zeros((5, words * 64), dtype=np.int64)
        for j in range(rows):
            counts += unpack_bits(stacked[j], words * 64).astype(np.int64)
        planes = csa_accumulate(stacked, rows)
        thresholds = np.array([0, rows // 2, rows // 2, rows - 1, rows])
        packed = planes_greater_than(planes, thresholds)
        expected = (counts > thresholds[:, None]).astype(np.uint8)
        np.testing.assert_array_equal(
            unpack_bits(packed, words * 64), expected
        )

    def test_planes_greater_than_saturated_threshold(self, rng):
        stacked = rng.integers(0, 2 ** 63, size=(3, 2, 2), dtype=np.uint64)
        planes = csa_accumulate(stacked, 3)
        # Thresholds wider than the plane stack: nothing can exceed them.
        packed = planes_greater_than(planes, np.array([100, 4]))
        assert not packed.any()


class TestPipelineFastPathEquivalence:
    def test_pipeline_hypervectors_match_reference_encoding(
        self, labelled_dataset
    ):
        from repro import SpecHDConfig, SpecHDPipeline

        config = SpecHDConfig(
            encoder=EncoderConfig(dim=256, mz_bins=2_000, intensity_levels=16)
        )
        pipeline = SpecHDPipeline(config)
        result = pipeline.run(labelled_dataset.spectra)
        reference = oracles.encode_batch(pipeline.encoder, result.spectra)
        assert result.hypervectors.tobytes() == reference.tobytes()
