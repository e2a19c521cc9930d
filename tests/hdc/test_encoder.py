"""Tests for the ID-Level spectrum encoder (Eq. 2)."""

import numpy as np
import pytest

from repro.errors import EncodingError
from repro.hdc import (
    EncoderConfig,
    IDLevelEncoder,
    hamming_distance,
    unpack_bits,
)
from repro.spectrum import MassSpectrum


def spectrum_of(mz, intensity, name="s"):
    return MassSpectrum(name, 500.0, 2, np.array(mz), np.array(intensity))


@pytest.fixture(scope="module")
def encoder():
    return IDLevelEncoder(
        EncoderConfig(dim=512, mz_bins=2_000, intensity_levels=16)
    )


class TestBasicEncoding:
    def test_output_shape(self, encoder):
        hv = encoder.encode(spectrum_of([150.0, 300.0], [0.5, 0.8]))
        assert hv.shape == (512 // 64,)
        assert hv.dtype == np.uint64

    def test_deterministic(self, encoder):
        spectrum = spectrum_of([150.0, 300.0, 450.0], [0.2, 0.5, 0.9])
        np.testing.assert_array_equal(
            encoder.encode(spectrum), encoder.encode(spectrum)
        )

    def test_empty_spectrum_rejected(self, encoder):
        with pytest.raises(EncodingError, match="empty"):
            encoder.encode(spectrum_of([], []))

    def test_single_peak_equals_bound_pair(self, encoder):
        """With one peak, majority(ID ^ L over 1 item) == ID ^ L exactly."""
        spectrum = spectrum_of([150.0], [0.5])
        from repro.spectrum import quantize_spectrum

        ids, levels = quantize_spectrum(
            spectrum, encoder.config.quantizer_config()
        )
        expected = np.bitwise_xor(
            encoder.item_memory.id_memory[ids[0]],
            encoder.item_memory.level_memory[levels[0]],
        )
        np.testing.assert_array_equal(encoder.encode(spectrum), expected)

    def test_mismatched_item_memory_rejected(self):
        from repro.hdc import ItemMemory, ItemMemoryConfig

        memory = ItemMemory(ItemMemoryConfig(dim=256, mz_bins=100))
        with pytest.raises(EncodingError, match="does not match"):
            IDLevelEncoder(EncoderConfig(dim=512), item_memory=memory)


class TestNeighbourhoodPreservation:
    """The encoding must map similar spectra to nearby hypervectors."""

    def test_similar_spectra_closer_than_dissimilar(self, encoder, rng):
        base_mz = np.sort(rng.uniform(150, 1400, 30))
        base_intensity = rng.uniform(0.1, 1.0, 30)
        base = spectrum_of(base_mz, base_intensity)

        # Perturb slightly: small intensity jitter.
        similar = spectrum_of(
            base_mz, np.clip(base_intensity * rng.uniform(0.9, 1.1, 30), 0, 1)
        )
        unrelated = spectrum_of(
            np.sort(rng.uniform(150, 1400, 30)), rng.uniform(0.1, 1.0, 30)
        )
        hv_base = encoder.encode(base)
        d_similar = hamming_distance(hv_base, encoder.encode(similar))
        d_unrelated = hamming_distance(hv_base, encoder.encode(unrelated))
        assert d_similar < d_unrelated

    def test_distance_grows_with_perturbation(self, encoder, rng):
        mz = np.sort(rng.uniform(150, 1400, 40))
        intensity = rng.uniform(0.2, 1.0, 40)
        base = spectrum_of(mz, intensity)
        hv_base = encoder.encode(base)
        distances = []
        for dropout in (0.1, 0.3, 0.6):
            keep = rng.random(40) >= dropout
            keep[0] = True
            perturbed = spectrum_of(mz[keep], intensity[keep])
            distances.append(
                int(hamming_distance(hv_base, encoder.encode(perturbed)))
            )
        assert distances[0] <= distances[1] <= distances[2] or (
            distances[0] < distances[2]
        )


class TestBatchAndStream:
    def test_batch_matches_single(self, encoder, rng):
        spectra = [
            spectrum_of(
                np.sort(rng.uniform(150, 1400, 10)), rng.uniform(0, 1, 10),
                name=f"s{i}",
            )
            for i in range(5)
        ]
        batch = encoder.encode_batch(spectra)
        for row, spectrum in enumerate(spectra):
            np.testing.assert_array_equal(batch[row], encoder.encode(spectrum))

    def test_empty_batch(self, encoder):
        batch = encoder.encode_batch([])
        assert batch.shape == (0, 512 // 64)

    def test_stream_batches(self, encoder, rng):
        spectra = [
            spectrum_of(
                np.sort(rng.uniform(150, 1400, 10)), rng.uniform(0, 1, 10)
            )
            for _ in range(7)
        ]
        chunks = list(encoder.encode_stream(iter(spectra), batch_size=3))
        assert [c.shape[0] for c in chunks] == [3, 3, 1]
        stacked = np.vstack(chunks)
        np.testing.assert_array_equal(stacked, encoder.encode_batch(spectra))

    def test_stream_invalid_batch_size(self, encoder):
        with pytest.raises(EncodingError):
            list(encoder.encode_stream(iter([]), batch_size=0))

    def test_concurrent_clones_of_cold_encoder(self, rng):
        # Regression: clone() on a never-used encoder from several threads
        # at once (daemon connection threads do this) must not observe
        # half-built augmented tables.
        import threading

        config = EncoderConfig(dim=512, mz_bins=2_000, intensity_levels=16)
        spectra = [
            spectrum_of(
                np.sort(rng.uniform(150, 1400, 20)), rng.uniform(0, 1, 20)
            )
            for _ in range(12)
        ]
        expected = IDLevelEncoder(config).encode_batch(spectra)
        for _ in range(5):
            cold = IDLevelEncoder(config)
            results = [None] * 4

            def run(slot):
                results[slot] = cold.clone().encode_batch(spectra)

            threads = [
                threading.Thread(target=run, args=(slot,)) for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for result in results:
                np.testing.assert_array_equal(result, expected)


class TestMajoritySemantics:
    def test_output_is_binary_majority(self, encoder, rng):
        """Recompute Eq. 2 from the item memories and compare bit-exactly."""
        from repro.spectrum import quantize_spectrum

        spectrum = spectrum_of(
            np.sort(rng.uniform(150, 1400, 9)), rng.uniform(0, 1, 9)
        )
        ids, levels = quantize_spectrum(
            spectrum, encoder.config.quantizer_config()
        )
        bound = np.bitwise_xor(
            encoder.item_memory.id_memory[ids],
            encoder.item_memory.level_memory[levels],
        )
        bits = unpack_bits(bound, 512)
        accumulator = bits.sum(axis=0)
        expected_bits = (accumulator * 2 > 9).astype(np.uint8)
        actual_bits = unpack_bits(encoder.encode(spectrum), 512)
        np.testing.assert_array_equal(actual_bits, expected_bits)
