"""Property-based tests for the ID-Level encoder's geometric behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hdc import (
    EncoderConfig,
    IDLevelEncoder,
    hamming_distance,
)
from repro.spectrum import MassSpectrum


@pytest.fixture(scope="module")
def encoder():
    return IDLevelEncoder(
        EncoderConfig(dim=512, mz_bins=4_000, intensity_levels=16)
    )


@st.composite
def peak_lists(draw, min_peaks=3, max_peaks=25):
    n = draw(st.integers(min_peaks, max_peaks))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    mz = np.sort(rng.uniform(150.0, 1400.0, n))
    intensity = rng.uniform(0.05, 1.0, n)
    return mz, intensity


class TestEncoderProperties:
    @given(peaks=peak_lists())
    @settings(max_examples=40, deadline=None)
    def test_encoding_deterministic(self, encoder, peaks):
        mz, intensity = peaks
        spectrum = MassSpectrum("p", 500.0, 2, mz, intensity)
        first = encoder.encode(spectrum)
        second = encoder.encode(spectrum)
        np.testing.assert_array_equal(first, second)

    @given(peaks=peak_lists())
    @settings(max_examples=40, deadline=None)
    def test_output_width_constant(self, encoder, peaks):
        mz, intensity = peaks
        spectrum = MassSpectrum("p", 500.0, 2, mz, intensity)
        assert encoder.encode(spectrum).shape == (512 // 64,)

    @given(peaks=peak_lists(min_peaks=8))
    @settings(max_examples=30, deadline=None)
    def test_self_distance_zero_and_random_far(self, encoder, peaks):
        mz, intensity = peaks
        spectrum = MassSpectrum("p", 500.0, 2, mz, intensity)
        vector = encoder.encode(spectrum)
        assert hamming_distance(vector, vector) == 0

    @given(peaks=peak_lists(min_peaks=10, max_peaks=25))
    @settings(max_examples=30, deadline=None)
    def test_small_perturbation_small_distance(self, encoder, peaks):
        """Dropping a single peak must move the HV less than re-drawing
        all peaks (locality of the encoding)."""
        mz, intensity = peaks
        spectrum = MassSpectrum("p", 500.0, 2, mz, intensity)
        vector = encoder.encode(spectrum)

        dropped = MassSpectrum("q", 500.0, 2, mz[1:], intensity[1:])
        rng = np.random.default_rng(int(mz[0] * 1000) % (2 ** 31))
        random_spectrum = MassSpectrum(
            "r", 500.0, 2,
            np.sort(rng.uniform(150.0, 1400.0, mz.size)),
            rng.uniform(0.05, 1.0, mz.size),
        )
        near = hamming_distance(vector, encoder.encode(dropped))
        far = hamming_distance(vector, encoder.encode(random_spectrum))
        assert near <= far

    @given(peaks=peak_lists())
    @settings(max_examples=30, deadline=None)
    def test_intensity_scale_invariance_after_normalisation(
        self, encoder, peaks
    ):
        """L2-normalised spectra differing only by a global intensity
        scale quantize identically, hence encode identically."""
        from repro.testing.oracles import scale_and_normalize

        mz, intensity = peaks
        original = scale_and_normalize(
            MassSpectrum("a", 500.0, 2, mz, intensity)
        )
        scaled = scale_and_normalize(
            MassSpectrum("b", 500.0, 2, mz, intensity * 7.5)
        )
        np.testing.assert_array_equal(
            encoder.encode(original), encoder.encode(scaled)
        )
