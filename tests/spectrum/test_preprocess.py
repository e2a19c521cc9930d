"""Tests for the three-stage preprocessing pipeline."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.spectrum import (
    MassSpectrum,
    PreprocessingConfig,
    preprocess_batch,
    preprocess_spectrum,
    preprocessing_survival_rate,
)
from repro.testing.oracles import (
    filter_peaks,
    scale_and_normalize,
    select_top_k,
)


def spectrum_with(mz, intensity, charge=2, precursor=500.0):
    return MassSpectrum("s", precursor, charge, np.array(mz), np.array(intensity))


class TestConfigValidation:
    def test_negative_intensity_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            PreprocessingConfig(min_intensity_fraction=-0.1)

    def test_fraction_of_one_rejected(self):
        with pytest.raises(ConfigurationError):
            PreprocessingConfig(min_intensity_fraction=1.0)

    def test_zero_top_k_rejected(self):
        with pytest.raises(ConfigurationError):
            PreprocessingConfig(top_k=0)

    def test_inverted_mz_window_rejected(self):
        with pytest.raises(ConfigurationError):
            PreprocessingConfig(min_mz=1500.0, max_mz=100.0)

    def test_unknown_scaling_rejected(self):
        with pytest.raises(ConfigurationError):
            PreprocessingConfig(scaling="log")


class TestSpectraFilter:
    def test_low_intensity_peaks_removed(self):
        spectrum = spectrum_with(
            [150.0, 250.0, 350.0], [100.0, 0.5, 50.0]
        )
        filtered = filter_peaks(spectrum, PreprocessingConfig())
        # 0.5 < 1% of base peak 100.
        assert filtered.peak_count == 2
        assert 250.0 not in filtered.mz

    def test_precursor_peak_removed(self):
        spectrum = spectrum_with(
            [150.0, 500.0, 350.0], [50.0, 100.0, 50.0], precursor=500.0
        )
        filtered = filter_peaks(spectrum, PreprocessingConfig())
        assert all(abs(mz - 500.0) > 1.0 for mz in filtered.mz)

    def test_charge_reduced_precursor_removed(self):
        # Charge-2 precursor at 500 -> charge-1 species near 999.
        spectrum = spectrum_with(
            [150.0, 998.9929, 350.0], [50.0, 100.0, 50.0],
            charge=2, precursor=500.0,
        )
        filtered = filter_peaks(spectrum, PreprocessingConfig())
        assert filtered.peak_count == 2

    def test_out_of_window_peaks_removed(self):
        spectrum = spectrum_with([50.0, 150.0, 1600.0], [10.0, 10.0, 10.0])
        filtered = filter_peaks(spectrum, PreprocessingConfig())
        assert filtered.peak_count == 1


class TestTopK:
    def test_keeps_k_most_intense(self):
        mz = np.linspace(150, 900, 10)
        intensity = np.arange(10, dtype=float) + 1
        spectrum = spectrum_with(mz, intensity)
        selected = select_top_k(spectrum, 3)
        assert selected.peak_count == 3
        assert set(selected.intensity) == {8.0, 9.0, 10.0}

    def test_preserves_mz_order(self):
        spectrum = spectrum_with(
            [150.0, 300.0, 450.0, 600.0], [5.0, 50.0, 1.0, 40.0]
        )
        selected = select_top_k(spectrum, 2)
        assert list(selected.mz) == [300.0, 600.0]

    def test_short_spectrum_unchanged(self):
        spectrum = spectrum_with([150.0, 300.0], [1.0, 2.0])
        selected = select_top_k(spectrum, 50)
        assert selected.peak_count == 2

    def test_invalid_k(self):
        spectrum = spectrum_with([150.0], [1.0])
        with pytest.raises(ConfigurationError):
            select_top_k(spectrum, 0)

    def test_tie_at_cut_keeps_lower_position(self):
        """Three peaks tie at 3.0 for the last two places: the two at
        the lowest positions (lowest m/z) are kept."""
        spectrum = spectrum_with(
            [150.0, 200.0, 250.0, 300.0, 350.0, 400.0],
            [3.0, 1.0, 5.0, 3.0, 3.0, 2.0],
        )
        config = PreprocessingConfig(top_k=3, min_peaks=1, scaling="none")
        kept, _ = preprocess_batch([spectrum], config)
        assert kept.mz.tolist() == [150.0, 250.0, 300.0]
        assert list(select_top_k(spectrum, 3).mz) == [150.0, 250.0, 300.0]


class TestScaleNormalize:
    def test_sqrt_scaling_l2_normalised(self):
        spectrum = spectrum_with([150.0, 300.0], [4.0, 16.0])
        scaled = scale_and_normalize(spectrum, "sqrt")
        assert np.linalg.norm(scaled.intensity) == pytest.approx(1.0)
        # sqrt(16)/sqrt(4) = 2 ratio preserved.
        assert scaled.intensity[1] / scaled.intensity[0] == pytest.approx(2.0)

    def test_rank_scaling_is_monotone(self):
        spectrum = spectrum_with(
            [150.0, 300.0, 450.0], [10.0, 30.0, 20.0]
        )
        scaled = scale_and_normalize(spectrum, "rank")
        order = np.argsort(spectrum.intensity)
        assert np.all(np.diff(scaled.intensity[order]) > 0)

    def test_none_scaling_preserves_ratios(self):
        spectrum = spectrum_with([150.0, 300.0], [1.0, 3.0])
        scaled = scale_and_normalize(spectrum, "none")
        assert scaled.intensity[1] / scaled.intensity[0] == pytest.approx(3.0)

    def test_empty_spectrum_no_crash(self):
        spectrum = spectrum_with([], [])
        scaled = scale_and_normalize(spectrum)
        assert scaled.peak_count == 0


class TestFullPipeline:
    def test_spectrum_below_min_peaks_dropped(self):
        spectrum = spectrum_with([150.0, 300.0], [10.0, 10.0])
        assert preprocess_spectrum(
            spectrum, PreprocessingConfig(min_peaks=5)
        ) is None

    def test_good_spectrum_survives(self):
        mz = np.linspace(150, 900, 30)
        intensity = np.random.default_rng(0).random(30) + 0.5
        spectrum = spectrum_with(mz, intensity)
        processed = preprocess_spectrum(spectrum)
        assert processed is not None
        assert processed.peak_count <= 50
        assert np.linalg.norm(processed.intensity) == pytest.approx(1.0)

    def test_batch_drops_failures(self):
        good = spectrum_with(
            np.linspace(150, 900, 30), np.ones(30)
        )
        bad = spectrum_with([150.0], [1.0])
        kept, kept_offsets = preprocess_batch([good, bad, good])
        assert len(kept) == 2
        assert kept_offsets.tolist() == [0, 2]

    def test_survival_rate(self):
        good = spectrum_with(np.linspace(150, 900, 30), np.ones(30))
        bad = spectrum_with([150.0], [1.0])
        rate = preprocessing_survival_rate([good, bad])
        assert rate == pytest.approx(0.5)

    def test_survival_rate_empty_input(self):
        assert preprocessing_survival_rate([]) == 0.0
