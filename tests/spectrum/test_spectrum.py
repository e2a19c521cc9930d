"""Tests for the MassSpectrum data structure."""

import numpy as np
import pytest

from repro.errors import SpectrumError
from repro.spectrum import MassSpectrum
from repro.units import PROTON_MASS


def make(mz, intensity, charge=2, precursor=500.0):
    return MassSpectrum("s", precursor, charge, np.array(mz), np.array(intensity))


class TestConstruction:
    def test_basic_properties(self, simple_spectrum):
        assert simple_spectrum.peak_count == 5
        assert simple_spectrum.base_peak_intensity == 100.0
        assert simple_spectrum.total_ion_current == pytest.approx(190.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SpectrumError, match="lengths differ"):
            make([1.0, 2.0], [1.0])

    def test_non_positive_precursor_rejected(self):
        with pytest.raises(SpectrumError, match="positive"):
            make([100.0], [1.0], precursor=0.0)

    def test_zero_charge_rejected(self):
        with pytest.raises(SpectrumError, match="charge"):
            make([100.0], [1.0], charge=0)

    def test_2d_arrays_rejected(self):
        with pytest.raises(SpectrumError, match="1-D"):
            MassSpectrum(
                "s", 500.0, 2, np.ones((2, 2)), np.ones((2, 2))
            )

    def test_unsorted_peaks_are_sorted(self):
        spectrum = make([300.0, 100.0, 200.0], [3.0, 1.0, 2.0])
        assert list(spectrum.mz) == [100.0, 200.0, 300.0]
        assert list(spectrum.intensity) == [1.0, 2.0, 3.0]

    def test_empty_spectrum_allowed(self):
        spectrum = make([], [])
        assert spectrum.peak_count == 0
        assert spectrum.base_peak_intensity == 0.0


class TestDerivedQuantities:
    def test_neutral_mass(self):
        spectrum = make([100.0], [1.0], charge=2, precursor=500.0)
        expected = 500.0 * 2 - 2 * PROTON_MASS
        assert spectrum.neutral_mass == pytest.approx(expected)

    def test_peaks_iterator_order(self, simple_spectrum):
        peaks = list(simple_spectrum.peaks())
        assert peaks[0] == (150.0, 10.0)
        assert len(peaks) == 5

    def test_len_matches_peak_count(self, simple_spectrum):
        assert len(simple_spectrum) == simple_spectrum.peak_count


class TestCopyAndTransform:
    def test_copy_is_deep(self, simple_spectrum):
        duplicate = simple_spectrum.copy()
        duplicate.mz[0] = 999.0
        duplicate.metadata["x"] = "y"
        assert simple_spectrum.mz[0] == 150.0
        assert "x" not in simple_spectrum.metadata

    def test_with_peaks_replaces_arrays(self, simple_spectrum):
        replaced = simple_spectrum.with_peaks(
            np.array([111.0]), np.array([1.0])
        )
        assert replaced.peak_count == 1
        assert replaced.precursor_mz == simple_spectrum.precursor_mz

    def test_restrict_mz_range(self, simple_spectrum):
        windowed = simple_spectrum.restrict_mz_range(200.0, 500.0)
        assert windowed.peak_count == 3
        assert windowed.mz.min() >= 200.0
        assert windowed.mz.max() <= 500.0

    def test_restrict_invalid_window(self, simple_spectrum):
        with pytest.raises(SpectrumError):
            simple_spectrum.restrict_mz_range(500.0, 200.0)

    def test_estimated_raw_bytes_scales_with_peaks(self):
        small = make([100.0], [1.0])
        large = make(list(np.linspace(100, 900, 100)), [1.0] * 100)
        assert large.estimated_raw_bytes() > small.estimated_raw_bytes()
        assert large.estimated_raw_bytes() == 64 + 16 * 100


class TestSpectrumBatch:
    def batch(self):
        from repro.spectrum import SpectrumBatch

        return SpectrumBatch(
            [2, 0, 3],
            np.array([200.0, 100.0, 300.0, 310.0, 320.0]),
            np.array([2.0, 1.0, 3.0, 4.0, 5.0]),
            [500.0, 600.0, 700.0],
            [2, 3, 1],
            ["a", "b", "c"],
            [1.5, None, 2.5],
            [{"k": "v"}, {}, {}],
        )

    def test_unsorted_row_is_sorted_on_a_copy(self):
        mz = np.array([200.0, 100.0, 300.0])
        from repro.spectrum import SpectrumBatch

        batch = SpectrumBatch([2, 1], mz, np.array([2.0, 1.0, 3.0]),
                              [500.0, 500.0], [2, 2], ["a", "b"])
        assert batch.mz.tolist() == [100.0, 200.0, 300.0]
        assert batch.intensity.tolist() == [1.0, 2.0, 3.0]
        assert mz.tolist() == [200.0, 100.0, 300.0]

    def test_rows_match_mass_spectrum(self):
        batch = self.batch()
        assert len(batch) == 3
        first = batch[0]
        assert isinstance(first, MassSpectrum)
        assert first.mz.tolist() == [100.0, 200.0]
        assert first.metadata == {"k": "v"}
        assert batch[1].peak_count == 0
        assert batch[-1].identifier == "c"
        assert [s.identifier for s in batch] == ["a", "b", "c"]
        with pytest.raises(IndexError):
            batch[3]

    def test_slices_and_take_are_batches(self):
        batch = self.batch()
        tail = batch[1:]
        assert tail.counts.tolist() == [0, 3]
        assert tail.mz.tolist() == [300.0, 310.0, 320.0]
        picked = batch.take(np.array([2, 0]))
        assert picked.identifiers == ["c", "a"]
        assert picked.mz.tolist() == [300.0, 310.0, 320.0, 100.0, 200.0]

    def test_from_spectra_round_trip(self):
        from repro.spectrum import SpectrumBatch

        batch = self.batch()
        again = SpectrumBatch.from_spectra(list(batch))
        assert again == batch
        assert SpectrumBatch.from_spectra(batch) is batch
        assert len(SpectrumBatch.from_spectra([])) == 0

    @pytest.mark.parametrize(
        "charge, precursor, message",
        [
            ([2, 0], [500.0, 500.0], "'b': precursor charge must be >= 1"),
            ([2, 2], [500.0, -1.0], "'b': precursor m/z must be positive"),
            ([0, 2], [500.0, -1.0], "'a': precursor charge must be >= 1"),
        ],
    )
    def test_first_bad_row_named_like_mass_spectrum(
        self, charge, precursor, message
    ):
        from repro.spectrum import SpectrumBatch

        with pytest.raises(SpectrumError, match=message):
            SpectrumBatch([1, 1], np.ones(2), np.ones(2), precursor, charge,
                          ["a", "b"])

    def test_peak_columns_must_match_counts(self):
        from repro.spectrum import SpectrumBatch

        with pytest.raises(SpectrumError, match="for 3 peaks"):
            SpectrumBatch([1, 2], np.ones(2), np.ones(2), [500.0] * 2,
                          [2, 2], ["a", "b"])
