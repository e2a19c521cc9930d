"""Tests for the 16-bit fixed-point distance model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fpga.fixedpoint import (
    DISTANCE_FORMAT,
    FixedPointFormat,
    dendrogram_height_error,
    dequantize,
    fixed_point_lance_williams,
    quantization_error,
    quantize,
    roundtrip,
)


class TestFormat:
    def test_paper_format_is_16_bits(self):
        assert DISTANCE_FORMAT.total_bits == 16
        assert DISTANCE_FORMAT.max_value > 2048  # fits D_hv Hamming counts

    def test_resolution(self):
        fmt = FixedPointFormat(integer_bits=12, fraction_bits=4)
        assert fmt.resolution == pytest.approx(1 / 16)

    def test_invalid_formats(self):
        with pytest.raises(ConfigurationError):
            FixedPointFormat(integer_bits=0)
        with pytest.raises(ConfigurationError):
            FixedPointFormat(integer_bits=60, fraction_bits=16)


class TestQuantize:
    def test_integers_lossless(self):
        values = np.arange(0, 2049, dtype=np.float64)
        np.testing.assert_allclose(roundtrip(values), values)

    def test_rounding_error_bounded_by_half_lsb(self, rng):
        values = rng.uniform(0, 2048, 500)
        assert quantization_error(values) <= DISTANCE_FORMAT.resolution / 2 + 1e-12

    def test_saturation(self):
        huge = np.array([1e9])
        assert roundtrip(huge)[0] == pytest.approx(DISTANCE_FORMAT.max_value)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            quantize(np.array([-1.0]))

    def test_dequantize_inverse_on_codes(self):
        codes = np.array([0, 1, 16, 65535], dtype=np.uint64)
        np.testing.assert_allclose(
            quantize(dequantize(codes)), codes
        )


class TestLanceWilliamsThroughFixedPoint:
    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_close_to_float_reference(self, linkage, rng):
        from repro.cluster.linkage import update_distance_rows

        d_ik = rng.uniform(0, 2048, 32)
        d_jk = rng.uniform(0, 2048, 32)
        sizes_k = rng.integers(1, 8, 32)
        exact = update_distance_rows(
            linkage, d_ik, d_jk, 100.0, 2, 3, sizes_k
        )
        stored = fixed_point_lance_williams(
            linkage, d_ik, d_jk, 100.0, 2, 3, sizes_k
        )
        if linkage == "ward":
            # Ward mixes three terms: 2 LSB of headroom.
            tolerance = 3 * DISTANCE_FORMAT.resolution
        else:
            tolerance = 1.5 * DISTANCE_FORMAT.resolution
        assert np.abs(stored - exact).max() <= tolerance


class TestEndToEndAccuracy:
    def test_dendrogram_heights_within_lsb_scale(self, rng):
        """The paper's claim: 16-bit storage 'maintains computational
        accuracy'.  On Hamming-scale distances the max height error stays
        within a few LSBs even after n-1 merge generations."""
        points = rng.normal(size=(40, 6)) * 100
        deltas = points[:, None, :] - points[None, :, :]
        distances = np.sqrt((deltas ** 2).sum(axis=-1))
        for linkage in ("single", "complete", "average"):
            error = dendrogram_height_error(distances, linkage)
            assert error <= 8 * DISTANCE_FORMAT.resolution, linkage

    def test_integer_hamming_distances_exact(self, rng):
        """Raw Hamming counts are integers: zero dendrogram error."""
        from repro.hdc import pairwise_hamming_blocked, random_hypervectors

        vectors = random_hypervectors(30, 2048, rng)
        distances = pairwise_hamming_blocked(vectors).astype(np.float64)
        assert dendrogram_height_error(distances, "single") == 0.0
        # Complete linkage keeps integer heights too (min/max of integers).
        assert dendrogram_height_error(distances, "complete") == 0.0
