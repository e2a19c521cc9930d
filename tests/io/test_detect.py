"""Tests for format auto-detection and the unified reader."""

import numpy as np
import pytest

from repro.errors import ParseError
from repro.io import (
    detect_format,
    read_spectra,
    write_mgf,
    write_ms2,
    write_mzml,
)
from repro.spectrum import MassSpectrum


def sample():
    return [
        MassSpectrum(
            "s1", 500.25, 2, np.array([150.0, 300.0]), np.array([1.0, 2.0])
        )
    ]


class TestDetectByExtension:
    @pytest.mark.parametrize(
        "suffix,expected",
        [(".mgf", "mgf"), (".ms2", "ms2"), (".mzml", "mzml"), (".mzML", "mzml")],
    )
    def test_known_extensions(self, tmp_path, suffix, expected):
        path = tmp_path / f"file{suffix}"
        path.write_text("placeholder")
        assert detect_format(path) == expected


class TestMissingFile:
    @pytest.mark.parametrize(
        "name",
        ["gone.mgf", "gone.ms2", "gone.mzML", "gone.mzXML", "gone.mgf.gz",
         "gone.txt"],
    )
    def test_missing_file_is_a_parse_error_naming_the_path(
        self, tmp_path, name
    ):
        path = tmp_path / name
        with pytest.raises(ParseError, match="no such file") as error:
            detect_format(path)
        assert error.value.path == str(path)


class TestDetectByContent:
    def test_mgf_sniffed(self, tmp_path):
        path = tmp_path / "data.txt"
        write_mgf(sample(), path)
        assert detect_format(path) == "mgf"

    def test_ms2_sniffed(self, tmp_path):
        path = tmp_path / "data.dat"
        write_ms2(sample(), path)
        assert detect_format(path) == "ms2"

    def test_mzml_sniffed(self, tmp_path):
        path = tmp_path / "data.xml"
        write_mzml(sample(), path)
        assert detect_format(path) == "mzml"

    def test_unknown_rejected(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_text("no spectra here\n")
        with pytest.raises(ParseError, match="unrecognised"):
            detect_format(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            detect_format(tmp_path / "nope.xyz")


class TestUnifiedReader:
    @pytest.mark.parametrize("writer,suffix", [
        (write_mgf, ".mgf"), (write_ms2, ".ms2"), (write_mzml, ".mzml"),
    ])
    def test_read_spectra_all_formats(self, tmp_path, writer, suffix):
        path = tmp_path / f"data{suffix}"
        writer(sample(), path)
        recovered = list(read_spectra(path))
        assert len(recovered) == 1
        assert recovered[0].precursor_mz == pytest.approx(500.25)
