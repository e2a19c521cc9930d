"""Tests for the MGF reader/writer."""

import io

import numpy as np
import pytest

from repro.errors import ParseError, SpectrumError
from repro.io import mgf_to_string, read_mgf, write_mgf
from repro.spectrum import MassSpectrum

SAMPLE = """\
# a comment
COM=global header
BEGIN IONS
TITLE=spec one
PEPMASS=500.25 12345.0
CHARGE=2+
RTINSECONDS=120.5
SCANS=17
150.1 10.0
300.2 20.0
END IONS

BEGIN IONS
TITLE=spec two
PEPMASS=623.5
CHARGE=3+
450.0\t5.5
END IONS
"""


class TestRead:
    def test_reads_two_spectra(self):
        spectra = list(read_mgf(io.StringIO(SAMPLE)))
        assert len(spectra) == 2
        assert spectra[0].identifier == "spec one"
        assert spectra[0].precursor_mz == pytest.approx(500.25)
        assert spectra[0].precursor_charge == 2
        assert spectra[0].retention_time == pytest.approx(120.5)
        assert spectra[0].peak_count == 2
        assert spectra[0].metadata["scans"] == "17"

    def test_tab_separated_peaks(self):
        spectra = list(read_mgf(io.StringIO(SAMPLE)))
        assert spectra[1].mz[0] == pytest.approx(450.0)

    def test_charge_variants(self):
        for raw, expected in [("2+", 2), ("+3", 3), ("4", 4), ("2+ and 3+", 2)]:
            text = (
                f"BEGIN IONS\nTITLE=t\nPEPMASS=500\nCHARGE={raw}\n"
                "150 1\n200 1\nEND IONS\n"
            )
            spectrum = next(read_mgf(io.StringIO(text)))
            assert spectrum.precursor_charge == expected

    def test_missing_charge_defaults_to_two(self):
        text = "BEGIN IONS\nPEPMASS=500\n150 1\nEND IONS\n"
        spectrum = next(read_mgf(io.StringIO(text)))
        assert spectrum.precursor_charge == 2

    def test_missing_pepmass_rejected(self):
        text = "BEGIN IONS\nTITLE=t\n150 1\nEND IONS\n"
        with pytest.raises(ParseError, match="PEPMASS"):
            list(read_mgf(io.StringIO(text)))

    def test_unterminated_block_rejected(self):
        text = "BEGIN IONS\nPEPMASS=500\n150 1\n"
        with pytest.raises(ParseError, match="unterminated"):
            list(read_mgf(io.StringIO(text)))

    def test_nested_begin_rejected(self):
        text = "BEGIN IONS\nPEPMASS=500\nBEGIN IONS\n"
        with pytest.raises(ParseError, match="nested"):
            list(read_mgf(io.StringIO(text)))

    def test_bad_peak_line_rejected(self):
        text = "BEGIN IONS\nPEPMASS=500\nxyz abc\nEND IONS\n"
        with pytest.raises(ParseError, match="non-numeric"):
            list(read_mgf(io.StringIO(text)))

    def test_end_without_begin_rejected(self):
        with pytest.raises(ParseError, match="without BEGIN"):
            list(read_mgf(io.StringIO("END IONS\n")))


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        original = [
            MassSpectrum(
                "alpha", 512.25, 2,
                np.array([150.5, 300.25]), np.array([1.5, 2.5]),
                retention_time=60.0, metadata={"scans": "5"},
            ),
            MassSpectrum(
                "beta", 700.1, 3,
                np.array([210.0]), np.array([9.0]),
            ),
        ]
        path = tmp_path / "out.mgf"
        assert write_mgf(original, path) == 2
        recovered = list(read_mgf(path))
        assert len(recovered) == 2
        for before, after in zip(original, recovered):
            assert after.identifier == before.identifier
            assert after.precursor_mz == pytest.approx(before.precursor_mz)
            assert after.precursor_charge == before.precursor_charge
            np.testing.assert_allclose(after.mz, before.mz, rtol=1e-6)
            np.testing.assert_allclose(
                after.intensity, before.intensity, rtol=1e-5
            )

    def test_mgf_to_string_contains_blocks(self):
        spectrum = MassSpectrum(
            "x", 500.0, 2, np.array([150.0]), np.array([1.0])
        )
        text = mgf_to_string([spectrum])
        assert text.count("BEGIN IONS") == 1
        assert "PEPMASS=500.000000" in text


#: Two well-formed blocks (lines 1-12) ahead of every malformed case,
#: so the line numbers below count through a batch boundary.
VALID = "BEGIN IONS\nTITLE=a\nPEPMASS=500\n150 1\n160 2\nEND IONS\n" * 2

#: ``(case, text after VALID, exact ParseError message)``.
MALFORMED = [
    (
        "missing-pepmass",
        "BEGIN IONS\nTITLE=t\n150 1\nEND IONS\n",
        "block missing PEPMASS (<stream>:16)",
    ),
    (
        "unterminated",
        "BEGIN IONS\nPEPMASS=500\n150 1\n",
        "unterminated BEGIN IONS block (<stream>:0)",
    ),
    (
        "nested",
        "BEGIN IONS\nPEPMASS=500\nBEGIN IONS\n",
        "nested BEGIN IONS (<stream>:15)",
    ),
    (
        "non-numeric",
        "BEGIN IONS\nPEPMASS=500\nxyz abc\nEND IONS\n",
        "non-numeric peak line 'xyz abc' (<stream>:15)",
    ),
    (
        "one-field",
        "BEGIN IONS\nPEPMASS=500\n150\nEND IONS\n",
        "malformed peak line '150' (<stream>:15)",
    ),
    (
        "one-field-after-three",
        "BEGIN IONS\nPEPMASS=500\n160 2 3\n150\nEND IONS\n",
        "malformed peak line '150' (<stream>:16)",
    ),
    (
        "end-without-begin",
        "END IONS\n",
        "END IONS without BEGIN IONS (<stream>:13)",
    ),
    (
        "outside-block",
        "junk\n",
        "unexpected content outside block: 'junk' (<stream>:13)",
    ),
    (
        "pepmass",
        "BEGIN IONS\nPEPMASS=abc\n150 1\nEND IONS\n",
        "unparseable PEPMASS 'abc' (<stream>:16)",
    ),
    (
        "charge",
        "BEGIN IONS\nPEPMASS=500\nCHARGE=x+\n150 1\nEND IONS\n",
        "unparseable charge 'x+' (<stream>:17)",
    ),
    (
        "rtinseconds",
        "BEGIN IONS\nPEPMASS=500\nRTINSECONDS=abc\n150 1\nEND IONS\n",
        "unparseable RTINSECONDS 'abc' (<stream>:17)",
    ),
]


def _rows(spectra):
    return [
        (
            s.identifier,
            s.precursor_mz,
            s.precursor_charge,
            s.retention_time,
            s.metadata,
            s.mz.tobytes(),
            s.intensity.tobytes(),
        )
        for s in spectra
    ]


class TestBatchParser:
    """``read_mgf_batches`` against the line-by-line loop it falls back on."""

    @pytest.mark.parametrize("batch_size", [1, 3, 1024])
    def test_write_then_read_batches_equals_line_parser(
        self, tmp_path, batch_size
    ):
        from repro.datasets import SyntheticConfig, generate_dataset
        from repro.io import SpectrumFile
        from repro.io.mgf import _parse_lines

        spectra = generate_dataset(
            SyntheticConfig(num_peptides=6, replicates_per_peptide=3, seed=5)
        ).spectra
        spectra[1] = MassSpectrum(  # no RT, no metadata, no peaks
            "bare", 433.5, 3, np.array([]), np.array([])
        )
        path = tmp_path / "round.mgf"
        write_mgf(spectra, path)
        batches = list(
            SpectrumFile(path, "mgf").read_batches(batch_size)
        )
        assert [len(b) for b in batches[:-1]] == [batch_size] * (
            len(batches) - 1
        )
        reference = list(
            _parse_lines(path.read_text().split("\n"), str(path), 1, 0)
        )
        assert _rows(row for batch in batches for row in batch) == _rows(
            reference
        )

    @pytest.mark.parametrize(
        "text",
        [
            SAMPLE,
            "BEGIN IONS\nPEPMASS=500\n150 1 3+\n160 2 1+\nEND IONS\n",
            "BEGIN IONS\nPEPMASS=500\n150 1\n\n# note\n160 2\nEND IONS\n",
            "BEGIN IONS\nPEPMASS=500\n150 1\nCHARGE=3+\n160 2\nEND IONS\n",
            "BEGIN IONS\r\nPEPMASS=500\r\n300 1\r\n150 2\r\nEND IONS\r\n",
            "BEGIN IONS\nTITLE=x END IONS y\nPEPMASS=5\n150 1\nEND IONS\n",
            "BEGIN IONS\nPEPMASS=500\n150 1 3+\n160 2\nEND IONS\n",
            "BEGIN IONS\nPEPMASS=500\n150 1 ; 2\n160 2 ; 7\nEND IONS\n",
            "BEGIN IONS\nPEPMASS=500\n150 1 ;\n160 2\n170 3 4\nEND IONS\n",
        ],
        ids=["sample", "extra-fields", "blank-and-comment",
             "header-after-peaks", "crlf-unsorted", "title-with-marker",
             "mixed-fields", "semicolon-field", "semicolon-shift"],
    )
    def test_quirks_parse_like_line_parser(self, text):
        from repro.io.mgf import _parse_lines, read_mgf_batches

        for batch_size in (1, 2):
            rows = [
                row
                for batch in read_mgf_batches(
                    io.StringIO(text * 3), batch_size
                )
                for row in batch
            ]
            reference = _parse_lines(
                (text * 3).split("\n"), "<stream>", 1, 0
            )
            assert _rows(rows) == _rows(reference)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "BEGIN IONS\nPEPMASS=500\nCHARGE=0\n150 1\nEND IONS\n"
                "BEGIN IONS\nPEPMASS=500\n150\nEND IONS\n",
                "spectrum 'spectrum_0': precursor charge must be >= 1, got 0",
            ),
            (
                "BEGIN IONS\nPEPMASS=-5\n150 1\nEND IONS\n"
                "BEGIN IONS\nPEPMASS=500\n150 1\n",
                "spectrum 'spectrum_0': precursor m/z must be positive",
            ),
            (
                "BEGIN IONS\nPEPMASS=500\n150 1 2\n160 1\nEND IONS\n"
                "BEGIN IONS\nPEPMASS=0\n150 1\nEND IONS\n",
                "spectrum 'spectrum_1': precursor m/z must be positive",
            ),
        ],
        ids=["charge-before-parse-error", "mz-before-unterminated",
             "line-loop-batch"],
    )
    def test_invalid_block_is_reported_before_later_parse_error(
        self, text, message
    ):
        with pytest.raises(SpectrumError) as caught:
            list(read_mgf(io.StringIO(text)))
        assert str(caught.value) == message

    def test_uniform_extra_fields_take_the_column_path(self):
        from repro.io.mgf import _batch_texts, _parse_fast

        text = "BEGIN IONS\nPEPMASS=500\n150 1 3+\n160 2 1+\nEND IONS\n"
        (chunk, ends), = _batch_texts(io.StringIO(text * 3), "<stream>", 3)
        batch = _parse_fast(chunk, ends, 0, "<stream>")
        assert batch is not None
        assert batch.mz.tolist() == [150.0, 160.0] * 3
        assert batch.intensity.tolist() == [1.0, 2.0] * 3

    @pytest.mark.parametrize(
        "text, message",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    @pytest.mark.parametrize("batch_size", [1, 2, 1024])
    def test_malformed_input_keeps_message_and_line(
        self, text, message, batch_size
    ):
        from repro.io.mgf import read_mgf_batches

        with pytest.raises(ParseError) as batched:
            list(read_mgf_batches(io.StringIO(VALID + text), batch_size))
        assert str(batched.value) == message
        with pytest.raises(ParseError) as rows:
            list(read_mgf(io.StringIO(VALID + text)))
        assert str(rows.value) == message
