"""A unified, lazily-parsed spectrum source over one or more files.

The streaming ingest dataflow (:mod:`repro.streaming`) needs three things
from its input that ``read_spectra`` alone does not give it: a *plan*
(which files, in which order, in which format) known before any parsing
starts, per-file iteration, and batch boundaries that are a pure function
of the plan.  :class:`SpectrumSource` is that plan: formats are
sniffed eagerly (cheap — suffix first, 4 KiB head otherwise), parsing
stays lazy, and batches never span files, so the sequential and streamed
ingest paths chop the input identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple, Union

from ..errors import ConfigurationError, ParseError
from ..spectrum import MassSpectrum, SpectrumBatch
from .detect import detect_format
from .mgf import read_mgf, read_mgf_batches
from .ms2 import read_ms2
from .mzml import read_mzml
from .mzxml import read_mzxml

#: Reader entry point per sniffed format name.
_READERS = {
    "mgf": read_mgf,
    "ms2": read_ms2,
    "mzml": read_mzml,
    "mzxml": read_mzxml,
}


@dataclass(frozen=True)
class SpectrumFile:
    """One input file of a source: resolved path plus sniffed format."""

    path: Path
    format: str

    def read(self) -> Iterator[MassSpectrum]:
        """Lazily parse the file's spectra."""
        reader = _READERS.get(self.format)
        if reader is None:  # pragma: no cover - detect_format guards this
            raise ParseError(
                f"unsupported format {self.format!r}", str(self.path)
            )
        return reader(str(self.path))

    def read_batches(self, batch_size: int) -> Iterator[SpectrumBatch]:
        """Parse the file into batches of at most ``batch_size`` spectra.

        MGF parses straight into columns (:func:`read_mgf_batches`); the
        other readers build rows, which :meth:`SpectrumBatch.from_spectra`
        turns into columns per batch.
        """
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.format == "mgf":
            yield from read_mgf_batches(str(self.path), batch_size)
            return
        rows: List[MassSpectrum] = []
        for spectrum in self.read():
            rows.append(spectrum)
            if len(rows) >= batch_size:
                yield SpectrumBatch.from_spectra(rows)
                rows = []
        if rows:
            yield SpectrumBatch.from_spectra(rows)


class SpectrumSource:
    """A multi-file spectrum stream with a fixed, pre-sniffed plan.

    Parameters
    ----------
    paths:
        Spectrum files in ingest order.  Each is format-sniffed up front
        (:func:`repro.io.detect_format`, ``.gz``-transparent), so an
        unreadable or unrecognised input fails *before* any work starts
        rather than mid-stream.
    """

    def __init__(self, paths: Union[str, Path, Sequence[Union[str, Path]]]):
        if isinstance(paths, (str, Path)):
            paths = [paths]
        self.files: List[SpectrumFile] = [
            SpectrumFile(path=Path(path), format=detect_format(path))
            for path in paths
        ]

    def __iter__(self) -> Iterator[MassSpectrum]:
        """All spectra of all files, in plan order."""
        for entry in self.files:
            yield from entry.read()

    def iter_batches(
        self, batch_size: int
    ) -> Iterator[Tuple[int, int, SpectrumBatch]]:
        """``(file_index, batch_index, spectra)`` batches in plan order.

        Batches never span files — the boundary rule both the sequential
        and the streamed ingest paths share, so their WAL records line up
        one-to-one.
        """
        for file_index, entry in enumerate(self.files):
            for batch_index, batch in enumerate(
                entry.read_batches(batch_size)
            ):
                yield file_index, batch_index, batch
