"""Format auto-detection and the unified ``read_spectra`` entry point."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Union

from ..errors import ParseError
from ..spectrum import MassSpectrum
from .compression import (
    DECOMPRESSION_ERRORS,
    open_spectrum_text,
    strip_compression_suffix,
)
from .mgf import read_mgf
from .ms2 import read_ms2
from .mzml import read_mzml
from .mzxml import read_mzxml

#: Extensions understood by :func:`detect_format`.
KNOWN_EXTENSIONS = {
    ".mgf": "mgf",
    ".ms2": "ms2",
    ".mzml": "mzml",
    ".mzxml": "mzxml",
}


def detect_format(path: Union[str, Path]) -> str:
    """Detect the spectrum file format from extension, falling back to content.

    Returns one of ``"mgf"``, ``"ms2"``, ``"mzml"`` or ``"mzxml"``.  A
    ``.gz`` suffix is transparent: the inner extension is consulted first
    (``run.mgf.gz`` → ``mgf``) and content sniffing reads through the
    decompressor.

    Raises
    ------
    ParseError
        If the file does not exist, or its format cannot be determined
        (including a corrupt or empty gzip container whose inner
        extension is unknown).
    """
    path = Path(path)
    if not path.exists():
        raise ParseError("cannot read file: no such file", str(path))
    inner, _compressed = strip_compression_suffix(path)
    extension = inner.suffix.lower()
    if extension in KNOWN_EXTENSIONS:
        return KNOWN_EXTENSIONS[extension]
    try:
        with open_spectrum_text(path, errors="replace") as handle:
            head = handle.read(4096)
    except DECOMPRESSION_ERRORS as exc:
        raise ParseError(f"cannot read file: {exc}", str(path)) from exc
    stripped = head.lstrip()
    if "<mzXML" in stripped:
        return "mzxml"
    if stripped.startswith("<?xml") or "<mzML" in stripped:
        return "mzml"
    if "BEGIN IONS" in head:
        return "mgf"
    for line in head.splitlines():
        if line.startswith(("S\t", "S ", "H\t", "H ")):
            return "ms2"
    raise ParseError("unrecognised spectrum file format", str(path))


def read_spectra(path: Union[str, Path]) -> Iterator[MassSpectrum]:
    """Read spectra from a file of any supported format."""
    format_name = detect_format(path)
    if format_name == "mgf":
        yield from read_mgf(path)
    elif format_name == "ms2":
        yield from read_ms2(path)
    elif format_name == "mzml":
        yield from read_mzml(str(path))
    elif format_name == "mzxml":
        yield from read_mzxml(str(path))
    else:  # pragma: no cover - detect_format only returns the four above
        raise ParseError(f"unsupported format {format_name!r}", str(path))
