"""Mascot Generic Format (MGF) reader and writer.

MGF is the simplest of the MS text formats: each spectrum is a
``BEGIN IONS`` / ``END IONS`` block with ``KEY=VALUE`` headers followed by
whitespace-separated ``mz intensity`` peak lines.  This implementation is
self-contained (no pyteomics) and tolerant of the common real-world quirks:
charge suffixes (``2+``), multiple values in ``PEPMASS``, blank lines, and
``#`` comments.

:func:`read_mgf_batches` parses straight into
:class:`~repro.spectrum.SpectrumBatch` columns and streams: it holds at
most one batch of text, cut after the ``END IONS`` line of the batch's
last block.  Headers are parsed per block; the peak lines go through
``np.array(text.split(), float64)`` a few blocks at a time, never one
float at a time; peak lines may carry extra fields (a fragment charge,
say) as long as every line of the group has as many.  A batch that this
fast path does not cover — comments or blank lines among the peaks,
headers after peaks, peak lines with fewer than two fields or with
differing field counts, or any error — is parsed again by
:func:`_parse_lines`, the line-by-line loop, so such quirks are accepted
and every error is reported (message and line number) as that loop
reports it.  :func:`read_mgf` yields the rows of these batches, so there
is one parser.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError, ParseError
from ..spectrum import MassSpectrum, SpectrumBatch
from .compression import DECOMPRESSION_ERRORS, open_spectrum_text

PathOrFile = Union[str, Path, IO[str]]

#: Spectra per batch when :func:`read_mgf` iterates rows.
READ_BATCH_SIZE = 1024

#: Characters read per call while a batch's blocks are gathered.
_READ_CHARS = 1 << 20

#: Blocks whose peak lines are split and converted together; bounds the
#: transient token list (a few MiB) whatever the batch size.
_TOKEN_BLOCKS = 16

#: Header keys that become columns; the rest go into ``metadata``.
_COLUMN_KEYS = ("TITLE", "PEPMASS", "CHARGE", "RTINSECONDS")

_BlockFields = Tuple[str, float, int, Optional[float], dict]


def _parse_charge(raw: str) -> int:
    """Parse an MGF CHARGE value such as ``2+``, ``+2``, ``2`` or ``2+ and 3+``."""
    token = raw.strip().split()[0].split(",")[0]
    token = token.strip()
    negative = token.endswith("-") or token.startswith("-")
    token = token.strip("+-")
    if not token.isdigit():
        raise ValueError(f"unparseable charge {raw!r}")
    value = int(token)
    return -value if negative else value


def _open_maybe(path_or_file: PathOrFile, mode: str) -> tuple[IO[str], bool]:
    """Return ``(file_object, should_close)`` for a path or open file.

    A ``.gz`` suffix transparently reads (or writes) through gzip via
    the shared :mod:`repro.io.compression` choke point.
    """
    if isinstance(path_or_file, (str, Path)):
        return open_spectrum_text(path_or_file, mode), True
    return path_or_file, False


def read_mgf(path_or_file: PathOrFile) -> Iterator[MassSpectrum]:
    """Iterate over the spectra in an MGF file.

    Yields the rows of :func:`read_mgf_batches`' batches as
    :class:`~repro.spectrum.MassSpectrum` objects; header keys other
    than TITLE/PEPMASS/CHARGE/RTINSECONDS are preserved in ``metadata``.

    Raises
    ------
    ParseError
        On malformed blocks (peak line outside a block, missing PEPMASS,
        unterminated block, unparseable numbers).
    """
    for batch in read_mgf_batches(path_or_file, READ_BATCH_SIZE):
        yield from batch


def read_mgf_batches(
    path_or_file: PathOrFile, batch_size: int = READ_BATCH_SIZE
) -> Iterator[SpectrumBatch]:
    """Parse an MGF file into batches of at most ``batch_size`` spectra."""
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    handle, should_close = _open_maybe(path_or_file, "r")
    path_name = getattr(handle, "name", "<stream>")
    try:
        first_line = 1
        ordinal = 0
        for text, ends in _batch_texts(handle, path_name, batch_size):
            batch = _parse_fast(text, ends, ordinal, path_name)
            if batch is None:
                batch = _parse_lines(
                    text.split("\n"), path_name, first_line, ordinal
                )
            first_line += text.count("\n")
            ordinal += len(batch)
            if len(batch):
                yield batch
    finally:
        if should_close:
            handle.close()


def _batch_texts(
    handle: IO[str], path_name: str, batch_size: int
) -> Iterator[Tuple[str, List[int]]]:
    """``(text, ends)``: the file cut after every ``batch_size``-th block.

    ``ends`` holds the offset in ``text`` of each ``END IONS`` line (one
    whose stripped text is exactly that).  The last text is what follows
    the last full batch; it may hold fewer blocks, or an unterminated one.
    """
    buffer = ""
    ends: List[int] = []
    scan = 0
    exhausted = False
    while True:
        found = buffer.find("END IONS", scan)
        if found < 0 or (buffer.find("\n", found) < 0 and not exhausted):
            if exhausted:
                break
            try:
                chunk = handle.read(_READ_CHARS)
            except DECOMPRESSION_ERRORS as exc:
                raise ParseError(
                    f"cannot read input stream: {exc}", path_name
                ) from exc
            exhausted = not chunk
            if found < 0:
                # A marker split across two reads starts in the last 7.
                scan = max(scan, len(buffer) - 7)
            buffer += chunk
            continue
        line_start = buffer.rfind("\n", 0, found) + 1
        line_end = buffer.find("\n", found)
        if line_end < 0:
            line_end = len(buffer)
        scan = found + 8
        if buffer[line_start:line_end].strip() != "END IONS":
            continue
        ends.append(line_start)
        if len(ends) == batch_size:
            cut = line_end + 1
            yield buffer[:cut], ends
            buffer, ends, scan = buffer[cut:], [], 0
    if buffer:
        yield buffer, ends


def _outside_blocks(text: str) -> bool:
    """Whether ``text`` holds only what may sit between blocks: blank
    lines, ``#`` comments and global ``KEY=VALUE`` headers."""
    if not text.strip():
        return True
    for line in text.split("\n"):
        line = line.strip()
        if line and not line.startswith("#") and "=" not in line:
            return False
    return True


def _parse_fast(
    text: str, ends: List[int], ordinal: int, path_name: str
) -> Optional[SpectrumBatch]:
    """The batch of ``text``'s blocks, or ``None`` if the fast path does
    not cover it (then :func:`_parse_lines` decides)."""
    # (header start, peak-line start, END IONS line start) per block.
    spans: List[Tuple[int, int, int]] = []
    start = 0
    for end in ends:
        begin = text.find("BEGIN IONS", start, end)
        if begin < 0:
            return None
        begin_line = text.rfind("\n", start, begin) + 1 or start
        body = text.find("\n", begin, end) + 1
        if not body or text[begin_line:body].strip() != "BEGIN IONS":
            return None
        if not _outside_blocks(text[start:begin_line]):
            return None
        # Headers run up to the line of the block's last '='; every
        # line from there to END IONS must be a peak line.
        last_equals = text.rfind("=", body, end)
        peaks = body if last_equals < 0 else text.find("\n", last_equals) + 1
        if text.find("#", peaks, end) >= 0:
            return None
        spans.append((body, peaks, end))
        start = text.find("\n", end) + 1 or len(text)
    if not _outside_blocks(text[start:]):
        return None
    # Peak columns first: the token lists are freed before any per-row
    # object is kept, so their memory is reused rather than retained.
    counts = [text.count("\n", peaks, end) for _, peaks, end in spans]
    columns = []
    for first in range(0, len(spans), _TOKEN_BLOCKS):
        group = spans[first : first + _TOKEN_BLOCKS]
        lines = sum(counts[first : first + _TOKEN_BLOCKS])
        # Each line's fields plus a ';' marker.  When every line has the
        # same number of fields (m/z, intensity and any extras such as a
        # fragment charge), and no field is a ';', the markers sit in
        # every ``width``-th slot and nowhere else.
        tokens = (
            "".join([text[peaks:end] for _, peaks, end in group])
            .replace("\n", " ; ")
            .split()
        )
        width = len(tokens) // lines if lines else 3
        if (
            width < 3
            or len(tokens) != width * lines
            or tokens[width - 1 :: width].count(";") != lines
            or tokens.count(";") != lines
        ):
            return None
        try:
            columns.append(
                (
                    np.array(tokens[0::width], dtype=np.float64),
                    np.array(tokens[1::width], dtype=np.float64),
                )
            )
        except ValueError:
            return None
    rows: List[_BlockFields] = []
    for body, peaks, _ in spans:
        headers: dict[str, str] = {}
        for line in text[body:peaks].split("\n"):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line or line[0].isdigit():
                return None
            key, _, value = line.partition("=")
            headers[key.strip().upper()] = value.strip()
        try:
            rows.append(
                _block_fields(headers, ordinal + len(rows), path_name, 0)
            )
        except (ParseError, IndexError):
            return None
    mz_parts, intensity_parts = zip(*columns) if columns else ((), ())
    return _batch(
        counts,
        np.concatenate((np.empty(0),) + mz_parts),
        np.concatenate((np.empty(0),) + intensity_parts),
        rows,
    )


def _batch(counts, mz, intensity, rows: List[_BlockFields]) -> SpectrumBatch:
    """The checked batch of peak columns and per-block header fields."""
    identifiers, precursor_mz, charge, retention_time, metadata = (
        zip(*rows) if rows else ((),) * 5
    )
    return SpectrumBatch(
        counts,
        mz,
        intensity,
        precursor_mz,
        charge,
        identifiers,
        retention_time,
        metadata,
    )


def _parse_lines(
    lines: Iterable[str], path_name: str, first_line: int, ordinal: int
) -> SpectrumBatch:
    """The batch of MGF text parsed line by line, ``first_line`` numbering
    the first of ``lines``; the reference for every message and line
    number :class:`ParseError` carries.

    The rows are checked as one batch once the text is parsed.  Before a
    :class:`ParseError` is raised, the blocks completed ahead of it are
    checked, so an invalid earlier block is reported first, as it was
    when every block became a :class:`MassSpectrum` at its ``END IONS``.
    """
    in_block = False
    headers: dict[str, str] = {}
    counts: List[int] = []
    mz_values: List[float] = []
    intensity_values: List[float] = []
    rows: List[_BlockFields] = []
    block_start = 0
    try:
        for line_number, raw_line in enumerate(lines, start=first_line):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if line == "BEGIN IONS":
                if in_block:
                    raise ParseError(
                        "nested BEGIN IONS", path_name, line_number
                    )
                in_block = True
                headers = {}
                block_start = len(mz_values)
                continue
            if line == "END IONS":
                if not in_block:
                    raise ParseError(
                        "END IONS without BEGIN IONS", path_name, line_number
                    )
                rows.append(
                    _block_fields(
                        headers, ordinal + len(rows), path_name, line_number
                    )
                )
                counts.append(len(mz_values) - block_start)
                in_block = False
                continue
            if not in_block:
                # Permit global headers (e.g. COM=, ITOL=) outside blocks.
                if "=" in line:
                    continue
                raise ParseError(
                    f"unexpected content outside block: {line!r}",
                    path_name,
                    line_number,
                )
            if "=" in line and not line[0].isdigit():
                key, _, value = line.partition("=")
                headers[key.strip().upper()] = value.strip()
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ParseError(
                    f"malformed peak line {line!r}", path_name, line_number
                )
            try:
                mz_value, intensity_value = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ParseError(
                    f"non-numeric peak line {line!r}", path_name, line_number
                ) from exc
            mz_values.append(mz_value)
            intensity_values.append(intensity_value)
        if in_block:
            raise ParseError("unterminated BEGIN IONS block", path_name, 0)
    except ParseError:
        done = sum(counts)
        _batch(counts, mz_values[:done], intensity_values[:done], rows)
        raise
    return _batch(counts, mz_values, intensity_values, rows)


def _block_fields(
    headers: dict[str, str], ordinal: int, path_name: str, line_number: int
) -> _BlockFields:
    """``(identifier, precursor m/z, charge, RT, metadata)`` of a block."""
    if "PEPMASS" not in headers:
        raise ParseError("block missing PEPMASS", path_name, line_number)
    try:
        precursor_mz = float(headers["PEPMASS"].split()[0])
    except ValueError as exc:
        raise ParseError(
            f"unparseable PEPMASS {headers['PEPMASS']!r}",
            path_name,
            line_number,
        ) from exc
    charge = 2
    if "CHARGE" in headers:
        try:
            charge = _parse_charge(headers["CHARGE"])
        except ValueError as exc:
            raise ParseError(str(exc), path_name, line_number) from exc
    retention_time = None
    if "RTINSECONDS" in headers:
        try:
            retention_time = float(headers["RTINSECONDS"])
        except ValueError as exc:
            raise ParseError(
                f"unparseable RTINSECONDS {headers['RTINSECONDS']!r}",
                path_name,
                line_number,
            ) from exc
    identifier = headers.get("TITLE", f"spectrum_{ordinal}")
    metadata = {
        key.lower(): value
        for key, value in headers.items()
        if key not in _COLUMN_KEYS
    }
    return identifier, precursor_mz, abs(charge), retention_time, metadata


def write_mgf(
    spectra: Iterable[MassSpectrum], path_or_file: PathOrFile
) -> int:
    """Write spectra to an MGF file; returns the number written."""
    handle, should_close = _open_maybe(path_or_file, "w")
    count = 0
    try:
        for spectrum in spectra:
            handle.write("BEGIN IONS\n")
            handle.write(f"TITLE={spectrum.identifier}\n")
            handle.write(f"PEPMASS={spectrum.precursor_mz:.6f}\n")
            handle.write(f"CHARGE={spectrum.precursor_charge}+\n")
            if spectrum.retention_time is not None:
                handle.write(f"RTINSECONDS={spectrum.retention_time:.3f}\n")
            for key, value in sorted(spectrum.metadata.items()):
                handle.write(f"{key.upper()}={value}\n")
            for mz_value, intensity_value in spectrum.peaks():
                handle.write(f"{mz_value:.5f} {intensity_value:.6g}\n")
            handle.write("END IONS\n")
            count += 1
    finally:
        if should_close:
            handle.close()
    return count


def mgf_to_string(spectra: Iterable[MassSpectrum]) -> str:
    """Serialise spectra to an MGF string (round-trip convenience)."""
    buffer = io.StringIO()
    write_mgf(spectra, buffer)
    return buffer.getvalue()
