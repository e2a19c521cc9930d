"""Append-only write-ahead log for repository ingest.

Every batch accepted by :class:`repro.store.ClusterRepository` is written
here *before* any cluster state changes.  Records are newline-delimited
JSON with a CRC32 over the payload, and every append is flushed and
fsynced before the ingest is acknowledged.  Recovery semantics:

* a **torn tail** (the process died mid-append, leaving a truncated or
  CRC-failing final record) is silently discarded — that batch was never
  acknowledged, so dropping it is correct;
* a corrupt record **followed by valid records** means real file damage
  (not a crash) and raises :class:`~repro.errors.ParseError` rather than
  silently replaying a hole.

Every write journals one record kind:

``encoded``
    A batch's QC survivors as encoded rows: the packed uint64 matrix as
    base64 of its little-endian bytes, plus precursor m/z, charge and
    identifier lists.  ``add_batch``, ``add_store``, streaming ingest and
    the daemon all write it.

Journals written before every write was encoded first may also hold
``spectra`` records (raw spectra, peaks as JSON float lists that
round-trip exactly).  They are replay-only: the repository decodes them,
preprocesses and encodes them, and applies them like an ``encoded``
record.  :meth:`WriteAheadLog.append_spectra` still writes one, for
tests that build journals in that format.
"""

from __future__ import annotations

import base64
import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Union

import numpy as np

from ..errors import ParseError
from ..spectrum import MassSpectrum
from . import fsio

#: Record kinds a WAL may contain.
RECORD_KINDS = ("spectra", "encoded")


def _spectrum_to_json(spectrum: MassSpectrum) -> dict:
    record = {
        "id": spectrum.identifier,
        "pm": spectrum.precursor_mz,
        "ch": spectrum.precursor_charge,
        "mz": spectrum.mz.tolist(),
        "it": spectrum.intensity.tolist(),
    }
    if spectrum.retention_time is not None:
        record["rt"] = spectrum.retention_time
    if spectrum.metadata:
        record["meta"] = spectrum.metadata
    return record


def _spectrum_from_json(record: dict) -> MassSpectrum:
    return MassSpectrum(
        identifier=record["id"],
        precursor_mz=record["pm"],
        precursor_charge=record["ch"],
        mz=np.array(record["mz"], dtype=np.float64),
        intensity=np.array(record["it"], dtype=np.float64),
        retention_time=record.get("rt"),
        metadata=dict(record.get("meta", {})),
    )


@dataclass(frozen=True)
class WalRecord:
    """One journaled ingest batch."""

    seq: int
    kind: str
    payload: dict

    def spectra(self) -> List[MassSpectrum]:
        """Decode a ``spectra`` record back into its batch."""
        if self.kind != "spectra":
            raise ParseError(f"record {self.seq} is not a spectra record")
        return [_spectrum_from_json(item) for item in self.payload["spectra"]]

    def encoded(self) -> tuple:
        """Decode an ``encoded`` record: (vectors, mz, charge, identifiers)."""
        if self.kind != "encoded":
            raise ParseError(f"record {self.seq} is not an encoded record")
        payload = self.payload
        words = int(payload["dim"]) // 64
        raw = base64.b64decode(payload["vec"])
        vectors = np.frombuffer(raw, dtype="<u8").reshape(-1, words)
        return (
            vectors.astype(np.uint64),
            np.array(payload["pm"], dtype=np.float64),
            np.array(payload["ch"], dtype=np.int16),
            [str(i) for i in payload["ids"]],
        )


def _encode_line(seq: int, kind: str, payload: dict) -> bytes:
    body = json.dumps(
        {"seq": seq, "kind": kind, "payload": payload},
        separators=(",", ":"),
        sort_keys=True,
    )
    crc = zlib.crc32(body.encode("utf-8"))
    return json.dumps(
        {"crc": crc, "body": body}, separators=(",", ":")
    ).encode("utf-8") + b"\n"


def _decode_line(line: bytes) -> WalRecord | None:
    """Parse one WAL line; ``None`` when torn/corrupt."""
    try:
        envelope = json.loads(line.decode("utf-8"))
        body = envelope["body"]
        if zlib.crc32(body.encode("utf-8")) != envelope["crc"]:
            return None
        record = json.loads(body)
        if record["kind"] not in RECORD_KINDS:
            return None
        return WalRecord(
            seq=int(record["seq"]),
            kind=record["kind"],
            payload=record["payload"],
        )
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None


class WriteAheadLog:
    """An append-only, CRC-protected journal of ingest batches.

    Appends go through one persistent file handle: a serving daemon
    journals every ingest batch, and reopening the file per record costs
    two extra syscalls on the critical section's hot path.  The handle
    is opened lazily and released by :meth:`close` (or :meth:`reset`,
    which truncates).  Readers (:meth:`replay`) always use their own
    short-lived handles, so reads never disturb the append position.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None

    def close(self) -> None:
        """Release the persistent append handle (idempotent)."""
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def append_spectra(
        self, seq: int, spectra: Sequence[MassSpectrum]
    ) -> None:
        """Journal a raw-spectra batch under sequence number ``seq``.

        No repository writes this record kind any more; it builds
        journals in the older format that replay must still accept.
        """
        payload = {"spectra": [_spectrum_to_json(s) for s in spectra]}
        self._append(seq, "spectra", payload)

    def append_encoded(
        self,
        seq: int,
        vectors: np.ndarray,
        precursor_mz: Sequence[float],
        charge: Sequence[int],
        identifiers: Sequence[str],
    ) -> None:
        """Journal a pre-encoded batch under sequence number ``seq``."""
        vectors = np.ascontiguousarray(vectors, dtype="<u8")
        payload = {
            "dim": int(vectors.shape[1] * 64),
            "vec": base64.b64encode(vectors.tobytes()).decode("ascii"),
            "pm": [float(value) for value in precursor_mz],
            "ch": [int(value) for value in charge],
            "ids": [str(value) for value in identifiers],
        }
        self._append(seq, "encoded", payload)

    def _append(self, seq: int, kind: str, payload: dict) -> None:
        line = _encode_line(seq, kind, payload)
        handle = self._append_handle()
        if not self._at_record_boundary(handle):
            # Torn bytes from a failed append (ours or another handle's):
            # heal through recover() before writing, or the two records
            # would merge into one CRC-failing line.
            self.close()
            self.recover()
            handle = self._append_handle()
        handle.seek(0, os.SEEK_END)
        # On ENOSPC / EIO mid-append the batch was never acknowledged and
        # the sequence number never consumed; whatever partial bytes
        # landed are a torn tail that the next append's boundary probe
        # (or the next open's recover()) truncates — the journal
        # self-heals without operator action.
        fsio.fs_write(handle, line)
        handle.flush()
        fsio.fs_fsync(handle)

    def _append_handle(self):
        if self._handle is None or self._handle.closed:
            # "a+b": writes land at EOF (append semantics) while the
            # O(1) record-boundary probe can still read the final byte
            # through the same descriptor.
            self._handle = open(self.path, "a+b")
        return self._handle

    @staticmethod
    def _at_record_boundary(handle) -> bool:
        """True when the file ends in a record terminator (or is empty).

        An append that died mid-write (ENOSPC, signal) leaves a partial
        line with no newline; checking the final byte is O(1), and the
        full :meth:`recover` scan only runs when it shows a torn tail.
        """
        try:
            handle.seek(-1, os.SEEK_END)
        except OSError:
            return True  # empty file: already at a boundary
        return handle.read(1) == b"\n"

    def replay(self, after_seq: int = 0) -> Iterator[WalRecord]:
        """Yield intact records with ``seq > after_seq``, in file order.

        The file is streamed line by line (one record in memory at a
        time).  A torn final record is skipped (crash mid-append);
        corruption anywhere before the final record raises
        :class:`ParseError`.
        """
        if not self.path.exists():
            return
        pending_bad: int | None = None
        with open(self.path, "rb") as handle:
            for position, raw in enumerate(handle):
                if pending_bad is not None:
                    raise ParseError(
                        f"corrupt WAL record at line {pending_bad + 1}",
                        str(self.path),
                    )
                # A line without its terminating newline is a torn
                # append even when the CRC happens to validate: the
                # fsync never completed, so the batch was never
                # acknowledged — and a later append would merge with it.
                if not raw.endswith(b"\n"):
                    pending_bad = position
                    continue
                record = _decode_line(raw.rstrip(b"\n"))
                if record is None:
                    pending_bad = position
                    continue
                if record.seq > after_seq:
                    yield record
        # pending_bad at EOF is a torn tail: that batch was never
        # acknowledged, so dropping it is correct.

    def recover(self) -> bool:
        """Truncate a torn tail left by a crash mid-append.

        Must be called before new appends: an append after a partial
        line would merge with it and corrupt the journal.  Only a bad
        *final* record is removed; a bad record followed by intact ones
        is real file damage and is left for :meth:`replay` to raise on.
        Returns True when bytes were discarded.
        """
        if not self.path.exists():
            return False
        self.close()  # never truncate under a live append handle
        valid_end = 0
        offset = 0
        bad_seen = False
        with open(self.path, "rb") as handle:
            for raw in handle:
                if bad_seen:
                    return False  # mid-file corruption, not a torn tail
                offset += len(raw)
                if (
                    not raw.endswith(b"\n")
                    or _decode_line(raw.rstrip(b"\n")) is None
                ):
                    bad_seen = True
                else:
                    valid_end = offset
        if valid_end == offset:
            return False
        with open(self.path, "r+b") as handle:
            handle.truncate(valid_end)
            handle.flush()
            os.fsync(handle.fileno())
        return True

    def last_seq(self) -> int:
        """Highest intact sequence number in the log (0 when empty)."""
        last = 0
        for record in self.replay(after_seq=0):
            last = max(last, record.seq)
        return last

    def reset(self) -> None:
        """Truncate the log (called after a successful checkpoint)."""
        self.close()
        with open(self.path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())

    def size_bytes(self) -> int:
        """Current on-disk size of the journal."""
        return self.path.stat().st_size if self.path.exists() else 0
