"""Length-prefixed wire protocol of the cluster-query daemon.

Every message — request or response — is one frame: a fixed 10-byte
header, a JSON object, then raw binary payloads::

    |<------ 10-byte header ------>|<------------ length bytes ------------>|
    +--------+---------+-----------+----------+-------------+---------------+
    | "RPRO" | version |  length   | JSON len | JSON object | payload bytes |
    |        | u16 BE  |  u32 BE   |  u32 BE  | (padded)    | (concatenated)|
    +--------+---------+-----------+----------+-------------+---------------+

The magic catches peers speaking something else to the port, and
``length`` covers everything after the header, so a reader can always
skip a frame it does not understand.  Bulk data — packed hypervector
matrices, spectrum peak arrays, generation file chunks, result match
columns — never enters the JSON: the object's ``_payloads`` list
declares ``{name, dtype, shape, nbytes}`` per payload and the bytes
follow, little-endian, concatenated in that order.  Decode is a
zero-copy ``np.frombuffer`` view into the receiver's buffer.

There is one wire format and one version number,
:data:`PROTOCOL_VERSION`.  A frame carrying any other version is
drained (never decoded), answered with :func:`version_mismatch_error`
and the connection is closed; ``hello`` lets a client learn that at
connect time instead of on its first real request.

Message builders attach payloads with the ``attach_*`` helpers and
readers take them back with the matching ``extract_*``, which check
that each payload is present with the dtype and rank its twin writes:

================== ============================ =======================
helper pair        JSON fields                  payloads
================== ============================ =======================
``*_vectors``      ``dim``                      ``vec`` ``<u8`` 2-d
``*_spectra``      ``spectra`` header records   ``spectra.n`` ``<i8``,
                                                ``.mz`` / ``.it`` ``<f8``
``*_matches``      —                            ``results.n`` / ``.i`` /
                                                ``.idn`` ``<i8``, ``.f``
                                                ``<f8``, ``.id`` ``B``
``*_chunk``        —                            ``data`` ``B``
================== ============================ =======================

Zero-copy views returned by the ``extract_*`` helpers point into the
connection's receive buffer and stay valid until the **next** receive
on that connection — fine under this strictly request/response
protocol, but copy (``bytes(...)`` / ``np.array(...)``) anything that
must outlive the response cycle.  Query answers are the exception:
:func:`extract_matches` hands the caller a
:class:`~repro.store.matches.MatchTable` that owns its columns.

Requests are ``{"op": <name>, ...}``; responses are ``{"status": "ok" |
"busy" | "error", ...}``.  See :mod:`repro.service.daemon` for the op
table.
"""

from __future__ import annotations

import json
import struct
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ProtocolError, ServiceError
from ..spectrum import MassSpectrum
from ..store.matches import (
    FLOAT_FIELDS,
    INT_FIELDS,
    ClusterMatch,
    MatchTable,
)

#: Protocol magic: rejects stray HTTP/TLS/etc. traffic immediately.
MAGIC = b"RPRO"

#: The one frame version this build speaks.  Every frame carries it;
#: a frame with any other number is refused with a versioned error.
PROTOCOL_VERSION = 3

#: Header layout: magic, version, payload byte length.
_HEADER = struct.Struct(">4sHI")

#: Sub-header: byte length of the JSON part of the payload region.
_JSON_LEN = struct.Struct(">I")

#: Hard ceiling on one frame's payload — a corrupt or hostile length
#: field must not make the daemon allocate gigabytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Ceiling on declared payload descriptors per frame; real messages use
#: at most a handful.
MAX_PAYLOADS_PER_FRAME = 64

#: Reserved message key: the JSON list of binary payload descriptors.
PAYLOADS_KEY = "_payloads"

#: Reserved message key: the in-memory ``{name: buffer}`` side table.
#: Never serialised — :func:`encode_frame_buffers` strips it, and the
#: receiver rebuilds it from the wire payload region.
BINARY_KEY = "_binary"

#: dtype allowlist for wire payloads → itemsize.  ``B`` payloads stay
#: memoryviews; the rest become numpy views.
_PAYLOAD_DTYPES = {"B": 1, "<u8": 8, "<i8": 8, "<f8": 8}

#: Receive buffers larger than this are not retained between frames —
#: one giant replication chunk must not pin megabytes per idle
#: connection forever.
_RETAIN_BUFFER_BYTES = 8 * 1024 * 1024

#: iovec batch size for vectored sends (well under any OS IOV_MAX).
_MAX_IOV = 64


def version_mismatch_error(version: int) -> str:
    """The one clear sentence both sides use for an unsupported version."""
    return (
        f"unsupported protocol version {version} "
        f"(this build speaks {PROTOCOL_VERSION})"
    )


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _as_byte_view(buffer) -> memoryview:
    view = memoryview(buffer)
    if view.format == "B" and view.ndim == 1:
        return view
    if view.nbytes == 0:
        # cast() rejects empty views on some Python versions.
        return memoryview(b"")
    return view.cast("B")


def encode_frame_buffers(message: dict) -> List:
    """Serialise one message to a list of wire buffers (zero-copy).

    The first buffer is the frame header plus the JSON part; binary
    payloads follow as views over the caller's arrays, ready for a
    vectored send.
    """
    descriptors = message.get(PAYLOADS_KEY) or []
    binary = message.get(BINARY_KEY) or {}
    views = []
    for descriptor in descriptors:
        name = descriptor["name"]
        if name not in binary:
            raise ProtocolError(
                f"declared payload {name!r} has no attached buffer"
            )
        view = _as_byte_view(binary[name])
        if view.nbytes != descriptor["nbytes"]:
            raise ProtocolError(
                f"payload {name!r} buffer is {view.nbytes} bytes but "
                f"its descriptor declares {descriptor['nbytes']}"
            )
        views.append(view)
    head = {k: v for k, v in message.items() if k != BINARY_KEY}
    body = json.dumps(head, separators=(",", ":")).encode("utf-8")
    if views:
        # Pad the JSON (trailing whitespace is valid JSON) so the first
        # payload starts 8-byte aligned in the receiver's buffer; the
        # attach helpers order 8-byte payloads before byte payloads, so
        # the numpy views land aligned.
        body += b" " * (-(_JSON_LEN.size + len(body)) % 8)
    total = _JSON_LEN.size + len(body) + sum(v.nbytes for v in views)
    if total > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {total} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    prefix = (
        _HEADER.pack(MAGIC, PROTOCOL_VERSION, total)
        + _JSON_LEN.pack(len(body))
        + body
    )
    return [prefix, *views]


def encode_frame(message: dict) -> bytes:
    """Serialise one message to contiguous framed wire bytes.

    The copying convenience over :func:`encode_frame_buffers` — tests
    and benchmarks use it; the hot paths send the buffer list directly.
    """
    buffers = encode_frame_buffers(message)
    if len(buffers) == 1:
        return bytes(buffers[0])
    return b"".join(bytes(b) for b in buffers)


def send_message(sock, message: dict) -> int:
    """Frame and send one message; returns the bytes put on the wire.

    Uses ``sendmsg`` (vectored write) where available so binary
    payloads go from the caller's arrays to the kernel without an
    intermediate join/copy.
    """
    buffers = encode_frame_buffers(message)
    views = [_as_byte_view(b) for b in buffers]
    total = sum(v.nbytes for v in views)
    if not hasattr(sock, "sendmsg"):
        sock.sendall(b"".join(views))
        return total
    pending = [v for v in views if v.nbytes]
    while pending:
        sent = sock.sendmsg(pending[:_MAX_IOV])
        while sent:
            if sent >= pending[0].nbytes:
                sent -= pending[0].nbytes
                pending.pop(0)
            else:
                pending[0] = pending[0][sent:]
                sent = 0
    return total


# ----------------------------------------------------------------------
# Receiving
# ----------------------------------------------------------------------


def _decode_json(view) -> dict:
    try:
        message = json.loads(str(view, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a JSON object")
    if BINARY_KEY in message:
        raise ProtocolError(
            f"frame payload must not carry the reserved {BINARY_KEY!r} key"
        )
    return message


def _validate_descriptors(descriptors, region_bytes: int) -> None:
    if not isinstance(descriptors, list):
        raise ProtocolError(f"{PAYLOADS_KEY!r} must be a list")
    if len(descriptors) > MAX_PAYLOADS_PER_FRAME:
        raise ProtocolError(
            f"frame declares {len(descriptors)} payloads "
            f"(limit {MAX_PAYLOADS_PER_FRAME})"
        )
    seen = set()
    declared = 0
    for descriptor in descriptors:
        if not isinstance(descriptor, dict):
            raise ProtocolError("payload descriptor must be an object")
        name = descriptor.get("name")
        if not isinstance(name, str) or not name or len(name) > 128:
            raise ProtocolError("payload descriptor has a bad name")
        if name in seen:
            raise ProtocolError(f"duplicate payload name {name!r}")
        seen.add(name)
        dtype = descriptor.get("dtype")
        itemsize = _PAYLOAD_DTYPES.get(dtype)
        if itemsize is None:
            raise ProtocolError(
                f"payload {name!r} has unsupported dtype {dtype!r}"
            )
        shape = descriptor.get("shape")
        if (
            not isinstance(shape, list)
            or not 1 <= len(shape) <= 2
            or not all(
                isinstance(d, int) and not isinstance(d, bool) and d >= 0
                for d in shape
            )
        ):
            raise ProtocolError(f"payload {name!r} has a bad shape")
        nbytes = descriptor.get("nbytes")
        if (
            not isinstance(nbytes, int)
            or isinstance(nbytes, bool)
            or nbytes < 0
        ):
            raise ProtocolError(f"payload {name!r} has a bad nbytes")
        expected = itemsize
        for dim in shape:
            expected *= dim
        if expected != nbytes:
            raise ProtocolError(
                f"payload {name!r} declares {nbytes} bytes but its "
                f"shape implies {expected}"
            )
        declared += nbytes
    if declared != region_bytes:
        raise ProtocolError(
            f"declared payloads total {declared} bytes but the frame "
            f"carries {region_bytes} (payload size mismatch)"
        )


class FrameReceiver:
    """One connection's frame reader with a reusable receive buffer.

    Frames land via ``recv_into`` in a buffer owned by the receiver —
    no per-``recv`` chunk list, no join.  Binary payloads (and the
    JSON text itself) are decoded as zero-copy views into that buffer,
    which is why the views a frame yields are only valid until the
    next :meth:`recv_frame` call.  Frames larger than the retention
    cap get a transient buffer instead, so one huge transfer does not
    pin its high-water mark forever.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._header = bytearray(_HEADER.size)
        #: Wire bytes (header included) of the last received frame —
        #: the transport-metrics hook.
        self.last_frame_bytes = 0

    def _fill(self, sock, view: memoryview, *, eof_ok: bool = False) -> bool:
        """Fill ``view`` exactly; False on clean EOF before any byte."""
        received = 0
        count = view.nbytes
        while received < count:
            got = sock.recv_into(view[received:])
            if got == 0:
                if eof_ok and received == 0:
                    return False
                raise ProtocolError("connection closed mid-frame")
            received += got
        return True

    def _frame_buffer(self, length: int) -> memoryview:
        if length > _RETAIN_BUFFER_BYTES:
            return memoryview(bytearray(length))
        if len(self._buffer) < length:
            self._buffer = bytearray(max(length, 64 * 1024))
        return memoryview(self._buffer)[:length]

    def _drain(self, sock, length: int) -> None:
        scratch = memoryview(bytearray(min(length, 1 << 20)))
        while length:
            got = sock.recv_into(scratch[: min(length, scratch.nbytes)])
            if got == 0:
                raise ProtocolError("connection closed mid-frame")
            length -= got

    def recv_frame(self, sock) -> Optional[Tuple[int, Optional[dict]]]:
        """Receive one frame without rejecting unsupported versions.

        Returns ``None`` on clean end-of-stream, else
        ``(version, message)`` where ``message`` is ``None`` when the
        frame's version is not :data:`PROTOCOL_VERSION` — the payload
        bytes are drained but not decoded, so a server can answer with
        a versioned error instead of a decode failure and keep the
        connection state sane.
        """
        header = memoryview(self._header)
        if not self._fill(sock, header, eof_ok=True):
            return None
        magic, version, length = _HEADER.unpack(self._header)
        if magic != MAGIC:
            raise ProtocolError(
                "bad frame magic (not a repro service peer?)"
            )
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {length} bytes exceeds the protocol limit"
            )
        self.last_frame_bytes = _HEADER.size + length
        if version != PROTOCOL_VERSION:
            # The length field covers the whole payload region whatever
            # the version, so draining it leaves the stream aligned for
            # the error reply.
            self._drain(sock, length)
            return version, None
        view = self._frame_buffer(length)
        if length:
            self._fill(sock, view)
        return version, self._decode(view)

    def _decode(self, view: memoryview) -> dict:
        if view.nbytes < _JSON_LEN.size:
            raise ProtocolError("truncated frame: missing JSON length")
        (json_len,) = _JSON_LEN.unpack_from(view, 0)
        if _JSON_LEN.size + json_len > view.nbytes:
            raise ProtocolError(
                f"declared JSON length {json_len} exceeds the frame"
            )
        message = _decode_json(view[_JSON_LEN.size : _JSON_LEN.size + json_len])
        region = view[_JSON_LEN.size + json_len :]
        descriptors = message.get(PAYLOADS_KEY)
        if descriptors is None:
            if region.nbytes:
                raise ProtocolError(
                    f"frame carries {region.nbytes} undeclared payload "
                    "bytes"
                )
            return message
        _validate_descriptors(descriptors, region.nbytes)
        binary = {}
        offset = 0
        for descriptor in descriptors:
            chunk = region[offset : offset + descriptor["nbytes"]]
            offset += descriptor["nbytes"]
            if descriptor["dtype"] == "B":
                binary[descriptor["name"]] = chunk
            else:
                binary[descriptor["name"]] = np.frombuffer(
                    chunk, dtype=descriptor["dtype"]
                ).reshape(descriptor["shape"])
        message[BINARY_KEY] = binary
        return message

    def recv_message(self, sock) -> Optional[dict]:
        """Receive one framed message; ``None`` on clean end-of-stream.

        The strict client-side receive: an unsupported frame version
        raises (a client cannot answer in kind the way
        :meth:`recv_frame` lets a server do).
        """
        frame = self.recv_frame(sock)
        if frame is None:
            return None
        version, message = frame
        if message is None:
            raise ServiceError(version_mismatch_error(version))
        return message


def recv_frame(sock):
    """One-shot :meth:`FrameReceiver.recv_frame` (fresh buffer per call).

    Connection loops should hold a :class:`FrameReceiver` instead so
    the buffer is reused across frames.
    """
    return FrameReceiver().recv_frame(sock)


def recv_message(sock) -> Optional[dict]:
    """One-shot :meth:`FrameReceiver.recv_message` (fresh buffer per call)."""
    return FrameReceiver().recv_message(sock)


# ----------------------------------------------------------------------
# Payload attachment and extraction
# ----------------------------------------------------------------------


def _attach(message: dict, name: str, dtype: str, buffer) -> None:
    payloads = message.setdefault(PAYLOADS_KEY, [])
    binary = message.setdefault(BINARY_KEY, {})
    if name in binary:
        raise ServiceError(f"payload {name!r} attached twice")
    payloads.append(
        {
            "name": name,
            "dtype": dtype,
            "shape": list(buffer.shape),
            "nbytes": int(buffer.nbytes),
        }
    )
    binary[name] = buffer


def _payload(message: dict, name: str, dtype: str, ndim: int = 1):
    """The received payload ``name``, checked against what its
    ``attach_*`` twin writes: present, ``dtype``, ``ndim`` dimensions."""
    buffer = (message.get(BINARY_KEY) or {}).get(name)
    if buffer is None:
        raise ProtocolError(f"message carries no {name!r} payload")
    if dtype == "B":
        # The decoder leaves byte payloads as memoryviews.
        matches = isinstance(buffer, memoryview)
    else:
        matches = (
            isinstance(buffer, np.ndarray)
            and buffer.dtype == np.dtype(dtype)
            and buffer.ndim == ndim
        )
    if not matches:
        raise ProtocolError(
            f"payload {name!r} must be a {ndim}-d {dtype!r} array"
        )
    return buffer


def attach_vectors(message: dict, vectors: np.ndarray) -> dict:
    """Attach a packed uint64 matrix as ``vec``, its width as ``dim``."""
    vectors = np.ascontiguousarray(vectors, dtype="<u8")
    if vectors.ndim != 2:
        raise ServiceError("query vectors must be a (n, words) matrix")
    message["dim"] = int(vectors.shape[1] * 64)
    _attach(message, "vec", "<u8", vectors)
    return message


def extract_vectors(message: dict) -> np.ndarray:
    """The packed uint64 matrix of a message (a receive-buffer view)."""
    vectors = _payload(message, "vec", "<u8", ndim=2)
    dim = message.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ProtocolError(f"vector 'dim' must be an integer, got {dim!r}")
    if dim < 64 or vectors.shape[1] * 64 != dim:
        raise ServiceError("vector payload length does not match dim")
    return vectors


def attach_chunk(message: dict, data, field: str = "data") -> dict:
    """Attach raw bytes (a generation file chunk) under ``field``."""
    _attach(message, field, "B", _as_byte_view(data))
    return message


def extract_chunk(message: dict, field: str = "data") -> memoryview:
    """The raw bytes of ``field``: a zero-copy view of the receive buffer."""
    return _payload(message, field, "B")


def attach_spectra(
    message: dict, spectra: Sequence[MassSpectrum], field: str = "spectra"
) -> dict:
    """Attach a spectrum batch: JSON header records + binary peak arrays.

    ``message[field]`` gets one ``{id, pm, ch[, rt][, meta]}`` record
    per spectrum; the peaks ride as two concatenated float64 payloads
    plus a per-spectrum peak-count payload.
    """
    records = []
    counts = np.empty(len(spectra), dtype="<i8")
    for index, spectrum in enumerate(spectra):
        record = {
            "id": spectrum.identifier,
            "pm": spectrum.precursor_mz,
            "ch": spectrum.precursor_charge,
        }
        if spectrum.retention_time is not None:
            record["rt"] = spectrum.retention_time
        if spectrum.metadata:
            record["meta"] = spectrum.metadata
        records.append(record)
        counts[index] = len(spectrum.mz)
    if spectra:
        mz = np.ascontiguousarray(
            np.concatenate([s.mz for s in spectra]), dtype="<f8"
        )
        intensity = np.ascontiguousarray(
            np.concatenate([s.intensity for s in spectra]), dtype="<f8"
        )
    else:
        mz = np.empty(0, dtype="<f8")
        intensity = np.empty(0, dtype="<f8")
    message[field] = records
    _attach(message, f"{field}.n", "<i8", counts)
    _attach(message, f"{field}.mz", "<f8", mz)
    _attach(message, f"{field}.it", "<f8", intensity)
    return message


def extract_spectra(
    message: dict, field: str = "spectra"
) -> List[MassSpectrum]:
    """The spectrum batch of ``field``.

    The peak arrays are zero-copy float64 views into the receive buffer
    (sliced per spectrum).
    """
    counts = _payload(message, f"{field}.n", "<i8")
    mz = _payload(message, f"{field}.mz", "<f8")
    intensity = _payload(message, f"{field}.it", "<f8")
    records = message.get(field)
    if not isinstance(records, list) or len(records) != counts.shape[0]:
        raise ProtocolError(
            f"spectrum payload count mismatch in {field!r}"
        )
    total = int(counts.sum())
    if (
        counts.size and int(counts.min()) < 0
    ) or total != mz.shape[0] or total != intensity.shape[0]:
        raise ProtocolError(
            f"spectrum peak payloads do not match counts in {field!r}"
        )
    spectra = []
    offset = 0
    try:
        for record, count in zip(records, counts.tolist()):
            spectra.append(
                MassSpectrum(
                    identifier=record["id"],
                    precursor_mz=record["pm"],
                    precursor_charge=record["ch"],
                    mz=mz[offset : offset + count],
                    intensity=intensity[offset : offset + count],
                    retention_time=record.get("rt"),
                    metadata=dict(record.get("meta", {})),
                )
            )
            offset += count
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed spectrum record: {exc}") from exc
    return spectra


#: ``(suffix, dtype, ndim)`` of the five ``matches`` payloads, in
#: :meth:`MatchTable.wire_columns` order.
_MATCH_PAYLOADS = (
    ("n", "<i8", 1),
    ("i", "<i8", 2),
    ("f", "<f8", 2),
    ("idn", "<i8", 1),
    ("id", "B", 1),
)


def attach_matches(
    message: dict,
    results: Union[MatchTable, Sequence[Sequence[ClusterMatch]]],
    field: str = "results",
) -> dict:
    """Attach a query answer's columns as binary payloads (no loop).

    A plain list of match lists is accepted and tabulated first.
    """
    if not isinstance(results, MatchTable):
        results = MatchTable.from_rows(results)
    for (suffix, dtype, _ndim), column in zip(
        _MATCH_PAYLOADS, results.wire_columns()
    ):
        _attach(message, f"{field}.{suffix}", dtype, column)
    return message


def _match_columns(message: dict, field: str):
    """The validated ``matches`` payload columns of ``field``."""
    counts, ints, floats, id_lengths, id_view = (
        _payload(message, f"{field}.{suffix}", dtype, ndim)
        for suffix, dtype, ndim in _MATCH_PAYLOADS
    )
    id_bytes = np.frombuffer(id_view, dtype=np.uint8)
    flat = ints.shape[0]
    if (
        ints.shape[1] != len(INT_FIELDS)
        or floats.shape != (flat, len(FLOAT_FIELDS))
        or id_lengths.shape[0] != flat
    ):
        raise ProtocolError(f"match payload shapes disagree in {field!r}")
    if (counts.size and int(counts.min()) < 0) or int(
        counts.sum()
    ) != flat:
        raise ProtocolError(f"match payload count mismatch in {field!r}")
    if (
        id_lengths.size and int(id_lengths.min()) < 0
    ) or int(id_lengths.sum()) != id_bytes.shape[0]:
        raise ProtocolError(
            f"match identifier payload mismatch in {field!r}"
        )
    if id_bytes.size and int(id_bytes.max()) > 0x7F:
        # Beyond ASCII every identifier must decode on its own: the blob
        # as a whole, and no identifier starting inside a character.
        starts = (np.cumsum(id_lengths) - id_lengths)[id_lengths > 0]
        try:
            str(id_bytes, "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"match identifiers in {field!r} are not UTF-8: {exc}"
            ) from exc
        if ((id_bytes[starts] & 0xC0) == 0x80).any():
            raise ProtocolError(
                f"match identifiers in {field!r} split a UTF-8 character"
            )
    return counts, ints, floats, id_lengths, id_bytes


def extract_matches(message: dict, field: str = "results") -> MatchTable:
    """The query answer of ``field`` as a table.

    The table owns its memory — the columns are copied out of the
    connection's receive buffer — so unlike the other ``extract_*``
    views it stays valid across later receives.
    """
    return MatchTable.from_columns(
        *(np.array(column) for column in _match_columns(message, field))
    )
