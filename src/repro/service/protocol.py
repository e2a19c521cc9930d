"""Length-prefixed wire protocol of the cluster-query daemon.

Framing is deliberately minimal: every message — request or response —
starts with a fixed 10-byte header::

    +---------+-------------------+--------------------------+---------
    | "RPRO"  | version (u16, BE) | payload length (u32, BE) | payload
    +---------+-------------------+--------------------------+---------

A fixed header keeps the reader trivial, the magic catches clients
speaking the wrong protocol to the port, and the explicit version lets
the format evolve without guessing.

Frame versions 1 and 2 carry one UTF-8 JSON object as the payload.
Version 3 adds the **binary payload codec** ("payload codec v2"): the
payload region starts with a u32 JSON length, then the JSON header,
then raw little-endian payload bytes declared by a ``_payloads`` list
in the header (``[{name, dtype, shape, nbytes}, ...]``)::

    +--------+---------------+---------------+------+-----------------
    | header | json len (u32)| JSON header   | payload bytes (concat)
    +--------+---------------+---------------+------+-----------------

Because the fixed header's length field covers the *whole* payload
region, a build that predates version 3 drains the frame cleanly and
answers with its versioned error instead of desyncing the stream.

Bulk data — packed hypervector matrices, encoded spectrum peak arrays,
generation file chunks, result match columns — rides in those binary
payloads: no base64, no float lists, and decode is a zero-copy
``np.frombuffer`` view into the receiver's buffer.  Message builders
attach binary payloads unconditionally (:func:`attach_vectors` and
friends); :func:`encode_frame_buffers` transparently inlines them back
to the version-1 JSON shapes when the negotiated frame version predates
the codec, so handlers never branch on peer version and every payload
is bit-identical across versions:

* spectra ride as the WAL's JSON spectrum records under codec v1
  (shortest-round-trip floats) and as concatenated float64 peak arrays
  plus JSON header records under codec v2 — both reconstruct the exact
  same :class:`~repro.spectrum.MassSpectrum`;
* packed hypervector matrices ride as base64 of their little-endian
  ``uint64`` bytes plus a ``dim`` field under codec v1 (exactly like
  ``encoded`` WAL records) and as a raw ``<u8`` matrix under codec v2.

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

import base64
import json
import os
import struct
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError, ProtocolError, ServiceError
from ..spectrum import MassSpectrum
from ..store.matches import (
    FLOAT_FIELDS,
    INT_FIELDS,
    ClusterMatch,
    MatchTable,
)
from ..store.wal import _spectrum_from_json, _spectrum_to_json

#: Protocol magic: rejects stray HTTP/TLS/etc. traffic immediately.
MAGIC = b"RPRO"

#: Wire protocol version this build prefers.  Version 2 added the
#: ``hello`` handshake, shard-restricted / generation-pinned queries,
#: ``metrics``, and the generation-shipping replication ops (framing
#: identical to version 1).  Version 3 adds the out-of-band binary
#: payload codec; the JSON op vocabulary is unchanged.
PROTOCOL_VERSION = 3

#: First frame version whose payload region carries out-of-band binary
#: payloads ("payload codec v2").  Below this, everything inlines to
#: JSON ("payload codec v1").
BINARY_PROTOCOL_VERSION = 3

#: Frame versions this build can decode.  Servers answer each request in
#: the requester's frame version, so a v1 peer keeps working against a
#: v3 daemon; anything outside this set is rejected with a versioned
#: error message instead of a decode failure.
SUPPORTED_PROTOCOLS = frozenset({1, 2, 3})

#: Header layout: magic, version, payload byte length.
_HEADER = struct.Struct(">4sHI")

#: Version-3 sub-header: byte length of the JSON part of the payload.
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


def preferred_version() -> int:
    """The frame version this process should announce.

    ``REPRO_PROTOCOL_VERSION`` caps it (the ``--protocol-version`` CLI
    flags set the same cap explicitly) — the escape hatch for wire
    captures, debugging with text-only tooling, or suspected codec
    bugs.  Negotiation still takes ``min(ours, theirs)``, so a cap can
    only ever lower the version actually spoken.
    """
    text = os.environ.get("REPRO_PROTOCOL_VERSION", "").strip()
    if not text:
        return PROTOCOL_VERSION
    try:
        version = int(text)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_PROTOCOL_VERSION must be an integer, got {text!r}"
        ) from None
    if version not in SUPPORTED_PROTOCOLS:
        supported = "/".join(str(v) for v in sorted(SUPPORTED_PROTOCOLS))
        raise ConfigurationError(
            f"REPRO_PROTOCOL_VERSION={version} is not a supported "
            f"protocol version (this build speaks {supported})"
        )
    return version


def version_mismatch_error(version: int) -> str:
    """The one clear sentence both sides use for an unsupported version."""
    supported = "/".join(str(v) for v in sorted(SUPPORTED_PROTOCOLS))
    return (
        f"unsupported protocol version {version} "
        f"(this build speaks {supported})"
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


def encode_frame_buffers(
    message: dict, version: int = PROTOCOL_VERSION
) -> List:
    """Serialise one message to a list of wire buffers (zero-copy).

    The first buffer is the frame header plus the JSON part; binary
    payloads follow as views over the caller's arrays, ready for a
    vectored send.  For frame versions that predate the binary codec
    the message is transparently inlined to its JSON-only shape first,
    so callers build messages one way and interoperate with every
    supported peer version.
    """
    if version < BINARY_PROTOCOL_VERSION:
        body = json.dumps(
            inline_message(message), separators=(",", ":")
        ).encode("utf-8")
        if len(body) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame payload of {len(body)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte protocol limit"
            )
        return [_HEADER.pack(MAGIC, version, len(body)) + body]
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
        _HEADER.pack(MAGIC, version, total)
        + _JSON_LEN.pack(len(body))
        + body
    )
    return [prefix, *views]


def encode_frame(message: dict, version: int = PROTOCOL_VERSION) -> bytes:
    """Serialise one message to contiguous framed wire bytes.

    The copying convenience over :func:`encode_frame_buffers` — tests
    and benchmarks use it; the hot paths send the buffer list directly.
    """
    buffers = encode_frame_buffers(message, version=version)
    if len(buffers) == 1:
        return bytes(buffers[0])
    return b"".join(bytes(b) for b in buffers)


def send_message(
    sock, message: dict, version: int = PROTOCOL_VERSION
) -> int:
    """Frame and send one message; returns the bytes put on the wire.

    Uses ``sendmsg`` (vectored write) where available so binary
    payloads go from the caller's arrays to the kernel without an
    intermediate join/copy.
    """
    buffers = encode_frame_buffers(message, version=version)
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
        frame's version is outside :data:`SUPPORTED_PROTOCOLS` — the
        payload bytes are drained but not decoded, so a server can
        answer with a versioned error instead of a decode failure and
        keep the connection state sane.
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
        if version not in SUPPORTED_PROTOCOLS:
            # The length field covers the whole payload region in every
            # version (including future ones that keep the header), so
            # draining it leaves the stream aligned for the error reply.
            self._drain(sock, length)
            return version, None
        view = self._frame_buffer(length)
        if length:
            self._fill(sock, view)
        if version < BINARY_PROTOCOL_VERSION:
            message = _decode_json(view)
            if PAYLOADS_KEY in message:
                raise ProtocolError(
                    f"frame version {version} must not declare "
                    f"{PAYLOADS_KEY!r}"
                )
            return version, message
        return version, self._decode_extended(view)

    def _decode_extended(self, view: memoryview) -> dict:
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
# Binary payload attachment
# ----------------------------------------------------------------------


def _attach(message: dict, descriptor: dict, buffer) -> None:
    payloads = message.setdefault(PAYLOADS_KEY, [])
    binary = message.setdefault(BINARY_KEY, {})
    name = descriptor["name"]
    if name in binary:
        raise ServiceError(f"payload {name!r} attached twice")
    payloads.append(descriptor)
    binary[name] = buffer


def attach_vectors(message: dict, vectors: np.ndarray) -> dict:
    """Attach a packed uint64 matrix under the root ``dim``/``vec`` keys.

    Inlines to the exact :func:`vectors_to_wire` shape for pre-binary
    peers.
    """
    vectors = np.ascontiguousarray(vectors, dtype="<u8")
    if vectors.ndim != 2:
        raise ServiceError("query vectors must be a (n, words) matrix")
    message["dim"] = int(vectors.shape[1] * 64)
    _attach(
        message,
        {
            "name": "vec",
            "kind": "vectors",
            "dtype": "<u8",
            "shape": [int(vectors.shape[0]), int(vectors.shape[1])],
            "nbytes": int(vectors.nbytes),
        },
        vectors,
    )
    return message


def extract_vectors(message: dict) -> np.ndarray:
    """The packed uint64 matrix of a message, either wire form."""
    binary = message.get(BINARY_KEY)
    if binary is not None and "vec" in binary:
        vectors = binary["vec"]
        if not isinstance(vectors, np.ndarray) or vectors.ndim != 2:
            raise ProtocolError("vector payload must be a 2-d matrix")
        words = int(message.get("dim", vectors.shape[1] * 64)) // 64
        if words < 1 or vectors.shape[1] != words:
            raise ServiceError("vector payload length does not match dim")
        return vectors
    return vectors_from_wire(message)


def attach_chunk(message: dict, data, field: str = "data") -> dict:
    """Attach raw bytes (a generation file chunk) under ``field``."""
    view = _as_byte_view(data)
    _attach(
        message,
        {
            "name": field,
            "kind": "bytes",
            "dtype": "B",
            "shape": [view.nbytes],
            "nbytes": view.nbytes,
        },
        view,
    )
    return message


def extract_chunk(message: dict, field: str = "data"):
    """The raw bytes of ``field`` — a zero-copy memoryview under the
    binary codec, decoded base64 bytes under codec v1."""
    binary = message.get(BINARY_KEY)
    if binary is not None and field in binary:
        chunk = binary[field]
        if not isinstance(chunk, memoryview):
            raise ProtocolError(f"payload {field!r} must be raw bytes")
        return chunk
    return bytes_from_wire(message.get(field, ""))


def attach_spectra(
    message: dict, spectra: Sequence[MassSpectrum], field: str = "spectra"
) -> dict:
    """Attach a spectrum batch: JSON header records + binary peak arrays.

    Header records are the WAL's spectrum records minus the ``mz`` /
    ``it`` float lists, which ride as two concatenated float64 payloads
    plus a per-spectrum peak-count payload.  Inlining re-adds the float
    lists, reproducing :func:`spectra_to_wire` exactly.
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
    for suffix, dtype, array in (
        ("n", "<i8", counts),
        ("mz", "<f8", mz),
        ("it", "<f8", intensity),
    ):
        _attach(
            message,
            {
                "name": f"{field}.{suffix}",
                "kind": "spectra",
                "field": field,
                "dtype": dtype,
                "shape": [int(array.shape[0])],
                "nbytes": int(array.nbytes),
            },
            array,
        )
    return message


def extract_spectra(
    message: dict, field: str = "spectra"
) -> List[MassSpectrum]:
    """The spectrum batch of ``field``, either wire form.

    Under the binary codec the peak arrays are zero-copy float64 views
    into the receive buffer (sliced per spectrum).
    """
    binary = message.get(BINARY_KEY)
    if binary is None or f"{field}.n" not in binary:
        records = message.get(field, [])
        if not isinstance(records, list):
            raise ServiceError(f"malformed spectrum batch in {field!r}")
        return spectra_from_wire(records)
    records = message.get(field)
    counts = binary.get(f"{field}.n")
    mz = binary.get(f"{field}.mz")
    intensity = binary.get(f"{field}.it")
    if mz is None or intensity is None:
        raise ProtocolError(f"incomplete spectrum payloads for {field!r}")
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


def attach_matches(
    message: dict,
    results: Union[MatchTable, Sequence[Sequence[ClusterMatch]]],
    field: str = "results",
) -> dict:
    """Attach a query answer's columns as binary payloads (no loop).

    A plain list of match lists is accepted and tabulated first.  Codec
    v1 inlines the columns back to the daemon's historical
    ``asdict(match)`` row dicts, field for field.
    """
    if not isinstance(results, MatchTable):
        results = MatchTable.from_rows(results)
    for suffix, dtype, column in zip(
        ("n", "i", "f", "idn", "id"),
        ("<i8", "<i8", "<f8", "<i8", "B"),
        results.wire_columns(),
    ):
        _attach(
            message,
            {
                "name": f"{field}.{suffix}",
                "kind": "matches",
                "field": field,
                "dtype": dtype,
                "shape": list(column.shape),
                "nbytes": int(column.nbytes),
            },
            column,
        )
    return message


def _match_columns(binary: dict, field: str):
    """The validated ``matches`` payload columns of ``field``."""
    counts = binary[f"{field}.n"]
    try:
        ints = binary[f"{field}.i"]
        floats = binary[f"{field}.f"]
        id_lengths = binary[f"{field}.idn"]
        id_bytes = np.frombuffer(binary[f"{field}.id"], dtype=np.uint8)
    except KeyError as exc:
        raise ProtocolError(
            f"incomplete match payloads for {field!r}"
        ) from exc
    if not all(
        isinstance(column, np.ndarray)
        for column in (counts, ints, floats, id_lengths)
    ):
        raise ProtocolError(f"match payload dtypes disagree in {field!r}")
    flat = ints.shape[0]
    if (
        ints.ndim != 2
        or ints.shape[1] != len(INT_FIELDS)
        or floats.ndim != 2
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
    """The query answer of ``field`` as a table, either wire form.

    The table owns its memory — the columns are copied out of the
    connection's receive buffer — so unlike the other ``extract_*``
    views it stays valid across later receives.
    """
    binary = message.get(BINARY_KEY)
    if binary is None or f"{field}.n" not in binary:
        try:
            return MatchTable.from_records(message[field])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ServiceError(f"malformed match results: {exc}") from exc
    return MatchTable.from_columns(
        *(np.array(column) for column in _match_columns(binary, field))
    )


def detach_binary(message: dict) -> dict:
    """Materialise a received message's binary views into owned memory.

    For the rare holder that must keep a decoded message alive past the
    connection's next receive (the view-lifetime contract).
    """
    binary = message.get(BINARY_KEY)
    if not binary:
        return message
    owned = {}
    for name, buffer in binary.items():
        if isinstance(buffer, np.ndarray):
            owned[name] = np.array(buffer)
        else:
            owned[name] = bytes(buffer)
    message[BINARY_KEY] = owned
    return message


# ----------------------------------------------------------------------
# Inlining (payload codec v1)
# ----------------------------------------------------------------------


def inline_message(message: dict) -> dict:
    """A codec-v1 (pure JSON) copy of a message with attached payloads.

    Non-mutating: callers can retry the same message at a different
    negotiated version.  Each payload inlines to the exact JSON shape
    version-1 peers always used, so the bytes a legacy peer sees are
    indistinguishable from a legacy sender's.
    """
    descriptors = message.get(PAYLOADS_KEY)
    if not descriptors:
        if BINARY_KEY in message or PAYLOADS_KEY in message:
            return {
                k: v
                for k, v in message.items()
                if k not in (PAYLOADS_KEY, BINARY_KEY)
            }
        return message
    binary = message.get(BINARY_KEY) or {}
    result = {
        k: v
        for k, v in message.items()
        if k not in (PAYLOADS_KEY, BINARY_KEY)
    }
    done = set()
    for descriptor in descriptors:
        kind = descriptor.get("kind")
        field = descriptor.get("field", descriptor["name"])
        if (kind, field) in done:
            continue
        done.add((kind, field))
        if kind == "vectors":
            vectors = binary["vec"]
            result["vec"] = base64.b64encode(
                np.ascontiguousarray(vectors, dtype="<u8").tobytes()
            ).decode("ascii")
        elif kind == "bytes":
            result[field] = base64.b64encode(binary[field]).decode(
                "ascii"
            )
        elif kind == "spectra":
            counts = binary[f"{field}.n"].tolist()
            mz = binary[f"{field}.mz"]
            intensity = binary[f"{field}.it"]
            records = []
            offset = 0
            for record, count in zip(result[field], counts):
                inlined = {
                    "id": record["id"],
                    "pm": record["pm"],
                    "ch": record["ch"],
                    "mz": mz[offset : offset + count].tolist(),
                    "it": intensity[offset : offset + count].tolist(),
                }
                if "rt" in record:
                    inlined["rt"] = record["rt"]
                if "meta" in record:
                    inlined["meta"] = record["meta"]
                records.append(inlined)
                offset += count
            result[field] = records
        elif kind == "matches":
            result[field] = MatchTable.from_columns(
                *_match_columns(binary, field)
            ).to_records()
        else:
            raise ServiceError(
                f"cannot inline payload kind {kind!r} for a legacy peer"
            )
    return result


# ----------------------------------------------------------------------
# Payload codecs (codec v1 — pure JSON)
# ----------------------------------------------------------------------


def spectra_to_wire(spectra: Sequence[MassSpectrum]) -> List[dict]:
    """Spectra → WAL-format JSON records (bit-exact float round-trip)."""
    return [_spectrum_to_json(spectrum) for spectrum in spectra]


def spectra_from_wire(records: Sequence[dict]) -> List[MassSpectrum]:
    """WAL-format JSON records → spectra."""
    return [_spectrum_from_json(record) for record in records]


def vectors_to_wire(vectors: np.ndarray) -> dict:
    """Packed uint64 matrix → ``{"dim", "vec"}`` (little-endian base64)."""
    vectors = np.ascontiguousarray(vectors, dtype="<u8")
    if vectors.ndim != 2:
        raise ServiceError("query vectors must be a (n, words) matrix")
    return {
        "dim": int(vectors.shape[1] * 64),
        "vec": base64.b64encode(vectors.tobytes()).decode("ascii"),
    }


def vectors_from_wire(payload: dict) -> np.ndarray:
    """Inverse of :func:`vectors_to_wire`."""
    try:
        words = int(payload["dim"]) // 64
        raw = base64.b64decode(payload["vec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed vector payload: {exc}") from exc
    if words < 1 or len(raw) % (8 * words):
        raise ServiceError("vector payload length does not match dim")
    return np.frombuffer(raw, dtype="<u8").reshape(-1, words).astype(np.uint64)


def bytes_to_wire(data: bytes) -> str:
    """Raw bytes → base64 text (generation file chunks)."""
    return base64.b64encode(data).decode("ascii")


def bytes_from_wire(text: str) -> bytes:
    """Inverse of :func:`bytes_to_wire`."""
    try:
        return base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"malformed chunk payload: {exc}") from exc
