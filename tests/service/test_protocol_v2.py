"""The wire format: round trips, framing defence, the gate, metrics.

Four bars, matching the protocol's design:

* **Round-trip identity** — every payload kind decodes equal to the
  in-memory original, and remote answers are identical to a local query
  over the same state;
* **Adversarial framing** — truncated payload regions, mismatched
  descriptor sums, bogus dtypes/shapes, payloads whose declared dtype
  or rank is not what the extractor's ``attach_*`` twin writes,
  reserved-key smuggling and oversized frames raise the typed
  :class:`ProtocolError` (never a numpy/json internals error) and never
  take the daemon down;
* **One version** — a frame of any other version gets the versioned
  error and a hang-up, while a hand-built version-3 frame still decodes;
* **Transport accounting** — both sides count wire bytes, and the
  daemon's ``metrics`` op surfaces per-op payload percentiles.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro.errors import ProtocolError, ServiceError
from repro.service import ClusterService, ServiceClient, ServiceConfig
from repro.service import protocol
from repro.service.protocol import (
    BINARY_KEY,
    MAGIC,
    MAX_FRAME_BYTES,
    MAX_PAYLOADS_PER_FRAME,
    PAYLOADS_KEY,
    FrameReceiver,
    attach_chunk,
    attach_matches,
    attach_spectra,
    attach_vectors,
    encode_frame,
    extract_chunk,
    extract_matches,
    extract_spectra,
    extract_vectors,
)
from repro.spectrum import MassSpectrum
from repro.store import ClusterMatch, ClusterRepository, QueryService


_HEADER = struct.Struct(">4sHI")
_JSON_LEN = struct.Struct(">I")


def make_service(directory, **overrides):
    defaults = dict(checkpoint_interval=0.2, coalesce_window_ms=1.0)
    defaults.update(overrides)
    return ClusterService(directory, ServiceConfig(**defaults))


def queries_of(dataset):
    half = len(dataset) // 2
    return dataset.spectra[half : half + 6]


def roundtrip(message):
    """Encode → socketpair → decode, like one request would travel."""
    a, b = socket.socketpair()
    try:
        protocol.send_message(a, message)
        a.close()
        return FrameReceiver().recv_message(b)
    finally:
        b.close()


def deliver(raw: bytes):
    """Push raw crafted bytes at a FrameReceiver over a socketpair."""
    a, b = socket.socketpair()
    try:
        a.sendall(raw)
        a.close()
        return FrameReceiver().recv_frame(b)
    finally:
        b.close()


def v3_frame(head: dict, payload: bytes = b"", total=None) -> bytes:
    """Hand-rolled version-3 frame (no validation — that's the point)."""
    body = json.dumps(head, separators=(",", ":")).encode("utf-8")
    region = _JSON_LEN.pack(len(body)) + body + payload
    if total is None:
        total = len(region)
    return _HEADER.pack(MAGIC, 3, total) + region


def descriptor(name, dtype="<f8", shape=(4,), nbytes=32, **extra):
    record = {
        "name": name,
        "dtype": dtype,
        "shape": list(shape),
        "nbytes": nbytes,
    }
    record.update(extra)
    return record


def redeclared(message: dict, name: str, **changes) -> dict:
    """``message`` with payload ``name``'s descriptor edited after
    attachment: the same bytes under an untrue declaration (the encoder
    only checks byte counts, like any hostile sender would satisfy)."""
    for record in message[PAYLOADS_KEY]:
        if record["name"] == name:
            record.update(changes)
    return message


def _lies():
    """``(message, extractor)`` per well-framed message whose payloads
    are not what the extractor's ``attach_*`` twin writes."""
    vectors = np.arange(32, dtype=np.uint64).reshape(2, 16)
    spectrum = MassSpectrum("s", 500.25, 2, [100.0, 200.5], [1.0, 2.0])
    row = [ClusterMatch(7, 0, 1, 3, 0.1, 2, "ab", 400.5, 2)]

    def query_vectors():
        return attach_vectors({"op": "query_vectors", "k": 2}, vectors)

    return {
        "vec-declared-float": (
            redeclared(query_vectors(), "vec", dtype="<f8"),
            extract_vectors,
        ),
        "vec-declared-flat": (
            redeclared(query_vectors(), "vec", shape=[32]),
            extract_vectors,
        ),
        "vec-missing": ({"op": "query_vectors", "k": 2}, extract_vectors),
        "dim-not-an-integer": (
            {**query_vectors(), "dim": "abc"},
            extract_vectors,
        ),
        "spectra-mz-declared-int": (
            redeclared(
                attach_spectra({"op": "query"}, [spectrum]),
                "spectra.mz",
                dtype="<i8",
            ),
            extract_spectra,
        ),
        "spectra-missing": ({"op": "query"}, extract_spectra),
        "chunk-missing": (
            {"op": "push_chunk", "generation": 1, "name": "x"},
            extract_chunk,
        ),
        "matches-ints-declared-float": (
            redeclared(
                attach_matches({"status": "ok"}, [row]),
                "results.i",
                dtype="<f8",
            ),
            extract_matches,
        ),
        "matches-missing": ({"status": "ok"}, extract_matches),
    }


LIES = _lies()


class TestCodecRoundTrip:
    def test_vectors_ride_binary_and_decode_equal(self):
        vectors = np.arange(48, dtype=np.uint64).reshape(3, 16)
        message = attach_vectors({"op": "query_vectors", "k": 2}, vectors)
        received = roundtrip(message)
        assert BINARY_KEY in received
        out = extract_vectors(received)
        assert out.dtype == np.dtype("<u8")
        np.testing.assert_array_equal(out, vectors)

    def test_spectra_round_trip_bit_exact(self, service_dataset):
        batch = queries_of(service_dataset)
        message = attach_spectra({"op": "ingest"}, batch)
        out = extract_spectra(roundtrip(message))
        assert len(out) == len(batch)
        for theirs, ours in zip(out, batch):
            assert theirs.identifier == ours.identifier
            assert theirs.precursor_mz == ours.precursor_mz
            np.testing.assert_array_equal(theirs.mz, ours.mz)
            np.testing.assert_array_equal(theirs.intensity, ours.intensity)

    def test_chunk_rides_as_zero_copy_view(self):
        data = bytes(range(256)) * 17
        received = roundtrip(attach_chunk({"status": "ok"}, data))
        chunk = extract_chunk(received)
        assert isinstance(chunk, memoryview)
        assert bytes(chunk) == data

    def test_empty_payloads_survive(self):
        message = attach_matches({"status": "ok"}, [])
        assert extract_matches(roundtrip(message)) == []
        message = attach_spectra({"op": "ingest"}, [])
        assert extract_spectra(roundtrip(message)) == []

    def test_numpy_payload_views_are_8_byte_aligned(self):
        vectors = np.arange(32, dtype=np.uint64).reshape(2, 16)
        received = roundtrip(
            attach_vectors({"op": "query_vectors", "pad": "x"}, vectors)
        )
        view = received[BINARY_KEY]["vec"]
        assert view.ctypes.data % 8 == 0


class TestAdversarialFrames:
    """Every malformed frame raises the typed ProtocolError."""

    def test_truncated_payload_region_raises(self):
        raw = v3_frame(
            {"op": "x", PAYLOADS_KEY: [descriptor("p")]},
            payload=b"\x00" * 16,  # 16 on the wire...
            total=None,
        )
        # ...then lie: header promises 16 more bytes that never come.
        header = _HEADER.pack(MAGIC, 3, len(raw) - _HEADER.size + 16)
        with pytest.raises(ProtocolError, match="closed mid-frame"):
            deliver(header + raw[_HEADER.size :])

    def test_declared_payload_sum_must_match_region(self):
        raw = v3_frame(
            {"op": "x", PAYLOADS_KEY: [descriptor("p", nbytes=32)]},
            payload=b"\x00" * 16,
        )
        with pytest.raises(ProtocolError, match="payload size mismatch"):
            deliver(raw)

    def test_shape_and_nbytes_must_agree(self):
        bad = descriptor("p", shape=(3,), nbytes=32)
        raw = v3_frame(
            {"op": "x", PAYLOADS_KEY: [bad]}, payload=b"\x00" * 32
        )
        with pytest.raises(ProtocolError, match="shape implies"):
            deliver(raw)

    def test_unsupported_dtype_is_rejected(self):
        bad = descriptor("p", dtype="<f4", shape=(8,), nbytes=32)
        raw = v3_frame(
            {"op": "x", PAYLOADS_KEY: [bad]}, payload=b"\x00" * 32
        )
        with pytest.raises(ProtocolError, match="unsupported dtype"):
            deliver(raw)

    def test_duplicate_payload_names_are_rejected(self):
        raw = v3_frame(
            {"op": "x", PAYLOADS_KEY: [descriptor("p"), descriptor("p")]},
            payload=b"\x00" * 64,
        )
        with pytest.raises(ProtocolError, match="duplicate payload"):
            deliver(raw)

    def test_payload_count_cap_is_enforced(self):
        too_many = [
            descriptor(f"p{i}", shape=(0,), nbytes=0)
            for i in range(MAX_PAYLOADS_PER_FRAME + 1)
        ]
        raw = v3_frame({"op": "x", PAYLOADS_KEY: too_many})
        with pytest.raises(ProtocolError, match="limit"):
            deliver(raw)

    def test_undeclared_payload_bytes_are_rejected(self):
        raw = v3_frame({"op": "x"}, payload=b"sneaky")
        with pytest.raises(ProtocolError, match="undeclared payload"):
            deliver(raw)

    def test_reserved_binary_key_cannot_be_smuggled(self):
        raw = v3_frame({"op": "x", BINARY_KEY: {"p": "boo"}})
        with pytest.raises(ProtocolError, match="reserved"):
            deliver(raw)

    def test_frame_size_cap_is_a_typed_error(self):
        header = _HEADER.pack(MAGIC, 3, MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds the protocol"):
            deliver(header)

    def test_json_length_beyond_frame_is_rejected(self):
        body = b'{"op":"x"}'
        region = _JSON_LEN.pack(len(body) + 50) + body
        raw = _HEADER.pack(MAGIC, 3, len(region)) + region
        with pytest.raises(ProtocolError, match="JSON length"):
            deliver(raw)

    def test_spectrum_record_count_mismatch_is_typed(self, service_dataset):
        batch = queries_of(service_dataset)
        message = attach_spectra({"op": "ingest"}, batch)
        message["spectra"] = message["spectra"][:-1]  # drop one record
        received = roundtrip(message)
        with pytest.raises(ProtocolError, match="count mismatch"):
            extract_spectra(received)


    @staticmethod
    def _two_matches(id_bytes: bytes):
        """A one-row answer whose two 2-byte identifiers are swapped for
        ``id_bytes`` after attachment (lengths stay [2, 2])."""
        row = [
            ClusterMatch(7, 0, label, 3, 0.1, 2, "ab", 400.5, 2)
            for label in (1, 2)
        ]
        message = attach_matches({"status": "ok"}, [row])
        message[BINARY_KEY]["results.id"] = id_bytes
        return message

    @pytest.mark.parametrize(
        "id_bytes, reason",
        [
            (b"a\xffcd", "not UTF-8"),  # no such byte in UTF-8
            (b"ab\xc3d", "not UTF-8"),  # truncated two-byte character
            (b"a\xc3\xa9d", "split a UTF-8 character"),  # valid blob, bad cut
        ],
    )
    def test_match_identifiers_must_be_utf8(self, id_bytes, reason):
        message = self._two_matches(id_bytes)
        with pytest.raises(ProtocolError, match=reason):
            extract_matches(roundtrip(message))
        # Multi-byte characters cut *between* identifiers are fine.
        fine = self._two_matches("éü".encode("utf-8"))
        assert extract_matches(roundtrip(fine))[0][1].medoid_identifier == "ü"

    def test_match_columns_of_the_wrong_dtype_are_typed(self):
        message = self._two_matches(b"abcd")
        counts = message[PAYLOADS_KEY][0]
        assert counts["name"] == "results.n"
        counts.update(dtype="B", shape=[8])  # same bytes, not an int column
        with pytest.raises(ProtocolError, match="'results.n' must be"):
            extract_matches(roundtrip(message))

    @pytest.mark.parametrize("case", sorted(LIES))
    def test_payloads_must_be_what_the_extractor_expects(self, case):
        message, extract = LIES[case]
        with pytest.raises(ProtocolError, match="payload|'dim'"):
            extract(roundtrip(message))

    def test_match_counts_must_cover_the_columns(self):
        message = self._two_matches(b"abcd")
        message[BINARY_KEY]["results.n"] = np.array([3], dtype="<i8")
        with pytest.raises(ProtocolError, match="count mismatch"):
            extract_matches(roundtrip(message))


class TestReceiverBuffers:
    def test_buffer_is_reused_across_frames(self):
        a, b = socket.socketpair()
        try:
            receiver = FrameReceiver()
            for index in range(3):
                protocol.send_message(a, {"op": "ping", "seq": index})
                message = receiver.recv_message(b)
                assert message["seq"] == index
                if index == 0:
                    first_buffer = receiver._buffer
            assert receiver._buffer is first_buffer
        finally:
            a.close()
            b.close()

    def test_oversized_frames_use_a_transient_buffer(self):
        big = b"\x00" * (protocol._RETAIN_BUFFER_BYTES + 1)
        a, b = socket.socketpair()
        try:
            receiver = FrameReceiver()
            sender = threading.Thread(
                target=protocol.send_message,
                args=(a, attach_chunk({"status": "ok"}, big)),
            )
            sender.start()
            message = receiver.recv_message(b)
            sender.join()
            assert bytes(extract_chunk(message)) == big
            # The giant frame must not pin its high-water mark.
            assert len(receiver._buffer) <= protocol._RETAIN_BUFFER_BYTES
        finally:
            a.close()
            b.close()


class TestRemoteEqualsLocal:
    """What a client gets over the wire is what a local call returns."""

    def test_query_vectors_identical_to_local(
        self, populated_repo, service_dataset
    ):
        with make_service(populated_repo) as service:
            service.start()
            vectors = service.repository.encoder.encode_batch(
                queries_of(service_dataset)
            )
            local = service.query_vectors(vectors, k=3)
            with ServiceClient(port=service.port) as client:
                assert client.query_vectors(vectors, k=3) == local

    def test_spectrum_query_and_ingest(self, populated_repo, service_dataset):
        queries = queries_of(service_dataset)
        with make_service(populated_repo) as service:
            service.start()
            local = service.query(queries, k=3)
            with ServiceClient(port=service.port) as client:
                assert client.query(queries, k=3) == local
                report = client.ingest(service_dataset.spectra[-4:])
                assert report.num_added == 4

    def test_fetch_chunk_bytes_identical_to_the_file(self, populated_repo):
        with make_service(populated_repo) as service:
            service.start()
            with ServiceClient(port=service.port) as client:
                generation, files, _manifest = client.generation_files()
                entry = max(files, key=lambda f: f.size)
                chunk = client.fetch_chunk(
                    generation, entry.name, 0, min(entry.size, 65536)
                )
                data = bytes(chunk)
        with open(
            populated_repo
            / "segments"
            / f"gen-{generation:06d}"
            / entry.name,
            "rb",
        ) as handle:
            assert handle.read(len(data)) == data


def exchange(port: int, raw: bytes):
    """Send raw bytes on a fresh connection; ``(reply, peer_hung_up)``."""
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(raw)
        reply = protocol.recv_message(sock)
        sock.settimeout(0.5)
        try:
            hung_up = sock.recv(1) == b""
        except socket.timeout:
            hung_up = False
    return reply, hung_up


class TestOneVersionGate:
    @pytest.mark.parametrize("version", [1, 2, 9])
    def test_foreign_version_frames_are_refused_and_the_daemon_serves_on(
        self, populated_repo, service_dataset, version
    ):
        with make_service(populated_repo) as service:
            service.start()
            # What versions 1 and 2 carried: the bare JSON object (the
            # body is drained undecoded whatever it holds).
            body = json.dumps({"op": "hello", "protocol": version}).encode()
            reply, hung_up = exchange(
                service.port, _HEADER.pack(MAGIC, version, len(body)) + body
            )
            assert reply == {
                "status": "error",
                "error": f"unsupported protocol version {version} "
                "(this build speaks 3)",
            }
            assert hung_up
            vectors = service.repository.encoder.encode_batch(
                queries_of(service_dataset)
            )
            with ClusterRepository.open(populated_repo) as repository:
                with QueryService(repository) as local:
                    expected = local.query_vectors(vectors, k=3)
            with ServiceClient(port=service.port) as client:
                assert client.query_vectors(vectors, k=3) == expected

    def test_hand_built_version_3_frame_still_decodes(self, populated_repo):
        """A frame packed without the encoder — and with the ``kind`` /
        ``field`` descriptor keys earlier builds wrote — is served."""
        vectors = np.zeros((1, 16), dtype="<u8")
        vec = descriptor(
            "vec", "<u8", (1, 16), vectors.nbytes, kind="vectors", field="vec"
        )
        head = {"op": "query_vectors", "k": 1, "dim": 1024, PAYLOADS_KEY: [vec]}
        with make_service(populated_repo) as service:
            service.start()
            reply, hung_up = exchange(
                service.port, v3_frame(head, vectors.tobytes())
            )
            assert reply["status"] == "ok" and not hung_up
            assert extract_matches(reply) == service.query_vectors(vectors, k=1)

    def test_hello_with_another_version_is_refused(self, populated_repo):
        with make_service(populated_repo) as service:
            service.start()
            reply, hung_up = exchange(
                service.port, v3_frame({"op": "hello", "protocol": 2})
            )
            assert reply["status"] == "error"
            assert "unsupported protocol version 2" in reply["error"]
            assert not hung_up  # a readable frame: the connection stays


class TestDaemonSurvivesBadFrames:
    def test_malformed_payload_frame_drops_only_that_connection(
        self, populated_repo, service_dataset
    ):
        with make_service(populated_repo) as service:
            service.start()
            raw = v3_frame(
                {"op": "query_vectors", PAYLOADS_KEY: [descriptor("vec")]},
                payload=b"\x00" * 16,  # descriptor says 32
            )
            with socket.create_connection(
                ("127.0.0.1", service.port)
            ) as sock:
                sock.sendall(raw)
                assert sock.recv(1) == b""  # dropped, no crash
            # The daemon still serves fresh connections afterwards.
            vectors = service.repository.encoder.encode_batch(
                queries_of(service_dataset)[:2]
            )
            with ServiceClient(port=service.port) as client:
                assert client.query_vectors(vectors, k=2) == (
                    service.query_vectors(vectors, k=2)
                )

    @pytest.mark.parametrize(
        "case", sorted(c for c in LIES if "op" in LIES[c][0])
    )
    def test_lying_payloads_get_an_error_reply_not_a_dead_daemon(
        self, populated_repo, case
    ):
        message, _extract = LIES[case]
        with make_service(populated_repo) as service:
            service.start()
            with socket.create_connection(
                ("127.0.0.1", service.port)
            ) as sock:
                sock.sendall(encode_frame(message))
                reply = protocol.recv_message(sock)
                assert reply["status"] == "error"
                assert "ProtocolError" in reply["error"]
                # Well-framed, so even this connection keeps working.
                protocol.send_message(sock, {"op": "ping"})
                assert protocol.recv_message(sock)["status"] == "ok"

    def test_mid_payload_disconnect_does_not_wedge_the_daemon(
        self, populated_repo
    ):
        with make_service(populated_repo) as service:
            service.start()
            partial = v3_frame(
                {"op": "x", PAYLOADS_KEY: [descriptor("p", nbytes=1 << 20,
                                                      shape=(1 << 17,))]},
                payload=b"",
                total=1 << 21,
            )
            with socket.create_connection(
                ("127.0.0.1", service.port)
            ) as sock:
                sock.sendall(partial)
            # Connection dropped mid-frame; a fresh client still works.
            with ServiceClient(port=service.port) as client:
                assert client.ping() == 1


class TestTransportAccounting:
    def test_daemon_metrics_and_client_counters_track_wire_bytes(
        self, populated_repo, service_dataset
    ):
        with make_service(populated_repo) as service:
            service.start()
            vectors = service.repository.encoder.encode_batch(
                queries_of(service_dataset)
            )
            with ServiceClient(port=service.port) as client:
                client.query_vectors(vectors, k=2)
                metrics = client.metrics()
                assert client.bytes_sent > vectors.nbytes
                assert client.bytes_received > 0
        transport = metrics["transport"]
        assert transport["bytes_received"] > vectors.nbytes
        assert transport["bytes_sent"] > 0
        assert transport["frames_received"] >= 2  # hello + query
        sizes = transport["ops"]["query_vectors"]
        assert sizes["count"] == 1
        assert sizes["request_p50_bytes"] > vectors.nbytes
        assert sizes["request_p99_bytes"] >= sizes["request_p50_bytes"]
        assert sizes["response_p50_bytes"] > 0
