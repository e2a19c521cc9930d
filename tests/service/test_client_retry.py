"""Client failure discipline: retry classes, timeouts, pooling, versions.

The contract under test (see :mod:`repro.service.client`):

* ``busy`` responses retry with backoff for **every** op;
* transport failures retry on a fresh connection **only for idempotent
  ops** — a lost ``ingest`` response must never re-send;
* protocol ``error`` responses never retry;
* there is one protocol version: ``hello`` fails the connect unless the
  server answers with it, a frame of any other version is refused with
  the protocol's clear sentence rather than a decode failure, and
  neither is ever retried.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro.errors import ServiceBusy, ServiceError
from repro.service import (
    NO_RETRY,
    RequestServer,
    RetryPolicy,
    ServiceClient,
    ServiceClientPool,
)
from repro.service import protocol


FAST_RETRY = RetryPolicy(attempts=3, backoff=0.001, max_backoff=0.01)

_HEADER = struct.Struct(">4sHI")


def foreign_frame(message: dict, version: int) -> bytes:
    """``message`` framed by hand under another version number: the bare
    JSON body versions 1 and 2 carried (later ones are never decoded)."""
    body = json.dumps(message).encode("utf-8")
    return _HEADER.pack(protocol.MAGIC, version, len(body)) + body


class ScriptedServer:
    """A raw-socket server driven by a list of per-request behaviours.

    Each script entry handles one *non-hello* request: a dict is sent as
    the response; the string ``"drop"`` closes the connection without
    answering; a float sleeps that long before answering ``ok``.
    ``hello`` requests are answered from ``hello_response`` (or dropped
    when it is ``"drop"``) and do not consume script entries.
    """

    def __init__(self, script, hello_response=None, frame_version=None):
        self.script = list(script)
        self.requests = []
        self.hello_count = 0
        self.hello_response = hello_response or {
            "status": "ok",
            "protocol": protocol.PROTOCOL_VERSION,
            "server": "scripted/0",
        }
        self.frame_version = frame_version
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            # One thread per connection: pooled clients hold several
            # sockets open at once, and a serial accept loop would
            # deadlock the second hello behind the first idle socket.
            threading.Thread(
                target=self._connection_thread,
                args=(connection,),
                daemon=True,
            ).start()

    def _connection_thread(self, connection):
        with connection:
            try:
                self._serve_connection(connection)
            except (OSError, ServiceError):
                pass

    def _serve_connection(self, connection):
        while True:
            frame = protocol.recv_frame(connection)
            if frame is None:
                return
            _version, request = frame
            if request is None:
                return
            if request.get("op") == "hello":
                self.hello_count += 1
                if self.hello_response == "drop":
                    return
                protocol.send_message(connection, self.hello_response)
                continue
            self.requests.append(request)
            if not self.script:
                return
            action = self.script.pop(0)
            if action == "drop":
                return
            if isinstance(action, (int, float)):
                time.sleep(action)
                action = {"status": "ok"}
            if self.frame_version is not None:
                connection.sendall(foreign_frame(action, self.frame_version))
            else:
                protocol.send_message(connection, action)

    def close(self):
        try:
            self._listener.close()
        except OSError:
            pass


@pytest.fixture()
def scripted():
    servers = []

    def build(script, **kwargs):
        server = ScriptedServer(script, **kwargs)
        servers.append(server)
        return server

    yield build
    for server in servers:
        server.close()


class TestRetryClasses:
    def test_busy_is_retried_with_backoff_for_any_op(self, scripted):
        server = scripted(
            [
                {"status": "busy", "error": "queue full"},
                {"status": "busy", "error": "queue full"},
                {"status": "ok", "report": None},
            ]
        )
        with ServiceClient(port=server.port, retry=FAST_RETRY) as client:
            # ingest is NOT idempotent, but busy means "not admitted":
            # the daemon did no work, so retrying is always safe.
            response = client.call({"op": "ingest", "spectra": []})
        assert response["status"] == "ok"
        assert len(server.requests) == 3

    def test_busy_exhaustion_raises_service_busy(self, scripted):
        server = scripted(
            [{"status": "busy", "error": "still full"}] * 3
        )
        with ServiceClient(port=server.port, retry=FAST_RETRY) as client:
            with pytest.raises(ServiceBusy, match="still full"):
                client.call({"op": "ping"})
        assert len(server.requests) == 3

    def test_protocol_errors_are_never_retried(self, scripted):
        server = scripted(
            [{"status": "error", "error": "unknown op 'bogus'"}] * 3
        )
        with ServiceClient(port=server.port, retry=FAST_RETRY) as client:
            with pytest.raises(ServiceError, match="unknown op"):
                client.call({"op": "bogus"})
        # Exactly one request hit the wire: the daemon rejected it, so
        # sending it again could never succeed.
        assert len(server.requests) == 1

    def test_transport_failure_reconnects_for_idempotent_ops(
        self, scripted
    ):
        server = scripted(["drop", {"status": "ok", "generation": 7}])
        with ServiceClient(port=server.port, retry=FAST_RETRY) as client:
            assert client.ping() == 7
        assert len(server.requests) == 2
        # The retry arrived on a fresh connection (second hello).
        assert server.hello_count == 2

    def test_transport_failure_does_not_retry_ingest(self, scripted):
        server = scripted(["drop", {"status": "ok"}])
        with ServiceClient(port=server.port, retry=FAST_RETRY) as client:
            with pytest.raises(ServiceError, match="connection"):
                client.call({"op": "ingest", "spectra": []})
        # One attempt only: whether the daemon applied the batch is
        # unknowable, so the client must not re-send it.
        assert len(server.requests) == 1


class TestTimeouts:
    def test_per_op_timeout_beats_the_default(self, scripted):
        server = scripted([0.5])
        with ServiceClient(
            port=server.port,
            timeout=30.0,
            op_timeouts={"ping": 0.05},
            retry=NO_RETRY,
        ) as client:
            started = time.monotonic()
            with pytest.raises(ServiceError, match="connection failed"):
                client.call({"op": "ping"})
            assert time.monotonic() - started < 0.45


class TestVersionNegotiation:
    @pytest.mark.parametrize("theirs", [2, 99])
    def test_hello_answered_with_another_version_fails_the_connect(
        self, scripted, theirs
    ):
        server = scripted(
            [], hello_response={"status": "ok", "protocol": theirs}
        )
        with pytest.raises(
            ServiceError,
            match=f"unsupported protocol version {theirs} "
            r"\(this build speaks 3\)",
        ):
            ServiceClient(port=server.port)

    def test_version_refusal_on_reconnect_is_not_retried(self, scripted):
        server = scripted(["drop", {"status": "ok", "generation": 7}])
        with ServiceClient(port=server.port, retry=FAST_RETRY) as client:
            # The node is "upgraded" between the drop and the reconnect.
            server.hello_response = {"status": "ok", "protocol": 2}
            with pytest.raises(
                ServiceError, match="unsupported protocol version 2"
            ):
                client.ping()
        # connect + one reconnect: the refusal ended the retry loop.
        assert server.hello_count == 2
        assert len(server.requests) == 1

    def test_server_without_hello_is_an_error_not_a_fallback(self, scripted):
        server = scripted(
            [{"status": "ok", "generation": 3}],
            hello_response={
                "status": "error",
                "error": "unknown op 'hello'",
            },
        )
        with pytest.raises(ServiceError, match="unknown op 'hello'"):
            ServiceClient(port=server.port, retry=NO_RETRY)
        assert server.requests == []

    def test_drop_during_hello_is_a_clear_negotiation_error(
        self, scripted
    ):
        server = scripted([], hello_response="drop")
        with pytest.raises(ServiceError, match="negotiation"):
            ServiceClient(port=server.port)

    def test_undecodable_response_version_raises_the_clear_sentence(
        self, scripted
    ):
        server = scripted(
            [{"status": "ok", "generation": 1}], frame_version=7
        )
        with ServiceClient(port=server.port, retry=NO_RETRY) as client:
            with pytest.raises(
                ServiceError, match="unsupported protocol version 7"
            ):
                client.ping()

    @pytest.mark.parametrize(
        "version, request_",
        [
            (1, {"op": "hello", "protocol": 3}),  # an old client's hello
            (1, {"op": "ping"}),
            (2, {"op": "ping"}),
            (9, {"op": "ping"}),
        ],
        ids=["v1-hello", "v1-ping", "v2-ping", "v9-ping"],
    )
    def test_request_server_refuses_other_frame_versions(
        self, version, request_
    ):
        server = RequestServer(
            "127.0.0.1", 0, handle=lambda request: {"status": "ok"}
        )
        port = server.start()
        try:
            with socket.create_connection(("127.0.0.1", port)) as bystander:
                with socket.create_connection(("127.0.0.1", port)) as sock:
                    sock.sendall(foreign_frame(request_, version))
                    assert protocol.recv_message(sock) == {
                        "status": "error",
                        "error": f"unsupported protocol version {version} "
                        "(this build speaks 3)",
                    }
                    # ...and the server hangs up after the rejection.
                    assert sock.recv(1) == b""
                # A second connection keeps being served throughout.
                protocol.send_message(bystander, {"op": "ping"})
                assert protocol.recv_message(bystander) == {"status": "ok"}
        finally:
            server.stop()


class TestClientPool:
    def test_checkin_reuses_connections_up_to_max_idle(self, scripted):
        server = scripted([{"status": "ok"}] * 8)
        pool = ServiceClientPool(
            "127.0.0.1", server.port, max_idle=1, retry=NO_RETRY
        )
        try:
            first = pool.checkout()
            pool.checkin(first)
            assert pool.checkout() is first
            pool.checkin(first)
            # A second concurrent checkout opens a fresh connection...
            a, b = pool.checkout(), pool.checkout()
            assert a is not b
            pool.checkin(a)
            pool.checkin(b)
            # ...but only max_idle survive the checkins.
            assert len(pool._idle) == 1
        finally:
            pool.close()

    def test_unhealthy_clients_are_discarded_not_pooled(self, scripted):
        server = scripted(["drop"])
        pool = ServiceClientPool(
            "127.0.0.1", server.port, max_idle=2, retry=NO_RETRY
        )
        try:
            with pytest.raises(ServiceError):
                pool.call({"op": "ingest", "spectra": []})
            assert pool._idle == []
            # The pool recovers by dialling fresh connections.
            assert pool.checkout() is not None
        finally:
            pool.close()

    def test_closed_pool_refuses_checkout(self, scripted):
        server = scripted([])
        pool = ServiceClientPool("127.0.0.1", server.port)
        pool.close()
        with pytest.raises(ServiceError, match="closed"):
            pool.checkout()
