"""The socket front shared by the cluster daemon and the fleet router.

:class:`RequestServer` owns exactly the transport concerns — listening,
per-connection threads, framing, the ``hello`` version gate, and
the ``shutdown`` op's stop callback — and delegates every other request
to a ``handle(request) -> response`` callable.  Both
:class:`~repro.service.ClusterService` and
:class:`~repro.fleet.RouterDaemon` are that callable plus a request
vocabulary; neither reimplements the wire.

The version gate lives here so every server applies it uniformly:

* a frame whose version is not
  :data:`~repro.service.protocol.PROTOCOL_VERSION` is drained, answered
  with the clear ``unsupported protocol version N`` error and the
  connection is closed — never a decode failure;
* ``hello`` requests announce the peer's version and are answered
  ``ok`` (with ours) only when the two are equal, so a client learns of
  a mismatch at connect time rather than on its first real request.

Each connection holds one :class:`~repro.service.protocol.FrameReceiver`
so receive buffers are reused across requests, and every frame's wire
size is recorded in a shared :class:`TransportMetrics` that the daemon's
``metrics`` op surfaces.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import Callable, Dict, List, Optional

from .. import __version__
from ..errors import ServiceError
from . import protocol


class TransportMetrics:
    """Thread-safe wire-level counters for one server (or client pool).

    Tracks total bytes in/out plus a bounded ring of recent per-op
    frame sizes, from which :meth:`snapshot` derives p50/p99 payload
    sizes — the observable form of what a codec change actually saves.
    """

    def __init__(self, window: int = 2048) -> None:
        self._lock = threading.Lock()
        self._window = window
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self._request_sizes: Dict[str, deque] = {}
        self._response_sizes: Dict[str, deque] = {}

    def record(self, op: str, received: int, sent: int) -> None:
        with self._lock:
            self.bytes_received += received
            self.bytes_sent += sent
            self.frames_received += 1
            self.frames_sent += 1
            ring = self._request_sizes.get(op)
            if ring is None:
                ring = self._request_sizes[op] = deque(maxlen=self._window)
                self._response_sizes[op] = deque(maxlen=self._window)
            ring.append(received)
            self._response_sizes[op].append(sent)

    @staticmethod
    def _percentiles(ring) -> Dict[str, int]:
        ordered = sorted(ring)
        count = len(ordered)
        return {
            "p50_bytes": ordered[count // 2],
            "p99_bytes": ordered[min(count - 1, (count * 99) // 100)],
        }

    def snapshot(self) -> dict:
        with self._lock:
            ops = {}
            for op, ring in self._request_sizes.items():
                if not ring:
                    continue
                record = {"count": len(ring)}
                for side, sizes in (
                    ("request", ring),
                    ("response", self._response_sizes[op]),
                ):
                    for key, value in self._percentiles(sizes).items():
                        record[f"{side}_{key}"] = value
                ops[op] = record
            return {
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "frames_sent": self.frames_sent,
                "frames_received": self.frames_received,
                "ops": ops,
            }


class RequestServer:
    """A length-prefixed request/response listener.

    Parameters
    ----------
    host, port:
        Bind address; port 0 binds an ephemeral port (read :attr:`port`
        after :meth:`start`).
    handle:
        ``request dict -> response dict``; must never raise (servers
        wrap their dispatch in a catch-all).  ``hello`` requests are
        answered here and never reach it.
    on_shutdown:
        Called (on a fresh thread, after the response is on the wire)
        when a client sends the ``shutdown`` op.
    name:
        Thread-name prefix and the ``server`` field of hello responses.
    transport:
        Optional shared :class:`TransportMetrics`; one is created when
        omitted (read :attr:`transport`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        handle: Callable[[dict], dict],
        on_shutdown: Optional[Callable[[], None]] = None,
        name: str = "repro",
        transport: Optional[TransportMetrics] = None,
    ) -> None:
        self._host = host
        self._requested_port = port
        self._handle = handle
        self._on_shutdown = on_shutdown
        self._name = name
        self.transport = transport if transport is not None else (
            TransportMetrics()
        )
        self._stop = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self.port: Optional[int] = None

    def start(self) -> int:
        """Bind and launch the accept thread; returns the bound port."""
        if self._listener is not None:
            return self.port  # idempotent
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._requested_port))
        listener.listen(128)
        # A blocked accept() is not reliably woken by close() alone; the
        # timeout bounds how long stop() waits for the accept thread.
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        thread = threading.Thread(
            target=self._accept_loop,
            name=f"{self._name}-accept",
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)
        return self.port

    def stop(self) -> None:
        """Close the listener and join the accept thread (idempotent)."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        current = threading.current_thread()
        for thread in self._threads:
            if thread is not current:
                thread.join(timeout=10.0)
        self._threads.clear()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                connection, _address = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by stop()
            # Accepted sockets inherit the listener's timeout mode; the
            # per-connection protocol is blocking request/response.
            connection.setblocking(True)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name=f"{self._name}-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        receiver = protocol.FrameReceiver()
        with connection:
            connection.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            while not self._stop.is_set():
                try:
                    frame = receiver.recv_frame(connection)
                except (ServiceError, OSError):
                    return  # framing violation: drop the connection
                if frame is None:
                    return  # clean client disconnect
                version, request = frame
                if request is None:
                    # Not our frame version: answer with the versioned
                    # sentence (the header layout is fixed, so any peer
                    # can at least skip to it) and hang up.
                    try:
                        protocol.send_message(
                            connection,
                            {
                                "status": "error",
                                "error": protocol.version_mismatch_error(
                                    version
                                ),
                            },
                        )
                    except OSError:
                        pass
                    return
                response = self._respond(request)
                try:
                    sent = protocol.send_message(connection, response)
                except OSError:
                    return
                self.transport.record(
                    str(request.get("op", "?")),
                    receiver.last_frame_bytes,
                    sent,
                )
                if request.get("op") == "shutdown":
                    # Response is on the wire; stop from a helper thread
                    # so this handler can be joined like any other.
                    if self._on_shutdown is not None:
                        threading.Thread(
                            target=self._on_shutdown,
                            name=f"{self._name}-shutdown",
                        ).start()
                    return

    def _respond(self, request: dict) -> dict:
        if request.get("op") == "hello":
            try:
                announced = int(
                    request.get("protocol", protocol.PROTOCOL_VERSION)
                )
            except (TypeError, ValueError):
                return {
                    "status": "error",
                    "error": "hello 'protocol' must be an integer",
                }
            if announced != protocol.PROTOCOL_VERSION:
                return {
                    "status": "error",
                    "error": protocol.version_mismatch_error(announced),
                }
            return {
                "status": "ok",
                "protocol": protocol.PROTOCOL_VERSION,
                "server": f"{self._name}/{__version__}",
            }
        return self._handle(request)
