"""Client for the cluster-query daemon's socket protocol.

:class:`ServiceClient` speaks :mod:`repro.service.protocol` over one
persistent TCP connection (requests are strictly request/response, so
one socket serves a client thread for its whole session).  Results come
back as the same :class:`~repro.store.MatchTable` /
:class:`~repro.store.RepositoryUpdateReport` objects the in-process
:class:`~repro.store.QueryService` and :class:`~repro.store.ClusterRepository`
return — remote and local serving are drop-in interchangeable for
callers.  A returned table owns its memory: it stays valid across later
requests on the same connection.

Failure handling is deliberately three-tiered:

* ``busy`` responses (admission control: WAL backlog or a full query
  queue) raise :class:`~repro.errors.ServiceBusy` — *always* retryable,
  and :meth:`ServiceClient.call` retries them with jittered exponential
  backoff for every op;
* transport failures (reset, timeout, daemon restart) are retried with
  a fresh connection, but **only for idempotent ops** — retrying an
  ``ingest`` whose response was lost could double-apply the batch;
* protocol errors (an ``error`` response) are never retried: the daemon
  saw the request and rejected it, so sending it again cannot help.

On connect the client sends ``hello`` announcing
:data:`~repro.service.protocol.PROTOCOL_VERSION` and requires the
server to answer with the same number; anything else fails the connect
with the protocol's one clear version-mismatch sentence instead of a
decode error on the first real request.

Bulk payloads (vectors, spectra, chunks, results) ride as out-of-band
binary payloads; :attr:`ServiceClient.bytes_sent` /
:attr:`~ServiceClient.bytes_received` count the wire traffic.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ServiceBusy, ServiceError
from ..spectrum import MassSpectrum
from ..store import RepositoryUpdateReport
from ..store.generation import GenerationFile
from ..store.matches import MatchTable
from . import protocol

#: Ops safe to retry on a fresh connection after a transport failure:
#: pure reads, plus transfer ops that are offset-addressed (re-sending a
#: chunk rewrites the same bytes) or re-enterable (``push_begin`` resumes,
#: ``push_commit`` verifies before installing and is a no-op once the
#: target is current).  ``ingest`` is the notable absence: a lost
#: response leaves "was it applied?" unknowable, so it must not re-send.
IDEMPOTENT_OPS = frozenset(
    {
        "ping",
        "info",
        "metrics",
        "manifest",
        "hello",
        "query",
        "query_vectors",
        "generation_files",
        "fetch_chunk",
        "push_chunk",
        "fleet_status",
    }
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with jittered exponential backoff.

    ``attempts`` counts total tries (1 = no retry).  The delay before
    retry *n* (0-based) is ``backoff * multiplier**n``, capped at
    ``max_backoff``, then scaled by a uniform factor in
    ``[1 - jitter, 1 + jitter]`` so a fleet of retrying clients does not
    stampede the daemon in lockstep.
    """

    attempts: int = 4
    backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ServiceError("RetryPolicy.attempts must be >= 1")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ServiceError("RetryPolicy backoff values must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ServiceError("RetryPolicy.jitter must be in [0, 1]")

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = min(self.backoff * self.multiplier**attempt, self.max_backoff)
        return base * rng.uniform(1 - self.jitter, 1 + self.jitter)


#: No-retry policy for one-shot callers (and tests asserting behaviour
#: of a single attempt).
NO_RETRY = RetryPolicy(attempts=1)


def _report_from_wire(record: dict) -> RepositoryUpdateReport:
    try:
        return RepositoryUpdateReport(
            seq=int(record["seq"]),
            num_added=int(record["num_added"]),
            num_absorbed=int(record["num_absorbed"]),
            num_new_clusters=int(record["num_new_clusters"]),
            num_dropped=int(record["num_dropped"]),
            shards_touched=int(record["shards_touched"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed ingest report: {exc}") from exc


class ServiceClient:
    """One connection to a running :class:`~repro.service.ClusterService`.

    Not thread-safe: the protocol is strictly request/response on one
    socket, so give each client thread its own instance (or check one
    out of a :class:`ServiceClientPool`).

    Parameters
    ----------
    timeout:
        Default per-request socket timeout in seconds.
    op_timeouts:
        Per-op overrides, e.g. ``{"ping": 2.0, "push_chunk": 120.0}`` —
        health probes want to fail fast while bulk transfer ops want
        room.
    retry:
        Default :class:`RetryPolicy` applied by :meth:`call` (and every
        convenience method).  Pass :data:`NO_RETRY` to disable.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: Optional[float] = 60.0,
        op_timeouts: Optional[Dict[str, float]] = None,
        retry: RetryPolicy = RetryPolicy(),
        connect_timeout: Optional[float] = None,
    ) -> None:
        if port < 1:
            raise ServiceError("port must be a bound daemon port")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.op_timeouts = dict(op_timeouts or {})
        self.retry = retry
        self._connect_timeout = (
            connect_timeout if connect_timeout is not None else timeout
        )
        self._rng = random.Random()
        self._sock: Optional[socket.socket] = None
        self._receiver = protocol.FrameReceiver()
        #: Total wire bytes this client has sent / received (framing
        #: included) — the client-side mirror of the daemon's transport
        #: metrics.
        self.bytes_sent = 0
        self.bytes_received = 0
        self._connect()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self._connect_timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._hello()

    def _hello(self) -> None:
        """The ``hello`` gate: the server must speak our frame version."""
        assert self._sock is not None
        timeout = self.op_timeouts.get("hello", self.timeout)
        self._sock.settimeout(timeout)
        try:
            self.bytes_sent += protocol.send_message(
                self._sock,
                {"op": "hello", "protocol": protocol.PROTOCOL_VERSION},
            )
            response = self._receiver.recv_message(self._sock)
            self.bytes_received += self._receiver.last_frame_bytes
        except OSError as exc:
            raise ServiceError(
                f"version negotiation failed: {exc}"
            ) from exc
        if response is None:
            raise ServiceError(
                "server closed the connection during version negotiation"
            )
        if response.get("status") != "ok":
            raise ServiceError(
                str(response.get("error") or "version negotiation failed")
            )
        theirs = response.get("protocol")
        if theirs != protocol.PROTOCOL_VERSION:
            raise ServiceError(protocol.version_mismatch_error(theirs))

    def _roundtrip(self, request: dict, timeout: Optional[float]) -> dict:
        """One send/recv on the live socket; OSError means transport."""
        if self._sock is None:
            raise OSError("connection is closed")
        self._sock.settimeout(timeout)
        self.bytes_sent += protocol.send_message(self._sock, request)
        response = self._receiver.recv_message(self._sock)
        self.bytes_received += self._receiver.last_frame_bytes
        if response is None:
            raise OSError("service closed the connection")
        return response

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def call(
        self,
        request: dict,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Send one request with the client's full failure discipline.

        Busy responses back off and retry (any op); transport failures
        reconnect and retry (idempotent ops only); error responses raise
        immediately.  The last attempt's failure propagates.
        """
        policy = retry if retry is not None else self.retry
        op = request.get("op")
        if timeout is None:
            timeout = self.op_timeouts.get(op, self.timeout)
        idempotent = op in IDEMPOTENT_OPS
        last_error: Optional[Exception] = None
        for attempt in range(policy.attempts):
            if attempt and last_error is not None:
                time.sleep(policy.delay(attempt - 1, self._rng))
            try:
                if self._sock is None:
                    self._connect()
                response = self._roundtrip(request, timeout)
            except ServiceError:
                raise  # negotiation/framing rejection: not transient
            except OSError as exc:
                self._drop_connection()
                last_error = ServiceError(
                    f"service connection failed: {exc}"
                )
                if idempotent and attempt + 1 < policy.attempts:
                    continue
                raise last_error from exc
            status = response.get("status")
            if status == "ok":
                return response
            if status == "busy":
                last_error = ServiceBusy(
                    response.get("error", "service is busy")
                )
                if attempt + 1 < policy.attempts:
                    continue
                raise last_error
            raise ServiceError(
                response.get("error", "service request failed")
            )
        raise last_error if last_error else ServiceError(
            "service request failed"
        )

    def _call(self, request: dict) -> dict:
        """One-shot request (no retry) — the primitive ``call`` wraps."""
        return self.call(request, retry=NO_RETRY)

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------

    def ping(self) -> int:
        """Round-trip liveness probe; returns the serving generation."""
        return int(self.call({"op": "ping"})["generation"])

    def info(self) -> dict:
        """The daemon's repository + service health record."""
        return self.call({"op": "info"})["info"]

    def metrics(self) -> dict:
        """The daemon's operational metrics record (cheap health probe)."""
        return self.call({"op": "metrics"})["metrics"]

    def manifest(self) -> Tuple[int, str]:
        """``(generation, manifest JSON)`` of the serving snapshot."""
        response = self.call({"op": "manifest"})
        return int(response["generation"]), str(response["manifest"])

    def query(
        self, spectra: Sequence[MassSpectrum], k: int = 5
    ) -> MatchTable:
        """Top-k nearest clusters per spectrum (QC failures → empty)."""
        request = {"op": "query", "k": int(k)}
        protocol.attach_spectra(request, spectra)
        return protocol.extract_matches(self.call(request))

    def query_vectors(
        self, vectors: np.ndarray, k: int = 5
    ) -> MatchTable:
        """Top-k nearest clusters for pre-encoded packed vectors."""
        request = {"op": "query_vectors", "k": int(k)}
        protocol.attach_vectors(request, vectors)
        return protocol.extract_matches(self.call(request))

    def query_partial(
        self,
        vectors: np.ndarray,
        k: int = 5,
        shards: Optional[Sequence[int]] = None,
        generation: Optional[int] = None,
    ) -> Tuple[int, MatchTable]:
        """Shard-restricted / generation-pinned query (the router's op).

        Returns ``(generation_served, results)`` so the router can
        detect mixed-generation fan-outs and re-pin.
        """
        request = {"op": "query_vectors", "k": int(k)}
        protocol.attach_vectors(request, vectors)
        if shards is not None:
            request["shards"] = [int(s) for s in shards]
        if generation is not None:
            request["generation"] = int(generation)
        response = self.call(request)
        return (
            int(response["generation"]),
            protocol.extract_matches(response),
        )

    def ingest(
        self, spectra: Sequence[MassSpectrum]
    ) -> RepositoryUpdateReport:
        """Durably ingest one batch through the daemon's writer."""
        request = {"op": "ingest"}
        protocol.attach_spectra(request, spectra)
        return _report_from_wire(self.call(request)["report"])

    def checkpoint(self) -> Optional[int]:
        """Ask the daemon to checkpoint now; None when nothing pending."""
        generation = self.call({"op": "checkpoint"}).get("generation")
        return None if generation is None else int(generation)

    # -- replication -----------------------------------------------------

    def generation_files(
        self,
    ) -> Tuple[int, List[GenerationFile], str]:
        """``(generation, files, manifest JSON)`` of the serving snapshot."""
        response = self.call({"op": "generation_files"})
        try:
            files = [
                GenerationFile.from_wire(entry)
                for entry in response["files"]
            ]
            return int(response["generation"]), files, str(
                response["manifest"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"malformed generation listing: {exc}"
            ) from exc

    def fetch_chunk(
        self, generation: int, name: str, offset: int, length: int
    ) -> bytes:
        """One byte range of a generation member on the source node.

        Returns a zero-copy memoryview into the client's receive buffer
        — valid until this client's next request, so consume
        (write/compare) or copy it before reusing the client.
        """
        response = self.call(
            {
                "op": "fetch_chunk",
                "generation": int(generation),
                "name": str(name),
                "offset": int(offset),
                "length": int(length),
            }
        )
        return protocol.extract_chunk(response)

    def push_begin(
        self,
        generation: int,
        files: Sequence[GenerationFile],
        manifest_json: str,
    ) -> Optional[Dict[str, int]]:
        """Open/resume an inbound transfer on the target node.

        Returns resume offsets per file name, or ``None`` when the
        target is already at or past ``generation``.
        """
        response = self.call(
            {
                "op": "push_begin",
                "generation": int(generation),
                "files": [entry.to_wire() for entry in files],
                "manifest": str(manifest_json),
            }
        )
        if response.get("already_current"):
            return None
        offsets = response.get("offsets", {})
        return {str(name): int(off) for name, off in offsets.items()}

    def push_chunk(
        self, generation: int, name: str, offset: int, data: bytes
    ) -> None:
        """Stage one byte range on the target node."""
        request = {
            "op": "push_chunk",
            "generation": int(generation),
            "name": str(name),
            "offset": int(offset),
        }
        protocol.attach_chunk(request, data)
        self.call(request)

    def push_commit(self, generation: int) -> int:
        """Verify + install the pushed generation on the target node."""
        return int(
            self.call({"op": "push_commit", "generation": int(generation)})[
                "generation"
            ]
        )

    def shutdown(self) -> None:
        """Stop the daemon (acknowledged before the server exits)."""
        self.call({"op": "shutdown"}, retry=NO_RETRY)


class ServiceClientPool:
    """A small thread-safe pool of :class:`ServiceClient` connections.

    The router checks a client out per request and returns it after; a
    client that died mid-request is discarded rather than returned, so
    the pool never hands out a known-bad socket.  ``max_idle`` bounds
    retained connections; checkouts beyond it simply open fresh sockets
    (connections are cheap, daemon threads are per-connection).
    """

    def __init__(
        self,
        host: str,
        port: int,
        max_idle: int = 4,
        timeout: Optional[float] = 60.0,
        op_timeouts: Optional[Dict[str, float]] = None,
        retry: RetryPolicy = RetryPolicy(),
        connect_timeout: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.max_idle = max_idle
        self._timeout = timeout
        self._op_timeouts = op_timeouts
        self._retry = retry
        self._connect_timeout = connect_timeout
        self._idle: List[ServiceClient] = []
        self._lock = threading.Lock()
        self._closed = False

    def checkout(self) -> ServiceClient:
        with self._lock:
            if self._closed:
                raise ServiceError("client pool is closed")
            if self._idle:
                return self._idle.pop()
        return ServiceClient(
            self.host,
            self.port,
            timeout=self._timeout,
            op_timeouts=self._op_timeouts,
            retry=self._retry,
            connect_timeout=self._connect_timeout,
        )

    def checkin(self, client: ServiceClient, healthy: bool = True) -> None:
        if not healthy or client._sock is None:
            client.close()
            return
        with self._lock:
            if not self._closed and len(self._idle) < self.max_idle:
                self._idle.append(client)
                return
        client.close()

    def call(
        self,
        request: dict,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Checkout → call → checkin, discarding the client on failure."""
        client = self.checkout()
        healthy = True
        try:
            return client.call(request, retry=retry, timeout=timeout)
        except Exception:
            healthy = False
            raise
        finally:
            self.checkin(client, healthy=healthy)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
            self._closed = True
        for client in idle:
            client.close()

    def __enter__(self) -> "ServiceClientPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
