"""The scatter-gather query router with read failover.

:class:`RouterDaemon` owns no cluster data.  It holds a
:class:`~repro.fleet.placement.PlacementMap`, a connection pool per
node, and a health table, and serves the same query ops a single
:class:`~repro.service.ClusterService` does — so a client pointed at
the router cannot tell it from one big node:

* **Scatter.**  Each shard is queried on exactly one of its replicas
  (primary first, healthy first); shards choosing the same node
  coalesce into one ``query_vectors`` request restricted to that shard
  subset, and the per-node requests fan out concurrently.
* **Gather.**  Per-node partial answers arrive as columnar
  :class:`~repro.store.matches.MatchTable` s and go through the store's
  own :func:`~repro.store.matches.merge_topk` — the very function a
  node merges its shards with — so merged answers are **byte-identical**
  to a single node scanning everything by construction, not by two
  implementations agreeing.
* **Failover.**  A replica that fails mid-query is marked unhealthy and
  its shards are re-asked on their next replica, inside the same
  request — a probe cycle does not have to notice first.  Reads only:
  the router never writes.
* **Generation alignment.**  Nodes checkpoint independently, so a
  fan-out can straddle generations.  When partials disagree, the router
  re-asks the newer nodes *pinned* at the minimum generation observed —
  nodes retain superseded snapshot leases exactly for this (see
  ``ServiceConfig.retain_generations``) — so one answer never mixes two
  database states, even while a node concurrently checkpoints.
* **Health probes.**  A background thread polls each node's cheap
  ``metrics`` op; probe failures mark nodes unhealthy (skipped at scan
  planning) and later successes restore them.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, FleetError, ServiceError
from ..hdc import IDLevelEncoder
from ..logging import get_logger
from ..spectrum import MassSpectrum
from ..store.manifest import RepositoryManifest
from ..store.matches import MatchTable, merge_topk
from ..streaming import encode_spectra
from ..service import protocol
from ..service.client import NO_RETRY, RetryPolicy, ServiceClientPool
from ..service.server import RequestServer
from .placement import PlacementMap

log = get_logger("router")


def _inline_future(function, *args) -> "Future":
    """Run ``function`` now, returning its outcome as a resolved Future."""
    future: Future = Future()
    try:
        future.set_result(function(*args))
    except BaseException as exc:  # noqa: BLE001 - carried by the future
        future.set_exception(exc)
    return future


@dataclass(frozen=True)
class RouterConfig:
    """Tunables of one :class:`RouterDaemon` (validated at construction)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read :attr:`RouterDaemon.port` after
    #: :meth:`~RouterDaemon.start`.
    port: int = 0
    #: Seconds between health-probe rounds (0 disables the probe thread;
    #: in-query failover still works, probes just never *restore* nodes).
    probe_interval: float = 2.0
    #: Per-probe socket timeout — probes must fail fast.
    probe_timeout: float = 2.0
    #: Per-query socket timeout toward member nodes.
    query_timeout: float = 60.0
    #: Idle pooled connections kept per node.
    pool_max_idle: int = 4
    #: Retry policy for routed queries (transport retries reconnect; the
    #: router's own failover handles node death, so keep this short).
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(attempts=2))

    def __post_init__(self) -> None:
        if self.probe_interval < 0:
            raise ConfigurationError("probe_interval must be >= 0")
        if self.probe_timeout <= 0:
            raise ConfigurationError("probe_timeout must be > 0")
        if self.pool_max_idle < 0:
            raise ConfigurationError("pool_max_idle must be >= 0")


class _NodeState:
    """Mutable health record for one fleet member (lock-protected)."""

    def __init__(self) -> None:
        self.healthy = True
        self.generation = 0
        self.last_error: Optional[str] = None
        self.last_probe = 0.0
        self.metrics: dict = {}


class RouterDaemon:
    """Scatter-gather front over a :class:`PlacementMap` of nodes.

    Usable fully in-process (construct, call :meth:`query_vectors`) or
    as a daemon (:meth:`start` / ``repro route serve``) speaking the
    same wire protocol as a single node.
    """

    def __init__(
        self, placement: PlacementMap, config: RouterConfig = RouterConfig()
    ) -> None:
        self.placement = placement
        self.config = config
        self._pools: Dict[str, ServiceClientPool] = {
            name: ServiceClientPool(
                node.host,
                node.port,
                max_idle=config.pool_max_idle,
                timeout=config.query_timeout,
                op_timeouts={
                    "metrics": config.probe_timeout,
                    "ping": config.probe_timeout,
                },
                retry=config.retry,
                connect_timeout=config.probe_timeout,
            )
            for name, node in placement.nodes.items()
        }
        self._states: Dict[str, _NodeState] = {
            name: _NodeState() for name in placement.nodes
        }
        self._state_lock = threading.Lock()
        self._codec_lock = threading.Lock()
        self._encoder: Optional[IDLevelEncoder] = None
        self._preprocessing = None
        self._server: Optional[RequestServer] = None
        self._stop = threading.Event()
        self._probe_thread: Optional[threading.Thread] = None
        self._started_at = time.time()
        self.port: Optional[int] = None
        #: Persistent scatter pool.  Spawning a ThreadPoolExecutor per
        #: query costs one thread start per node per query — measured at
        #: ~17% of routed throughput at 4 nodes — and the cost grows
        #: with fleet size, which is exactly the dimension the router is
        #: supposed to scale along.  Sized for the widest scatter plus
        #: failover retries; created lazily so pure probe/status routers
        #: never spawn it.
        self._scatter_lock = threading.Lock()
        self._scatter_pool: Optional[ThreadPoolExecutor] = None

    def _scatter_executor(self) -> ThreadPoolExecutor:
        with self._scatter_lock:
            if self._scatter_pool is None:
                self._scatter_pool = ThreadPoolExecutor(
                    max_workers=max(8, 2 * len(self.placement.nodes)),
                    thread_name_prefix="repro-router-scatter",
                )
            return self._scatter_pool

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "RouterDaemon":
        """Bind the socket, run one probe round, start probing (idempotent)."""
        if self._server is not None:
            return self
        self.probe_once()
        self._server = RequestServer(
            self.config.host,
            self.config.port,
            handle=self._handle,
            on_shutdown=self.stop,
            name="repro-router",
        )
        self.port = self._server.start()
        if self.config.probe_interval > 0:
            self._probe_thread = threading.Thread(
                target=self._probe_loop,
                name="repro-router-probe",
                daemon=True,
            )
            self._probe_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (or a client ``shutdown`` op)."""
        self.start()
        self._stop.wait()

    def stop(self) -> None:
        """Stop probing, close the socket and every pooled connection."""
        self._stop.set()
        if self._server is not None:
            self._server.stop()
        if self._probe_thread is not None:
            if self._probe_thread is not threading.current_thread():
                self._probe_thread.join(timeout=10.0)
            self._probe_thread = None
        with self._scatter_lock:
            if self._scatter_pool is not None:
                self._scatter_pool.shutdown(wait=False, cancel_futures=True)
                self._scatter_pool = None
        for pool in self._pools.values():
            pool.close()

    def __enter__(self) -> "RouterDaemon":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def probe_once(self) -> Dict[str, bool]:
        """Probe every node's ``metrics`` op; returns name → healthy."""
        outcome: Dict[str, bool] = {}
        for name, pool in sorted(self._pools.items()):
            try:
                record = pool.call(
                    {"op": "metrics"},
                    retry=NO_RETRY,
                    timeout=self.config.probe_timeout,
                )["metrics"]
            except Exception as exc:  # noqa: BLE001 - any failure = down
                self._mark(name, healthy=False, error=str(exc))
                outcome[name] = False
            else:
                self._mark(name, healthy=True, metrics=record)
                outcome[name] = True
        return outcome

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.config.probe_interval):
            self.probe_once()

    def _mark(
        self,
        name: str,
        healthy: bool,
        error: Optional[str] = None,
        metrics: Optional[dict] = None,
    ) -> None:
        with self._state_lock:
            state = self._states[name]
            state.healthy = healthy
            state.last_probe = time.time()
            state.last_error = error
            if metrics is not None:
                state.metrics = metrics
                state.generation = int(metrics.get("generation", 0))

    def _is_healthy(self, name: str) -> bool:
        with self._state_lock:
            return self._states[name].healthy

    # ------------------------------------------------------------------
    # Scatter planning
    # ------------------------------------------------------------------

    def _candidates(self, shard: int, exclude: frozenset) -> List[str]:
        """Replicas still worth asking for ``shard``, best first.

        Placement order (primary first) within each tier; healthy nodes
        before unhealthy ones — a node the prober flagged is still a
        *last* resort, because in-query failover will discover recovery
        faster than the next probe round.
        """
        owners = [
            name
            for name in self.placement.assignments[shard]
            if name not in exclude
        ]
        healthy = [name for name in owners if self._is_healthy(name)]
        suspect = [name for name in owners if not self._is_healthy(name)]
        return healthy + suspect

    def _group(
        self, shards: Sequence[int], excluded: Dict[int, frozenset]
    ) -> Dict[str, List[int]]:
        """shard set → {node: its shard subset}, or raise when exhausted."""
        groups: Dict[str, List[int]] = {}
        for shard in shards:
            candidates = self._candidates(
                shard, excluded.get(shard, frozenset())
            )
            if not candidates:
                raise FleetError(
                    f"no live replica left for shard {shard} "
                    f"(placement: {self.placement.assignments[shard]})"
                )
            groups.setdefault(candidates[0], []).append(shard)
        return groups

    # ------------------------------------------------------------------
    # The routed query path
    # ------------------------------------------------------------------

    def query_vectors(self, vectors: np.ndarray, k: int = 5) -> MatchTable:
        """Routed top-k, byte-identical to one node scanning every shard."""
        results, _generation = self.query_vectors_traced(vectors, k)
        return results

    def query_vectors_traced(
        self, vectors: np.ndarray, k: int = 5
    ) -> Tuple[MatchTable, int]:
        """Routed top-k plus the generation the answer was served at."""
        vectors = np.asarray(vectors, dtype=np.uint64)
        if vectors.ndim != 2:
            raise ServiceError("query vectors must be a (n, words) matrix")
        if vectors.shape[0] == 0 or k < 1:
            return MatchTable.empty(vectors.shape[0]), 0
        excluded: Dict[int, frozenset] = {}
        groups = self._group(range(self.placement.num_shards), excluded)
        partials = self._gather(groups, vectors, k, None, excluded)
        generations = {generation for _, generation, _ in partials}
        target = min(generations)
        if len(generations) > 1:
            # Mixed generations: keep the partials already at the
            # minimum and re-ask the newer nodes *pinned* at it.  Pinned
            # requests fail over too — a replica may have already
            # dropped the retained lease.
            aligned = [p for p in partials if p[1] == target]
            stale_shards = [
                shard
                for shards, generation, _ in partials
                if generation != target
                for shard in shards
            ]
            regroup = self._group(stale_shards, excluded)
            aligned.extend(
                self._gather(regroup, vectors, k, target, excluded)
            )
            partials = aligned
        return merge_topk([table for _, _, table in partials], k), target

    def _gather(
        self,
        groups: Dict[str, List[int]],
        vectors: np.ndarray,
        k: int,
        generation: Optional[int],
        excluded: Dict[int, frozenset],
    ) -> List[Tuple[List[int], int, MatchTable]]:
        """Fan one request per node, failing shards over as nodes die.

        Returns ``[(shards, generation_served, partial answer), ...]``
        covering every shard in ``groups`` exactly once, or raises
        :class:`FleetError` once some shard has no replicas left.
        """
        partials: List[Tuple[List[int], int, MatchTable]] = []
        while groups:
            ordered = sorted(groups.items())
            if len(ordered) == 1:
                # Single node (one-node fleet, or everything failed over
                # to one survivor): no fan-out to overlap, so skip the
                # executor round-trip and call inline.
                futures = [
                    (
                        name,
                        shards,
                        _inline_future(
                            self._query_node,
                            name,
                            shards,
                            vectors,
                            k,
                            generation,
                        ),
                    )
                    for name, shards in ordered
                ]
            else:
                executor = self._scatter_executor()
                futures = [
                    (
                        name,
                        shards,
                        executor.submit(
                            self._query_node,
                            name,
                            shards,
                            vectors,
                            k,
                            generation,
                        ),
                    )
                    for name, shards in ordered
                ]
            retry_shards: List[int] = []
            for name, shards, future in futures:
                try:
                    served, rows = future.result()
                except Exception as exc:  # noqa: BLE001
                    message = str(exc)
                    if (
                        "is not retained" not in message
                        and "quarantined" not in message
                    ):
                        # Real node failure → flag for the planner.
                        # A missing retained lease or a quarantined
                        # shard is not ill health — the node is up,
                        # it just must not answer for this shard;
                        # try it elsewhere.
                        self._mark(name, healthy=False, error=message)
                    log.warning(
                        "failing shards over to another replica",
                        extra={
                            "node": name,
                            "shards": shards,
                            "error": message,
                        },
                    )
                    for shard in shards:
                        excluded[shard] = excluded.get(
                            shard, frozenset()
                        ) | {name}
                    retry_shards.extend(shards)
                else:
                    partials.append((shards, served, rows))
            groups = self._group(retry_shards, excluded) if retry_shards else {}
        return partials

    def _query_node(
        self,
        name: str,
        shards: List[int],
        vectors: np.ndarray,
        k: int,
        generation: Optional[int],
    ) -> Tuple[int, MatchTable]:
        pool = self._pools[name]
        client = pool.checkout()
        healthy = True
        try:
            return client.query_partial(
                vectors, k, shards=shards, generation=generation
            )
        except Exception:
            healthy = False
            raise
        finally:
            pool.checkin(client, healthy=healthy)

    # ------------------------------------------------------------------
    # Spectrum queries (encode at the router, route the vectors)
    # ------------------------------------------------------------------

    def query(
        self, spectra: Sequence[MassSpectrum], k: int = 5
    ) -> MatchTable:
        """Top-k per spectrum: encoded here, routed as vectors."""
        encoder, preprocessing = self._codec()
        with self._codec_lock:
            batch = encode_spectra(spectra, preprocessing, encoder)
        return self.query_vectors(batch.vectors, k).scattered(
            batch.kept_offsets, len(spectra)
        )

    def _codec(self):
        """Encoder + preprocessing, learned from any live node's manifest.

        Every replica carries the full manifest (it ships with each
        generation), so any node can teach the router how to encode;
        the configuration is immutable for a repository's lifetime,
        so one fetch serves forever.
        """
        with self._codec_lock:
            if self._encoder is not None:
                return self._encoder, self._preprocessing
        last_error: Optional[Exception] = None
        for name, pool in sorted(self._pools.items()):
            try:
                response = pool.call({"op": "manifest"}, retry=NO_RETRY)
                manifest = RepositoryManifest.from_json(
                    str(response["manifest"]),
                    source=f"manifest from node {name}",
                )
            except Exception as exc:  # noqa: BLE001 - try the next node
                last_error = exc
                continue
            if manifest.num_shards != self.placement.num_shards:
                raise FleetError(
                    f"placement maps {self.placement.num_shards} shards "
                    f"but node {name} serves {manifest.num_shards}"
                )
            with self._codec_lock:
                if self._encoder is None:
                    self._encoder = IDLevelEncoder(manifest.encoder)
                    self._preprocessing = manifest.preprocessing
                return self._encoder, self._preprocessing
        raise FleetError(
            f"no node could provide the repository manifest: {last_error}"
        )

    # ------------------------------------------------------------------
    # Status + the wire front
    # ------------------------------------------------------------------

    def fleet_status(self) -> dict:
        """Placement + per-node health, JSON-serialisable."""
        with self._state_lock:
            nodes = {
                name: {
                    "host": self.placement.nodes[name].host,
                    "port": self.placement.nodes[name].port,
                    "shards": self.placement.shards_of(name),
                    "healthy": state.healthy,
                    "generation": state.generation,
                    "last_error": state.last_error,
                    "last_probe_age_seconds": (
                        max(time.time() - state.last_probe, 0.0)
                        if state.last_probe
                        else None
                    ),
                    "wal_pending_bytes": state.metrics.get(
                        "wal_pending_bytes"
                    ),
                    "queue_depth": state.metrics.get("queue_depth"),
                    "generation_age_seconds": state.metrics.get(
                        "generation_age_seconds"
                    ),
                    "bytes_sent": state.metrics.get("transport", {}).get(
                        "bytes_sent"
                    ),
                    "bytes_received": state.metrics.get(
                        "transport", {}
                    ).get("bytes_received"),
                }
                for name, state in sorted(self._states.items())
            }
        record = {
            "placement_version": self.placement.version,
            "replication": self.placement.replication,
            "num_shards": self.placement.num_shards,
            "uptime_seconds": max(time.time() - self._started_at, 0.0),
            "nodes": nodes,
        }
        if self._server is not None:
            record["transport"] = self._server.transport.snapshot()
        return record

    def _handle(self, request: dict) -> dict:
        """Dispatch one wire request (never raises); the router's op table
        is a read-only subset of the node daemon's plus ``fleet_status``."""
        op = request.get("op")
        try:
            if op == "ping":
                healthy = sum(
                    1 for name in self._states if self._is_healthy(name)
                )
                return {
                    "status": "ok",
                    "router": True,
                    "nodes_healthy": healthy,
                    "nodes_total": len(self._states),
                }
            if op == "fleet_status":
                return {"status": "ok", "fleet": self.fleet_status()}
            if op == "query_vectors":
                vectors = protocol.extract_vectors(request)
                results, generation = self.query_vectors_traced(
                    vectors, k=int(request.get("k", 5))
                )
                return protocol.attach_matches(
                    {"status": "ok", "generation": generation}, results
                )
            if op == "query":
                spectra = protocol.extract_spectra(request)
                results = self.query(spectra, k=int(request.get("k", 5)))
                return protocol.attach_matches({"status": "ok"}, results)
            if op == "shutdown":
                return {"status": "ok"}
            return {
                "status": "error",
                "error": f"unknown op {op!r} (this is a fleet router; "
                "ingest and replication ops go to member nodes)",
            }
        except Exception as exc:  # noqa: BLE001 - one bad request must
            # never take the router down; the client gets the message.
            return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
