"""The cluster-query daemon: one writer, N snapshot readers, one socket.

:class:`ClusterService` turns a repository directory into a long-running
service with the production shape the ROADMAP asks for — continuous
ingest interleaved with online nearest-cluster queries:

* **One writer.**  The service owns the only :class:`ClusterRepository`
  handle; every ingest batch is encoded *outside* the writer lock (on
  the connection's thread, with a per-thread encoder clone) and only the
  journal append + shard apply run inside it.
* **Snapshot readers.**  Queries never touch the writer.  They run
  against the current :class:`~repro.store.snapshot.RepositorySnapshot`
  through a :class:`~repro.store.QueryService`, with zero locks on the
  scan path — MVCC pins keep the generation's files alive while any
  query is in flight.
* **Background checkpointer.**  A daemon thread folds the WAL into a
  new generation whenever enough batches accumulate, republishes the
  serving snapshot, and retires superseded generations once their last
  reader drains.  Readers mid-query keep the *old* snapshot via a
  refcounted lease, so a swap never invalidates an in-flight scan.
* **Request coalescing.**  Concurrent small queries are batched by a
  dispatcher thread into one ``query_vectors`` kernel pass (the batched
  cross-Hamming engine is dramatically more efficient per-query at
  larger batch sizes), then split back per caller.  Queries with
  different ``k`` coalesce too: the pass runs at the max ``k`` and each
  caller's rows are trimmed — top-k lists are prefixes of top-k'
  lists for k ≤ k', so results are identical to a solo pass.
* **Admission control.**  Ingest is shed with a ``busy`` response once
  the WAL backlog passes ``max_wal_bytes`` (the checkpointer is behind);
  queries are shed once the coalescing queue is full.  Load shedding
  beats unbounded queueing in every serving system this models.

The wire protocol is :mod:`repro.service.protocol` (framing + the
``hello`` version gate live in :mod:`repro.service.server`); the op
table (``[name]`` marks a binary payload):

==================== ======================================== ==============
op                    request fields                           response
==================== ======================================== ==============
``ping``              —                                        ``generation``
``info``              —                                        ``info`` dict
``metrics``           —                                        ``metrics`` dict
``manifest``          —                                        ``manifest`` JSON
``query``             ``spectra`` ``[spectra.*]``, ``k``       ``[results.*]``
``query_vectors``     ``dim`` ``[vec]``, ``k``,                ``[results.*]``,
                      optional ``shards``/``generation``       ``generation``
``ingest``            ``spectra`` ``[spectra.*]``              ``report``
``checkpoint``        —                                        ``generation``
``generation_files``  —                                        listing+manifest
``fetch_chunk``       ``generation,name,offset,length``        ``[data]``
``push_begin``        ``generation,files,manifest``            resume offsets
``push_chunk``        ``generation,name,offset`` ``[data]``    —
``push_commit``       ``generation``                           ``generation``
``shutdown``          —                                        —
==================== ======================================== ==============

The replication ops ship a *published generation* between nodes; see
:mod:`repro.store.generation` for the staging/verify/install machinery
and :mod:`repro.fleet` for the placement + router layer above it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field
from pathlib import Path
from queue import Empty, Full, Queue
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import (
    ConfigurationError,
    IntegrityError,
    ServiceBusy,
    ServiceError,
)
from ..hdc.kernels import kernel_runtime
from ..logging import get_logger
from ..spectrum import MassSpectrum
from ..store import (
    ClusterRepository,
    MatchTable,
    QueryService,
    RepositoryUpdateReport,
)
from ..store.generation import (
    GenerationFile,
    GenerationStager,
    list_generation_files,
    read_generation_chunk,
)
from ..store.integrity import (
    GenerationScrubber,
    ScrubReport,
    check_verify_policy,
    verify_generation,
)
from ..store.snapshot import RepositorySnapshot
from ..streaming import encode_spectra
from . import protocol
from .server import RequestServer, TransportMetrics

log = get_logger("service")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`ClusterService` (validated at construction)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read :attr:`ClusterService.port` after
    #: :meth:`~ClusterService.start`.
    port: int = 0
    #: Seconds between checkpointer wake-ups.
    checkpoint_interval: float = 2.0
    #: WAL batches that must be pending before a wake-up checkpoints.
    checkpoint_min_batches: int = 1
    #: How long the dispatcher holds the first query of a batch open for
    #: company, in milliseconds.  0 disables coalescing delay (each
    #: dispatch takes whatever is already queued).
    coalesce_window_ms: float = 2.0
    #: Per-pass ceiling on coalesced query rows.
    coalesce_max_rows: int = 4096
    #: Queue slots for not-yet-dispatched queries (admission control).
    max_pending_queries: int = 1024
    #: Ingest is shed once the WAL backlog exceeds this many bytes.
    max_wal_bytes: int = 256 * 1024 * 1024
    #: Superseded snapshot leases kept alive after a swap (most recent
    #: first).  A retained lease pins its generation on disk and keeps
    #: serving generation-pinned queries — the fleet router uses this to
    #: answer at a common generation while individual nodes checkpoint
    #: past it.  0 retires superseded leases immediately (PR 5 behaviour).
    retain_generations: int = 2
    #: Ceiling on one ``fetch_chunk``/``push_chunk`` payload.
    max_chunk_bytes: int = 8 * 1024 * 1024
    #: Integrity policy for repository and snapshot opens
    #: (``full``/``sampled``/``off``; see :mod:`repro.store.integrity`).
    verify: str = "sampled"
    #: Seconds between background scrub passes; 0 disables the scrubber.
    scrub_interval: float = 0.0
    #: Scrub read-rate ceiling in bytes/second (None = unpaced).
    scrub_bytes_per_second: Optional[float] = None
    #: ``host:port`` replicas to heal corrupt files from, tried in order.
    repair_peers: Tuple[str, ...] = ()
    #: Orphaned ``gen-NNNNNN.partial/`` staging directories older than
    #: this (newest contained mtime) are swept during generation
    #: retirement.  An in-progress pull keeps refreshing its files, so
    #: the age threshold never collects it.
    partial_sweep_age_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.checkpoint_interval <= 0:
            raise ConfigurationError("checkpoint_interval must be > 0")
        if self.checkpoint_min_batches < 1:
            raise ConfigurationError("checkpoint_min_batches must be >= 1")
        if self.coalesce_window_ms < 0:
            raise ConfigurationError("coalesce_window_ms must be >= 0")
        if self.coalesce_max_rows < 1:
            raise ConfigurationError("coalesce_max_rows must be >= 1")
        if self.max_pending_queries < 1:
            raise ConfigurationError("max_pending_queries must be >= 1")
        if self.max_wal_bytes < 1:
            raise ConfigurationError("max_wal_bytes must be >= 1")
        if self.retain_generations < 0:
            raise ConfigurationError("retain_generations must be >= 0")
        if self.max_chunk_bytes < 1:
            raise ConfigurationError("max_chunk_bytes must be >= 1")
        check_verify_policy(self.verify)
        if self.scrub_interval < 0:
            raise ConfigurationError("scrub_interval must be >= 0")
        if (
            self.scrub_bytes_per_second is not None
            and self.scrub_bytes_per_second <= 0
        ):
            raise ConfigurationError("scrub_bytes_per_second must be > 0")
        if self.partial_sweep_age_seconds < 0:
            raise ConfigurationError(
                "partial_sweep_age_seconds must be >= 0"
            )
        for peer in self.repair_peers:
            if ":" not in peer:
                raise ConfigurationError(
                    f"repair peer {peer!r} must be host:port"
                )


@dataclass
class ServiceStats:
    """Monotonic service counters (exposed via the ``info`` op)."""

    queries: int = 0
    query_rows: int = 0
    query_passes: int = 0
    queries_shed: int = 0
    ingest_batches: int = 0
    ingest_spectra: int = 0
    ingest_shed: int = 0
    checkpoints: int = 0
    snapshot_swaps: int = 0
    generations_installed: int = 0
    scrub_passes: int = 0
    scrub_bytes: int = 0
    corruptions_found: int = 0
    shards_quarantined: int = 0
    shards_healed: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "queries": self.queries,
                "query_rows": self.query_rows,
                "query_passes": self.query_passes,
                "queries_shed": self.queries_shed,
                "ingest_batches": self.ingest_batches,
                "ingest_spectra": self.ingest_spectra,
                "ingest_shed": self.ingest_shed,
                "checkpoints": self.checkpoints,
                "snapshot_swaps": self.snapshot_swaps,
                "generations_installed": self.generations_installed,
                "scrub_passes": self.scrub_passes,
                "scrub_bytes": self.scrub_bytes,
                "corruptions_found": self.corruptions_found,
                "shards_quarantined": self.shards_quarantined,
                "shards_healed": self.shards_healed,
            }

    @property
    def mean_coalesced_rows(self) -> float:
        with self._lock:
            if self.query_passes == 0:
                return 0.0
            return self.query_rows / self.query_passes


class _SnapshotLease:
    """Refcounted (snapshot, query service) pair with deferred close.

    Queries acquire the lease for exactly the duration of one kernel
    pass; retiring marks it for close, which happens when the last
    in-flight pass releases.  This is what makes snapshot swaps safe
    without a reader lock on the scan itself.
    """

    def __init__(
        self, snapshot: RepositorySnapshot, service: QueryService
    ) -> None:
        self.snapshot = snapshot
        self.service = service
        self._refs = 0
        self._retired = False
        self._lock = threading.Lock()

    @property
    def generation(self) -> int:
        return self.snapshot.generation

    def acquire(self) -> "_SnapshotLease":
        with self._lock:
            if self._retired and self._refs == 0:
                raise ServiceError("snapshot lease already closed")
            self._refs += 1
            return self

    def release(self) -> None:
        close = False
        with self._lock:
            self._refs -= 1
            close = self._retired and self._refs == 0
        if close:
            self._close()

    def retire(self) -> None:
        close = False
        with self._lock:
            self._retired = True
            close = self._refs == 0
        if close:
            self._close()

    def _close(self) -> None:
        self.snapshot.close()


@dataclass
class _PendingQuery:
    """One caller's query waiting in the coalescing queue."""

    vectors: np.ndarray
    k: int
    future: Future


class _OpLatencies:
    """Per-op latency rings feeding the ``metrics`` op's p50/p99.

    A bounded deque per op keeps the percentiles recent (a daemon that
    has been up for a week reports *current* behaviour, not its lifetime
    average) and the memory constant; the total count is tracked
    separately so operators still see absolute volume.
    """

    def __init__(self, capacity: int = 2048) -> None:
        self._capacity = capacity
        self._lock = threading.Lock()
        self._samples: Dict[str, deque] = {}
        self._counts: Dict[str, int] = {}

    def record(self, op: str, seconds: float) -> None:
        with self._lock:
            ring = self._samples.get(op)
            if ring is None:
                ring = deque(maxlen=self._capacity)
                self._samples[op] = ring
                self._counts[op] = 0
            ring.append(seconds)
            self._counts[op] += 1

    def summary(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            snapshot = {
                op: (list(ring), self._counts[op])
                for op, ring in self._samples.items()
            }
        result: Dict[str, Dict[str, float]] = {}
        for op, (samples, count) in sorted(snapshot.items()):
            ordered = sorted(samples)
            last = len(ordered) - 1
            result[op] = {
                "count": count,
                "p50_ms": ordered[last // 2] * 1e3,
                "p99_ms": ordered[min(last, (last * 99 + 99) // 100)] * 1e3,
            }
        return result


class ClusterService:
    """The daemon: repository writer + snapshot serving + socket front.

    Use as a context manager or call :meth:`start` / :meth:`stop`.  All
    public request methods (:meth:`query_vectors`, :meth:`ingest`, …)
    are also callable in-process — the socket layer is a thin framing of
    exactly these methods, so tests and embedded callers skip TCP.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        config: ServiceConfig = ServiceConfig(),
    ) -> None:
        self.directory = Path(directory)
        self.config = config
        self.stats = ServiceStats()
        self.repository = ClusterRepository.open(
            self.directory,
            verify=config.verify,
        )
        self._write_lock = threading.Lock()
        #: Shards withheld from the query path pending repair:
        #: ``{shard_id: reason}``.  The router treats a quarantined-shard
        #: refusal like a lease miss — fail over to a replica, don't mark
        #: the node unhealthy.
        self._quarantined: Dict[int, str] = {}
        self._quarantine_lock = threading.Lock()
        # Per-connection-thread encoder clones: the shared item memory is
        # read-only, scratch is private (IDLevelEncoder.clone()).
        self._thread_encoders = threading.local()
        self._queue: "Queue[Optional[_PendingQuery]]" = Queue(
            maxsize=config.max_pending_queries
        )
        #: Serialises query admission against shutdown: stop() flips the
        #: stop flag under this lock, so an enqueue either happens before
        #: the drain (and is failed by it) or observes the flag and
        #: raises — no future can be left unresolved.
        self._admit_lock = threading.Lock()
        self._checkpoint_error: Optional[str] = None
        self._lease: Optional[_SnapshotLease] = None
        #: Superseded leases still serving generation-pinned reads,
        #: oldest first; bounded by ``config.retain_generations``.
        self._retained: "OrderedDict[int, _SnapshotLease]" = OrderedDict()
        self._lease_lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._server: Optional[RequestServer] = None
        self.port: Optional[int] = None
        self._started = False
        self._op_latencies = _OpLatencies()
        #: Wire-level counters shared with the socket front; lives on
        #: the service so ``metrics`` can report it before/after start.
        self._transport = TransportMetrics()
        self._started_at = time.time()
        self._published_at = time.time()
        #: In-flight inbound generation transfers, keyed by generation.
        self._stagers: Dict[int, GenerationStager] = {}
        self._stager_lock = threading.Lock()
        # Serve the freshest possible state from the first request on:
        # fold any replayed-but-unpublished WAL batches into a
        # generation, then pin it.
        if self.repository.wal_pending_batches > 0:
            self.repository.checkpoint()
        self._publish_snapshot()

    # ------------------------------------------------------------------
    # Snapshot lifecycle
    # ------------------------------------------------------------------

    def _publish_snapshot(self) -> None:
        """Open a lease on the last published generation and swap it in.

        The superseded lease is *retained* (up to
        ``config.retain_generations`` of them, newest kept longest)
        rather than retired: a retained lease keeps its generation
        pinned and keeps answering generation-pinned queries, so
        fleet-routed reads stay consistent across nodes that checkpoint
        at different moments.
        """
        snapshot = self.repository.snapshot()
        lease = _SnapshotLease(snapshot, QueryService(snapshot))
        to_retire: List[_SnapshotLease] = []
        with self._lease_lock:
            old, self._lease = self._lease, lease
            if old is not None:
                if (
                    self.config.retain_generations > 0
                    and old.generation != lease.generation
                ):
                    self._retained[old.generation] = old
                    self._retained.move_to_end(old.generation)
                    while (
                        len(self._retained) > self.config.retain_generations
                    ):
                        _, evicted = self._retained.popitem(last=False)
                        to_retire.append(evicted)
                else:
                    to_retire.append(old)
        for retired in to_retire:
            retired.retire()
        if old is not None:
            self.stats.bump(snapshot_swaps=1)
        self._published_at = time.time()

    def _acquire_lease(
        self, generation: Optional[int] = None
    ) -> _SnapshotLease:
        with self._lease_lock:
            if self._lease is None:
                raise ServiceError("service is closed")
            if generation is None or generation == self._lease.generation:
                return self._lease.acquire()
            retained = self._retained.get(generation)
            if retained is not None:
                return retained.acquire()
            raise ServiceError(
                f"generation {generation} is not retained by this node "
                f"(serving {self._lease.generation}, retained "
                f"{sorted(self._retained)})"
            )

    @property
    def serving_generation(self) -> int:
        """Generation the query path currently serves from."""
        with self._lease_lock:
            if self._lease is None:
                raise ServiceError("service is closed")
            return self._lease.generation

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------

    @property
    def quarantined_shards(self) -> List[int]:
        """Shard ids currently withheld from the query path."""
        with self._quarantine_lock:
            return sorted(self._quarantined)

    def _quarantine(self, shard_id: int, reason: str) -> bool:
        """Withhold one shard from queries; True when newly quarantined."""
        with self._quarantine_lock:
            fresh = shard_id not in self._quarantined
            self._quarantined[shard_id] = reason
        if fresh:
            self.stats.bump(shards_quarantined=1)
            log.warning(
                "quarantined shard",
                extra={
                    "shard": shard_id,
                    "generation": self.serving_generation,
                    "reason": reason,
                },
            )
        return fresh

    def _unquarantine(self, shard_ids: Sequence[int]) -> None:
        healed = []
        with self._quarantine_lock:
            for shard_id in shard_ids:
                if self._quarantined.pop(shard_id, None) is not None:
                    healed.append(shard_id)
        if healed:
            self.stats.bump(shards_healed=len(healed))
            log.info(
                "un-quarantined shards after repair",
                extra={
                    "shards": healed,
                    "generation": self.serving_generation,
                },
            )

    def _check_quarantine(self, shards: Optional[Sequence[int]]) -> None:
        """Refuse queries that would read a quarantined shard.

        Integrity beats availability here: the stack's whole contract is
        byte-identical answers, so a possibly-corrupt shard must not
        answer at all — the router's failover serves it from a replica
        (the ``quarantined`` marker in the message tells the router this
        is a per-shard refusal, not node death).
        """
        with self._quarantine_lock:
            if not self._quarantined:
                return
            requested = (
                range(self.repository.manifest.num_shards)
                if shards is None
                else [int(s) for s in shards]
            )
            for shard_id in requested:
                reason = self._quarantined.get(shard_id)
                if reason is not None:
                    raise ServiceError(
                        f"shard {shard_id} is quarantined pending repair: "
                        f"{reason}"
                    )

    # ------------------------------------------------------------------
    # Encoder plumbing
    # ------------------------------------------------------------------

    def _encoder(self):
        encoder = getattr(self._thread_encoders, "encoder", None)
        if encoder is None:
            encoder = self.repository.encoder.clone()
            self._thread_encoders.encoder = encoder
        return encoder

    def _encode(self, spectra: Sequence[MassSpectrum]):
        return encode_spectra(
            spectra,
            self.repository.manifest.preprocessing,
            self._encoder(),
        )

    # ------------------------------------------------------------------
    # Ingest (the writer path)
    # ------------------------------------------------------------------

    def ingest(
        self, spectra: Sequence[MassSpectrum]
    ) -> RepositoryUpdateReport:
        """Durably ingest one batch; sheds with :class:`ServiceBusy`.

        Preprocess + encode run on the calling thread (no lock); only
        the WAL append and shard apply serialise on the writer lock.
        """
        if self.repository.wal_bytes() > self.config.max_wal_bytes:
            self.stats.bump(ingest_shed=1)
            raise ServiceBusy(
                "WAL backlog exceeds max_wal_bytes; retry after the next "
                "checkpoint"
            )
        batch = self._encode(spectra)
        with self._write_lock:
            report = self.repository.add_encoded_batch(
                batch.vectors,
                batch.precursor_mz,
                batch.charge,
                batch.identifiers,
                num_dropped=batch.num_dropped,
            )
        self.stats.bump(ingest_batches=1, ingest_spectra=report.num_added)
        return report

    def checkpoint(self, force: bool = True) -> Optional[int]:
        """Checkpoint now (if work is pending) and republish the snapshot.

        ``force=False`` applies the ``checkpoint_min_batches`` threshold —
        the background checkpointer's call.  Returns the new generation,
        or ``None`` when nothing was pending.
        """
        with self._write_lock:
            pending = self.repository.wal_pending_batches
            if pending == 0:
                return None
            if not force and pending < self.config.checkpoint_min_batches:
                return None
            generation = self.repository.checkpoint()
        self.stats.bump(checkpoints=1)
        self._publish_snapshot()
        return generation

    def _checkpoint_loop(self) -> None:
        while not self._stop.wait(self.config.checkpoint_interval):
            try:
                self.checkpoint(force=False)
                # Generations whose last reader drained since the
                # previous pass are reclaimed even when no new
                # checkpoint happened; orphaned replication staging
                # directories past the age threshold go with them.
                with self._write_lock:
                    self.repository.sweep(
                        partial_max_age_seconds=(
                            self.config.partial_sweep_age_seconds
                        )
                    )
                self._checkpoint_error = None
            except Exception as exc:
                # Keep the daemon alive, but never silently: a failing
                # checkpoint eventually sheds all ingest (max_wal_bytes),
                # so operators must see why in the health record.
                if self._stop.is_set():
                    return
                self._checkpoint_error = f"{type(exc).__name__}: {exc}"
                log.error(
                    "checkpoint failed (will retry)",
                    extra={"error": self._checkpoint_error},
                )

    # ------------------------------------------------------------------
    # Scrub + self-healing
    # ------------------------------------------------------------------

    def _scrub_loop(self) -> None:
        while not self._stop.wait(self.config.scrub_interval):
            try:
                self.scrub_once()
            except Exception as exc:
                if self._stop.is_set():
                    return
                log.error(
                    "scrub pass failed (will retry)",
                    extra={"error": f"{type(exc).__name__}: {exc}"},
                )

    def scrub_once(self) -> Optional[ScrubReport]:
        """One full scrub of the serving generation; heal what it finds.

        Digests every file of the serving generation against the
        manifest's integrity records (paced by
        ``config.scrub_bytes_per_second``).  Mismatches quarantine the
        implicated shards — catalog damage implicates all of them — and
        trigger a repair from ``config.repair_peers``; a successful
        repair re-verifies, reopens, republishes and un-quarantines.
        Returns the scrub report (``None`` before the first checkpoint).

        The serving lease is held across scrub *and* repair, so the
        generation's files cannot be swept mid-pass even if a concurrent
        checkpoint publishes past them.
        """
        lease = self._acquire_lease()
        try:
            generation = lease.generation
            if generation == 0:
                return None
            integrity = lease.snapshot.manifest.integrity
            scrubber = GenerationScrubber(
                bytes_per_second=self.config.scrub_bytes_per_second,
                should_stop=self._stop.is_set,
            )
            report = scrubber.scrub(self.directory, generation, integrity)
            self.stats.bump(
                scrub_passes=1,
                scrub_bytes=report.bytes_checked,
                corruptions_found=len(report.errors),
            )
            if report.clean:
                log.debug(
                    "scrub pass clean",
                    extra={
                        "generation": generation,
                        "files": report.files_checked,
                        "bytes": report.bytes_checked,
                    },
                )
                return report
            shard_ids = self._implicated_shards(report)
            for error in report.errors:
                log.error(
                    "scrub found corruption",
                    extra={
                        "file": error.name,
                        "shard": error.shard,
                        "generation": generation,
                        "error": str(error),
                    },
                )
            for shard_id in shard_ids:
                self._quarantine(
                    shard_id,
                    f"scrub found corrupt files "
                    f"{report.corrupt_names()} in generation {generation}",
                )
            if self._repair(generation, integrity, report.corrupt_names()):
                self._unquarantine(shard_ids)
            return report
        finally:
            lease.release()

    def _implicated_shards(self, report: ScrubReport) -> List[int]:
        """Shards a damage report withholds from queries.

        Per-shard artifacts implicate their shard; catalog damage maps
        shard-local labels to global ones for *every* shard, so it
        implicates all of them.
        """
        if any(error.shard is None for error in report.errors):
            return list(range(self.repository.manifest.num_shards))
        return report.corrupt_shards()

    def _repair(
        self,
        generation: int,
        integrity: Dict[str, Dict[str, object]],
        names: List[str],
    ) -> bool:
        """Refetch corrupt files from a repair peer; True on success.

        Tries each configured peer in order: fetch the damaged members
        of ``generation`` through the replicator, re-verify them against
        the local manifest's own integrity records (``full``), then
        reopen the repository and republish the serving snapshot so
        queries read the healed bytes.  Failure leaves the quarantine in
        place — the next scrub pass retries.
        """
        if not names:
            return False
        if not self.config.repair_peers:
            log.warning(
                "no repair peers configured; shards stay quarantined",
                extra={"generation": generation, "files": names},
            )
            return False
        from ..fleet.replicate import Replicator  # avoids an import cycle
        from .client import ServiceClient

        healed = False
        for peer in self.config.repair_peers:
            host, _, port = peer.rpartition(":")
            try:
                with ServiceClient(host=host, port=int(port)) as client:
                    Replicator().heal(
                        client, self.directory, generation, names
                    )
                subset = {name: integrity[name] for name in names}
                verify_generation(
                    self.directory, generation, subset, policy="full"
                )
                healed = True
                log.info(
                    "healed corrupt files from peer",
                    extra={
                        "peer": peer,
                        "generation": generation,
                        "files": names,
                    },
                )
                break
            except Exception as exc:
                log.warning(
                    "repair attempt failed",
                    extra={
                        "peer": peer,
                        "generation": generation,
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
        if not healed:
            return False
        # Serve the healed bytes: reopen (mmaps the repaired files,
        # replaying any pending WAL deterministically) and republish,
        # exactly like a pushed-generation install.
        with self._write_lock:
            old = self.repository
            old.close()
            self.repository = ClusterRepository.open(
                self.directory,
                verify=self.config.verify,
            )
        self._publish_snapshot()
        return True

    # ------------------------------------------------------------------
    # Query (the coalesced snapshot path)
    # ------------------------------------------------------------------

    def query(
        self, spectra: Sequence[MassSpectrum], k: int = 5
    ) -> MatchTable:
        """Top-k matches per query spectrum (QC failures → empty rows)."""
        batch = self._encode(spectra)
        return self.query_vectors(batch.vectors, k).scattered(
            batch.kept_offsets, len(spectra)
        )

    def query_vectors(self, vectors: np.ndarray, k: int = 5) -> MatchTable:
        """Top-k matches for pre-encoded vectors, via the coalescer.

        Blocks until the dispatcher's pass completes; concurrent callers
        share one kernel pass.  Sheds with :class:`ServiceBusy` when the
        pending queue is full.
        """
        vectors = self._admitted_vectors(vectors)
        if vectors.shape[0] == 0 or k < 1:
            return MatchTable.empty(vectors.shape[0])
        if not self._started:
            # No dispatcher thread: serve inline (embedded/test use).
            results, _generation = self._direct_query(vectors, k)
            return results
        pending = _PendingQuery(vectors=vectors, k=k, future=Future())
        with self._admit_lock:
            if self._stop.is_set():
                raise ServiceError("service is stopping")
            try:
                self._queue.put_nowait(pending)
            except Full:
                self.stats.bump(queries_shed=1)
                raise ServiceBusy(
                    "query queue is full; retry with backoff"
                ) from None
        return pending.future.result()

    def query_vectors_at(
        self,
        vectors: np.ndarray,
        k: int = 5,
        shards: Optional[Sequence[int]] = None,
        generation: Optional[int] = None,
    ) -> Tuple[MatchTable, int]:
        """Shard-restricted and/or generation-pinned query (the fleet path).

        Returns ``(results, generation_served)``.  Bypasses the
        coalescer: routed partial queries must not coalesce with
        unrestricted ones (their shard subsets differ), and the router
        already batches per node.  ``generation=None`` serves the
        current snapshot; a specific generation must be the serving one
        or one still retained (see ``ServiceConfig.retain_generations``).
        """
        vectors = self._admitted_vectors(vectors)
        if vectors.shape[0] == 0 or k < 1:
            lease = self._acquire_lease(generation)
            try:
                served = lease.generation
            finally:
                lease.release()
            return MatchTable.empty(vectors.shape[0]), served
        return self._direct_query(
            vectors, k, shards=shards, generation=generation
        )

    def _admitted_vectors(self, vectors: np.ndarray) -> np.ndarray:
        """The caller's query matrix, or a :class:`ServiceError` for it.

        Checked before a query can coalesce: a matrix of the wrong width
        would otherwise fail the whole shared pass, and with it every
        well-formed query it was batched with.
        """
        vectors = np.asarray(vectors, dtype=np.uint64)
        if vectors.ndim != 2:
            raise ServiceError("query vectors must be a (n, words) matrix")
        words = self.repository.encoder.words
        if vectors.shape[1] != words:
            raise ServiceError(
                f"query vectors have {vectors.shape[1]} words per row; "
                f"this repository's hypervectors have {words}"
            )
        return vectors

    def _direct_query(
        self,
        vectors: np.ndarray,
        k: int,
        shards: Optional[Sequence[int]] = None,
        generation: Optional[int] = None,
    ) -> Tuple[MatchTable, int]:
        self._check_quarantine(shards)
        lease = self._acquire_lease(generation)
        try:
            results = lease.service.query_vectors(vectors, k, shards=shards)
            served = lease.generation
        finally:
            lease.release()
        self.stats.bump(
            queries=1, query_rows=int(vectors.shape[0]), query_passes=1
        )
        return results, served

    def _dispatch_loop(self) -> None:
        while True:
            head = self._queue.get()
            if head is None:
                return
            batch = [head]
            rows = head.vectors.shape[0]
            deadline = time.monotonic() + self.config.coalesce_window_ms / 1e3
            while rows < self.config.coalesce_max_rows:
                remaining = deadline - time.monotonic()
                try:
                    item = (
                        self._queue.get_nowait()
                        if remaining <= 0
                        else self._queue.get(timeout=remaining)
                    )
                except Empty:
                    break
                if item is None:
                    self._run_pass(batch)
                    return
                batch.append(item)
                rows += item.vectors.shape[0]
            self._run_pass(batch)

    def _run_pass(self, batch: List[_PendingQuery]) -> None:
        """One coalesced kernel pass; splits results back per caller.

        The pass runs at ``max(k)`` over the batch: each query's top-k
        list is a prefix of its top-k' list for k ≤ k', so a row slice
        of the pass trimmed with ``head(k)`` reproduces a solo pass
        exactly — both are views or column gathers, never object loops.
        """
        try:
            stacked = (
                batch[0].vectors
                if len(batch) == 1
                else np.concatenate([item.vectors for item in batch], axis=0)
            )
            k_max = max(item.k for item in batch)
            merged, _generation = self._direct_query(stacked, k_max)
        except BaseException as exc:
            for item in batch:
                if not item.future.set_running_or_notify_cancel():
                    continue
                item.future.set_exception(exc)
            return
        self.stats.bump(queries=len(batch) - 1)  # _direct_query counted 1
        row = 0
        for item in batch:
            count = item.vectors.shape[0]
            rows = merged[row : row + count]
            row += count
            if item.future.set_running_or_notify_cancel():
                item.future.set_result(rows.head(item.k))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def info(self) -> dict:
        """Repository + service health, JSON-serialisable."""
        record = self.repository.info()
        record["serving_generation"] = self.serving_generation
        record["service"] = {
            **self.stats.snapshot(),
            "mean_coalesced_rows": self.stats.mean_coalesced_rows,
            "coalesce_window_ms": self.config.coalesce_window_ms,
            "coalesce_max_rows": self.config.coalesce_max_rows,
            "checkpoint_interval": self.config.checkpoint_interval,
            "last_checkpoint_error": self._checkpoint_error,
        }
        record["kernel"] = kernel_runtime()
        return record

    def metrics(self) -> dict:
        """The operational health record: the router probe's diet.

        Cheaper and more pointed than ``info`` — no shard iteration, no
        directory walks — so health probes can run every couple of
        seconds without perturbing the serving path.
        """
        now = time.time()
        with self._lease_lock:
            retained = sorted(self._retained)
        return {
            "generation": self.serving_generation,
            "generation_age_seconds": max(now - self._published_at, 0.0),
            "uptime_seconds": max(now - self._started_at, 0.0),
            "queue_depth": self._queue.qsize(),
            "wal_pending_bytes": self.repository.wal_bytes(),
            "wal_pending_batches": self.repository.wal_pending_batches,
            "retained_generations": retained,
            "coalesce": {
                "mean_rows": self.stats.mean_coalesced_rows,
                "window_ms": self.config.coalesce_window_ms,
                "max_rows": self.config.coalesce_max_rows,
            },
            "counters": self.stats.snapshot(),
            "ops": self._op_latencies.summary(),
            "transport": self._transport.snapshot(),
            "last_checkpoint_error": self._checkpoint_error,
            "quarantined_shards": self.quarantined_shards,
            "kernel": kernel_runtime(),
        }

    # ------------------------------------------------------------------
    # Replication (generation shipping)
    # ------------------------------------------------------------------

    def generation_files(self) -> dict:
        """The serving generation's file listing + manifest, for pulls.

        Served under a lease, so the listing is digested from files the
        pin guarantees are still on disk, and the manifest JSON is the
        one that named exactly this generation.
        """
        lease = self._acquire_lease()
        try:
            generation = lease.generation
            if generation == 0:
                raise ServiceError(
                    "nothing published yet: checkpoint before replicating"
                )
            files = list_generation_files(self.directory, generation)
            manifest_json = lease.snapshot.manifest.to_json()
        finally:
            lease.release()
        return {
            "generation": generation,
            "files": [entry.to_wire() for entry in files],
            "manifest": manifest_json,
        }

    def fetch_chunk(
        self, generation: int, name: str, offset: int, length: int
    ) -> bytes:
        """One byte range of a generation member (pull transfers)."""
        if length > self.config.max_chunk_bytes:
            raise ServiceError(
                f"chunk length {length} exceeds the "
                f"{self.config.max_chunk_bytes}-byte ceiling"
            )
        return read_generation_chunk(
            self.directory, generation, name, offset, length
        )

    def push_begin(
        self,
        generation: int,
        files: Sequence[GenerationFile],
        manifest_json: str,
    ) -> Optional[Dict[str, int]]:
        """Open (or resume) an inbound transfer; returns resume offsets.

        ``None`` means this node is already at or past ``generation`` —
        the push is a no-op, not an error (replicating an up-to-date
        follower must be idempotent).  Pending local WAL batches shed
        the push with :class:`ServiceBusy`: the follower's checkpointer
        will fold them shortly, and overwriting acknowledged local
        writes is never acceptable.
        """
        if generation <= self.repository.manifest.generation:
            return None
        if self.repository.wal_pending_batches > 0:
            raise ServiceBusy(
                "node has pending local WAL batches; retry after its "
                "next checkpoint"
            )
        with self._stager_lock:
            stager = self._stagers.get(generation)
            if stager is None:
                stager = GenerationStager(self.directory, generation)
                self._stagers[generation] = stager
        return stager.begin(files, manifest_json)

    def push_chunk(
        self, generation: int, name: str, offset: int, data: bytes
    ) -> None:
        """Stage one byte range of an inbound transfer."""
        if len(data) > self.config.max_chunk_bytes:
            raise ServiceError(
                f"chunk of {len(data)} bytes exceeds the "
                f"{self.config.max_chunk_bytes}-byte ceiling"
            )
        with self._stager_lock:
            stager = self._stagers.get(generation)
        if stager is None:
            raise ServiceError(
                f"no open transfer for generation {generation} "
                "(push_begin first)"
            )
        stager.write_chunk(name, offset, data)

    def push_commit(self, generation: int) -> int:
        """Verify + install a pushed generation and republish from it.

        The install (checksum verify, rename, manifest swap, WAL reset,
        repository reopen) runs under the writer lock, so it serialises
        against concurrent ingest exactly like a checkpoint does; the
        snapshot republish then swaps the serving lease, and readers
        mid-query keep the old snapshot until they drain — an install is
        invisible to in-flight reads, like any other swap.
        """
        with self._stager_lock:
            stager = self._stagers.get(generation)
        if stager is None:
            raise ServiceError(
                f"no open transfer for generation {generation} "
                "(push_begin first)"
            )
        with self._write_lock:
            installed = stager.commit()
            old = self.repository
            old.close()
            self.repository = ClusterRepository.open(
                self.directory,
                verify=self.config.verify,
            )
        with self._stager_lock:
            self._stagers.pop(generation, None)
        self._publish_snapshot()
        self.stats.bump(generations_installed=1)
        return installed

    # ------------------------------------------------------------------
    # Socket front
    # ------------------------------------------------------------------

    def start(self) -> "ClusterService":
        """Bind the socket and launch the daemon threads (idempotent)."""
        if self._started:
            return self
        self._server = RequestServer(
            self.config.host,
            self.config.port,
            handle=self._handle,
            on_shutdown=self.stop,
            name="repro",
            transport=self._transport,
        )
        self.port = self._server.start()
        self._started = True
        loops = [
            ("repro-dispatch", self._dispatch_loop),
            ("repro-checkpoint", self._checkpoint_loop),
        ]
        if self.config.scrub_interval > 0:
            loops.append(("repro-scrub", self._scrub_loop))
        for name, target in loops:
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def _handle(self, request: dict) -> dict:
        """Dispatch one request dict to a response dict (never raises)."""
        op = request.get("op")
        started = time.perf_counter()
        try:
            return self._dispatch(op, request)
        except ServiceBusy as exc:
            return {"status": "busy", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - one bad request must
            # never take the daemon down; the client gets the message.
            return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        finally:
            if isinstance(op, str):
                self._op_latencies.record(op, time.perf_counter() - started)

    def _dispatch(self, op, request: dict) -> dict:
        if op == "ping":
            return {
                "status": "ok",
                "generation": self.serving_generation,
            }
        if op == "info":
            return {"status": "ok", "info": self.info()}
        if op == "metrics":
            return {"status": "ok", "metrics": self.metrics()}
        if op == "manifest":
            lease = self._acquire_lease()
            try:
                manifest_json = lease.snapshot.manifest.to_json()
                generation = lease.generation
            finally:
                lease.release()
            return {
                "status": "ok",
                "generation": generation,
                "manifest": manifest_json,
            }
        if op == "query":
            spectra = protocol.extract_spectra(request)
            results = self.query(spectra, k=int(request.get("k", 5)))
            return protocol.attach_matches({"status": "ok"}, results)
        if op == "query_vectors":
            vectors = protocol.extract_vectors(request)
            k = int(request.get("k", 5))
            shards = request.get("shards")
            generation = request.get("generation")
            if shards is None and generation is None:
                results = self.query_vectors(vectors, k=k)
                served = self.serving_generation  # advisory: coalesced
            else:
                results, served = self.query_vectors_at(
                    vectors,
                    k=k,
                    shards=(
                        None
                        if shards is None
                        else [int(s) for s in shards]
                    ),
                    generation=(
                        None if generation is None else int(generation)
                    ),
                )
            return protocol.attach_matches(
                {"status": "ok", "generation": served}, results
            )
        if op == "ingest":
            spectra = protocol.extract_spectra(request)
            report = self.ingest(spectra)
            return {"status": "ok", "report": asdict(report)}
        if op == "checkpoint":
            return {"status": "ok", "generation": self.checkpoint()}
        if op == "scrub":
            report = self.scrub_once()
            return {
                "status": "ok",
                "report": None if report is None else report.to_json(),
            }
        if op == "generation_files":
            return {"status": "ok", **self.generation_files()}
        if op == "fetch_chunk":
            data = self.fetch_chunk(
                int(request["generation"]),
                str(request["name"]),
                int(request.get("offset", 0)),
                int(request["length"]),
            )
            return protocol.attach_chunk({"status": "ok"}, data)
        if op == "push_begin":
            files = [
                GenerationFile.from_wire(entry)
                for entry in request.get("files", [])
            ]
            offsets = self.push_begin(
                int(request["generation"]),
                files,
                str(request["manifest"]),
            )
            if offsets is None:
                return {"status": "ok", "already_current": True}
            return {
                "status": "ok",
                "already_current": False,
                "offsets": offsets,
            }
        if op == "push_chunk":
            self.push_chunk(
                int(request["generation"]),
                str(request["name"]),
                int(request.get("offset", 0)),
                protocol.extract_chunk(request),
            )
            return {"status": "ok"}
        if op == "push_commit":
            installed = self.push_commit(int(request["generation"]))
            return {"status": "ok", "generation": installed}
        if op == "shutdown":
            return {"status": "ok"}
        return {"status": "error", "error": f"unknown op {op!r}"}

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (or a client ``shutdown`` op)."""
        self.start()
        self._stop.wait()

    def stop(self) -> None:
        """Stop threads, close the socket, release every pin (idempotent)."""
        with self._admit_lock:
            if self._stop.is_set():
                return
            self._stop.set()
        if self._server is not None:
            self._server.stop()
        if self._started:
            self._queue.put(None)  # wake the dispatcher for shutdown
        current = threading.current_thread()
        for thread in self._threads:
            if thread is not current:
                thread.join(timeout=10.0)
        self._threads.clear()
        self._drain_queue()
        with self._stager_lock:
            # Partial transfers stay on disk for resume after restart;
            # staging dirs are invisible to generation sweeps.
            self._stagers.clear()
        with self._lease_lock:
            lease, self._lease = self._lease, None
            retained = list(self._retained.values())
            self._retained.clear()
        if lease is not None:
            lease.retire()
        for old in retained:
            old.retire()
        # The writer lock waits out any in-flight ingest before the
        # terminal sweep + close; later ingests fail on the closed
        # repository instead of being acknowledged post-shutdown.
        with self._write_lock:
            # With the last pin gone, superseded generations are garbage.
            try:
                self.repository.sweep()
            except OSError:
                pass
            self.repository.close()

    def _drain_queue(self) -> None:
        """Fail every query the dispatcher will never serve."""
        error = ServiceError("service stopped before the query ran")
        while True:
            try:
                item = self._queue.get_nowait()
            except Empty:
                return
            if item is None:
                continue
            if item.future.set_running_or_notify_cancel():
                item.future.set_exception(error)

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()
