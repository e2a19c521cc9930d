"""The serving layer: a snapshot-isolated cluster-query daemon.

This package turns the :mod:`repro.store` repository into a networked
service with the concurrency shape of the production deployments the
baselines model — continuous ingest interleaved with online queries:

``repro.service.daemon``
    :class:`ClusterService` — owns the single repository writer, serves
    queries from pinned MVCC snapshots, checkpoints and republishes in a
    background thread, coalesces concurrent small queries into one
    batched kernel pass, and sheds load under admission control.
``repro.service.client``
    :class:`ServiceClient` — a blocking client returning the same match
    and report objects as the in-process query service, with connection
    pooling (:class:`ServiceClientPool`), per-op timeouts, and a bounded
    :class:`RetryPolicy` (busy → backoff; transport → reconnect, for
    idempotent ops only; protocol errors → never).
``repro.service.server``
    :class:`RequestServer` — the shared socket front (framing, version
    gate, shutdown plumbing) under both the daemon and the fleet
    router.
``repro.service.protocol``
    The one length-prefixed wire format both sides speak — a JSON
    control header plus out-of-band binary payloads per frame, under
    one version number.

CLI: ``repro serve <repo>`` runs the daemon, ``repro query --remote
HOST:PORT`` queries it; the multi-node layer lives in :mod:`repro.fleet`.
"""

from .client import (
    NO_RETRY,
    RetryPolicy,
    ServiceClient,
    ServiceClientPool,
)
from .daemon import ClusterService, ServiceConfig, ServiceStats
from .server import RequestServer, TransportMetrics

__all__ = [
    "ClusterService",
    "NO_RETRY",
    "RequestServer",
    "RetryPolicy",
    "ServiceClient",
    "ServiceClientPool",
    "ServiceConfig",
    "ServiceStats",
    "TransportMetrics",
]
