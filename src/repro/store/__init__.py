"""Sharded persistent clustering repository (the serving layer).

The paper's §IV-B argument — encode once, persist the compressed
hypervectors, serve every later analysis with incremental updates — needs
a durable substrate.  This package provides it:

``repro.store.wal``
    Append-only write-ahead log; every ingested batch is journaled (with a
    CRC per record) before it touches cluster state, so a crash mid-ingest
    replays to the exact same labels.
``repro.store.manifest``
    The repository's JSON manifest: format version, encoder/preprocessing
    configuration, shard map, checkpoint generation, applied WAL sequence.
``repro.store.repository``
    :class:`ClusterRepository` — cluster state sharded by precursor-bucket
    range, one :class:`repro.incremental.IncrementalClusterStore` per
    shard, persisted as :class:`repro.io.HypervectorStore` segments.
``repro.store.query``
    :class:`QueryService` — batched top-k nearest clusters by packed
    Hamming distance against shard medoids (one word-major Hamming scan
    per shard per batch, shards scanned in the calling thread).
``repro.store.matches``
    :class:`MatchTable` — a query answer as flat columns from shard
    scan to client, rows of :class:`ClusterMatch` materialised on
    demand — and :func:`merge_topk`, the one ``(distance, shard, local
    label)`` merge the query service and the fleet router share.
``repro.store.index``
    :func:`batched_topk` — the ``(distance, ordinal)`` top-k selection
    every shard scan ends in — and :class:`BitSliceMedoidIndex`, a
    pruning index no query path uses, kept only for the stack benchmark
    harness's import.
``repro.store.ingest``
    :class:`StreamingIngestor` — streaming ingest riding
    :mod:`repro.streaming`: parse/preprocess/encode one batch, then WAL
    append + shard apply, all on the caller's thread; labels and
    checkpoints byte-identical to sequential ``add_batch``.
``repro.store.snapshot``
    :class:`RepositorySnapshot` — MVCC reads: pin one published
    checkpoint generation and serve it (memory-mapped, read-only,
    zero-lock) while the writer ingests and checkpoints past it;
    generations retire only once unpinned.
``repro.store.generation``
    Generation shipping: digest-verified listings of a published
    generation's files, chunked byte-range reads, and a resumable
    staging/verify/install path (:class:`GenerationStager`) that the
    fleet replicator drives over the wire.
``repro.store.integrity``
    At-rest integrity: checkpoint-recorded per-file SHA-256 + size,
    open-time verification policies (``full``/``sampled``/``off``) and
    the paced :class:`GenerationScrubber` behind the daemon's scrub
    thread and ``repro scrub``.
``repro.store.fsio``
    The narrow file-I/O seam under every durability path — trivial
    pass-throughs in production, swappable hooks for the deterministic
    fault injection in :mod:`repro.testing.faults`.
"""

from .generation import GenerationFile, GenerationStager, list_generation_files
from .index import BitSliceMedoidIndex, batched_topk
from .ingest import StreamingIngestor
from .integrity import (
    VERIFY_POLICIES,
    GenerationScrubber,
    ScrubReport,
    integrity_records,
    verify_generation,
)
from .manifest import MANIFEST_VERSION, RepositoryManifest
from .matches import ClusterMatch, MatchTable, merge_topk
from .repository import (
    ClusterRepository,
    RepositoryConfig,
    RepositoryUpdateReport,
    shard_for_bucket,
)
from .query import QueryService
from .snapshot import (
    RepositorySnapshot,
    generations_on_disk,
    pinned_generations,
    sweep_generations,
)
from .wal import WalRecord, WriteAheadLog

__all__ = [
    "BitSliceMedoidIndex",
    "GenerationFile",
    "GenerationStager",
    "batched_topk",
    "list_generation_files",
    "StreamingIngestor",
    "VERIFY_POLICIES",
    "GenerationScrubber",
    "ScrubReport",
    "integrity_records",
    "verify_generation",
    "MANIFEST_VERSION",
    "RepositoryManifest",
    "ClusterRepository",
    "RepositoryConfig",
    "RepositoryUpdateReport",
    "shard_for_bucket",
    "ClusterMatch",
    "MatchTable",
    "merge_topk",
    "QueryService",
    "RepositorySnapshot",
    "generations_on_disk",
    "pinned_generations",
    "sweep_generations",
    "WalRecord",
    "WriteAheadLog",
]
