"""The sharded, WAL-backed cluster repository.

A repository is a directory::

    repo/
      manifest.json              root of trust (see repro.store.manifest)
      wal.log                    append-only ingest journal
      segments/gen-000001/       one checkpoint generation
        shard-0000.npz           HypervectorStore segment of shard 0
        shard-0000.state.json    cluster bookkeeping of shard 0
        ...
        catalog.npz              global row registry + label map

Cluster state is sharded by precursor-bucket *range*: contiguous runs of
``shard_width`` bucket indices map to the same shard, cycling over
``num_shards`` (:func:`shard_for_bucket`).  Every precursor bucket lives
entirely inside one shard, so shards never have to agree on a clustering
decision — the same independence argument that lets SpecHD replicate its
clustering kernels (§III-C) and that falcon exploits by partitioning work
per precursor charge.

Every write journals encoded rows only: ``add_batch`` preprocesses and
encodes its spectra first, and it, ``add_store`` and the daemon all go
through ``add_encoded_batch``.  A stored row is its packed hypervector
plus identifier, precursor m/z and charge; peaks are never kept.

Durability contract: every ingest appends the batch to the WAL (flushed
+ fsynced) *before* touching any cluster state, and
``checkpoint`` writes a complete new segment generation before atomically
swapping the manifest and truncating the WAL.  Reopening after a crash
therefore replays exactly the acknowledged batches on top of the last
checkpoint, and — because ingest is deterministic — produces labels
identical to an uninterrupted run.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError, SpecHDError
from ..hdc import EncoderConfig, IDLevelEncoder
from ..incremental import IncrementalClusterStore
from ..io.hvstore import HypervectorStore
from ..spectrum import (
    BucketingConfig,
    MassSpectrum,
    PreprocessingConfig,
    check_precursor_columns,
    precursor_bucket_key,
)
from ..streaming import encode_spectra
from . import fsio
from .integrity import (
    check_verify_policy,
    integrity_records,
    verify_generation,
)
from .manifest import MANIFEST_NAME, RepositoryManifest
from .snapshot import RepositorySnapshot, sweep_generations
from .wal import WriteAheadLog

#: Name of the journal file inside a repository directory.
WAL_NAME = "wal.log"

#: Directory holding checkpoint generations.
SEGMENTS_DIR = "segments"


def shard_for_bucket(
    bucket: Tuple[int, int], num_shards: int, shard_width: int
) -> int:
    """Map a precursor bucket key to its owning shard.

    Contiguous runs of ``shard_width`` bucket indices share a shard and
    runs cycle over the shards, so mass-adjacent buckets (which absorb the
    same instrument runs) mostly land together while load still spreads.
    """
    return (bucket[1] // shard_width) % num_shards


@dataclass(frozen=True)
class RepositoryConfig:
    """Creation-time configuration of a repository (frozen thereafter)."""

    num_shards: int = 4
    shard_width: int = 64
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    preprocessing: PreprocessingConfig = field(
        default_factory=PreprocessingConfig
    )
    bucketing: BucketingConfig = field(default_factory=BucketingConfig)
    cluster_threshold: float = 0.3
    linkage: str = "complete"

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if self.shard_width < 1:
            raise ConfigurationError("shard_width must be >= 1")
        if not 0.0 <= self.cluster_threshold <= 1.0:
            raise ConfigurationError(
                "cluster_threshold must be a normalised distance in [0, 1]"
            )


@dataclass(frozen=True)
class RepositoryUpdateReport:
    """Outcome of one repository ingest call, aggregated over shards."""

    seq: int
    num_added: int
    num_absorbed: int
    num_new_clusters: int
    num_dropped: int
    shards_touched: int

    @property
    def absorption_rate(self) -> float:
        """Fraction of accepted spectra absorbed into existing clusters."""
        if self.num_added == 0:
            return 0.0
        return self.num_absorbed / self.num_added


class ClusterRepository:
    """Durable, sharded cluster state with WAL-backed ingest.

    Use :meth:`create` for a new repository directory and :meth:`open` for
    an existing one; the constructor itself is internal plumbing.
    """

    def __init__(
        self,
        directory: Path,
        manifest: RepositoryManifest,
        shards: List[IncrementalClusterStore],
        encoder: IDLevelEncoder,
    ) -> None:
        self.directory = directory
        self.manifest = manifest
        self.encoder = encoder
        #: Verification policy snapshots opened via :meth:`snapshot`
        #: inherit (set by :meth:`open` from its ``verify`` argument).
        self.verify_policy = "sampled"
        self._shards = shards
        self._wal = WriteAheadLog(directory / WAL_NAME)
        self._row_shard: List[int] = []
        self._row_local: List[int] = []
        self._label_map: Dict[Tuple[int, int], int] = {}
        self._next_global_label = 0
        self._applied_seq = manifest.applied_seq
        self._next_seq = manifest.applied_seq + 1
        #: WAL records applied since the last checkpoint (replayed ones
        #: included) — the backlog a checkpoint would fold into a new
        #: generation; drives the service's checkpoint trigger.
        self._wal_pending = 0
        #: Shard ids the most recent apply routed rows to (for reports).
        self._last_touched_shards: set = set()
        #: Set when an apply died partway: in-memory state no longer
        #: matches the journal, so mutations must go through a reopen.
        self._poisoned = False
        #: Set by :meth:`close`; mutations after it must fail loudly
        #: instead of silently reopening the WAL handle.
        self._closed = False
        #: Bumped on every state change; lets query services cache medoids.
        self.version = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        config: RepositoryConfig = RepositoryConfig(),
    ) -> "ClusterRepository":
        """Initialise a new repository directory and open it."""
        directory = Path(directory)
        if (directory / MANIFEST_NAME).exists():
            raise SpecHDError(
                f"{directory} already contains a repository manifest"
            )
        directory.mkdir(parents=True, exist_ok=True)
        (directory / SEGMENTS_DIR).mkdir(exist_ok=True)
        manifest = RepositoryManifest(
            num_shards=config.num_shards,
            shard_width=config.shard_width,
            encoder=config.encoder,
            preprocessing=config.preprocessing,
            bucketing=config.bucketing,
            cluster_threshold=config.cluster_threshold,
            linkage=config.linkage,
        )
        manifest.save(directory)
        (directory / WAL_NAME).touch()
        return cls.open(directory)

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        recover_wal: bool = True,
        verify: str = "sampled",
    ) -> "ClusterRepository":
        """Open a repository: load the checkpoint, replay the WAL.

        ``recover_wal=False`` replays without truncating a torn WAL tail
        on disk — required for read-only opens of a directory another
        process may be *writing* (a CLI query against a live daemon's
        repository must never truncate a record the daemon is mid-append
        on).  Writers must keep the default: an append after a torn tail
        would merge records.

        ``verify`` checks the generation's files against the manifest's
        integrity records before anything is loaded (``full`` digests
        everything, ``sampled`` — the default — stat-checks everything
        and digests a sample, ``off`` skips).  A mismatch raises
        :class:`~repro.errors.IntegrityError` naming the file and shard;
        nothing is mmap'd from damaged bytes.
        """
        directory = Path(directory)
        check_verify_policy(verify)
        manifest = RepositoryManifest.load(directory)
        verify_generation(
            directory,
            manifest.generation,
            manifest.integrity,
            policy=verify,
        )
        # One encoder (therefore one item memory) shared by every shard.
        encoder = IDLevelEncoder(manifest.encoder)
        shards: List[IncrementalClusterStore] = []
        generation_dir = cls._generation_dir(directory, manifest.generation)
        for shard_id in range(manifest.num_shards):
            if manifest.generation > 0:
                # Segment payloads are memory-mapped: reopening a large
                # repository does not copy every shard's vectors through
                # RAM (the first post-open ingest into a shard converts
                # its matrix to an in-memory copy as it appends).
                shards.append(
                    IncrementalClusterStore.load(
                        generation_dir,
                        stem=f"shard-{shard_id:04d}",
                        encoder=encoder,
                        mmap=True,
                    )
                )
            else:
                shards.append(
                    IncrementalClusterStore(
                        encoder_config=manifest.encoder,
                        preprocessing=manifest.preprocessing,
                        bucketing=manifest.bucketing,
                        cluster_threshold=manifest.cluster_threshold,
                        linkage=manifest.linkage,
                        encoder=encoder,
                    )
                )
        repository = cls(directory, manifest, shards, encoder)
        repository.verify_policy = verify
        if manifest.generation > 0:
            repository._load_catalog(generation_dir)
        repository._replay_wal(recover=recover_wal)
        return repository

    @staticmethod
    def _generation_dir(directory: Path, generation: int) -> Path:
        return directory / SEGMENTS_DIR / f"gen-{generation:06d}"

    def snapshot(self, verify: Optional[str] = None) -> RepositorySnapshot:
        """Pin and open the last *published* generation for reading.

        The snapshot shares this repository's item memory (one per
        process) through an encoder clone, so a reader encoding on
        another thread never shares the writer's encode scratch; it
        shares none of the repository's mutable state: it sees exactly what
        :meth:`checkpoint` last wrote, and keeps seeing it while this
        repository ingests and checkpoints past it.  Batches applied
        since that checkpoint are invisible to the snapshot — checkpoint
        first if the read must include them.  ``verify`` defaults to the
        policy this repository was opened with.
        """
        return RepositorySnapshot.open(
            self.directory,
            encoder=self.encoder.clone(),
            verify=self.verify_policy if verify is None else verify,
        )

    def close(self) -> None:
        """Release OS resources (the WAL's append handle); idempotent.

        The repository object must not ingest after ``close`` — reopen
        the directory instead (enforced: a later ingest or checkpoint
        raises).  Reads of in-memory state remain valid.
        """
        self._closed = True
        self._wal.close()

    def __enter__(self) -> "ClusterRepository":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _replay_wal(self, recover: bool = True) -> None:
        """Re-apply acknowledged batches newer than the checkpoint."""
        # Discard a torn tail first: a later append must never merge
        # with the partial bytes of a record that was never acknowledged.
        # (Read-only opens skip the truncation — replay() tolerates a
        # torn tail by itself.)
        if recover:
            self._wal.recover()
        for record in self._wal.replay(after_seq=self._applied_seq):
            if record.kind == "spectra":
                # Journals written before every write was encoded first:
                # encode on replay, then apply like any encoded record.
                batch = encode_spectra(
                    record.spectra(), self.manifest.preprocessing, self.encoder
                )
                columns = (
                    batch.vectors,
                    batch.precursor_mz,
                    batch.charge,
                    batch.identifiers,
                )
            else:
                columns = record.encoded()
            self._apply_encoded(record.seq, *columns)
            self._next_seq = record.seq + 1
            self._wal_pending += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._row_shard)

    @property
    def num_shards(self) -> int:
        """Number of shards (fixed at creation)."""
        return self.manifest.num_shards

    @property
    def num_clusters(self) -> int:
        """Number of clusters across all shards."""
        return len(self._label_map)

    def labels(self) -> np.ndarray:
        """Global cluster label per ingested spectrum, in ingest order."""
        return np.array(
            [
                self._label_map[
                    (shard_id, self._shards[shard_id].row_label(local_row))
                ]
                for shard_id, local_row in zip(
                    self._row_shard, self._row_local
                )
            ],
            dtype=np.int64,
        )

    def stored_bytes(self) -> int:
        """Bytes of packed hypervectors across all shards."""
        return sum(shard.stored_bytes() for shard in self._shards)

    def wal_bytes(self) -> int:
        """Current size of the ingest journal."""
        return self._wal.size_bytes()

    @property
    def wal_pending_batches(self) -> int:
        """Applied batches not yet folded into a checkpoint generation."""
        return self._wal_pending

    def shard_stats(self) -> List[Dict[str, int]]:
        """Per-shard ``{spectra, clusters, bytes}`` summaries."""
        return [
            {
                "shard": shard_id,
                "spectra": len(shard),
                "clusters": shard.num_clusters,
                "bytes": shard.stored_bytes(),
            }
            for shard_id, shard in enumerate(self._shards)
        ]

    def info(self) -> Dict[str, object]:
        """Machine-readable repository summary (JSON-serialisable).

        One shape for every consumer: ``repro repo-info --json``, the
        cluster daemon's ``info`` endpoint, and scripts.  Keys are stable
        API; additions are backwards-compatible.
        """
        from .snapshot import generations_on_disk, pinned_generations

        manifest = self.manifest
        return {
            "directory": str(self.directory),
            "format_version": manifest.format_version,
            "generation": manifest.generation,
            "applied_seq": self._applied_seq,
            "num_spectra": len(self),
            "num_clusters": self.num_clusters,
            "num_shards": manifest.num_shards,
            "shard_width": manifest.shard_width,
            "encoder": {
                "dim": manifest.encoder.dim,
                "seed": manifest.encoder.seed,
            },
            "bucketing_resolution": manifest.bucketing.resolution,
            "cluster_threshold": manifest.cluster_threshold,
            "linkage": manifest.linkage,
            "stored_bytes": self.stored_bytes(),
            "wal_bytes": self.wal_bytes(),
            "wal_pending_batches": self.wal_pending_batches,
            "generations_on_disk": generations_on_disk(self.directory),
            "pinned_generations": {
                str(generation): count
                for generation, count in sorted(
                    pinned_generations(self.directory).items()
                )
            },
            "shards": self.shard_stats(),
        }

    def shard(self, shard_id: int) -> IncrementalClusterStore:
        """Direct access to one shard's store (read-only use expected)."""
        return self._shards[shard_id]

    def global_label(self, shard_id: int, local_label: int) -> int:
        """The global label assigned to a shard-local cluster."""
        return self._label_map[(shard_id, local_label)]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def _guard_consistent(self) -> None:
        if self._closed:
            raise SpecHDError(
                "repository is closed; reopen the directory to ingest"
            )
        if self._poisoned:
            raise SpecHDError(
                "repository state is inconsistent after a failed apply or "
                "checkpoint; reopen the directory to recover from the "
                "journal"
            )

    def _apply_guarded(self, apply, *args) -> RepositoryUpdateReport:
        """Run an apply; a partial failure poisons the in-memory state.

        The journal record is already durable, so a crash would replay it
        in full — but a *survived* exception leaves shards half-updated.
        Poisoning forces the caller through a reopen (which replays the
        WAL) instead of letting a later checkpoint persist the torn state.
        """
        try:
            return apply(*args)
        except BaseException:
            self._poisoned = True
            raise

    def add_batch(
        self, spectra: Sequence[MassSpectrum]
    ) -> RepositoryUpdateReport:
        """Durably ingest raw spectra: encode, then :meth:`add_encoded_batch`.

        The batch is preprocessed and encoded with the repository's own
        configuration and encoder (:func:`repro.streaming.encode_spectra`);
        only the QC survivors' encoded rows are journaled and stored.  A
        batch whose every spectrum fails QC still consumes a sequence
        number, and ``num_dropped`` reports the QC drops.
        """
        batch = encode_spectra(
            spectra, self.manifest.preprocessing, self.encoder
        )
        return self.add_encoded_batch(
            batch.vectors,
            batch.precursor_mz,
            batch.charge,
            batch.identifiers,
            num_dropped=batch.num_dropped,
        )

    def add_encoded_batch(
        self,
        vectors: np.ndarray,
        precursor_mz: Sequence[float],
        charge: Sequence[int],
        identifiers: Sequence[str],
        num_dropped: int = 0,
    ) -> RepositoryUpdateReport:
        """Durably ingest one pre-encoded batch: journal, then apply.

        Every write ends here: :meth:`add_batch`, :meth:`add_store`, the
        streaming ingestor and the daemon.  Preprocessing and encoding
        already happened upstream, so only the compact encoded rows
        enter the repository's critical section.  The batch must have
        been encoded with this repository's exact encoder configuration
        — every in-tree caller encodes with the repository's own encoder.

        The precursor columns are checked before anything is journaled:
        a row with a charge below 1 or an m/z that is not positive and
        finite raises :class:`~repro.errors.ConfigurationError`, consumes
        no sequence number and leaves the journal untouched (journaled,
        it would fail again on every replay).

        An *empty* batch (every spectrum failed QC) is journaled anyway:
        it still consumes a sequence number, keeping the WAL history —
        and therefore ``applied_seq`` and the checkpoint manifest —
        aligned one-to-one with the input batches, however many rows
        each kept.

        ``num_dropped`` is the preprocess stage's QC-drop count for this
        batch, passed through to the report (it is not journaled; replay
        reports drops as 0 exactly like the ``add_store`` path).
        """
        vectors = np.asarray(vectors, dtype=np.uint64)
        if vectors.ndim != 2 or vectors.shape[1] * 64 != self.manifest.encoder.dim:
            raise ConfigurationError(
                f"encoded vectors must be (n, {self.manifest.encoder.dim // 64})"
                " uint64"
            )
        # Validate *before* journaling: a mismatched record fsynced to the
        # WAL would fail again on every replay, bricking the repository.
        if not (
            vectors.shape[0]
            == len(precursor_mz)
            == len(charge)
            == len(identifiers)
        ):
            raise ConfigurationError(
                "encoded batch arrays have unequal lengths"
            )
        if num_dropped < 0:
            raise ConfigurationError("num_dropped must be >= 0")
        precursor_mz, charge = check_precursor_columns(
            precursor_mz, charge, self.manifest.bucketing
        )
        self._guard_consistent()
        seq = self._next_seq
        self._wal.append_encoded(seq, vectors, precursor_mz, charge, identifiers)
        # The sequence number is consumed the moment the record is
        # durable: even if the apply below raises, a retry gets a fresh
        # seq and replay stays free of duplicates.
        self._next_seq = seq + 1
        self._wal_pending += 1
        report = self._apply_guarded(
            self._apply_encoded, seq, vectors, precursor_mz, charge, identifiers
        )
        return replace(report, num_dropped=num_dropped)

    def add_store(
        self,
        store: HypervectorStore,
        batch_rows: Optional[int] = None,
    ) -> RepositoryUpdateReport:
        """Durably ingest a pre-encoded :class:`HypervectorStore`.

        This is the ``encode_only`` → ingest path: the store must have
        been encoded with this repository's exact encoder configuration.
        ``batch_rows`` journals the store as a series of bounded WAL
        records instead of one monolithic record — use it for large
        stores so neither the journal line nor replay has to hold the
        whole matrix at once.  Every slice goes through
        :meth:`add_encoded_batch`; the whole store's precursor columns
        are checked before the first slice is journaled.
        """
        if store.dim != self.manifest.encoder.dim:
            raise ConfigurationError(
                f"store dim {store.dim} does not match repository "
                f"dim {self.manifest.encoder.dim}"
            )
        if store.encoder_seed != self.manifest.encoder.seed:
            raise ConfigurationError(
                f"store encoder seed {store.encoder_seed} does not match "
                f"repository seed {self.manifest.encoder.seed}"
            )
        if batch_rows is not None and batch_rows < 1:
            raise ConfigurationError("batch_rows must be >= 1")
        precursor_mz, charge = check_precursor_columns(
            store.precursor_mz, store.charge, self.manifest.bucketing
        )
        self._guard_consistent()
        count = len(store)
        if count == 0:
            return RepositoryUpdateReport(
                seq=self._applied_seq,
                num_added=0,
                num_absorbed=0,
                num_new_clusters=0,
                num_dropped=0,
                shards_touched=0,
            )
        step = count if batch_rows is None else batch_rows
        added = absorbed = new_clusters = 0
        touched: set = set()
        last_seq = self._applied_seq
        for start in range(0, count, step):
            stop = min(start + step, count)
            report = self.add_encoded_batch(
                store.vectors[start:stop],
                precursor_mz[start:stop],
                charge[start:stop],
                store.identifiers[start:stop],
            )
            added += report.num_added
            absorbed += report.num_absorbed
            new_clusters += report.num_new_clusters
            touched |= self._last_touched_shards
            last_seq = report.seq
        return RepositoryUpdateReport(
            seq=last_seq,
            num_added=added,
            num_absorbed=absorbed,
            num_new_clusters=new_clusters,
            num_dropped=0,
            shards_touched=len(touched),
        )

    def _apply_encoded(
        self,
        seq: int,
        vectors: np.ndarray,
        precursor_mz: np.ndarray,
        charge: np.ndarray,
        identifiers: Sequence[str],
    ) -> RepositoryUpdateReport:
        """Route encoded rows by bucket and apply them to their shards.

        The one apply, identical for live calls and WAL replay.  Rows
        are already QC'd, so every one of them lands a row in its shard;
        that invariant is what makes the global row registry a pure
        function of the routing.
        """
        manifest = self.manifest
        by_shard: Dict[int, List[int]] = {}
        for position, (mz, ch) in enumerate(
            zip(precursor_mz.tolist(), charge.tolist())
        ):
            bucket = precursor_bucket_key(mz, ch, manifest.bucketing)
            shard_id = shard_for_bucket(
                bucket, manifest.num_shards, manifest.shard_width
            )
            by_shard.setdefault(shard_id, []).append(position)

        absorbed = 0
        new_clusters = 0
        row_of_position: Dict[int, Tuple[int, int]] = {}
        for shard_id in sorted(by_shard):
            shard = self._shards[shard_id]
            positions = by_shard[shard_id]
            base_row = len(shard)
            subset = np.array(positions)
            report = shard.add_encoded(
                vectors[subset],
                precursor_mz[subset],
                charge[subset],
                [identifiers[p] for p in positions],
            )
            absorbed += report.num_absorbed
            new_clusters += report.num_new_clusters
            for offset, position in enumerate(positions):
                row_of_position[position] = (shard_id, base_row + offset)

        # Global rows and labels are assigned in the batch's own order, so
        # the registry is deterministic regardless of shard layout.
        for position in range(len(identifiers)):
            shard_id, local_row = row_of_position[position]
            self._row_shard.append(shard_id)
            self._row_local.append(local_row)
            local_label = self._shards[shard_id].row_label(local_row)
            key = (shard_id, local_label)
            if key not in self._label_map:
                self._label_map[key] = self._next_global_label
                self._next_global_label += 1

        self._applied_seq = seq
        self._last_touched_shards = set(by_shard)
        self.version += 1
        return RepositoryUpdateReport(
            seq=seq,
            num_added=len(identifiers),
            num_absorbed=absorbed,
            num_new_clusters=new_clusters,
            num_dropped=0,
            shards_touched=len(by_shard),
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Persist a new segment generation; returns the generation number.

        Order matters for crash safety: the complete new generation is
        written first, then the manifest is atomically swapped to point at
        it, and only then is the WAL truncated and the previous generation
        removed.  A crash at any point leaves either the old checkpoint
        (plus a replayable WAL) or the new one.
        """
        self._guard_consistent()
        previous_generation = self.manifest.generation
        generation = previous_generation + 1
        generation_dir = self._generation_dir(self.directory, generation)
        if generation_dir.exists():
            shutil.rmtree(generation_dir)  # leftover from a crashed attempt
        generation_dir.mkdir(parents=True)
        for shard_id, shard in enumerate(self._shards):
            # Uncompressed segments: packed hypervectors are high-entropy
            # (deflate gains almost nothing) and the stored .npy payload
            # can then be memory-mapped straight out of the archive when
            # the repository is reopened.
            shard.save(
                generation_dir, stem=f"shard-{shard_id:04d}", compress=False
            )
        self._save_catalog(generation_dir)
        # The WAL is truncated right after the manifest swap, so the new
        # generation must be on disk before the manifest names it: fsync
        # every segment file and the directory entries.
        for segment in generation_dir.iterdir():
            fsio.fs_fsync_path(segment)
        for entry_dir in (generation_dir, generation_dir.parent):
            fsio.fs_fsync_path(entry_dir)
        # Digest the durable bytes: the manifest records what is actually
        # on disk, so open-time verification and the scrubber check
        # against exactly what this checkpoint published.
        integrity = integrity_records(generation_dir)

        # Publish.  From the first manifest mutation onward, in-memory
        # state and disk can disagree if a write fails (ENOSPC, fsync
        # error): poison so every later mutation forces a reopen — which
        # finds the *old* manifest plus the intact WAL and replays it,
        # reproducing this state exactly.
        try:
            self.manifest.generation = generation
            self.manifest.applied_seq = self._applied_seq
            self.manifest.num_spectra = len(self)
            self.manifest.num_clusters = self.num_clusters
            self.manifest.shard_counts = {
                str(shard_id): len(shard)
                for shard_id, shard in enumerate(self._shards)
            }
            self.manifest.integrity = integrity
            self.manifest.save(self.directory)
            self._wal.reset()
        except BaseException:
            self._poisoned = True
            raise
        self._wal_pending = 0
        # Retire every *unpinned* generation below the one the manifest
        # now names — not just the immediate predecessor, so generations
        # orphaned by a crash between manifest swap and cleanup get
        # collected too.  Generations pinned by a live
        # RepositorySnapshot survive the sweep and are collected by a
        # later one, once their readers close (the MVCC contract).
        sweep_generations(self.directory, generation)
        return generation

    def sweep(
        self, partial_max_age_seconds: Optional[float] = None
    ) -> List[int]:
        """Retire unpinned superseded generations; returns those removed.

        Checkpoints sweep automatically; this explicit hook lets a
        long-running service reclaim a generation as soon as its last
        snapshot closes instead of waiting for the next checkpoint.
        ``partial_max_age_seconds`` additionally collects orphaned
        ``gen-NNNNNN.partial/`` staging directories older than that age
        (a replicator crash leaves them behind); in-progress pulls keep
        their staging files' mtimes fresh and are never touched.
        """
        return sweep_generations(
            self.directory,
            self.manifest.generation,
            partial_max_age_seconds=partial_max_age_seconds,
        )

    def _save_catalog(self, generation_dir: Path) -> None:
        map_items = sorted(
            self._label_map.items(), key=lambda item: item[1]
        )
        np.savez_compressed(
            generation_dir / "catalog.npz",
            row_shard=np.array(self._row_shard, dtype=np.int32),
            row_local=np.array(self._row_local, dtype=np.int64),
            map_shard=np.array(
                [key[0] for key, _ in map_items], dtype=np.int32
            ),
            map_local=np.array(
                [key[1] for key, _ in map_items], dtype=np.int64
            ),
            map_global=np.array(
                [value for _, value in map_items], dtype=np.int64
            ),
            next_global_label=np.array(
                [self._next_global_label], dtype=np.int64
            ),
        )

    def _load_catalog(self, generation_dir: Path) -> None:
        with np.load(generation_dir / "catalog.npz") as catalog:
            self._row_shard = [int(v) for v in catalog["row_shard"]]
            self._row_local = [int(v) for v in catalog["row_local"]]
            self._label_map = {
                (int(shard), int(local)): int(global_label)
                for shard, local, global_label in zip(
                    catalog["map_shard"],
                    catalog["map_local"],
                    catalog["map_global"],
                )
            }
            self._next_global_label = int(catalog["next_global_label"][0])
