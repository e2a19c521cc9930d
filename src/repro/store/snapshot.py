"""Snapshot-isolated repository reads: MVCC over checkpoint generations.

PR 2's :class:`~repro.store.ClusterRepository` is a *session* that owns
its directory: queries must run against a quiescent repository object,
and every checkpoint immediately deletes the previous generation.  This
module decouples readers from the writer:

* :meth:`ClusterRepository.checkpoint` publishes immutable **generations**
  (``segments/gen-NNNNNN/``) and never deletes one that a reader holds;
* :class:`RepositorySnapshot` **pins** one published generation and
  serves reads from it — memory-mapped segment payloads and the
  generation's catalog, all read-only, with zero coordination against
  concurrent ingest;
* a **retirement sweep** (:func:`sweep_generations`, run by every
  checkpoint) deletes superseded generations only once no live pin
  references them.

Pins are advisory marker files under ``<repo>/pins/`` naming a
generation and the owning process id.  They work across processes: a
CLI query can pin a generation while a separate ingest process
checkpoints past it.  Pins of dead processes are treated as stale and
collected by the sweep, so a crashed reader never leaks a generation
forever.

A snapshot observes exactly the state the checkpoint published — WAL
batches applied after that checkpoint are invisible to it.  That is the
MVCC contract: writers go forward, pinned readers stay put, and a query
pinned to generation G returns byte-identical results before, during
and after the checkpoint that publishes G+1 (pinned by
``tests/store/test_mvcc.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..errors import ConfigurationError, IntegrityError, SpecHDError
from ..hdc import IDLevelEncoder
from ..incremental import IncrementalClusterStore
from .manifest import RepositoryManifest

#: Directory (inside a repository) holding generation pin files.
PINS_DIR = "pins"

#: Attempts to pin a generation before giving up; each retry re-reads
#: the manifest, so this bounds how much checkpoint churn open survives.
_PIN_ATTEMPTS = 16


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a pin's owning process."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def _read_pin(path: Path) -> Optional[dict]:
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        return {
            "generation": int(record["generation"]),
            "pid": int(record["pid"]),
        }
    except (OSError, ValueError, KeyError, TypeError):
        return None


def pinned_generations(directory: Union[str, Path]) -> Dict[int, int]:
    """``{generation: live pin count}`` for a repository directory.

    Unreadable pin files and pins whose owning process is gone are
    **stale**: they are unlinked here (best effort), so a crashed reader
    cannot hold a generation hostage.  Only live pins count.
    """
    pins_dir = Path(directory) / PINS_DIR
    counts: Dict[int, int] = {}
    if not pins_dir.is_dir():
        return counts
    for path in sorted(pins_dir.glob("*.pin")):
        record = _read_pin(path)
        if record is None or not _pid_alive(record["pid"]):
            try:
                path.unlink()
            except OSError:
                pass
            continue
        generation = record["generation"]
        counts[generation] = counts.get(generation, 0) + 1
    return counts


def _write_pin(directory: Path, generation: int) -> Path:
    pins_dir = directory / PINS_DIR
    pins_dir.mkdir(exist_ok=True)
    token = uuid.uuid4().hex[:12]
    path = pins_dir / f"gen-{generation:06d}.{token}.pin"
    payload = json.dumps(
        {
            "generation": generation,
            "pid": os.getpid(),
            "created": time.time(),
        }
    )
    with open(path, "x", encoding="utf-8") as handle:
        handle.write(payload + "\n")
    return path


def generations_on_disk(directory: Union[str, Path]) -> List[int]:
    """Sorted generation numbers whose segment directories exist."""
    from .repository import SEGMENTS_DIR  # local import: avoids a cycle

    segments_dir = Path(directory) / SEGMENTS_DIR
    found: List[int] = []
    if not segments_dir.is_dir():
        return found
    for entry in segments_dir.glob("gen-*"):
        try:
            found.append(int(entry.name.split("-", 1)[1]))
        except ValueError:
            continue
    return sorted(found)


def _newest_mtime(entry: Path) -> float:
    """The freshest mtime among a directory and its direct children.

    A resuming replicator appends to staged *files* without touching the
    directory entry, so the directory mtime alone would misjudge an
    active pull as stale.
    """
    newest = entry.stat().st_mtime
    try:
        for child in entry.iterdir():
            try:
                newest = max(newest, child.stat().st_mtime)
            except OSError:
                continue
    except OSError:
        pass
    return newest


def sweep_generations(
    directory: Union[str, Path],
    current_generation: int,
    partial_max_age_seconds: Optional[float] = None,
) -> List[int]:
    """Delete unpinned generations below ``current_generation``.

    The manifest's current generation is never touched; older ones
    survive exactly as long as a live pin references them.  Returns the
    generations removed (sorted).  Safe to call at any time — the writer
    runs it after every checkpoint, and a service can run it after a
    long-lived snapshot finally closes.

    ``partial_max_age_seconds`` additionally removes orphaned
    ``gen-NNNNNN.partial/`` staging directories (left behind when a
    replicator died mid-pull) whose newest file is older than the given
    age.  ``None`` (the default, and what checkpoint uses) never touches
    them — the age threshold is what keeps an *in-progress* pull, which
    continually refreshes its staged files, safe from the sweep.
    """
    directory = Path(directory)
    pinned = pinned_generations(directory)
    removed: List[int] = []
    from .repository import SEGMENTS_DIR  # local import: avoids a cycle

    segments_dir = directory / SEGMENTS_DIR
    if not segments_dir.is_dir():
        return removed
    now = time.time()
    for entry in segments_dir.glob("gen-*"):
        if entry.name.endswith(".partial") and entry.is_dir():
            if (
                partial_max_age_seconds is not None
                and now - _newest_mtime(entry) > partial_max_age_seconds
            ):
                shutil.rmtree(entry, ignore_errors=True)
            continue
        try:
            generation = int(entry.name.split("-", 1)[1])
        except ValueError:
            continue
        if generation < current_generation and generation not in pinned:
            shutil.rmtree(entry, ignore_errors=False)
            removed.append(generation)
    return sorted(removed)


class RepositorySnapshot:
    """A pinned, read-only view of one published repository generation.

    Open with :meth:`open` (or :meth:`ClusterRepository.snapshot`); the
    handle pins its generation on disk until :meth:`close`, so the
    writer's checkpoints — which may publish any number of newer
    generations in the meantime — never delete the files this snapshot
    reads from.  Segment payloads are memory-mapped, so many snapshots
    of the same generation share page cache rather than multiplying RAM.

    The surface mirrors the read side of :class:`ClusterRepository`
    (``shard``/``global_label``/``labels``/…),
    which is exactly what :class:`~repro.store.QueryService` consumes —
    a query service is constructed over either interchangeably.
    ``version`` is the pinned generation and never changes, so a query
    service over a snapshot builds its scan state once and reuses it for
    the snapshot's whole lifetime: the zero-lock hot path.
    """

    def __init__(
        self,
        directory: Path,
        manifest: RepositoryManifest,
        shards: List[IncrementalClusterStore],
        encoder: IDLevelEncoder,
        pin_path: Optional[Path],
    ) -> None:
        self.directory = directory
        self.manifest = manifest
        self.encoder = encoder
        self._shards = shards
        self._pin_path = pin_path
        self._row_shard: List[int] = []
        self._row_local: List[int] = []
        self._label_map: Dict[tuple, int] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        encoder: Optional[IDLevelEncoder] = None,
        verify: str = "sampled",
    ) -> "RepositorySnapshot":
        """Pin and open the repository's current published generation.

        ``encoder`` optionally shares a pre-built encoder (one item
        memory per process even while snapshots are swapped under a
        daemon); its configuration must match the manifest's.

        Opening races benignly with a concurrent checkpoint: the pin is
        written *before* the generation files are read, and if the
        generation was retired between reading the manifest and pinning
        it, the open retries against the fresh manifest.

        ``verify`` checks the pinned generation's files against the
        manifest's integrity records before anything is mmap'd (see
        :mod:`repro.store.integrity`).  A *missing* recorded file during
        verification is indistinguishable from sweep churn and retries
        like any other churn; a size or digest mismatch raises
        :class:`~repro.errors.IntegrityError` immediately — retrying
        cannot make corrupt bytes valid.
        """
        from .integrity import check_verify_policy, verify_generation

        directory = Path(directory)
        check_verify_policy(verify)
        last_error: Optional[BaseException] = None
        for _ in range(_PIN_ATTEMPTS):
            manifest = RepositoryManifest.load(directory)
            if encoder is not None and encoder.config != manifest.encoder:
                raise ConfigurationError(
                    "shared encoder configuration does not match the "
                    "repository manifest"
                )
            pin_path: Optional[Path] = None
            if manifest.generation > 0:
                pin_path = _write_pin(directory, manifest.generation)
            try:
                verify_generation(
                    directory,
                    manifest.generation,
                    manifest.integrity,
                    policy=verify,
                )
                return cls._load_generation(
                    directory, manifest, encoder, pin_path
                )
            except IntegrityError as exc:
                if pin_path is not None:
                    pin_path.unlink(missing_ok=True)
                if not exc.missing:
                    raise
                # A recorded file vanished: the generation was swept
                # between the manifest read and the pin write.  Churn,
                # not damage — retry against the fresh manifest.
                last_error = exc
                continue
            except (FileNotFoundError, OSError) as exc:
                # The generation was swept between the manifest read and
                # the pin write; drop the useless pin and re-read.
                if pin_path is not None:
                    pin_path.unlink(missing_ok=True)
                last_error = exc
                continue
        raise SpecHDError(
            f"could not pin a generation of {directory} "
            f"(checkpoint churn): {last_error}"
        )

    @classmethod
    def _load_generation(
        cls,
        directory: Path,
        manifest: RepositoryManifest,
        encoder: Optional[IDLevelEncoder],
        pin_path: Optional[Path],
    ) -> "RepositorySnapshot":
        from .repository import ClusterRepository  # avoid a cycle

        shared = encoder or IDLevelEncoder(manifest.encoder)
        shards: List[IncrementalClusterStore] = []
        generation_dir = ClusterRepository._generation_dir(
            directory, manifest.generation
        )
        for shard_id in range(manifest.num_shards):
            if manifest.generation > 0:
                shards.append(
                    IncrementalClusterStore.load(
                        generation_dir,
                        stem=f"shard-{shard_id:04d}",
                        encoder=shared,
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
                        encoder=shared,
                    )
                )
        snapshot = cls(directory, manifest, shards, shared, pin_path)
        if manifest.generation > 0:
            snapshot._load_catalog(generation_dir)
        return snapshot

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

    def close(self) -> None:
        """Release the generation pin (idempotent).

        The files themselves are deleted later, by the writer's next
        retirement sweep — closing a snapshot is O(1) and never blocks
        on segment deletion.
        """
        if self._closed:
            return
        self._closed = True
        if self._pin_path is not None:
            self._pin_path.unlink(missing_ok=True)
            self._pin_path = None

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "RepositorySnapshot":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Read API (mirrors ClusterRepository's read side)
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The pinned checkpoint generation."""
        return self.manifest.generation

    @property
    def version(self) -> int:
        """Scan-state cache key; constant for a snapshot's lifetime."""
        return self.manifest.generation

    @property
    def num_shards(self) -> int:
        return self.manifest.num_shards

    @property
    def num_clusters(self) -> int:
        return len(self._label_map)

    def __len__(self) -> int:
        return len(self._row_shard)

    def shard(self, shard_id: int) -> IncrementalClusterStore:
        """One shard's store as checkpointed (treat as read-only)."""
        return self._shards[shard_id]

    def global_label(self, shard_id: int, local_label: int) -> int:
        return self._label_map[(shard_id, local_label)]

    def labels(self) -> np.ndarray:
        """Global cluster label per spectrum, as of this generation."""
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
        return sum(shard.stored_bytes() for shard in self._shards)

    def shard_stats(self) -> List[Dict[str, int]]:
        return [
            {
                "shard": shard_id,
                "spectra": len(shard),
                "clusters": shard.num_clusters,
                "bytes": shard.stored_bytes(),
            }
            for shard_id, shard in enumerate(self._shards)
        ]
