"""Replication by generation shipping.

A published checkpoint generation is an immutable directory, so
replication is file transfer, not state-machine replay: ship the
generation's files (digest-verified, resumable), install them with the
same crash-safe ordering a local checkpoint uses, and the follower *is*
the leader as of that checkpoint — byte-identical, including cluster
labels and query results.

Two directions, same staging machinery
(:class:`~repro.store.generation.GenerationStager`):

* :meth:`Replicator.pull` — this process fetches the serving generation
  *from* a source daemon into a local repository directory (follower
  bootstrap, catch-up of a stopped node);
* :meth:`Replicator.push` — this process reads a local repository and
  ships its published generation *into* a running daemon, which
  installs it and republishes without restarting.

Transfers resume: the stager reports per-file byte offsets already
staged, and only the remainder crosses the wire.  If the source sweeps
the generation mid-transfer (it checkpointed past its retention), the
pull restarts against the new serving generation — bounded by
``max_restarts`` so a source checkpointing faster than the network can
ship eventually errors instead of looping forever.

Chunks ride the wire as raw out-of-band bytes: each ``fetch_chunk``
yields a zero-copy view that is staged to disk before the next request
reuses the receive buffer, and the digest check catches any divergence.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..errors import ReplicationError, ServiceError
from ..logging import get_logger
from ..store import fsio
from ..store.generation import (
    GenerationStager,
    file_digest,
    list_generation_files,
    read_generation_chunk,
)
from ..store.manifest import MANIFEST_NAME, RepositoryManifest
from ..service.client import ServiceClient

log = get_logger("replicate")


class Replicator:
    """Drives resumable generation transfers over the service protocol.

    Parameters
    ----------
    chunk_bytes:
        Transfer granularity.  Must not exceed the daemon's
        ``max_chunk_bytes`` (8 MiB by default).
    max_restarts:
        How many times a pull may restart because the source swept the
        generation mid-transfer.
    """

    def __init__(
        self, chunk_bytes: int = 4 * 1024 * 1024, max_restarts: int = 3
    ) -> None:
        if chunk_bytes < 1:
            raise ReplicationError("chunk_bytes must be >= 1")
        if max_restarts < 1:
            raise ReplicationError("max_restarts must be >= 1")
        self.chunk_bytes = chunk_bytes
        self.max_restarts = max_restarts

    # ------------------------------------------------------------------
    # Pull: source daemon → local directory
    # ------------------------------------------------------------------

    def pull(
        self, source: ServiceClient, directory: Union[str, Path]
    ) -> Optional[int]:
        """Fetch the source's serving generation into ``directory``.

        Returns the installed generation, or ``None`` when the local
        repository is already at or past the source's.  The directory
        may be empty (bootstrap) or an existing repository behind the
        source.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        last_error: Optional[Exception] = None
        for _attempt in range(self.max_restarts):
            generation, files, manifest_json = source.generation_files()
            if self._local_generation(directory) >= generation:
                return None
            stager = GenerationStager(directory, generation)
            offsets = stager.begin(files, manifest_json)
            try:
                for entry in files:
                    offset = offsets.get(entry.name, 0)
                    while offset < entry.size:
                        length = min(self.chunk_bytes, entry.size - offset)
                        data = source.fetch_chunk(
                            generation, entry.name, offset, length
                        )
                        if not data:
                            raise ReplicationError(
                                f"source returned no bytes for {entry.name} "
                                f"at offset {offset} (truncated at source?)"
                            )
                        stager.write_chunk(entry.name, offset, data)
                        offset += len(data)
                return stager.commit()
            except (ReplicationError, ServiceError) as exc:
                message = str(exc)
                if (
                    "restart the transfer" not in message
                    and "retry the transfer" not in message
                ):
                    raise
                # Two recoverable cases share this loop: the source
                # swept this generation mid-transfer ("restart"), so we
                # ship whatever it serves now; or a staged file failed
                # its checksum and was discarded ("retry"), so the next
                # attempt resumes everything else and refetches just the
                # discarded file.  The stale partial stays on disk —
                # harmless, and begin() wipes it if a different transfer
                # ever reuses the number.
                last_error = exc
                log.warning(
                    "pull attempt failed; retrying",
                    extra={"generation": generation, "error": message},
                )
        raise ReplicationError(
            f"transfer kept failing recoverably during "
            f"{self.max_restarts} attempts: {last_error}"
        )

    # ------------------------------------------------------------------
    # Push: local directory → target daemon
    # ------------------------------------------------------------------

    def push(
        self, directory: Union[str, Path], target: ServiceClient
    ) -> Optional[int]:
        """Ship the local published generation into a running daemon.

        Returns the installed generation, or ``None`` when the target is
        already at or past it.  The target installs under its writer
        lock and republishes its serving snapshot — no restart.
        """
        directory = Path(directory)
        manifest = RepositoryManifest.load(directory)
        generation = manifest.generation
        if generation < 1:
            raise ReplicationError(
                "local repository has no published generation to push"
            )
        files = list_generation_files(directory, generation)
        offsets = target.push_begin(generation, files, manifest.to_json())
        if offsets is None:
            return None
        for entry in files:
            offset = offsets.get(entry.name, 0)
            while offset < entry.size:
                data = read_generation_chunk(
                    directory,
                    generation,
                    entry.name,
                    offset,
                    min(self.chunk_bytes, entry.size - offset),
                )
                if not data:
                    raise ReplicationError(
                        f"local {entry.name} truncated at {offset} "
                        f"(expected {entry.size} bytes)"
                    )
                target.push_chunk(generation, entry.name, offset, data)
                offset += len(data)
        return target.push_commit(generation)

    # ------------------------------------------------------------------
    # Heal: refetch named members of an *installed* generation
    # ------------------------------------------------------------------

    def heal(
        self,
        source: ServiceClient,
        directory: Union[str, Path],
        generation: int,
        names: Sequence[str],
    ) -> List[str]:
        """Replace corrupt members of an installed generation from a peer.

        Unlike :meth:`pull`, which ships a *newer* generation into a
        staging directory, heal repairs files of the generation the
        local manifest already names: each listed member is refetched
        whole, digested against the **local** manifest's integrity
        record (the peer is untrusted — a corrupt replica must not
        overwrite anything), then atomically renamed over the damaged
        file.  Readers holding the old mmap keep their bytes; the caller
        reopens and republishes to serve the healed copy.

        Returns the healed names.  Raises :class:`ReplicationError` when
        the peer serves a different generation, truncates a file, or
        supplies bytes that do not match the local record.
        """
        from ..store.repository import SEGMENTS_DIR

        directory = Path(directory)
        manifest = RepositoryManifest.load(directory)
        if manifest.generation != generation:
            raise ReplicationError(
                f"local manifest names generation {manifest.generation}, "
                f"not {generation}; heal repairs the installed generation "
                "only"
            )
        generation_dir = (
            directory / SEGMENTS_DIR / f"gen-{generation:06d}"
        )
        healed: List[str] = []
        for name in sorted(names):
            record = manifest.integrity.get(name)
            if record is None:
                raise ReplicationError(
                    f"{name} has no integrity record in the local "
                    f"manifest; cannot verify a healed copy"
                )
            size = int(record["size"])
            expected = str(record["sha256"])
            # The heal-* prefix keeps the temp file invisible to
            # generation sweeps (they glob gen-*) and to the member
            # pattern, so a crash mid-heal leaves only inert litter.
            temporary = (
                generation_dir.parent / f"heal-{generation:06d}-{name}.tmp"
            )
            handle = fsio.fs_open(temporary, "wb")
            try:
                offset = 0
                while offset < size:
                    data = source.fetch_chunk(
                        generation,
                        name,
                        offset,
                        min(self.chunk_bytes, size - offset),
                    )
                    if not data:
                        raise ReplicationError(
                            f"peer returned no bytes for {name} at offset "
                            f"{offset} (expected {size} bytes)"
                        )
                    fsio.fs_write(handle, data)
                    offset += len(data)
                fsio.fs_fsync(handle)
            finally:
                handle.close()
            digest = file_digest(temporary)
            if digest != expected:
                temporary.unlink()
                raise ReplicationError(
                    f"peer copy of {name} digests to {digest}, local "
                    f"manifest records {expected}; peer may be corrupt "
                    "too — discarded"
                )
            fsio.fs_replace(temporary, generation_dir / name)
            fsio.fs_fsync_path(generation_dir)
            healed.append(name)
            log.info(
                "healed generation member from peer",
                extra={"file": name, "generation": generation},
            )
        return healed

    @staticmethod
    def _local_generation(directory: Path) -> int:
        if not (directory / MANIFEST_NAME).exists():
            return 0
        return RepositoryManifest.load(directory).generation
