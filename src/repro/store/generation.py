"""Generation export/import: the file-level contract of replication.

A published checkpoint generation is an immutable directory
(``segments/gen-NNNNNN/``) of a fixed, whitelisted vocabulary of files —
per-shard stores, their state sidecars and the global catalog (plus the
``shard-NNNN.index.npz`` bit-slice index sidecars older checkpoints
wrote, which still ship and verify but are never read).  That
immutability is what makes multi-node replication *file shipping*:
this module enumerates a generation
(:func:`list_generation_files`, with sizes and SHA-256 digests), reads
byte ranges of it (:func:`read_generation_chunk`), and installs an
incoming one atomically (:class:`GenerationStager`).

The stager writes into ``segments/gen-NNNNNN.partial/`` — a name the
retirement sweep ignores (its ``gen-`` suffix is not an integer), so a
half-finished transfer survives concurrent checkpoints and sweeps and a
re-run resumes from the bytes already present.  ``commit`` verifies
every digest, fsyncs, renames the staging directory to its final name,
swaps the manifest atomically and resets the WAL — exactly the ordering
:meth:`ClusterRepository.checkpoint` uses, so a crash at any point
leaves either the old generation or the new one, never a mix.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Union

from ..errors import ReplicationError
from . import fsio
from .manifest import MANIFEST_NAME, RepositoryManifest
from .snapshot import _write_pin

#: The complete vocabulary of files a generation directory may contain.
#: Replication refuses anything else — a transfer can never smuggle a
#: path separator or an unexpected file into a repository.  No checkpoint
#: writes ``.index.npz`` any more; it stays so that generations older
#: checkpoints wrote with that sidecar still list and replicate.
_MEMBER_PATTERN = re.compile(
    r"^(shard-\d{4}(\.state\.json|\.index\.npz|\.npz)|catalog\.npz)$"
)

#: Staging-side transfer descriptor (file list + manifest), kept inside
#: the partial directory so a resumed transfer can verify it is
#: continuing the *same* transfer.
_TRANSFER_NAME = "transfer.json"


@dataclass(frozen=True)
class GenerationFile:
    """One generation member: name, byte size, SHA-256 hex digest."""

    name: str
    size: int
    sha256: str

    def to_wire(self) -> dict:
        return {"name": self.name, "size": self.size, "sha256": self.sha256}

    @classmethod
    def from_wire(cls, record: dict) -> "GenerationFile":
        try:
            entry = cls(
                name=str(record["name"]),
                size=int(record["size"]),
                sha256=str(record["sha256"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplicationError(
                f"malformed generation file record: {exc}"
            ) from exc
        if not is_member_name(entry.name) or entry.size < 0:
            raise ReplicationError(
                f"illegal generation member {entry.name!r}"
            )
        return entry


def is_member_name(name: str) -> bool:
    """True when ``name`` is a legal generation member file name."""
    return bool(_MEMBER_PATTERN.match(name))


def file_digest(path: Union[str, Path]) -> str:
    """SHA-256 hex digest of one file, streamed.

    Reads go through the fsio seam, so an injected short read produces a
    wrong digest here exactly as a failing disk would — and the callers'
    mismatch handling is what gets exercised.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: fsio.fs_read(handle, 1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _generation_dir(directory: Path, generation: int) -> Path:
    from .repository import SEGMENTS_DIR  # local import: avoids a cycle

    return directory / SEGMENTS_DIR / f"gen-{generation:06d}"


def _staging_dir(directory: Path, generation: int) -> Path:
    # The ".partial" suffix is deliberate: sweep_generations() only
    # considers entries whose "gen-" suffix parses as an integer, so a
    # staging directory is invisible to retirement sweeps.
    return _generation_dir(directory, generation).with_name(
        f"gen-{generation:06d}.partial"
    )


def list_generation_files(
    directory: Union[str, Path], generation: int
) -> List[GenerationFile]:
    """Enumerate (and digest) one published generation's files.

    Sorted by name, so two replicas of the same generation produce the
    same listing.  Raises :class:`ReplicationError` when the directory
    is missing (superseded and swept) or contains a non-member file.
    """
    generation_dir = _generation_dir(Path(directory), generation)
    if not generation_dir.is_dir():
        raise ReplicationError(
            f"generation {generation} is not on disk at {generation_dir} "
            "(superseded and swept?)"
        )
    files: List[GenerationFile] = []
    for path in sorted(generation_dir.iterdir()):
        if not is_member_name(path.name):
            raise ReplicationError(
                f"unexpected file {path.name!r} in generation directory "
                f"{generation_dir}"
            )
        files.append(
            GenerationFile(
                name=path.name,
                size=path.stat().st_size,
                sha256=file_digest(path),
            )
        )
    return files


def read_generation_chunk(
    directory: Union[str, Path],
    generation: int,
    name: str,
    offset: int,
    length: int,
) -> bytes:
    """One byte range of a generation member (empty at/after EOF)."""
    if not is_member_name(name):
        raise ReplicationError(f"illegal generation member {name!r}")
    if offset < 0 or length < 0:
        raise ReplicationError("chunk offset/length must be >= 0")
    path = _generation_dir(Path(directory), generation) / name
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            return fsio.fs_read(handle, length)
    except FileNotFoundError as exc:
        raise ReplicationError(
            f"generation {generation} member {name} is no longer on disk "
            "(superseded and swept?); restart the transfer"
        ) from exc


def _fsync_path(path: Path) -> None:
    fsio.fs_fsync_path(path)


class GenerationStager:
    """Stage an incoming generation's files and install them atomically.

    Protocol: :meth:`begin` with the source's file listing and manifest
    JSON (returns per-file resume offsets), any number of
    :meth:`write_chunk` calls, then :meth:`commit` — or :meth:`abort` to
    discard the staging directory.  ``begin`` → ``commit`` may span
    process restarts: the staging directory carries its own transfer
    descriptor, and a ``begin`` whose listing disagrees with the one on
    disk wipes the stage and starts over.

    The target directory may be empty (bootstrap of a brand-new
    follower) or an existing repository *behind* the incoming
    generation.  A target at or past the incoming generation, or with
    pending local WAL writes, is refused — replication must never
    silently discard a follower's acknowledged local state.
    """

    def __init__(self, directory: Union[str, Path], generation: int) -> None:
        if generation < 1:
            raise ReplicationError("generation must be >= 1")
        self.directory = Path(directory)
        self.generation = generation
        self._stage = _staging_dir(self.directory, generation)
        self._files: Dict[str, GenerationFile] = {}
        self._manifest_json = ""
        self._pin_path = None

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------

    def _guard_local_state(self) -> None:
        from .repository import WAL_NAME  # local import: avoids a cycle

        manifest_path = self.directory / MANIFEST_NAME
        if manifest_path.exists():
            current = RepositoryManifest.load(self.directory)
            if current.generation >= self.generation:
                raise ReplicationError(
                    f"target already at generation {current.generation}; "
                    f"refusing to install generation {self.generation}"
                )
        wal_path = self.directory / WAL_NAME
        if wal_path.exists() and wal_path.stat().st_size > 0:
            raise ReplicationError(
                "target has pending WAL writes; checkpoint (or discard) "
                "them before installing a replicated generation"
            )

    def begin(
        self, files: Sequence[GenerationFile], manifest_json: str
    ) -> Dict[str, int]:
        """Validate, (re)create the stage, return per-file resume offsets."""
        manifest = RepositoryManifest.from_json(
            manifest_json, source="replicated manifest"
        )
        if manifest.generation != self.generation:
            raise ReplicationError(
                f"manifest names generation {manifest.generation}, "
                f"transfer is for generation {self.generation}"
            )
        self._guard_local_state()
        self._files = {}
        for entry in files:
            if entry.name in self._files:
                raise ReplicationError(
                    f"duplicate generation member {entry.name!r}"
                )
            self._files[entry.name] = entry
        if not self._files:
            raise ReplicationError("generation transfer lists no files")
        # The manifest carries the checkpoint-time integrity records of
        # this generation; a listing that disagrees means the *source's*
        # bytes decayed after its checkpoint.  Refuse before any bytes
        # ship — replication must never spread at-rest corruption.
        if manifest.integrity:
            for name, record in manifest.integrity.items():
                entry = self._files.get(name)
                if entry is None:
                    raise ReplicationError(
                        f"transfer listing omits {name!r}, which the "
                        "manifest's integrity records name; refusing an "
                        "incomplete generation"
                    )
                if (
                    entry.sha256 != str(record["sha256"])
                    or entry.size != int(record["size"])
                ):
                    raise ReplicationError(
                        f"source listing for {name!r} disagrees with its "
                        "manifest integrity record (source corrupt at "
                        "rest?); refusing the transfer"
                    )
        self._manifest_json = manifest_json
        descriptor = {
            "generation": self.generation,
            "files": [entry.to_wire() for entry in self._files.values()],
            "manifest": manifest_json,
        }
        self._stage.mkdir(parents=True, exist_ok=True)
        descriptor_path = self._stage / _TRANSFER_NAME
        existing = None
        if descriptor_path.exists():
            try:
                existing = json.loads(
                    descriptor_path.read_text(encoding="utf-8")
                )
            except (OSError, ValueError):
                existing = None
        if existing != descriptor:
            # A different (or corrupt) transfer was staged here: the
            # bytes on disk cannot be trusted as a resume point.
            for stale in self._stage.iterdir():
                stale.unlink()
            descriptor_path.write_text(
                json.dumps(descriptor), encoding="utf-8"
            )
        # Anything staged that the listing does not name is garbage.
        for staged in self._stage.iterdir():
            if staged.name != _TRANSFER_NAME and (
                staged.name not in self._files
            ):
                staged.unlink()
        resume: Dict[str, int] = {}
        for name, entry in self._files.items():
            path = self._stage / name
            present = path.stat().st_size if path.exists() else 0
            if present > entry.size:
                path.unlink()
                present = 0
            resume[name] = present
        return resume

    def write_chunk(self, name: str, offset: int, data: bytes) -> None:
        """Append/overwrite one byte range of a staged file."""
        entry = self._files.get(name)
        if entry is None:
            raise ReplicationError(
                f"{name!r} is not part of this transfer (begin first?)"
            )
        if offset < 0 or offset + len(data) > entry.size:
            raise ReplicationError(
                f"chunk [{offset}, {offset + len(data)}) exceeds "
                f"{name}'s {entry.size} bytes"
            )
        path = self._stage / name
        if not path.exists():
            path.touch()
        # "r+b" keeps bytes before the offset (resume semantics).
        with fsio.fs_open(path, "r+b") as handle:
            handle.seek(offset)
            fsio.fs_write(handle, data)

    # ------------------------------------------------------------------
    # Install
    # ------------------------------------------------------------------

    def _verify(self) -> None:
        for name, entry in self._files.items():
            path = self._stage / name
            if not path.exists() and entry.size == 0:
                path.touch()
            present = path.stat().st_size if path.exists() else 0
            if present != entry.size:
                raise ReplicationError(
                    f"staged {name} is {present} bytes, expected "
                    f"{entry.size} (transfer incomplete?)"
                )
            digest = file_digest(path)
            if digest != entry.sha256:
                # Drop the corrupt bytes so a retry refetches them
                # instead of resuming past the damage.
                path.unlink()
                raise ReplicationError(
                    f"checksum mismatch on staged {name}: got {digest}, "
                    f"expected {entry.sha256}; the file was discarded — "
                    "retry the transfer"
                )

    def commit(self) -> int:
        """Verify, fsync, rename into place, swap manifest, reset WAL.

        Returns the installed generation.  The ordering mirrors
        :meth:`ClusterRepository.checkpoint`: generation files are
        durable before the manifest names them, and the WAL is emptied
        only after the swap.
        """
        from .repository import WAL_NAME  # local import: avoids a cycle

        if not self._files:
            raise ReplicationError("commit before begin")
        self._guard_local_state()
        self._verify()
        (self._stage / _TRANSFER_NAME).unlink(missing_ok=True)
        for name in self._files:
            _fsync_path(self._stage / name)
        # Pin on arrival: the incoming generation is above the target's
        # current one (sweeps only collect *below* current), but the pin
        # makes the window explicit and survives observation tools.
        self._pin_path = _write_pin(self.directory, self.generation)
        try:
            final = _generation_dir(self.directory, self.generation)
            if final.exists():
                shutil.rmtree(final)  # leftover from a crashed install
            fsio.fs_rename(self._stage, final)
            _fsync_path(final)
            _fsync_path(final.parent)
            manifest = RepositoryManifest.from_json(
                self._manifest_json, source="replicated manifest"
            )
            manifest.save(self.directory)
            wal_path = self.directory / WAL_NAME
            with fsio.fs_open(wal_path, "wb") as handle:
                handle.flush()
                fsio.fs_fsync(handle)
        finally:
            if self._pin_path is not None:
                self._pin_path.unlink(missing_ok=True)
                self._pin_path = None
        return self.generation

    def abort(self) -> None:
        """Discard the staging directory (idempotent)."""
        shutil.rmtree(self._stage, ignore_errors=True)
        self._files = {}
