"""At-rest integrity: checksummed generations and their verification.

Every checkpoint (and every replicated install, which ships the
checkpoint's manifest verbatim) records the SHA-256 digest and byte size
of each generation artifact — shard segments, state sidecars and the
catalog — in the manifest's ``integrity`` map.  This
module verifies a generation directory against that map.

Three policies, in decreasing cost:

``full``
    Every recorded file is stat-checked *and* digested.  Catches any
    single-bit flip anywhere in the generation.
``sampled``
    Every recorded file is stat-checked (existence + exact size, which
    catches truncation and swaps for free), small files — at most
    :data:`SAMPLED_SMALL_BYTES` — are fully digested, and a bounded
    sample of the large ones is digested too.  This is the default open
    policy: its cost is a handful of stats plus a few small digests, so
    snapshot opens stay cheap while the background scrubber (always
    ``full``) provides eventual whole-byte coverage.
``off``
    No verification.  For benchmarks and emergencies.

A mismatch raises :class:`~repro.errors.IntegrityError` naming the file,
its owning shard and the generation.  A *missing* recorded file raises
it with ``missing=True`` — snapshot opens treat that case as checkpoint
churn (the generation may have been swept mid-open) and retry, while a
size or digest mismatch always propagates: retrying cannot make corrupt
bytes valid.
"""

from __future__ import annotations

import random
import re
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..errors import ConfigurationError, IntegrityError

#: Recognised verification policies, in decreasing cost.
VERIFY_POLICIES = ("full", "sampled", "off")

#: Under ``sampled``, files at or below this size are always digested.
SAMPLED_SMALL_BYTES = 1 << 20

#: Under ``sampled``, how many files above the small-file threshold are
#: digested per verification (chosen by the sampler's RNG).
SAMPLED_LARGE_FILES = 1

_SHARD_MEMBER = re.compile(r"^shard-(\d{4})\.")


def shard_of_member(name: str) -> Optional[int]:
    """The shard id a generation member belongs to (None for catalog)."""
    match = _SHARD_MEMBER.match(name)
    return int(match.group(1)) if match else None


def check_verify_policy(policy: str) -> str:
    """Validate and return a verification policy name."""
    if policy not in VERIFY_POLICIES:
        raise ConfigurationError(
            f"unknown verify policy {policy!r}; "
            f"expected one of {', '.join(VERIFY_POLICIES)}"
        )
    return policy


def integrity_records(
    generation_dir: Union[str, Path]
) -> Dict[str, Dict[str, object]]:
    """Digest every file of a generation directory for the manifest.

    Returns ``{name: {"sha256": hex, "size": bytes}}`` sorted by name.
    Called by :meth:`ClusterRepository.checkpoint` after the generation's
    files are written and before the manifest names them.
    """
    from .generation import file_digest  # local import: avoids a cycle

    records: Dict[str, Dict[str, object]] = {}
    for path in sorted(Path(generation_dir).iterdir()):
        records[path.name] = {
            "sha256": file_digest(path),
            "size": path.stat().st_size,
        }
    return records


def _digest_mismatch(name: str, generation: int, got: str, want: str):
    return IntegrityError(
        f"checksum mismatch: got sha256 {got}, manifest records {want}",
        name=name,
        generation=generation,
        shard=shard_of_member(name),
    )


def verify_generation(
    directory: Union[str, Path],
    generation: int,
    integrity: Dict[str, Dict[str, object]],
    policy: str = "full",
    seed: Optional[int] = None,
) -> List[str]:
    """Verify one generation directory against its integrity records.

    Returns the names whose *digests* were verified (stat-only checks are
    not listed).  Raises :class:`IntegrityError` on the first mismatch.
    Generations checkpointed before integrity records existed have an
    empty map and verify vacuously.

    ``seed`` pins the ``sampled`` policy's choice of large files — tests
    use it for determinism; production leaves it unseeded so repeated
    opens eventually sample every large file.
    """
    from .generation import file_digest  # local import: avoids a cycle
    from .repository import SEGMENTS_DIR  # local import: avoids a cycle

    check_verify_policy(policy)
    if policy == "off" or not integrity or generation <= 0:
        return []
    generation_dir = (
        Path(directory) / SEGMENTS_DIR / f"gen-{generation:06d}"
    )
    large: List[str] = []
    digested: List[str] = []
    for name in sorted(integrity):
        record = integrity[name]
        expected_size = int(record["size"])
        path = generation_dir / name
        try:
            actual_size = path.stat().st_size
        except FileNotFoundError:
            raise IntegrityError(
                "recorded generation file is missing",
                name=name,
                generation=generation,
                shard=shard_of_member(name),
                missing=True,
            ) from None
        if actual_size != expected_size:
            raise IntegrityError(
                f"size mismatch: {actual_size} bytes on disk, manifest "
                f"records {expected_size}",
                name=name,
                generation=generation,
                shard=shard_of_member(name),
            )
        if policy == "full" or expected_size <= SAMPLED_SMALL_BYTES:
            digest = file_digest(path)
            if digest != str(record["sha256"]):
                raise _digest_mismatch(
                    name, generation, digest, str(record["sha256"])
                )
            digested.append(name)
        else:
            large.append(name)
    if policy == "sampled" and large:
        rng = random.Random(seed)
        for name in rng.sample(large, min(SAMPLED_LARGE_FILES, len(large))):
            digest = file_digest(generation_dir / name)
            if digest != str(integrity[name]["sha256"]):
                raise _digest_mismatch(
                    name, generation, digest, str(integrity[name]["sha256"])
                )
            digested.append(name)
    return digested


class GenerationScrubber:
    """Full-byte verification of a generation, paced by byte rate.

    The scrubber always digests every recorded file (policy ``full`` —
    partial reads cannot be checked against whole-file digests), but
    unlike :func:`verify_generation` it (a) collects *all* mismatches
    instead of stopping at the first, so one pass maps the damage, and
    (b) sleeps between read blocks to hold ``bytes_per_second``, so a
    daemon can scrub behind live traffic without stealing its I/O.

    ``should_stop`` is polled between blocks; a daemon passes its stop
    event so shutdown never waits for a paced scrub to finish.
    """

    #: Read granularity; also the pacing quantum.
    CHUNK_BYTES = 1 << 20

    def __init__(
        self,
        bytes_per_second: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        if bytes_per_second is not None and bytes_per_second <= 0:
            raise ConfigurationError("bytes_per_second must be > 0")
        self.bytes_per_second = bytes_per_second
        self._should_stop = should_stop or (lambda: False)

    def scrub(
        self,
        directory: Union[str, Path],
        generation: int,
        integrity: Dict[str, Dict[str, object]],
    ) -> "ScrubReport":
        """Digest every recorded file; returns a full damage report."""
        import hashlib

        from .repository import SEGMENTS_DIR  # local import: avoids a cycle

        generation_dir = (
            Path(directory) / SEGMENTS_DIR / f"gen-{generation:06d}"
        )
        started = time.monotonic()
        bytes_read = 0
        files_checked = 0
        errors: List[IntegrityError] = []
        for name in sorted(integrity):
            if self._should_stop():
                break
            record = integrity[name]
            path = generation_dir / name
            digest = hashlib.sha256()
            size = 0
            try:
                with open(path, "rb") as handle:
                    while True:
                        if self._should_stop():
                            break
                        block = handle.read(self.CHUNK_BYTES)
                        if not block:
                            break
                        digest.update(block)
                        size += len(block)
                        bytes_read += len(block)
                        self._pace(started, bytes_read)
            except FileNotFoundError:
                errors.append(
                    IntegrityError(
                        "recorded generation file is missing",
                        name=name,
                        generation=generation,
                        shard=shard_of_member(name),
                        missing=True,
                    )
                )
                continue
            if self._should_stop():
                break
            files_checked += 1
            if size != int(record["size"]):
                errors.append(
                    IntegrityError(
                        f"size mismatch: {size} bytes on disk, manifest "
                        f"records {int(record['size'])}",
                        name=name,
                        generation=generation,
                        shard=shard_of_member(name),
                    )
                )
            elif digest.hexdigest() != str(record["sha256"]):
                errors.append(
                    _digest_mismatch(
                        name,
                        generation,
                        digest.hexdigest(),
                        str(record["sha256"]),
                    )
                )
        return ScrubReport(
            generation=generation,
            files_checked=files_checked,
            bytes_checked=bytes_read,
            errors=tuple(errors),
            duration_seconds=time.monotonic() - started,
            complete=not self._should_stop(),
        )

    def _pace(self, started: float, bytes_read: int) -> None:
        if self.bytes_per_second is None:
            return
        target = bytes_read / self.bytes_per_second
        elapsed = time.monotonic() - started
        if target > elapsed:
            time.sleep(min(target - elapsed, 0.5))


class ScrubReport:
    """Outcome of one scrub pass over one generation."""

    def __init__(
        self,
        generation: int,
        files_checked: int,
        bytes_checked: int,
        errors: tuple,
        duration_seconds: float,
        complete: bool,
    ) -> None:
        self.generation = generation
        self.files_checked = files_checked
        self.bytes_checked = bytes_checked
        self.errors = errors
        self.duration_seconds = duration_seconds
        self.complete = complete

    @property
    def clean(self) -> bool:
        return not self.errors

    def corrupt_names(self) -> List[str]:
        """Names of the files that failed verification, sorted."""
        return sorted({error.name for error in self.errors})

    def corrupt_shards(self) -> List[int]:
        """Shard ids implicated by the damage (catalog damage maps to all
        shards at the caller's discretion; here it is simply omitted)."""
        return sorted(
            {
                error.shard
                for error in self.errors
                if error.shard is not None
            }
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "generation": self.generation,
            "files_checked": self.files_checked,
            "bytes_checked": self.bytes_checked,
            "duration_seconds": self.duration_seconds,
            "complete": self.complete,
            "clean": self.clean,
            "errors": [str(error) for error in self.errors],
            "corrupt_files": self.corrupt_names(),
            "corrupt_shards": self.corrupt_shards(),
        }
