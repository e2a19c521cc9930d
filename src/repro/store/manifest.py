"""The repository manifest: one JSON file naming everything else.

The manifest is the repository's root of trust.  It records the format
version, the full encoder/preprocessing/bucketing configuration (so a
reopened repository rebuilds bit-identical item memories), the shard map
parameters, the current checkpoint generation, and the WAL sequence number
that checkpoint covers.  It is always written atomically (temp file +
``os.replace``), so a crash mid-checkpoint leaves the previous manifest —
and therefore the previous consistent checkpoint — intact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Union

from ..errors import ParseError
from ..hdc import EncoderConfig
from ..spectrum import BucketingConfig, PreprocessingConfig
from . import fsio

#: Format version of the repository directory layout.
MANIFEST_VERSION = 1

#: Name of the manifest file inside a repository directory.
MANIFEST_NAME = "manifest.json"


@dataclass
class RepositoryManifest:
    """Everything needed to reopen a repository directory."""

    num_shards: int
    shard_width: int
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    preprocessing: PreprocessingConfig = field(
        default_factory=PreprocessingConfig
    )
    bucketing: BucketingConfig = field(default_factory=BucketingConfig)
    cluster_threshold: float = 0.3
    linkage: str = "complete"
    generation: int = 0
    applied_seq: int = 0
    num_spectra: int = 0
    num_clusters: int = 0
    shard_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-file ``{name: {"sha256": hex, "size": bytes}}`` of the current
    #: generation's artifacts, recorded by checkpoint and verified on
    #: open (see :mod:`repro.store.integrity`).  Empty for generation 0
    #: and for manifests written before integrity records existed —
    #: verification is vacuous then, keeping old repositories readable.
    integrity: Dict[str, Dict[str, object]] = field(default_factory=dict)
    format_version: int = MANIFEST_VERSION

    def to_json(self) -> str:
        record = asdict(self)
        record["encoder"] = asdict(self.encoder)
        record["preprocessing"] = asdict(self.preprocessing)
        record["bucketing"] = asdict(self.bucketing)
        return json.dumps(record, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, source: str = "") -> "RepositoryManifest":
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"corrupt manifest: {exc}", source) from exc
        version = record.get("format_version")
        if version != MANIFEST_VERSION:
            raise ParseError(
                f"unsupported repository format version {version}", source
            )
        try:
            return cls(
                num_shards=int(record["num_shards"]),
                shard_width=int(record["shard_width"]),
                encoder=EncoderConfig(**record["encoder"]),
                preprocessing=PreprocessingConfig(**record["preprocessing"]),
                bucketing=BucketingConfig(**record["bucketing"]),
                cluster_threshold=float(record["cluster_threshold"]),
                linkage=str(record["linkage"]),
                generation=int(record["generation"]),
                applied_seq=int(record["applied_seq"]),
                num_spectra=int(record["num_spectra"]),
                num_clusters=int(record["num_clusters"]),
                shard_counts={
                    str(key): int(value)
                    for key, value in record.get("shard_counts", {}).items()
                },
                integrity={
                    str(name): {
                        "sha256": str(entry["sha256"]),
                        "size": int(entry["size"]),
                    }
                    for name, entry in record.get("integrity", {}).items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"invalid manifest field: {exc}", source) from exc

    def save(self, directory: Union[str, Path]) -> None:
        """Atomically and durably write the manifest.

        The temp file's contents are fsynced before the rename and the
        directory entry after it, so a power loss leaves either the old
        or the new manifest — never an empty or partial one.
        """
        directory = Path(directory)
        target = directory / MANIFEST_NAME
        temporary = directory / (MANIFEST_NAME + ".tmp")
        # Binary mode: the fsio seam is byte-oriented, so injected
        # bit flips and torn writes operate on the real payload.
        with fsio.fs_open(temporary, "wb") as handle:
            fsio.fs_write(handle, (self.to_json() + "\n").encode("utf-8"))
            handle.flush()
            fsio.fs_fsync(handle)
        fsio.fs_replace(temporary, target)
        fsio.fs_fsync_path(directory)

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "RepositoryManifest":
        """Read the manifest of a repository directory."""
        path = Path(directory) / MANIFEST_NAME
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError as exc:
            raise ParseError("not a repository (no manifest)", str(path)) from exc
        return cls.from_json(text, source=str(path))
