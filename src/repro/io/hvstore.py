"""Persistence for encoded hypervector collections.

The paper's data-compression argument (§IV-B) is that spectra, once
encoded, can be *kept* in HD space: "storing spectral data in the
hyperdimensional space, we achieve significant data compression" and
"one-time preprocessing and subsequent updates ... emerge as a promising
approach".  This module is that artefact: a compact on-disk container for
packed hypervectors plus the precursor metadata needed for bucketing, with
integrity checks.

Format: a single ``.npz`` (zip of npy arrays) holding::

    vectors        (n, dim/64) uint64 — the packed hypervectors
    precursor_mz   (n,) float64
    charge         (n,) int16
    labels         (n,) int64          — cluster labels, -1 = unassigned
    identifiers    (n,) unicode        — fixed-width ``<U`` array
    meta           () unicode          — JSON: dim, seed, version

Identifiers and metadata ride along so a store can be re-joined with its
source run; the hypervector matrix dominates the footprint (dim/8 bytes
per spectrum — the compression factor of Fig. 6b).

Version history
---------------
2
    Identifiers are stored as a fixed-width unicode array, so loading
    never unpickles anything (``allow_pickle=False`` throughout).
1
    Identifiers were stored as a ``dtype=object`` array.  Such stores can
    still be read, but only by explicitly opting in with
    ``load(path, allow_v1=True)``, which re-opens the archive with
    pickling enabled — never do that for files from untrusted sources.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Union

import numpy as np

from ..errors import ParseError, SpecHDError
from ..spectrum import MassSpectrum, SpectrumBatch

#: Format version written into the metadata record.
FORMAT_VERSION = 2

#: Versions :meth:`HypervectorStore.load` knows how to read.
SUPPORTED_VERSIONS = (1, 2)


def _resolve_store_path(path: Union[str, Path]) -> Path:
    """Resolve a store path, honouring numpy's implicit ``.npz`` suffix."""
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    return path


@dataclass
class HypervectorStore:
    """An in-memory hypervector collection, loadable/savable as ``.npz``."""

    vectors: np.ndarray
    precursor_mz: np.ndarray
    charge: np.ndarray
    labels: np.ndarray
    identifiers: List[str]
    dim: int
    encoder_seed: int = 0

    def __post_init__(self) -> None:
        n = self.vectors.shape[0]
        if not (
            self.precursor_mz.shape[0]
            == self.charge.shape[0]
            == self.labels.shape[0]
            == len(self.identifiers)
            == n
        ):
            raise SpecHDError("hypervector store arrays have unequal lengths")
        if self.dim % 64:
            raise SpecHDError("dim must be a multiple of 64")
        if self.vectors.shape[1] != self.dim // 64:
            raise SpecHDError(
                f"vector width {self.vectors.shape[1]} does not match "
                f"dim {self.dim}"
            )

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def nbytes(self) -> int:
        """Approximate in-memory footprint of the packed vectors."""
        return int(self.vectors.nbytes)

    @classmethod
    def from_encoding(
        cls,
        spectra: Union[SpectrumBatch, Sequence[MassSpectrum]],
        vectors: np.ndarray,
        labels: np.ndarray | None = None,
        dim: int | None = None,
        encoder_seed: int = 0,
    ) -> "HypervectorStore":
        """Build a store from spectra and their encoded vectors."""
        spectra = SpectrumBatch.from_spectra(spectra)
        vectors = np.asarray(vectors, dtype=np.uint64)
        if vectors.shape[0] != len(spectra):
            raise SpecHDError(
                f"{vectors.shape[0]} vectors for {len(spectra)} spectra"
            )
        if labels is None:
            labels = np.full(len(spectra), -1, dtype=np.int64)
        if dim is None:
            dim = vectors.shape[1] * 64
        return cls(
            vectors=vectors,
            precursor_mz=spectra.precursor_mz.copy(),
            charge=spectra.charge.astype(np.int16),
            labels=np.asarray(labels, dtype=np.int64),
            identifiers=list(spectra.identifiers),
            dim=dim,
            encoder_seed=encoder_seed,
        )

    def save(self, path: Union[str, Path], compress: bool = True) -> int:
        """Write the store; returns the file size in bytes.

        ``compress=False`` stores the arrays raw (``np.savez``): packed
        hypervectors are high-entropy so deflate buys little, and a raw
        archive's vector payload can be memory-mapped straight out of
        the file with ``load(..., mmap=True)`` — repository checkpoint
        segments are written this way.
        """
        path = Path(path)
        meta = json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "dim": self.dim,
                "encoder_seed": self.encoder_seed,
                "count": len(self),
            }
        )
        # Fixed-width unicode, never dtype=object: the result loads with
        # allow_pickle=False, so reading a store can never unpickle.
        identifiers = (
            np.array(self.identifiers, dtype=np.str_)
            if self.identifiers
            else np.zeros(0, dtype="<U1")
        )
        writer = np.savez_compressed if compress else np.savez
        writer(
            path,
            vectors=self.vectors,
            precursor_mz=self.precursor_mz,
            charge=self.charge,
            labels=self.labels,
            identifiers=identifiers,
            meta=np.array(meta),
        )
        # np.savez appends .npz when missing.
        actual = path if path.suffix == ".npz" else path.with_suffix(
            path.suffix + ".npz"
        )
        return actual.stat().st_size

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        allow_v1: bool = False,
        mmap: bool = False,
    ) -> "HypervectorStore":
        """Read a store back; validates the format metadata.

        Version-2 stores (the current format) are read with
        ``allow_pickle=False`` — loading never unpickles, so untrusted
        files are safe.  Version-1 stores kept identifiers as an object
        array, which can only be read by unpickling; that compatibility
        path must be opted into with ``allow_v1=True`` and is only safe
        for files you wrote yourself (a hostile file could claim to be
        version 1 precisely to reach the unpickler).

        ``mmap=True`` memory-maps the vector payload instead of copying
        it through RAM — zero-copy segment loading for archives written
        with ``save(..., compress=False)``.  Compressed archives (or any
        layout that cannot be mapped) silently fall back to an in-memory
        read, so the flag never changes what is loaded, only how.
        """
        path = _resolve_store_path(path)
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(str(archive["meta"]))
                version = meta.get("format_version")
                if version not in SUPPORTED_VERSIONS:
                    raise ParseError(
                        f"unsupported store version {version}", str(path)
                    )
                if version == 1:
                    if not allow_v1:
                        raise ParseError(
                            "version-1 store: identifiers are pickled; "
                            "re-save with the current format, or pass "
                            "allow_v1=True for a file you trust",
                            str(path),
                        )
                    identifiers = _load_v1_identifiers(path)
                else:
                    identifiers = [str(i) for i in archive["identifiers"]]
                vectors = None
                if mmap and version >= 2:
                    vectors = _mmap_member_array(path, "vectors.npy")
                if vectors is None:
                    vectors = archive["vectors"].astype(np.uint64)
                return cls(
                    vectors=vectors,
                    precursor_mz=archive["precursor_mz"],
                    charge=archive["charge"],
                    labels=archive["labels"],
                    identifiers=identifiers,
                    dim=int(meta["dim"]),
                    encoder_seed=int(meta.get("encoder_seed", 0)),
                )
        except ParseError:
            raise
        except Exception as exc:  # np.load raises zip/pickle/OS errors
            raise ParseError(
                f"cannot read hypervector store: {exc}", str(path)
            ) from exc

    def compression_factor(self, raw_bytes: int) -> float:
        """Fig. 6b-style factor against the original dataset size."""
        if self.nbytes == 0:
            return float("inf")
        return raw_bytes / self.nbytes


def _mmap_member_array(path: Path, member: str) -> np.ndarray | None:
    """Memory-map one uncompressed ``.npy`` member of an ``.npz`` archive.

    An ``.npz`` is a zip; when a member is stored (not deflated) its
    ``.npy`` bytes sit contiguously in the file, so the array data can be
    mapped read-only at ``member offset + npy header size`` without ever
    copying the payload.  Returns ``None`` whenever the member cannot be
    mapped (deflated member, unexpected npy version, Fortran order, or a
    dtype other than the packed uint64 layout) — the caller then falls
    back to a normal in-memory read.
    """
    import zipfile

    with zipfile.ZipFile(path) as archive:
        try:
            info = archive.getinfo(member)
        except KeyError:
            return None
        if info.compress_type != zipfile.ZIP_STORED:
            return None
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        local_header = handle.read(30)
        if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
            return None
        name_length = int.from_bytes(local_header[26:28], "little")
        extra_length = int.from_bytes(local_header[28:30], "little")
        handle.seek(info.header_offset + 30 + name_length + extra_length)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            return None
        offset = handle.tell()
    if fortran or dtype != np.uint64 or len(shape) != 2:
        return None
    return np.memmap(path, dtype=np.uint64, mode="r", shape=shape,
                     offset=offset)


def _load_v1_identifiers(path: Path) -> List[str]:
    """Compatibility path: read a version-1 store's object-array identifiers.

    Only reached after the (pickle-free) metadata record has confirmed the
    archive declares format version 1.
    """
    with np.load(path, allow_pickle=True) as archive:
        return [str(i) for i in archive["identifiers"]]
