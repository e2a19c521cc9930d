"""Exact bit-slice pruning index over one shard's medoid matrix.

The brute-force serving path is a dense XOR + popcount scan of every
medoid (:func:`repro.hdc.hamming_cross`).  This module prunes that scan
while keeping results provably exact.  The index stores a *transposed*
(word-column) view of the medoid matrix: for each of ``probe_bits``
sampled bit positions, one packed bitmap over medoids whose bit ``i`` is
medoid ``i``'s value at that position — the bit-slice layout of
signature files, here restricted to a sampled subset of planes so the
filter costs roughly ``probe_bits / dim`` of a full scan.

Candidate generation is multi-probe and two-phase:

1.  Each query's mismatch bitmaps against all sampled planes are counted
    with the carry-save adder network
    (:func:`repro.hdc.bitops.csa_accumulate`), yielding every medoid's
    Hamming distance restricted to the sampled positions — a *lower
    bound* on its full distance, computed without touching the medoid
    matrix itself.
2.  The ``pilot`` medoids with the smallest bounds are scored exactly;
    the k-th best exact pilot distance ``tau`` caps the answer, and the
    candidate set is every medoid whose bound is at most ``tau``.

Exactness: the global k-th nearest distance is at most ``tau`` (the
pilot alone provides ``k`` distances no worse), and any medoid with full
distance ``d <= tau`` has bound ``<= d <= tau``, so *every* medoid tied
with or beating the k-th nearest — including all distance ties, which
the caller breaks by medoid ordinal — lands in the candidate set.
Medoids outside it have full distance strictly above ``tau`` and cannot
appear in the exact top-k.  When the filter fails to prune (adversarial
or contrast-free workloads) the index falls back to the dense scan, so
it is never asymptotically worse than brute force.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from ..errors import ConfigurationError, ParseError
from ..hdc import hamming_cross
from ..hdc.bitops import (
    counts_from_planes,
    csa_accumulate,
    extract_bit_columns,
    hamming_distance,
    pack_bits,
)

#: Number of sampled bit planes per shard index.  Pruning needs the
#: sampled-mismatch count of a *far* medoid (~probe_bits / 2) to exceed
#: the k-th nearest exact distance, so deeper probing widens the
#: workloads the filter can prune; 256 planes prune replicate-style
#: serving at the common dimensionalities while costing a quarter of a
#: dense scan at D_hv = 1024 (an eighth at 2048).
PROBE_BITS = 256

#: Medoid count from which a shard is indexed and served through its
#: index; smaller shards scan densely, where probing costs more than it
#: prunes.
INDEX_MIN_MEDOIDS = 1024

#: Format version written into an index file's metadata record.
INDEX_FORMAT_VERSION = 1

#: Fixed seed for plane sampling: the sampled layout is a pure function
#: of (dim, probe_bits), so rebuilt and reloaded indexes agree bit-for-bit.
_INDEX_SEED = 0x5B17_51CE

#: Minimum pilot size — more pilots tighten ``tau`` at negligible cost.
_PILOT_MIN = 32

#: Candidate fraction beyond which the gather-based verification would
#: cost more than the dense scan it replaces; fall back to brute force.
_FALLBACK_FRACTION = 0.25

#: Byte budget of one mismatch-plane block in :meth:`lower_bounds`.
#: Unlike the cross kernel's L2-sized tiles, the CSA fold streams each
#: mismatch plane once, so large blocks win: they amortise the adder
#: network's per-call setup over more queries.
_QUERY_BLOCK_BYTES = 1 << 24

#: Candidate pairs verified per gather chunk in :meth:`topk`.
_FLAT_CHUNK = 1 << 18


def worth_indexing(medoid_count: int) -> bool:
    """Whether a shard of ``medoid_count`` medoids is served indexed.

    The one rule both the checkpoint (which persists indexes) and the
    query service (which scans through them) apply.
    """
    return medoid_count >= INDEX_MIN_MEDOIDS


def index_path(generation_dir: Union[str, Path], shard_id: int) -> Path:
    """Where a checkpoint stores one shard's bit-slice index."""
    return Path(generation_dir) / f"shard-{shard_id:04d}.index.npz"


def load_checkpointed_indexes(
    generation_dir: Union[str, Path], num_shards: int
) -> Dict[int, "BitSliceMedoidIndex"]:
    """Every shard index a checkpoint persisted in ``generation_dir``.

    The files are a derived cache: a shard without one (too few medoids)
    or with an unreadable one is left out, and the query service builds
    its index from the medoids.
    """
    indexes: Dict[int, BitSliceMedoidIndex] = {}
    for shard_id in range(num_shards):
        path = index_path(generation_dir, shard_id)
        if not path.exists():
            continue
        try:
            indexes[shard_id] = BitSliceMedoidIndex.load(path)
        except ParseError:
            continue
    return indexes


def batched_topk(
    distances: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Smallest-k entries per row with ``(distance, column)`` tie order.

    Returns ``(indices, distances)`` of shape ``(rows, min(k, columns))``;
    each row is ascending by ``(distance, column)`` — exactly the order a
    stable full sort per row would produce, so ties always resolve to the
    lowest column ordinal.  Implemented with one ``argpartition`` over a
    composite ``distance << 32 | column`` key instead of a full sort, so
    selection is O(columns) per row.
    """
    distances = np.asarray(distances, dtype=np.int64)
    if distances.ndim != 2:
        raise ConfigurationError("batched_topk expects a 2-D distance matrix")
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    columns = distances.shape[1]
    if columns >= 1 << 32 or (
        distances.size and int(distances.max()) >= 1 << 31
    ):
        raise ConfigurationError("distance matrix too large for composite keys")
    keep = min(k, columns)
    keys = (distances << np.int64(32)) + np.arange(
        columns, dtype=np.int64
    )[None, :]
    if keep < columns:
        kept = np.take_along_axis(
            keys, np.argpartition(keys, keep - 1, axis=1)[:, :keep], axis=1
        )
    else:
        kept = keys
    kept.sort(axis=1)
    return kept & np.int64(0xFFFF_FFFF), kept >> np.int64(32)


@dataclass
class BitSliceMedoidIndex:
    """Sampled bit planes of one shard's medoids, transposed for probing.

    ``positions`` holds the sorted sampled bit positions; ``planes[j]``
    is the packed bitmap over medoids of plane ``positions[j]`` (bit
    ``i`` = medoid ``i``'s bit, ``ceil(count / 64)`` words per plane).
    """

    dim: int
    count: int
    positions: np.ndarray
    planes: np.ndarray

    @property
    def probe_bits(self) -> int:
        """Number of sampled bit planes."""
        return int(self.positions.size)

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        dim: int,
        probe_bits: int = PROBE_BITS,
    ) -> "BitSliceMedoidIndex":
        """Index a packed medoid matrix (``probe_bits`` capped at ``dim``)."""
        vectors = np.asarray(vectors, dtype=np.uint64)
        if vectors.ndim != 2:
            raise ConfigurationError("index expects a 2-D packed matrix")
        if probe_bits < 1:
            raise ConfigurationError("probe_bits must be >= 1")
        count, words = vectors.shape
        if count < 1:
            raise ConfigurationError("cannot index an empty medoid matrix")
        if dim < 1 or dim > words * 64:
            raise ConfigurationError(
                f"dim {dim} inconsistent with packed width {words}"
            )
        sampled = min(probe_bits, dim)
        rng = np.random.default_rng(_INDEX_SEED)
        positions = np.sort(
            rng.choice(dim, size=sampled, replace=False)
        ).astype(np.int64)
        columns = extract_bit_columns(vectors, positions)
        planes = pack_bits(columns.T)
        return cls(dim=dim, count=count, positions=positions, planes=planes)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def lower_bounds(self, queries: np.ndarray) -> np.ndarray:
        """Per-medoid Hamming distance restricted to the sampled planes.

        Returns an int32 matrix of shape ``(len(queries), count)``; every
        entry is a lower bound on the corresponding full Hamming
        distance.  Computed entirely in the transposed layout: per plane,
        the mismatch bitmap over all medoids is the stored plane XORed
        with the query's bit, and the per-medoid mismatch counts are
        accumulated with carry-save adders.
        """
        queries = np.asarray(queries, dtype=np.uint64)
        if queries.ndim != 2:
            raise ConfigurationError("queries must be a 2-D packed matrix")
        num_queries = queries.shape[0]
        query_bits = extract_bit_columns(queries, self.positions).astype(bool)
        sampled = self.positions.size
        plane_words = self.planes.shape[1]
        inverted = np.bitwise_not(self.planes)
        # int32 bounds: counts never exceed probe_bits, and the narrower
        # accumulator halves the fill traffic of the (queries x medoids)
        # matrix on large shards.
        bounds = np.empty((num_queries, self.count), dtype=np.int32)
        block = max(1, _QUERY_BLOCK_BYTES // max(1, sampled * plane_words * 8))
        for lo in range(0, num_queries, block):
            hi = min(lo + block, num_queries)
            # (sampled, block, plane_words): plane j for query q is the
            # mismatch bitmap — the stored plane where the query bit is
            # 0, its complement where the query bit is 1.
            flip = query_bits[lo:hi].T[:, :, None]
            rows = np.where(
                flip, inverted[:, None, :], self.planes[:, None, :]
            )
            bounds[lo:hi] = counts_from_planes(
                csa_accumulate(rows, capacity=sampled),
                self.count,
                dtype=np.int32,
            )
        return bounds

    def candidate_mask(
        self, vectors: np.ndarray, queries: np.ndarray, k: int
    ) -> np.ndarray:
        """Boolean ``(len(queries), count)`` candidate mask for top-k.

        Guaranteed to contain every medoid of each query's exact top-k,
        including all distance ties at the boundary (see module
        docstring for the argument).
        """
        vectors = np.asarray(vectors, dtype=np.uint64)
        queries = np.asarray(queries, dtype=np.uint64)
        bounds = self.lower_bounds(queries)
        keep = min(k, self.count)
        pilot = min(self.count, max(keep, _PILOT_MIN))
        pilot_ids, _ = batched_topk(bounds, pilot)
        pilot_distances = hamming_distance(
            vectors[pilot_ids], queries[:, None, :]
        )
        tau = np.partition(pilot_distances, keep - 1, axis=1)[:, keep - 1]
        return bounds <= tau[:, None]

    def topk(
        self, vectors: np.ndarray, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact batched top-k against the indexed medoid matrix.

        Bit-identical to ``batched_topk(hamming_cross(queries, vectors), k)``
        — same medoid ordinals, same distances, same ``(distance, ordinal)``
        tie order — but only candidate medoids are verified exactly.
        """
        vectors = np.asarray(vectors, dtype=np.uint64)
        queries = np.asarray(queries, dtype=np.uint64)
        if vectors.shape[0] != self.count:
            raise ConfigurationError(
                f"index covers {self.count} medoids, got {vectors.shape[0]}"
            )
        num_queries = queries.shape[0]
        keep = min(k, self.count)
        if num_queries == 0 or keep >= self.count:
            return batched_topk(hamming_cross(queries, vectors), k)
        mask = self.candidate_mask(vectors, queries, k)
        if int(mask.sum()) > _FALLBACK_FRACTION * mask.size:
            return batched_topk(hamming_cross(queries, vectors), k)
        query_ids, medoid_ids = np.nonzero(mask)
        exact = np.empty(query_ids.size, dtype=np.int64)
        for lo in range(0, query_ids.size, _FLAT_CHUNK):
            hi = min(lo + _FLAT_CHUNK, query_ids.size)
            exact[lo:hi] = hamming_distance(
                vectors[medoid_ids[lo:hi]], queries[query_ids[lo:hi]]
            )
        # One global stable sort keyed (query, distance, ordinal); the
        # first ``keep`` entries of every query group are its top-k.
        order = np.lexsort((medoid_ids, exact, query_ids))
        sorted_queries = query_ids[order]
        starts = np.zeros(num_queries, dtype=np.int64)
        np.cumsum(np.bincount(query_ids, minlength=num_queries)[:-1],
                  out=starts[1:])
        rank = np.arange(order.size, dtype=np.int64) - starts[sorted_queries]
        selected = rank < keep
        indices = np.empty((num_queries, keep), dtype=np.int64)
        distances = np.empty((num_queries, keep), dtype=np.int64)
        indices[sorted_queries[selected], rank[selected]] = (
            medoid_ids[order][selected]
        )
        distances[sorted_queries[selected], rank[selected]] = (
            exact[order][selected]
        )
        return indices, distances

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the index as an ``.npz`` (pickle-free) archive."""
        meta = json.dumps(
            {
                "format_version": INDEX_FORMAT_VERSION,
                "dim": self.dim,
                "count": self.count,
            }
        )
        np.savez(
            path,
            positions=self.positions,
            planes=self.planes,
            meta=np.array(meta),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BitSliceMedoidIndex":
        """Read an index written by :meth:`save`."""
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(str(archive["meta"]))
                if meta.get("format_version") != INDEX_FORMAT_VERSION:
                    raise ParseError(
                        f"unsupported index version {meta.get('format_version')}",
                        str(path),
                    )
                return cls(
                    dim=int(meta["dim"]),
                    count=int(meta["count"]),
                    positions=archive["positions"].astype(np.int64),
                    planes=archive["planes"].astype(np.uint64),
                )
        except ParseError:
            raise
        except Exception as exc:  # np.load raises zip/OS/key errors
            raise ParseError(
                f"cannot read bit-slice index: {exc}", str(path)
            ) from exc
