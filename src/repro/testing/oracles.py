"""Reference implementations the test suite pins production paths against.

Every oracle counts bits through :func:`repro.hdc.bitops.unpack_bits`
(``np.unpackbits``), so none shares the popcount it checks.  The batch
encoder oracle encodes one spectrum at a time through
:meth:`IDLevelEncoder.encode`, the unpacked majority vote.  The query
oracles scan one query at a time, full-sort each scan and merge
per-candidate in Python — the original serving path the batched engine
must reproduce byte for byte.  Only the tests import this module; no
production path does.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from ..hdc.bitops import WORD_BITS, unpack_bits
from ..hdc.hamming import DISTANCE_DTYPE

if TYPE_CHECKING:
    from ..hdc import IDLevelEncoder
    from ..spectrum import MassSpectrum
    from ..store import ClusterMatch, QueryService


def _bits(packed: np.ndarray) -> np.ndarray:
    """int64 0/1 matrix ``(rows, words * 64)`` of a 2-D packed matrix."""
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    return unpack_bits(packed, packed.shape[1] * WORD_BITS).astype(np.int64)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element one-count (int64) of a uint64 array of any shape."""
    words = np.asarray(words, dtype=np.uint64)
    return _bits(words.reshape(-1, 1)).sum(axis=1).reshape(words.shape)


def cross_hamming(queries: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Hamming distances (int64) between every query row and vector row."""
    left, right = _bits(queries), _bits(vectors)
    # d(i, j) counts the positions set in exactly one of rows i and j.
    return left @ (1 - right).T + (1 - left) @ right.T


def pairwise_hamming(vectors: np.ndarray) -> np.ndarray:
    """Dense pairwise Hamming distances (int64) of a packed matrix."""
    return cross_hamming(vectors, vectors)


def condensed_pairwise_hamming(vectors: np.ndarray) -> np.ndarray:
    """Lower-triangle distances (uint16) in ``condensed_index`` order."""
    dense = pairwise_hamming(vectors)
    return dense[np.tril_indices(dense.shape[0], -1)].astype(DISTANCE_DTYPE)


def accumulate_bit_counts(
    packed: np.ndarray, group_starts: np.ndarray, dim: int
) -> np.ndarray:
    """Per-dimension one-counts (int64) of packed rows, summed per group.

    ``group_starts`` is in ``np.add.reduceat`` layout: group ``g`` covers
    rows ``group_starts[g]:group_starts[g + 1]``, the last group runs to
    the end, and every group is non-empty.  This is the majority
    accumulator ``csa_accumulate`` + ``counts_from_planes`` must match.
    """
    starts = np.asarray(group_starts, dtype=np.intp)
    if starts.size == 0:
        return np.zeros((0, dim), dtype=np.int64)
    bits = unpack_bits(np.asarray(packed, dtype=np.uint64), dim)
    return np.add.reduceat(bits, starts, axis=0, dtype=np.int64)


def encode_batch(
    encoder: "IDLevelEncoder", spectra: Sequence["MassSpectrum"]
) -> np.ndarray:
    """Packed hypervectors ``(n, dim // 64)``, one ``encode`` per spectrum."""
    encoded = np.zeros((len(spectra), encoder.words), dtype=np.uint64)
    for row, spectrum in enumerate(spectra):
        encoded[row] = encoder.encode(spectrum)
    return encoded


def shard_topk(
    medoid_vectors: np.ndarray, query_vectors: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One shard's top-k, each query's scan fully sorted on its own.

    Returns ``(indices, distances)`` of shape ``(queries, min(k,
    medoids))``, each row ascending by ``(distance, ordinal)``.
    """
    distances = cross_hamming(query_vectors, medoid_vectors)
    count = distances.shape[1]
    indices = np.zeros((distances.shape[0], min(k, count)), dtype=np.int64)
    for j, row in enumerate(distances):
        indices[j] = np.lexsort((np.arange(count), row))[: indices.shape[1]]
    return indices, np.take_along_axis(distances, indices, axis=1)


def query_matches(
    service: "QueryService", query_vectors: np.ndarray, k: int
) -> List[List["ClusterMatch"]]:
    """``service.query_vectors`` as lists, merged candidate by candidate.

    Scans every populated shard densely with :func:`shard_topk`, pools
    each query's per-shard candidates, sorts them by ``(distance, shard,
    local label)`` and builds one :class:`ClusterMatch` per survivor.
    """
    query_vectors = np.asarray(query_vectors, dtype=np.uint64)
    if query_vectors.shape[0] == 0:
        return []
    service._refresh_indexes()
    populated = [index for index in service._indexes if index.local_labels]
    outcomes = [
        shard_topk(index.medoids_T.T, query_vectors, k)
        for index in populated
    ]
    dim = float(service.repository.encoder.dim)
    results: List[List[ClusterMatch]] = []
    for j in range(query_vectors.shape[0]):
        candidates = sorted(
            (int(distance), index.shard_id, index.local_labels[ordinal],
             ordinal)
            for index, (ordinals, distances) in zip(populated, outcomes)
            for ordinal, distance in zip(ordinals[j].tolist(), distances[j])
        )
        matches: List[ClusterMatch] = []
        for distance, shard_id, local_label, ordinal in candidates[:k]:
            (medoid_row,) = service._indexes[shard_id].medoids
            matches.append(
                replace(
                    medoid_row[ordinal],
                    global_label=service.repository.global_label(
                        shard_id, local_label
                    ),
                    distance=distance,
                    normalized_distance=distance / dim,
                )
            )
        results.append(matches)
    return results
