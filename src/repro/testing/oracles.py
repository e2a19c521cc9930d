"""Reference implementations the test suite pins production paths against.

Every oracle counts bits through :func:`repro.hdc.bitops.unpack_bits`
(``np.unpackbits``), so none shares the popcount it checks.  The batch
encoder oracle encodes one spectrum at a time through
:meth:`IDLevelEncoder.encode`, the unpacked majority vote.  The query
oracles scan one query at a time, full-sort each scan and merge
per-candidate in Python — the original serving path the batched engine
must reproduce byte for byte.  The NN-chain oracle masks inactive
clusters out of a fresh copy of every scanned row and updates only the
active entries of a merge; the representatives oracle tests membership
in a growing list.  The preprocessing oracles run the three MSAS stages
one spectrum at a time, building a :class:`MassSpectrum` per stage — the
path :func:`repro.spectrum.preprocess_batch`'s column operations must
reproduce bit for bit.  Only the tests import this module; no production
path does.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from ..cluster.linkage import (
    finalize_heights,
    prepare_distances,
    update_distance_rows,
    validate_linkage,
)
from ..cluster.nnchain import ClusteringStats, LinkageResult, _validate_square
from ..errors import ConfigurationError
from ..hdc.bitops import WORD_BITS, unpack_bits
from ..hdc.hamming import DISTANCE_DTYPE
from ..spectrum import MassSpectrum, PreprocessingConfig
from ..units import PROTON_MASS

if TYPE_CHECKING:
    from ..hdc import IDLevelEncoder
    from ..pipeline import SpecHDResult
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


def nn_chain_linkage(
    distances: np.ndarray, linkage: str = "complete"
) -> LinkageResult:
    """NN-chain HAC that masks inactive clusters out of every scanned row."""
    linkage = validate_linkage(linkage)
    distances = _validate_square(distances)
    n = distances.shape[0]
    stats = ClusteringStats()
    merges = np.zeros((max(n - 1, 0), 4), dtype=np.float64)
    if n == 1:
        return LinkageResult(merges=merges, n=n, linkage=linkage, stats=stats)

    matrix = prepare_distances(linkage, distances)
    np.fill_diagonal(matrix, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    cluster_ids = np.arange(n, dtype=np.int64)
    chain: List[int] = []
    merge_count = 0

    while merge_count < n - 1:
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        while True:
            anchor = chain[-1]
            row = matrix[anchor]
            # Mask inactive clusters; the diagonal is already +inf.
            candidate_row = np.where(active, row, np.inf)
            candidate_row[anchor] = np.inf
            stats.distance_scans += int(active.sum()) - 1
            nearest = int(np.argmin(candidate_row))
            nearest_distance = candidate_row[nearest]
            if len(chain) > 1:
                predecessor = chain[-2]
                # Prefer the predecessor on ties: guarantees termination.
                if candidate_row[predecessor] <= nearest_distance:
                    nearest = predecessor
            if len(chain) > 1 and nearest == chain[-2]:
                break  # reciprocal nearest neighbours found
            chain.append(nearest)
            stats.chain_extensions += 1

        second = chain.pop()
        first = chain.pop()
        merge_height = matrix[first, second]
        merges[merge_count, 0] = cluster_ids[first]
        merges[merge_count, 1] = cluster_ids[second]
        merges[merge_count, 2] = merge_height
        merges[merge_count, 3] = sizes[first] + sizes[second]

        # Lance–Williams update of the surviving row (stored at `first`).
        others = active.copy()
        others[first] = False
        others[second] = False
        other_indices = np.flatnonzero(others)
        if other_indices.size:
            new_row = update_distance_rows(
                linkage,
                matrix[first, other_indices],
                matrix[second, other_indices],
                float(merge_height),
                int(sizes[first]),
                int(sizes[second]),
                sizes[other_indices],
            )
            matrix[first, other_indices] = new_row
            matrix[other_indices, first] = new_row
            stats.distance_updates += int(other_indices.size)

        sizes[first] += sizes[second]
        active[second] = False
        matrix[second, :] = np.inf
        matrix[:, second] = np.inf
        cluster_ids[first] = n + merge_count
        merge_count += 1
        stats.merges += 1

    merges[:, 2] = finalize_heights(linkage, merges[:, 2])
    return LinkageResult(merges=merges, n=n, linkage=linkage, stats=stats)


def representatives(result: "SpecHDResult") -> List[int]:
    """``result.representatives()`` by list membership, one index at a time."""
    representatives: List[int] = list(result.medoids.values())
    members: Dict[int, List[int]] = {}
    for index, label in enumerate(result.labels):
        members.setdefault(int(label), []).append(index)
    clustered = {i for group in members.values() if len(group) > 1
                 for i in group}
    for index in range(result.labels.size):
        if index not in clustered and index not in representatives:
            representatives.append(index)
    return sorted(set(representatives))


def filter_peaks(
    spectrum: MassSpectrum, config: PreprocessingConfig
) -> MassSpectrum:
    """Stage 1 — the Spectra Filter, one spectrum.

    Removes peaks (a) outside the configured m/z window, (b) within
    ``precursor_tolerance_da`` of any precursor-ion m/z (all charge
    reductions of the precursor are considered), and (c) below
    ``min_intensity_fraction`` of the base peak.
    """
    mz = spectrum.mz
    intensity = spectrum.intensity
    keep = (mz >= config.min_mz) & (mz <= config.max_mz)
    neutral = spectrum.neutral_mass
    for charge in range(1, spectrum.precursor_charge + 1):
        precursor_mz_at_charge = (neutral + charge * PROTON_MASS) / charge
        distance = np.abs(mz - precursor_mz_at_charge)
        keep &= distance > config.precursor_tolerance_da
    if intensity.size:
        base_peak = spectrum.base_peak_intensity
        keep &= intensity >= config.min_intensity_fraction * base_peak
    return spectrum.with_peaks(mz[keep], intensity[keep])


def select_top_k(spectrum: MassSpectrum, k: int) -> MassSpectrum:
    """Stage 2 — the Top-k Selector, one spectrum.

    Keeps the ``k`` most intense peaks in m/z order.  Among peaks that
    tie in intensity at the cut, the lower position wins: a stable sort
    by descending intensity keeps the first ``k``.
    """
    if k < 1:
        raise ConfigurationError(f"top_k must be >= 1, got {k}")
    if spectrum.peak_count <= k:
        return spectrum.copy()
    top_indices = np.argsort(-spectrum.intensity, kind="stable")[:k]
    top_indices.sort()
    return spectrum.with_peaks(
        spectrum.mz[top_indices], spectrum.intensity[top_indices]
    )


def scale_and_normalize(
    spectrum: MassSpectrum, scaling: str = "sqrt"
) -> MassSpectrum:
    """Stage 3 — Scale and Normalization, one spectrum.

    ``sqrt`` compresses the dynamic range of ion counts, ``rank`` replaces
    intensities with their ranks, ``none`` leaves them untouched; all
    modes finish with L2 normalisation.
    """
    intensity = spectrum.intensity.astype(np.float64)
    if scaling == "sqrt":
        scaled = np.sqrt(intensity)
    elif scaling == "rank":
        order = np.argsort(np.argsort(intensity, kind="stable"), kind="stable")
        scaled = (order + 1).astype(np.float64)
    elif scaling == "none":
        scaled = intensity.copy()
    else:
        raise ConfigurationError(f"unknown scaling {scaling!r}")
    norm = np.linalg.norm(scaled)
    if norm > 0:
        scaled = scaled / norm
    return spectrum.with_peaks(spectrum.mz, scaled)


def preprocess_spectrum(
    spectrum: MassSpectrum, config: PreprocessingConfig = PreprocessingConfig()
) -> "MassSpectrum | None":
    """The three stages one after another; ``None`` when QC drops it."""
    filtered = filter_peaks(spectrum, config)
    if filtered.peak_count < config.min_peaks:
        return None
    selected = select_top_k(filtered, config.top_k)
    return scale_and_normalize(selected, config.scaling)
