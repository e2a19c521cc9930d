"""Nearest-Neighbour-Chain hierarchical agglomerative clustering.

This is the algorithm SpecHD accelerates on the FPGA (§II-C, §III-C).  The
classic HAC algorithm re-scans the full distance matrix after every merge
(O(n³) total); NN-chain instead grows a chain of successive nearest
neighbours until it finds a *reciprocal nearest neighbour* (RNN) pair, merges
it, and resumes from the surviving chain — O(n²) total for any *reducible*
linkage (single, complete, average, Ward all qualify).

The implementation mirrors the hardware:

* a dense distance matrix (the FPGA keeps the lower triangle in BRAM with
  16-bit fixed point; we take any non-negative square matrix, typically
  the uint16 one from :func:`repro.hdc.pairwise_hamming_blocked`, and make
  one float64 working copy for the Lance–Williams updates),
* a chain stack (`Chain BRAM`),
* per-cluster sizes and liveness flags (the hardware's correction factors
  and deleted-cluster compaction); a merged-away cluster's row and column
  and the diagonal hold ``+inf``, so a nearest-neighbour scan reads the
  anchor's row as it stands,
* Lance–Williams row updates after each merge, one whole row at a time.

Operation counts (matrix scans, distance updates, chain steps) are recorded
in :class:`ClusteringStats`; the FPGA cycle model consumes these to predict
kernel runtime, and the Fig. 2 benchmark compares them against the naive
algorithm's counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..errors import ClusteringError
from .linkage import (
    finalize_heights,
    prepare_distances,
    update_distance_rows,
    validate_linkage,
)


@dataclass
class ClusteringStats:
    """Operation counters for one HAC run.

    Attributes
    ----------
    distance_scans:
        Number of candidate distances examined while searching for nearest
        neighbours (the dominant term for both algorithms).
    distance_updates:
        Number of Lance–Williams updates applied to matrix entries.
    chain_extensions:
        NN-chain only — number of chain-growth steps.
    merges:
        Number of cluster merges performed (always ``n - 1`` for a full run).
    """

    distance_scans: int = 0
    distance_updates: int = 0
    chain_extensions: int = 0
    merges: int = 0

    @property
    def total_operations(self) -> int:
        """Total counted matrix operations."""
        return self.distance_scans + self.distance_updates


@dataclass
class LinkageResult:
    """Output of a hierarchical clustering run.

    ``merges`` has one row per merge, in *merge order* (not height order):
    ``[cluster_id_a, cluster_id_b, height, merged_size]``.  Leaf clusters are
    ``0..n-1``; the cluster created by merge ``t`` has id ``n + t``, matching
    SciPy's linkage-matrix convention.
    """

    merges: np.ndarray
    n: int
    linkage: str
    stats: ClusteringStats = field(default_factory=ClusteringStats)

    def heights(self) -> np.ndarray:
        """Merge heights in merge order."""
        return self.merges[:, 2].astype(np.float64)

    def to_scipy_linkage(self) -> np.ndarray:
        """Re-order merges by height into a SciPy-compatible matrix.

        Children always precede parents because, for reducible linkages,
        a parent merge is never lower than its children; stable sorting by
        height preserves child-before-parent order on exact ties.
        """
        order = np.argsort(self.merges[:, 2], kind="stable")
        remap = {}
        out = np.zeros_like(self.merges)
        for new_index, old_index in enumerate(order):
            row = self.merges[old_index].copy()
            for column in (0, 1):
                cluster_id = int(row[column])
                if cluster_id >= self.n:
                    row[column] = remap[cluster_id]
            if row[0] > row[1]:
                row[0], row[1] = row[1], row[0]
            remap[self.n + int(old_index)] = self.n + new_index
            out[new_index] = row
        return out


def _validate_square(distances: np.ndarray) -> np.ndarray:
    """Check a square, symmetric, NaN-free, non-negative matrix; no copy."""
    distances = np.asarray(distances)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ClusteringError("distance matrix must be square")
    if distances.shape[0] < 1:
        raise ClusteringError("need at least one observation")
    # An exactly symmetric matrix cannot hold NaN (NaN != NaN), so only
    # the tolerant fallback needs the NaN scan.
    if not np.array_equal(distances, distances.T):
        if np.isnan(distances).any():
            raise ClusteringError("distances must not be NaN")
        if not np.allclose(distances, distances.T):
            raise ClusteringError("distance matrix must be symmetric")
    if distances.dtype.kind != "u" and np.any(distances < 0):
        raise ClusteringError("distances must be non-negative")
    return distances


def _merge(
    linkage: str,
    matrix: np.ndarray,
    sizes: np.ndarray,
    cluster_ids: np.ndarray,
    merges: np.ndarray,
    step: int,
    first: int,
    second: int,
) -> None:
    """Record merge ``step`` of cluster ``second`` into ``first``.

    The Lance–Williams update runs over whole rows: +inf in both rows
    keeps merged-away columns +inf.  The survivor's row and column are
    rewritten and ``second``'s are retired to +inf.
    """
    height = matrix[first, second]
    merges[step] = (
        cluster_ids[first], cluster_ids[second], height,
        sizes[first] + sizes[second],
    )
    new_row = update_distance_rows(
        linkage,
        matrix[first],
        matrix[second],
        float(height),
        int(sizes[first]),
        int(sizes[second]),
        sizes,
    )
    new_row[first] = new_row[second] = np.inf
    matrix[first] = new_row
    matrix[:, first] = new_row
    matrix[second] = np.inf
    matrix[:, second] = np.inf
    sizes[first] += sizes[second]
    cluster_ids[first] = len(sizes) + step


def nn_chain_linkage(
    distances: np.ndarray, linkage: str = "complete"
) -> LinkageResult:
    """Run NN-chain HAC over a dense symmetric distance matrix.

    Parameters
    ----------
    distances:
        Square symmetric matrix of pairwise distances (e.g. Hamming counts
        from :func:`repro.hdc.pairwise_hamming_blocked`).
    linkage:
        One of ``single``, ``complete``, ``average``, ``ward``.

    Returns
    -------
    LinkageResult
        Full dendrogram (``n - 1`` merges) plus operation counters.
    """
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
    live = n
    cluster_ids = np.arange(n, dtype=np.int64)
    chain: List[int] = []
    merge_count = 0

    while merge_count < n - 1:
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        while True:
            anchor = chain[-1]
            # Inactive columns and the diagonal are already +inf.
            row = matrix[anchor]
            stats.distance_scans += live - 1
            nearest = int(row.argmin())
            if len(chain) > 1:
                predecessor = chain[-2]
                # Prefer the predecessor on ties: guarantees termination.
                if row[predecessor] <= row[nearest]:
                    break  # reciprocal nearest neighbours found
            chain.append(nearest)
            stats.chain_extensions += 1

        second = chain.pop()
        first = chain.pop()
        _merge(linkage, matrix, sizes, cluster_ids, merges, merge_count,
               first, second)
        stats.distance_updates += live - 2
        active[second] = False
        live -= 1
        merge_count += 1
        stats.merges += 1

    merges[:, 2] = finalize_heights(linkage, merges[:, 2])
    return LinkageResult(merges=merges, n=n, linkage=linkage, stats=stats)
