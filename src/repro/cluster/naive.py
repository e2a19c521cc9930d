"""Naive O(n³) hierarchical agglomerative clustering (the Fig. 2 baseline).

The classic HAC algorithm: after every merge, re-scan the *entire* active
distance matrix to find the global minimum pair.  It produces exactly the
same dendrogram as NN-chain for reducible linkages, but performs
:math:`\\Theta(n^3)` distance examinations versus NN-chain's
:math:`\\Theta(n^2)` — the gap the paper's Fig. 2 illustrates.
"""

from __future__ import annotations

import numpy as np

from .linkage import finalize_heights, prepare_distances, validate_linkage
from .nnchain import ClusteringStats, LinkageResult, _merge, _validate_square


def naive_linkage(
    distances: np.ndarray, linkage: str = "complete"
) -> LinkageResult:
    """Run naive (full-rescan) HAC over a dense distance matrix.

    Same inputs and outputs as :func:`repro.cluster.nn_chain_linkage`; only
    the operation counts differ.
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
    cluster_ids = np.arange(n, dtype=np.int64)

    for merge_count in range(n - 1):
        active_indices = np.flatnonzero(active)
        sub = matrix[np.ix_(active_indices, active_indices)]
        num_active = active_indices.size
        # Full upper-triangle scan: the O(n^2)-per-merge step.
        stats.distance_scans += num_active * (num_active - 1) // 2
        flat_index = int(np.argmin(sub))
        row_local, col_local = divmod(flat_index, num_active)
        first = int(active_indices[min(row_local, col_local)])
        second = int(active_indices[max(row_local, col_local)])
        _merge(linkage, matrix, sizes, cluster_ids, merges, merge_count,
               first, second)
        stats.distance_updates += num_active - 2
        active[second] = False
        stats.merges += 1

    merges[:, 2] = finalize_heights(linkage, merges[:, 2])
    return LinkageResult(merges=merges, n=n, linkage=linkage, stats=stats)
