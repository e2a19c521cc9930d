"""Lance–Williams linkage update algebra.

After merging clusters *i* and *j*, the distance from the merged cluster to
any other cluster *k* is a linear recurrence on the previous distances:

.. math::

    d(i \\cup j, k) = \\alpha_i d(i,k) + \\alpha_j d(j,k)
                    + \\beta d(i,j) + \\gamma |d(i,k) - d(j,k)|

All four linkage criteria SpecHD's hardware supports (§III-C: Ward, single,
complete — plus average, which the recurrence gives for free) are expressible
this way, which is exactly why the FPGA can implement linkage-agnostic
updates with a single parameterized datapath.

All four criteria are *reducible*, the property the NN-chain algorithm
requires for correctness: merging two reciprocal nearest neighbours can never
create a new cluster closer to a third cluster than the merged pair was.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from ..errors import ClusteringError

#: Names of the supported linkage criteria.
SUPPORTED_LINKAGES = ("single", "complete", "average", "ward")

#: Coefficient tuple: (alpha_i, alpha_j, beta, gamma).
Coefficients = Tuple[float, float, float, float]


def lance_williams_coefficients(
    linkage: str, size_i: int, size_j: int, size_k: int
) -> Coefficients:
    """Coefficients ``(alpha_i, alpha_j, beta, gamma)`` for one update.

    Parameters
    ----------
    linkage:
        One of :data:`SUPPORTED_LINKAGES`.
    size_i, size_j:
        Cardinalities of the two clusters being merged.
    size_k:
        Cardinality of the third cluster whose distance is being updated.
    """
    if size_i < 1 or size_j < 1 or size_k < 1:
        raise ClusteringError("cluster sizes must be >= 1")
    if linkage == "single":
        return (0.5, 0.5, 0.0, -0.5)
    if linkage == "complete":
        return (0.5, 0.5, 0.0, 0.5)
    if linkage == "average":
        total = size_i + size_j
        return (size_i / total, size_j / total, 0.0, 0.0)
    if linkage == "ward":
        denom = size_i + size_j + size_k
        return (
            (size_i + size_k) / denom,
            (size_j + size_k) / denom,
            -size_k / denom,
            0.0,
        )
    raise ClusteringError(
        f"unknown linkage {linkage!r}; expected one of {SUPPORTED_LINKAGES}"
    )


def update_distance(
    linkage: str,
    d_ik: float,
    d_jk: float,
    d_ij: float,
    size_i: int,
    size_j: int,
    size_k: int,
) -> float:
    """Apply the Lance–Williams recurrence for a single (i∪j, k) pair."""
    alpha_i, alpha_j, beta, gamma = lance_williams_coefficients(
        linkage, size_i, size_j, size_k
    )
    return (
        alpha_i * d_ik
        + alpha_j * d_jk
        + beta * d_ij
        + gamma * abs(d_ik - d_jk)
    )


def update_distance_rows(
    linkage: str,
    d_ik: np.ndarray,
    d_jk: np.ndarray,
    d_ij: float,
    size_i: int,
    size_j: int,
    sizes_k: np.ndarray,
) -> np.ndarray:
    """Vectorised Lance–Williams update over all third clusters *k*.

    For single/complete/average the coefficients do not depend on ``k`` so a
    single fused expression suffices; Ward requires per-``k`` coefficients.
    This mirrors the FPGA distance-update pipeline, which streams row ``i``
    and row ``j`` of the triangular matrix through one arithmetic unit.
    """
    d_ik = np.asarray(d_ik, dtype=np.float64)
    d_jk = np.asarray(d_jk, dtype=np.float64)
    if d_ik.shape != d_jk.shape:
        raise ClusteringError("distance rows must have equal shapes")
    if linkage == "single":
        return np.minimum(d_ik, d_jk)
    if linkage == "complete":
        return np.maximum(d_ik, d_jk)
    if linkage == "average":
        total = size_i + size_j
        return (size_i * d_ik + size_j * d_jk) / total
    if linkage == "ward":
        sizes_k = np.asarray(sizes_k, dtype=np.float64)
        if sizes_k.shape != d_ik.shape:
            raise ClusteringError("sizes_k must match distance row shape")
        denom = size_i + size_j + sizes_k
        return (
            (size_i + sizes_k) * d_ik
            + (size_j + sizes_k) * d_jk
            - sizes_k * d_ij
        ) / denom
    raise ClusteringError(
        f"unknown linkage {linkage!r}; expected one of {SUPPORTED_LINKAGES}"
    )


def validate_linkage(linkage: str) -> str:
    """Normalise and validate a linkage name."""
    name = linkage.strip().lower()
    if name not in SUPPORTED_LINKAGES:
        raise ClusteringError(
            f"unknown linkage {linkage!r}; expected one of {SUPPORTED_LINKAGES}"
        )
    return name


def prepare_distances(linkage: str, distances: np.ndarray) -> np.ndarray:
    """Pre-transform raw distances for a linkage criterion.

    Ward's criterion is defined on *squared* Euclidean-like distances; the
    other criteria consume distances as-is.  The returned array is always a
    fresh ``float64`` copy safe to mutate in place, and the only one made.
    """
    distances = np.array(distances, dtype=np.float64, copy=True)
    if validate_linkage(linkage) == "ward":
        np.square(distances, out=distances)
    return distances


def finalize_heights(linkage: str, heights: np.ndarray) -> np.ndarray:
    """Undo :func:`prepare_distances` on merge heights (Ward: sqrt)."""
    heights = np.asarray(heights, dtype=np.float64)
    if validate_linkage(linkage) == "ward":
        return np.sqrt(np.maximum(heights, 0.0))
    return heights
