"""Hamming-distance kernels on packed hypervector matrices.

These functions are the software twins of the FPGA's XOR + popcount distance
module (§III-C): dense and condensed pairwise distances over packed uint64
rows, a condensed lower-triangular layout matching the on-chip distance
memory, and 16-bit fixed-point quantization identical to the hardware's
storage format.

Every matrix kernel is :func:`hamming_cross`: it streams a word-major
reference matrix one word at a time into a uint16 accumulator — the
software shape of the FPGA's unrolled distance array.  The dense pairwise
matrix is that scan per block of rows against the rows above it, mirrored;
the condensed layout is its lower triangle.  Cross, dense and condensed
distances are all the hardware's uint16.
"""

from __future__ import annotations

import numpy as np

from ..errors import EncodingError
from .bitops import hamming_distance, popcount

#: The FPGA stores distances as 16-bit fixed point; with D_hv <= 65535 the
#: raw Hamming count always fits losslessly.
DISTANCE_DTYPE = np.uint16

#: Largest dimensionality whose raw Hamming counts fit in DISTANCE_DTYPE.
MAX_CONDENSED_DIM = np.iinfo(DISTANCE_DTYPE).max

#: Rows per cross-kernel pass in :func:`pairwise_hamming_blocked`.
_PAIRWISE_BLOCK_ROWS = 64

#: Byte budget of one pass of the cross kernel's reused XOR buffer.  A
#: word of a serving batch against a large shard exceeds it, so those
#: scans go one word per pass; a small shard takes several words a pass.
_CROSS_BLOCK_BYTES = 1 << 18


def _guard_uint16_dim(words: int) -> None:
    """Reject packed widths whose distances could overflow DISTANCE_DTYPE."""
    dim = words * 64
    if dim > MAX_CONDENSED_DIM:
        raise EncodingError(
            f"distances are stored as {DISTANCE_DTYPE.__name__}; "
            f"dim {dim} (from {words} words) can exceed {MAX_CONDENSED_DIM}"
        )


def hamming_cross(
    queries: np.ndarray,
    refs_T: np.ndarray,
    block_rows: int | None = None,
) -> np.ndarray:
    """Hamming distances (uint16) between query rows and word-major refs.

    ``refs_T`` is the reference matrix pre-transposed to ``(words, M)``
    (``np.ascontiguousarray(refs.T)``), so word ``w`` of every reference
    is one contiguous row.  The scan is word-major, like the FPGA's
    distance lanes: per word, ``queries[:, w, None] ^ refs_T[w]`` goes
    into one reused uint64 buffer, its popcount into one reused uint8
    buffer, and the counts into a ``(len(queries), M)`` uint16
    accumulator — bit-identical to :func:`hamming_to_query` per row.
    When one word's buffer is far below ``_CROSS_BLOCK_BYTES`` (a small
    shard), several words share a pass so the per-call cost of a small
    shard is paid a few times rather than once per word.  ``block_rows``
    caps the query rows per pass (default: all of them).  Dimensionalities
    of 65,536 and up are rejected, since their counts overflow uint16.
    """
    queries = np.asarray(queries, dtype=np.uint64)
    refs_T = np.ascontiguousarray(refs_T, dtype=np.uint64)
    if queries.ndim != 2 or refs_T.ndim != 2:
        raise EncodingError("hamming_cross expects two 2-D packed matrices")
    if queries.shape[1] != refs_T.shape[0]:
        raise EncodingError(
            "word-count mismatch between query and reference matrices"
        )
    num_queries, words = queries.shape
    num_refs = refs_T.shape[1]
    _guard_uint16_dim(words)
    if block_rows is not None and block_rows < 1:
        raise EncodingError("block_rows must be >= 1")
    distances = np.zeros((num_queries, num_refs), dtype=DISTANCE_DTYPE)
    if distances.size == 0:
        return distances
    rows = min(block_rows or num_queries, num_queries)
    group = max(1, min(words, _CROSS_BLOCK_BYTES // (rows * num_refs * 8)))
    xor = np.empty((rows, group, num_refs), dtype=np.uint64)
    counts = np.empty((rows, group, num_refs), dtype=np.uint8)
    for lo in range(0, num_queries, rows):
        hi = min(lo + rows, num_queries)
        block = distances[lo:hi]
        for first in range(0, words, group):
            last = min(first + group, words)
            block_xor = xor[: hi - lo, : last - first]
            block_counts = counts[: hi - lo, : last - first]
            np.bitwise_xor(queries[lo:hi, first:last, None],
                           refs_T[None, first:last], out=block_xor)
            popcount(block_xor, out=block_counts)
            np.add(
                block,
                block_counts[:, 0] if group == 1
                else block_counts.sum(axis=1, dtype=DISTANCE_DTYPE),
                out=block,
            )
    return distances


def pairwise_hamming_blocked(
    vectors: np.ndarray, block_rows: int | None = None
) -> np.ndarray:
    """Dense symmetric pairwise Hamming-distance matrix (uint16).

    ``vectors`` is a packed matrix of shape ``(n, words)``.  Each block of
    rows ``lo:hi`` is one :func:`hamming_cross` scan against the word-major
    ``vectors[:hi]`` (the transpose is built once), written into the lower
    triangle and mirrored into the upper one.  ``block_rows`` overrides
    the default block height.  Dimensionalities of 65,536 and up are
    rejected, since their counts overflow uint16.
    """
    vectors = np.asarray(vectors, dtype=np.uint64)
    if vectors.ndim != 2:
        raise EncodingError(
            "pairwise_hamming_blocked expects a 2-D packed matrix"
        )
    n, words = vectors.shape
    _guard_uint16_dim(words)
    if block_rows is None:
        block_rows = _PAIRWISE_BLOCK_ROWS
    if block_rows < 1:
        raise EncodingError("block_rows must be >= 1")
    refs_T = np.ascontiguousarray(vectors.T)
    distances = np.zeros((n, n), dtype=DISTANCE_DTYPE)
    for lo in range(0, n, block_rows):
        hi = min(lo + block_rows, n)
        # Rows lo:hi against all columns < hi covers this block's share of
        # the lower triangle (plus the in-block upper corner, which holds
        # correct distances too); mirror it for the upper triangle.
        block = hamming_cross(vectors[lo:hi], refs_T[:, :hi])
        distances[lo:hi, :hi] = block
        distances[:hi, lo:hi] = block.T
    return distances


def hamming_to_query(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Hamming distance (int64) from every row of ``vectors`` to ``query``."""
    vectors = np.asarray(vectors, dtype=np.uint64)
    query = np.asarray(query, dtype=np.uint64)
    if query.ndim != 1 or vectors.ndim != 2:
        raise EncodingError("expected (n, words) matrix and (words,) query")
    if vectors.shape[1] != query.shape[0]:
        raise EncodingError("word-count mismatch between matrix and query")
    return hamming_distance(vectors, query[None, :])


def condensed_index(i: int, j: int, n: int) -> int:
    """Index into the condensed (lower-triangle, row-major) distance array.

    The condensed layout stores ``d(i, j)`` for ``0 <= j < i < n`` at
    position ``i*(i-1)/2 + j`` — exactly the addressing scheme of the FPGA's
    triangular distance BRAM.
    """
    if i == j or i < 0 or j < 0 or i >= n or j >= n:
        raise EncodingError(f"invalid condensed index ({i}, {j}) for n={n}")
    if i < j:
        i, j = j, i
    return i * (i - 1) // 2 + j


def condensed_pairwise_hamming(
    vectors: np.ndarray, block_rows: int | None = None
) -> np.ndarray:
    """Condensed lower-triangular pairwise Hamming distances (uint16).

    Returns an array of length ``n*(n-1)/2`` in the layout of
    :func:`condensed_index`, stored with the hardware's 16-bit width: the
    row-major lower triangle of :func:`pairwise_hamming_blocked`, whose
    ``block_rows`` it passes on.
    """
    dense = pairwise_hamming_blocked(vectors, block_rows)
    return dense[np.tril_indices(len(dense), -1)]


def squareform(condensed: np.ndarray, n: int) -> np.ndarray:
    """Expand a condensed distance array into a dense symmetric matrix."""
    condensed = np.asarray(condensed)
    expected = n * (n - 1) // 2
    if condensed.shape[0] != expected:
        raise EncodingError(
            f"condensed array has {condensed.shape[0]} entries, "
            f"expected {expected} for n={n}"
        )
    dense = np.zeros((n, n), dtype=np.float64)
    for i in range(1, n):
        start = i * (i - 1) // 2
        dense[i, :i] = condensed[start : start + i]
        dense[:i, i] = condensed[start : start + i]
    return dense


def normalized_hamming(distances: np.ndarray, dim: int) -> np.ndarray:
    """Normalise raw Hamming counts to [0, 1] by the dimensionality."""
    if dim < 1:
        raise EncodingError("dim must be >= 1")
    return np.asarray(distances, dtype=np.float64) / float(dim)
