"""Hamming-distance kernels on packed hypervector matrices.

These functions are the software twins of the FPGA's XOR + popcount distance
module (§III-C): dense and condensed pairwise distances over packed uint64
rows, a condensed lower-triangular layout matching the on-chip distance
memory, and 16-bit fixed-point quantization identical to the hardware's
storage format.

Every kernel is one broadcast :func:`~repro.hdc.bitops.hamming_distance`
(XOR, hardware popcount, int64 reduction) per block of rows, with blocks
sized so the XOR intermediate stays cache-resident — the software shape of
the FPGA's unrolled distance array.  All distances are int64 except the
condensed layout, which uses the hardware's uint16.
"""

from __future__ import annotations

import numpy as np

from ..errors import EncodingError
from .bitops import hamming_distance

#: The FPGA stores distances as 16-bit fixed point; with D_hv <= 65535 the
#: raw Hamming count always fits losslessly.
DISTANCE_DTYPE = np.uint16

#: Largest dimensionality whose raw Hamming counts fit in DISTANCE_DTYPE.
MAX_CONDENSED_DIM = np.iinfo(DISTANCE_DTYPE).max

#: Target byte footprint of one XOR block in the blocked kernels; keeps the
#: intermediate (block_rows, n, words) tensor inside the cache working set.
_BLOCK_BYTES = 1 << 22

#: Tile budget of the cross kernel.  Each XOR tile is written once and
#: read back by the popcount, whose uint8 counts the reduction reads
#: again, so the tile is sized to stay L2-resident.
_CROSS_BLOCK_BYTES = 1 << 19


def _block_rows(n: int, words: int) -> int:
    """Rows per block so one XOR intermediate stays near ``_BLOCK_BYTES``."""
    if n == 0 or words == 0:
        return 1
    return max(1, _BLOCK_BYTES // (n * words * 8))


def _guard_condensed_dim(words: int) -> None:
    """Reject packed widths whose distances could overflow DISTANCE_DTYPE."""
    dim = words * 64
    if dim > MAX_CONDENSED_DIM:
        raise EncodingError(
            f"condensed distances use {DISTANCE_DTYPE.__name__}; "
            f"dim {dim} (from {words} words) can exceed {MAX_CONDENSED_DIM}"
        )


def _xor_popcount_block(rows: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Hamming distances (int64) between every row pair of two matrices."""
    return hamming_distance(rows[:, None, :], others[None, :, :])


def pairwise_hamming_blocked(
    vectors: np.ndarray, block_rows: int | None = None
) -> np.ndarray:
    """Dense symmetric pairwise Hamming-distance matrix (int64).

    ``vectors`` is a packed matrix of shape ``(n, words)``.  Whole row
    blocks of the lower triangle are computed per broadcast XOR + popcount
    pass and mirrored into the upper triangle.  ``block_rows`` defaults to
    a size that keeps each XOR intermediate cache-friendly.
    """
    vectors = np.asarray(vectors, dtype=np.uint64)
    if vectors.ndim != 2:
        raise EncodingError(
            "pairwise_hamming_blocked expects a 2-D packed matrix"
        )
    n, words = vectors.shape
    if block_rows is None:
        block_rows = _block_rows(n, words)
    if block_rows < 1:
        raise EncodingError("block_rows must be >= 1")
    distances = np.zeros((n, n), dtype=np.int64)
    for lo in range(0, n, block_rows):
        hi = min(lo + block_rows, n)
        # Rows lo:hi against all columns < hi covers this block's share of
        # the lower triangle (plus the in-block upper corner, which holds
        # correct distances too); mirror it for the upper triangle.
        block = _xor_popcount_block(vectors[lo:hi], vectors[:hi])
        distances[lo:hi, :hi] = block
        distances[:hi, lo:hi] = block.T
    np.fill_diagonal(distances, 0)
    return distances


def hamming_cross(
    queries: np.ndarray,
    refs: np.ndarray,
    block_rows: int | None = None,
) -> np.ndarray:
    """Dense Hamming-distance matrix between two packed matrices (int64).

    Returns shape ``(len(queries), len(refs))``, bit-identical to stacking
    :func:`hamming_to_query` over the query rows.  The computation is
    tiled over both query rows and reference rows so each XOR intermediate
    stays near ``_CROSS_BLOCK_BYTES`` even when one side is a large medoid
    matrix — this is the kernel the repository's batched shard scans are
    built on.  ``block_rows`` overrides the query rows per tile.
    """
    queries = np.asarray(queries, dtype=np.uint64)
    refs = np.asarray(refs, dtype=np.uint64)
    if queries.ndim != 2 or refs.ndim != 2:
        raise EncodingError("hamming_cross expects two 2-D packed matrices")
    if queries.shape[1] != refs.shape[1]:
        raise EncodingError(
            "word-count mismatch between query and reference matrices"
        )
    num_queries, words = queries.shape
    num_refs = refs.shape[0]
    distances = np.zeros((num_queries, num_refs), dtype=np.int64)
    if num_queries == 0 or num_refs == 0 or words == 0:
        return distances
    if block_rows is None:
        # Enough query rows per tile to amortise the Python-level loop,
        # capped so a full-width tile still fits the byte budget.
        block_rows = min(
            num_queries,
            max(16, _CROSS_BLOCK_BYTES // (num_refs * words * 8)),
        )
    if block_rows < 1:
        raise EncodingError("block_rows must be >= 1")
    ref_rows = max(1, _CROSS_BLOCK_BYTES // (block_rows * words * 8))
    for lo in range(0, num_queries, block_rows):
        hi = min(lo + block_rows, num_queries)
        for ref_lo in range(0, num_refs, ref_rows):
            ref_hi = min(ref_lo + ref_rows, num_refs)
            distances[lo:hi, ref_lo:ref_hi] = _xor_popcount_block(
                queries[lo:hi], refs[ref_lo:ref_hi]
            )
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
    :func:`condensed_index`, stored with the hardware's 16-bit width.
    Whole row blocks of the triangle are computed per XOR + popcount pass;
    ``block_rows`` overrides the default block height.
    """
    vectors = np.asarray(vectors, dtype=np.uint64)
    if vectors.ndim != 2:
        raise EncodingError(
            "condensed_pairwise_hamming expects a 2-D packed matrix"
        )
    n, words = vectors.shape
    _guard_condensed_dim(words)
    if block_rows is None:
        block_rows = _block_rows(n, words)
    if block_rows < 1:
        raise EncodingError("block_rows must be >= 1")
    out = np.zeros(n * (n - 1) // 2, dtype=DISTANCE_DTYPE)
    for lo in range(1, n, block_rows):
        hi = min(lo + block_rows, n)
        # Rows lo:hi of the triangle all compare against vectors[:hi-1];
        # one broadcast XOR covers the block, sliced to j < i below.
        block = _xor_popcount_block(vectors[lo:hi], vectors[: hi - 1])
        for offset, i in enumerate(range(lo, hi)):
            start = i * (i - 1) // 2
            out[start : start + i] = block[offset, :i].astype(DISTANCE_DTYPE)
    return out


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
