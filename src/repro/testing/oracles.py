"""Reference implementations the test suite pins the HDC kernels against.

Every oracle counts bits through :func:`repro.hdc.bitops.unpack_bits`
(``np.unpackbits``), so none shares the popcount it checks.  Only the
tests import this module; no production path does.
"""

from __future__ import annotations

import numpy as np

from ..hdc.bitops import WORD_BITS, unpack_bits
from ..hdc.hamming import DISTANCE_DTYPE


def _bits(packed: np.ndarray) -> np.ndarray:
    """int64 0/1 matrix ``(rows, words * 64)`` of a 2-D packed matrix."""
    packed = np.asarray(packed, dtype=np.uint64)
    return unpack_bits(packed, packed.shape[1] * WORD_BITS).astype(np.int64)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element one-count (int64) of a uint64 array of any shape."""
    words = np.asarray(words, dtype=np.uint64)
    return _bits(words.reshape(-1, 1)).sum(axis=1).reshape(words.shape)


def pairwise_hamming(vectors: np.ndarray) -> np.ndarray:
    """Dense pairwise Hamming distances (int64) of a packed matrix."""
    bits = _bits(vectors)
    # d(i, j) counts the positions set in exactly one of rows i and j.
    return bits @ (1 - bits).T + (1 - bits) @ bits.T


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
