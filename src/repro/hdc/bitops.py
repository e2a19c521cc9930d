"""Packed binary hypervector primitives.

Hypervectors are stored packed, 64 dimensions per ``uint64`` word — the same
layout the FPGA uses so that one XOR + popcount covers 64 dimensions per
"operation".  All functions operate on 2-D arrays of shape
``(n_vectors, words)`` (or 1-D single vectors) and are fully vectorised.

The popcount is ``np.bitwise_count`` (numpy >= 2.0), a ufunc over the CPU's
popcount instruction; :func:`popcount` is its one call site, and every
input is cast to ``uint64`` first because the ufunc counts the bits of the
*absolute value* of a signed integer.  The majority accumulator is a
carry-save adder network over packed words (:func:`csa_accumulate`), which
never expands per-dimension bits.  The reference implementations these are
checked against live in :mod:`repro.testing.oracles`.
"""

from __future__ import annotations

import numpy as np

from ..errors import EncodingError

#: Bits per storage word.
WORD_BITS = 64


def words_for_dim(dim: int) -> int:
    """Number of 64-bit words needed to store ``dim`` bits."""
    if dim < 1:
        raise EncodingError(f"dimensionality must be >= 1, got {dim}")
    return (dim + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean/0-1 array of shape ``(..., dim)`` into uint64 words.

    Bit ``d`` of the hypervector lands in word ``d // 64`` at bit position
    ``d % 64`` (little-endian within the word).
    """
    bits = np.asarray(bits)
    if bits.ndim == 1:
        return pack_bits(bits[None, :])[0]
    if bits.ndim != 2:
        raise EncodingError("pack_bits expects a 1-D or 2-D array")
    n_vectors, dim = bits.shape
    words = words_for_dim(dim)
    padded = np.zeros((n_vectors, words * WORD_BITS), dtype=np.uint8)
    padded[:, :dim] = bits.astype(np.uint8) & 1
    # numpy packbits is big-endian per byte; request little-endian bit order
    # so that bit d of the hypervector is bit d%8 of byte d//8.
    packed_bytes = np.packbits(padded, axis=1, bitorder="little")
    return packed_bytes.view(np.uint64).reshape(n_vectors, words)


def unpack_bits(packed: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: returns a uint8 0/1 array ``(..., dim)``."""
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.ndim == 1:
        return unpack_bits(packed[None, :], dim)[0]
    if packed.ndim != 2:
        raise EncodingError("unpack_bits expects a 1-D or 2-D array")
    as_bytes = packed.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :dim]


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element population count (uint8) of a packed array (any shape)."""
    return np.bitwise_count(np.asarray(words, dtype=np.uint64))


def hamming_distance(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Hamming distance (int64) along the last axis of packed arrays.

    ``first`` and ``second`` broadcast against each other over their
    leading axes and must share the trailing ``words`` axis; the result
    has shape ``broadcast(first, second).shape[:-1]``.  This one XOR +
    popcount + reduce is what every Hamming kernel is built from.
    """
    first = np.asarray(first, dtype=np.uint64)
    second = np.asarray(second, dtype=np.uint64)
    if first.shape[-1:] != second.shape[-1:]:
        raise EncodingError(
            f"word-count mismatch: {first.shape[-1:]} vs {second.shape[-1:]}"
        )
    xor = np.bitwise_xor(first, second)
    return popcount(xor).sum(axis=-1, dtype=np.int64)


def csa_accumulate(rows: np.ndarray, capacity: int) -> np.ndarray:
    """Bit-sliced per-lane popcount over ``rows`` via carry-save adders.

    ``rows`` has shape ``(c, m, words)``: ``c`` packed hypervectors for each
    of ``m`` lanes-groups (e.g. the j-th peak of each of ``m`` spectra).
    Returns bit-planes ``(P, m, words)`` where plane ``k`` holds bit ``k``
    of the per-bit-position count of ones over the ``c`` rows — the count
    of lane ``d`` is ``sum_k 2**k * bit_d(planes[k])``.

    ``capacity`` must be an upper bound on any lane's count (usually ``c``);
    it sizes the plane stack so the top carry can never overflow.  All-zero
    rows contribute nothing, so callers may pad ragged groups with zeros.

    This is a vectorised Harley–Seal reduction: rows are folded eight at a
    time through a tree of carry-save adders (5 bitwise ops each), so the
    whole counting pass runs on packed uint64 words without ever expanding
    per-dimension bits — the word-level counterpart of summing unpacked
    bit matrices.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    if rows.ndim != 3:
        raise EncodingError("csa_accumulate expects a (c, m, words) array")
    c = rows.shape[0]
    if capacity < c:
        raise EncodingError(f"capacity {capacity} < row count {c}")
    planes_count = max(1, int(capacity).bit_length())
    planes = np.zeros(
        (planes_count,) + rows.shape[1:], dtype=np.uint64
    )
    m, words = rows.shape[1:]
    t1 = np.empty((m, words), dtype=np.uint64)
    t2 = np.empty((m, words), dtype=np.uint64)
    carry_a = np.empty((m, words), dtype=np.uint64)
    carry_b = np.empty((m, words), dtype=np.uint64)
    carry_c = np.empty((m, words), dtype=np.uint64)

    def csa(accumulator, x, y, carry_out):
        # accumulator <- accumulator ^ x ^ y;
        # carry_out   <- (accumulator & x) | ((accumulator ^ x) & y)
        np.bitwise_xor(accumulator, x, out=t1)
        np.bitwise_and(accumulator, x, out=t2)
        np.bitwise_and(t1, y, out=carry_out)
        np.bitwise_or(carry_out, t2, out=carry_out)
        np.bitwise_xor(t1, y, out=accumulator)

    def ripple(level, carry):
        # Half-add a carry of weight 2**level into the remaining planes.
        for k in range(level, planes_count):
            held = np.bitwise_and(planes[k], carry)
            np.bitwise_xor(planes[k], carry, out=planes[k])
            carry = held

    j = 0
    while j + 8 <= c:
        csa(planes[0], rows[j], rows[j + 1], carry_a)
        csa(planes[0], rows[j + 2], rows[j + 3], carry_b)
        csa(planes[1], carry_a, carry_b, carry_c)
        csa(planes[0], rows[j + 4], rows[j + 5], carry_a)
        csa(planes[0], rows[j + 6], rows[j + 7], carry_b)
        csa(planes[1], carry_a, carry_b, carry_a)
        csa(planes[2], carry_c, carry_a, carry_b)
        ripple(3, carry_b)
        j += 8
    while j + 2 <= c:
        csa(planes[0], rows[j], rows[j + 1], carry_a)
        ripple(1, carry_a)
        j += 2
    if j < c:
        ripple(0, rows[j])
    return planes


def planes_greater_than(
    planes: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Packed per-lane comparison ``count > threshold`` on CSA bit-planes.

    ``planes`` is the ``(P, m, words)`` output of :func:`csa_accumulate`;
    ``thresholds`` is a non-negative integer array of shape ``(m,)`` (one
    threshold per lane group, e.g. ``peak_count // 2`` per spectrum).
    Returns packed uint64 rows ``(m, words)`` whose bit ``d`` is 1 iff the
    count of lane ``d`` exceeds the row threshold — i.e. the majority
    vector, produced without ever materialising the counts.
    """
    planes = np.asarray(planes, dtype=np.uint64)
    if planes.ndim != 3:
        raise EncodingError("planes_greater_than expects (P, m, words)")
    planes_count, m, words = planes.shape
    thresholds = np.asarray(thresholds, dtype=np.int64)
    if thresholds.shape != (m,):
        raise EncodingError("thresholds must have shape (m,)")
    if thresholds.size and thresholds.min() < 0:
        raise EncodingError("thresholds must be non-negative")
    greater = np.zeros((m, words), dtype=np.uint64)
    equal = np.full((m, words), np.uint64(0xFFFF_FFFF_FFFF_FFFF))
    tmp = np.empty((m, words), dtype=np.uint64)
    # MSB-first lexicographic compare of the bit-sliced counts against the
    # per-row threshold bits (thresholds above the plane stack would mean
    # count <= threshold everywhere, which the loop handles naturally only
    # within the stack, so guard explicitly).
    high = np.right_shift(thresholds, planes_count)
    saturated = high > 0  # threshold needs more bits than any count has
    for k in range(planes_count - 1, -1, -1):
        threshold_bit = (
            np.right_shift(thresholds, k) & 1
        ).astype(np.uint64)[:, None] * np.uint64(0xFFFF_FFFF_FFFF_FFFF)
        # Rows with threshold bit 0: plane bit 1 makes the count greater.
        np.bitwise_and(equal, planes[k], out=tmp)
        np.bitwise_and(tmp, np.bitwise_not(threshold_bit), out=tmp)
        np.bitwise_or(greater, tmp, out=greater)
        # Stay "equal so far" only where plane bit matches threshold bit.
        np.bitwise_xor(planes[k], threshold_bit, out=tmp)
        np.bitwise_not(tmp, out=tmp)
        np.bitwise_and(equal, tmp, out=equal)
    if saturated.any():
        greater[saturated] = 0
    return greater


def extract_bit_columns(
    packed: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Gather individual bit positions out of a packed matrix.

    ``packed`` is ``(n, words)`` uint64 and ``positions`` holds bit
    indices in ``[0, words * 64)``; the result is an ``(n, len(positions))``
    uint8 0/1 matrix — column ``j`` is every row's bit at
    ``positions[j]``.  This is the sampling primitive of the bit-slice
    medoid index: transposing these columns (via :func:`pack_bits`) gives
    one packed bitmap over rows per sampled bit plane.
    """
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.ndim != 2:
        raise EncodingError("extract_bit_columns expects a 2-D packed matrix")
    positions = np.asarray(positions, dtype=np.int64)
    if positions.ndim != 1:
        raise EncodingError("positions must be a 1-D index array")
    if positions.size and (
        positions.min() < 0
        or positions.max() >= packed.shape[1] * WORD_BITS
    ):
        raise EncodingError("bit positions out of range for packed width")
    word_index = positions // WORD_BITS
    bit_index = (positions % WORD_BITS).astype(np.uint64)
    return (
        (packed[:, word_index] >> bit_index) & np.uint64(1)
    ).astype(np.uint8)


def counts_from_planes(
    planes: np.ndarray, lanes: int, dtype: type = np.int64
) -> np.ndarray:
    """Materialise per-lane integer counts from CSA bit-planes.

    ``planes`` is the ``(P, m, words)`` output of :func:`csa_accumulate`;
    the count of lane ``d`` in row ``g`` is ``sum_k 2**k * bit_d(planes[k, g])``.
    Returns a ``dtype`` matrix of shape ``(m, lanes)`` (padding bits
    beyond ``lanes`` in the last word are discarded).  ``dtype`` must be
    able to hold ``2**P - 1``; narrow types halve the accumulation
    traffic on large lane counts.
    """
    planes = np.ascontiguousarray(planes, dtype=np.uint64)
    if planes.ndim != 3:
        raise EncodingError("counts_from_planes expects (P, m, words) planes")
    if lanes < 0 or lanes > planes.shape[2] * WORD_BITS:
        raise EncodingError(f"lane count {lanes} out of range for planes")
    if (1 << planes.shape[0]) - 1 > np.iinfo(dtype).max:
        raise EncodingError(f"{np.dtype(dtype).name} cannot hold plane counts")
    counts = np.zeros((planes.shape[1], lanes), dtype=dtype)
    for level in range(planes.shape[0]):
        bits = unpack_bits(planes[level], lanes).astype(dtype)
        counts += bits << dtype(level)
    return counts


def random_hypervectors(
    count: int, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` i.i.d. uniform random packed hypervectors of ``dim`` bits."""
    bits = rng.integers(0, 2, size=(count, dim), dtype=np.uint8)
    return pack_bits(bits)


def flip_bits(
    packed: np.ndarray, positions: np.ndarray, dim: int
) -> np.ndarray:
    """Return a copy of a single packed vector with ``positions`` flipped."""
    packed = np.asarray(packed, dtype=np.uint64).copy()
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size and (positions.min() < 0 or positions.max() >= dim):
        raise EncodingError("flip positions out of range")
    for position in positions:
        word, bit = divmod(int(position), WORD_BITS)
        packed[word] ^= np.uint64(1) << np.uint64(bit)
    return packed


def majority_bundle(accumulator: np.ndarray, count: int) -> np.ndarray:
    """Point-wise majority over ``count`` accumulated ±0/1 sums.

    ``accumulator`` holds, per dimension, the number of ones accumulated
    over ``count`` bound hypervectors.  A dimension becomes 1 when strictly
    more than half of the contributions were 1; exact ties (even ``count``)
    break toward 0, matching the FPGA's threshold comparator
    ``acc > count >> 1``.
    """
    if count < 1:
        raise EncodingError(f"majority over {count} items is undefined")
    return (accumulator * 2 > count).astype(np.uint8)
