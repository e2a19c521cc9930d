"""Property-based pins for the batched query engine.

Two invariants back the serving path's exactness story:

* :func:`repro.hdc.hamming_cross` over the word-major reference matrix
  is the batched twin of :func:`repro.hdc.hamming_to_query` — equal on
  every row, for every shape including empty and single-row matrices;
* the bit-slice medoid index is a *pruner, not an approximator*: its
  candidate set always contains the exact brute-force top-k, and its
  ``topk`` output is byte-identical to the dense scan, across probe
  settings from a single sampled plane up to more planes than
  dimensions.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hdc import hamming_cross, hamming_to_query, random_hypervectors
from repro.store import BitSliceMedoidIndex, batched_topk


@st.composite
def packed_pairs(draw):
    """Two packed matrices over a shared word width (possibly empty)."""
    words = draw(st.integers(1, 4))
    num_queries = draw(st.integers(0, 7))
    num_refs = draw(st.integers(0, 9))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    shape = (num_queries + num_refs, words)
    stacked = rng.integers(
        0, np.iinfo(np.uint64).max, size=shape, dtype=np.uint64,
        endpoint=True,
    )
    return stacked[:num_queries], stacked[num_queries:]


@st.composite
def index_workloads(draw):
    """A medoid matrix (with engineered ties), queries, k and probe bits."""
    dim = draw(st.sampled_from([64, 128, 256]))
    count = draw(st.integers(1, 80))
    num_queries = draw(st.integers(1, 6))
    k = draw(st.integers(1, 12))
    probe_bits = draw(st.sampled_from([1, 4, 32, 96, 128, 256, 300]))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    vectors = random_hypervectors(count, dim, rng)
    if count >= 3:
        # Duplicate rows force distance ties, the hard case for the
        # (distance, ordinal) order the index must reproduce exactly.
        vectors[count // 2] = vectors[0]
        vectors[count - 1] = vectors[0]
    queries = random_hypervectors(num_queries, dim, rng)
    queries[0] = vectors[rng.integers(count)]  # at least one exact hit
    return vectors, queries, dim, k, probe_bits


class TestHammingCrossEquivalence:
    @given(pair=packed_pairs())
    @settings(max_examples=120, deadline=None)
    def test_equals_stacked_query_rows(self, pair):
        queries, refs = pair
        cross = hamming_cross(queries, refs.T)
        assert cross.shape == (queries.shape[0], refs.shape[0])
        expected = np.zeros(cross.shape, dtype=np.int64)
        for row, query in enumerate(queries):
            expected[row] = hamming_to_query(refs, query)
        np.testing.assert_array_equal(cross, expected)

    @given(pair=packed_pairs(), block_rows=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_blocking_is_invisible(self, pair, block_rows):
        queries, refs = pair
        np.testing.assert_array_equal(
            hamming_cross(queries, refs.T, block_rows=block_rows),
            hamming_cross(queries, refs.T),
        )


class TestBitSliceIndexExactness:
    @given(workload=index_workloads())
    @settings(max_examples=80, deadline=None)
    def test_candidates_contain_brute_force_topk(self, workload):
        vectors, queries, dim, k, probe_bits = workload
        index = BitSliceMedoidIndex.build(vectors, dim, probe_bits=probe_bits)
        brute_ids, _ = batched_topk(hamming_cross(queries, vectors.T), k)
        mask = index.candidate_mask(vectors, queries, k)
        for query in range(queries.shape[0]):
            assert mask[query, brute_ids[query]].all(), (
                "candidate set dropped an exact top-k medoid"
            )

    @given(workload=index_workloads())
    @settings(max_examples=80, deadline=None)
    def test_topk_identical_to_dense_scan(self, workload):
        vectors, queries, dim, k, probe_bits = workload
        index = BitSliceMedoidIndex.build(vectors, dim, probe_bits=probe_bits)
        brute_ids, brute_distances = batched_topk(
            hamming_cross(queries, vectors.T), k
        )
        indexed_ids, indexed_distances = index.topk(vectors, queries, k)
        np.testing.assert_array_equal(indexed_ids, brute_ids)
        np.testing.assert_array_equal(indexed_distances, brute_distances)
