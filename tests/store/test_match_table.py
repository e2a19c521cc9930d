"""Pins for the columnar query answer: ``MatchTable`` + ``merge_topk``.

One representation travels from the shard scan to the client, and one
merge orders it.  These properties hold that single path to the three
things it replaced, on tie-heavy inputs where any slip in the
``(distance, shard, label)`` order would surface:

* ``merge_topk`` over *any* partition of the shard set is the
  unrestricted ``query_vectors`` table and the per-candidate reference
  rows — the scatter-gather contract the fleet router rides;
* the coalescer's split (``table[a:b]``) and per-caller trim
  (``head(k)``) are a solo pass;
* a table sent over the wire decodes to the table.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hdc import EncoderConfig, random_hypervectors
from repro.io.hvstore import HypervectorStore
from repro.service import protocol
from repro.store import (
    ClusterMatch,
    ClusterRepository,
    MatchTable,
    QueryService,
    RepositoryConfig,
    merge_topk,
)
from repro.testing import oracles

NUM_SHARDS = 4


@pytest.fixture(scope="module")
def tie_heavy(tmp_path_factory):
    """Four shards of clusters that share eight medoid hypervectors, so
    every query ties across shards and labels; identifiers mix ASCII
    with multi-byte UTF-8."""
    config = RepositoryConfig(
        num_shards=NUM_SHARDS,
        shard_width=1,
        encoder=EncoderConfig(dim=256, mz_bins=4_000, intensity_levels=16),
        cluster_threshold=0.3,
    )
    directory = tmp_path_factory.mktemp("match-table") / "repo"
    repository = ClusterRepository.create(directory, config)
    rng = np.random.default_rng(7)
    distinct = random_hypervectors(8, 256, rng)
    store = HypervectorStore(
        vectors=distinct[np.arange(64) % 8],
        precursor_mz=np.array([300.0 + 0.7 * i for i in range(64)]),
        charge=np.full(64, 2, dtype=np.int16),
        labels=np.full(64, -1, dtype=np.int64),
        identifiers=[f"m{i}" if i % 3 else f"µ{i}-é" for i in range(64)],
        dim=256,
        encoder_seed=config.encoder.seed,
    )
    repository.add_store(store)
    queries = np.vstack([distinct, random_hypervectors(6, 256, rng)])
    service = QueryService(repository)
    yield service, queries
    service.close()
    repository.close()


class _FrameSocket:
    """``recv_into`` over one in-memory frame."""

    def __init__(self, frame: bytes) -> None:
        self._frame = memoryview(frame)

    def recv_into(self, view) -> int:
        count = min(view.nbytes, self._frame.nbytes)
        view[:count] = self._frame[:count]
        self._frame = self._frame[count:]
        return count


def over_the_wire(table):
    frame = protocol.encode_frame(
        protocol.attach_matches({"status": "ok"}, table)
    )
    message = protocol.FrameReceiver().recv_message(_FrameSocket(frame))
    return protocol.extract_matches(message)


def as_lists(table):
    return [list(row) for row in table]


def _key(match):
    return match.distance, match.shard_id, match.local_label


def sorted_union(tables, k):
    """The merge written the slow way: per-row Python sort of objects."""
    merged = []
    for rows in zip(*tables):
        pool = [match for row in rows for match in row]
        pool.sort(key=_key)
        merged.append(pool[:k])
    return merged


queries_and_k = st.tuples(
    st.lists(st.integers(0, 13), min_size=1, max_size=9), st.integers(1, 70)
)


class TestMergeIsPartitionInvariant:
    @given(
        picks=queries_and_k,
        groups=st.lists(
            st.integers(0, NUM_SHARDS - 1),
            min_size=NUM_SHARDS,
            max_size=NUM_SHARDS,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_shard_partition_merges_to_the_full_scan(
        self, tie_heavy, picks, groups
    ):
        service, queries = tie_heavy
        rows, k = picks
        vectors = queries[rows]
        partition = [
            [shard for shard, group in enumerate(groups) if group == g]
            for g in sorted(set(groups))
        ]
        partials = [
            service.query_vectors(vectors, k, shards=shards)
            for shards in partition
        ]
        full = service.query_vectors(vectors, k)
        merged = merge_topk(partials, k)
        assert merged == full
        assert merged == oracles.query_matches(service, vectors, k)
        assert as_lists(merged) == sorted_union(partials, k)

    @given(picks=queries_and_k, trim=st.integers(0, 70))
    @settings(max_examples=40, deadline=None)
    def test_head_is_the_per_row_prefix(self, tie_heavy, picks, trim):
        service, queries = tie_heavy
        rows, k = picks
        table = service.query_vectors(queries[rows], k)
        assert table.head(trim) == [row[:trim] for row in as_lists(table)]
        assert table.head(trim) == service.query_vectors(
            queries[rows], min(k, trim)
        )

    @given(
        picks=queries_and_k,
        cut=st.tuples(st.integers(0, 9), st.integers(0, 9)),
        k=st.integers(1, 70),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_slice_of_a_coalesced_pass_is_a_solo_pass(
        self, tie_heavy, picks, cut, k
    ):
        service, queries = tie_heavy
        rows, k_max = picks
        start, stop = sorted(cut)
        coalesced = service.query_vectors(queries[rows], max(k, k_max))
        solo = service.query_vectors(queries[rows[start:stop]], k)
        assert coalesced[start:stop].head(k) == solo
        assert len(coalesced[start:stop]) == len(rows[start:stop])


@st.composite
def answers(draw):
    """One to three synthetic answers over the same rows: tie-heavy keys
    (unique, as disjoint shards guarantee), labels that sometimes leave
    the packed-key fast path, arbitrary unicode identifiers."""
    wide = draw(st.booleans())
    matches = draw(
        st.lists(
            st.builds(
                ClusterMatch,
                global_label=st.integers(0, 2**40),
                shard_id=st.integers(0, 3),
                local_label=(
                    st.integers(0, 2**61) if wide else st.integers(-5, 5)
                ),
                distance=st.integers(0, 4),
                normalized_distance=st.floats(0, 1),
                cluster_size=st.integers(1, 500),
                medoid_identifier=st.text(max_size=6),
                medoid_precursor_mz=st.floats(200, 2000),
                medoid_charge=st.integers(1, 6),
            ),
            max_size=24,
            unique_by=_key,
        )
    )
    num_rows = draw(st.integers(0, 4))
    tables = [
        [[] for _ in range(num_rows)] for _ in range(draw(st.integers(1, 3)))
    ]
    for match in matches if num_rows else ():
        table = tables[draw(st.integers(0, len(tables) - 1))]
        table[draw(st.integers(0, num_rows - 1))].append(match)
    return tables


class TestTableAgainstListForm:
    @given(answers=answers(), k=st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_merge_equals_the_python_sort(self, answers, k):
        tables = [MatchTable.from_rows(rows) for rows in answers]
        assert merge_topk(tables, k) == sorted_union(answers, k)

    @given(answers=answers())
    @settings(max_examples=100, deadline=None)
    def test_the_wire_round_trips_the_table(self, answers):
        rows = answers[0]
        table = MatchTable.from_rows(rows)
        assert table == rows
        assert as_lists(table) == rows
        decoded = over_the_wire(table)
        assert isinstance(decoded, MatchTable)
        assert decoded == table
        assert decoded == rows

    def test_a_served_table_round_trips(self, tie_heavy):
        service, queries = tie_heavy
        table = service.query_vectors(queries, 20)
        rows = as_lists(table)
        assert MatchTable.from_rows(rows) == table
        assert over_the_wire(table) == table == rows

    def test_equality_with_lists(self, tie_heavy):
        service, queries = tie_heavy
        assert MatchTable.empty(0) == []
        assert MatchTable.empty(2) == [[], []]
        assert MatchTable.empty(2) != [[]]
        assert MatchTable.empty(0) == MatchTable.from_rows([])
        assert service.query_vectors(queries[:0], 3) == []
        assert service.query_vectors(queries[:2], 0) == [[], []]
        table = service.query_vectors(queries[:3], 4)
        rows = as_lists(table)
        assert table == rows and rows == table
        assert not (table != rows)
        assert table != rows[:2]
        assert table != [rows[0], rows[1], rows[2][:3]]
        assert table[1] == rows[1] and table[1] != rows[2]
        assert table[1] != []
        assert table != "results"

    def test_sequence_protocol(self, tie_heavy):
        service, queries = tie_heavy
        table = service.query_vectors(queries[:5], 6)
        rows = as_lists(table)
        assert len(table) == 5 and [len(row) for row in table] == [6] * 5
        assert table[-1] == rows[-1]
        assert table[::2] == rows[::2] and table[::-1] == rows[::-1]
        assert table[3:1] == []
        assert table[2][1] == rows[2][1] and table[2][-1] == rows[2][-1]
        assert table[2][1:4] == rows[2][1:4]
        assert table[2][::-2] == rows[2][::-2]
        with pytest.raises(IndexError):
            table[5]
        with pytest.raises(IndexError):
            table[0][6]
        first, *_rest = table
        assert isinstance(first[0], ClusterMatch)
        assert repr(table[0]) == repr(rows[0])

    def test_scattered_leaves_the_other_rows_empty(self, tie_heavy):
        service, queries = tie_heavy
        table = service.query_vectors(queries[:2], 3)
        spread = table.scattered([1, 3], 5)
        assert spread == [[], list(table[0]), [], list(table[1]), []]
        assert MatchTable.empty(0).scattered([], 2) == [[], []]

    def test_merge_rejects_misaligned_tables(self):
        with pytest.raises(ValueError, match="equal row counts"):
            merge_topk([MatchTable.empty(1), MatchTable.empty(2)], 3)
