"""Columnar query answers: :class:`MatchTable` and the one top-k merge.

A query answer is ragged — one list of matches per query row — and it
used to travel as nested Python lists of :class:`ClusterMatch` objects,
rebuilt at every hop.  :class:`MatchTable` keeps it as a struct of
arrays instead, in the layout the wire protocol's ``matches`` payload
already uses: per-row match counts, one ``(matches, 6)`` int64 block
(:data:`INT_FIELDS`), one ``(matches, 2)`` float64 block
(:data:`FLOAT_FIELDS`) and the medoid identifiers as UTF-8 bytes.  The
shard scan gathers it, :func:`merge_topk` ranks it, the daemon attaches
its arrays to the response frame and the client copies them back out —
no per-match Python object anywhere on that path.

The table is still a ``Sequence`` of rows of :class:`ClusterMatch`:
``table[i][j]`` and iteration build the objects on demand, and ``==``
accepts the historical list-of-lists form, so callers that want objects
(the CLI, examples, tests) see what they always saw.

Identifiers are addressed, not packed: match ``i`` is
``id_blob[id_starts[i] : id_starts[i] + id_lengths[i]]`` and the blob
may hold more than the table uses, so gathering matches out of a
shard's medoid table moves integers only.  The bytes are packed into
the wire's contiguous order once, by :meth:`MatchTable.wire_columns`.

Tables are immutable by convention: slices share memory with their
parent, and a table built by the query service shares its identifier
blob with the service's per-version medoid tables.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ClusterMatch:
    """One query hit: a cluster, addressed globally and per shard."""

    global_label: int
    shard_id: int
    local_label: int
    distance: int
    normalized_distance: float
    cluster_size: int
    medoid_identifier: str
    medoid_precursor_mz: float
    medoid_charge: int


#: Column order of :attr:`MatchTable.ints` (and the wire's ``i`` payload).
INT_FIELDS = (
    "global_label",
    "shard_id",
    "local_label",
    "distance",
    "cluster_size",
    "medoid_charge",
)

#: Column order of :attr:`MatchTable.floats` (and the wire's ``f`` payload).
FLOAT_FIELDS = ("normalized_distance", "medoid_precursor_mz")

_SHARD, _LABEL, _DISTANCE = (
    INT_FIELDS.index(name) for name in ("shard_id", "local_label", "distance")
)
_NORMALIZED = FLOAT_FIELDS.index("normalized_distance")


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the ragged ranges ``[start, start + length)``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


class MatchTable(SequenceABC):
    """Per-query top-k matches as flat columns; rows materialise lazily.

    ``counts[i]`` matches belong to row ``i``, stored consecutively in
    ``ints`` / ``floats`` / ``id_lengths`` / ``id_starts``.
    """

    __slots__ = (
        "counts",
        "ints",
        "floats",
        "id_lengths",
        "id_starts",
        "id_blob",
        "_offsets",
    )

    def __init__(
        self,
        counts: np.ndarray,
        ints: np.ndarray,
        floats: np.ndarray,
        id_lengths: np.ndarray,
        id_starts: np.ndarray,
        id_blob: np.ndarray,
    ) -> None:
        self.counts = counts
        self.ints = ints
        self.floats = floats
        self.id_lengths = id_lengths
        self.id_starts = id_starts
        self.id_blob = id_blob
        self._offsets = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_columns(cls, counts, ints, floats, id_lengths, id_bytes):
        """A table over the wire layout: identifiers packed in match order.

        Shares the given arrays; validating them is the caller's job.
        """
        id_lengths = np.asarray(id_lengths, dtype=np.int64)
        return cls(
            np.asarray(counts, dtype=np.int64),
            np.asarray(ints, dtype=np.int64),
            np.asarray(floats, dtype=np.float64),
            id_lengths,
            np.cumsum(id_lengths) - id_lengths,
            np.frombuffer(id_bytes, dtype=np.uint8),
        )

    @classmethod
    def from_fields(
        cls, counts: Sequence[int], identifiers: Sequence[str], **fields
    ) -> "MatchTable":
        """A table from one flat sequence per :class:`ClusterMatch` field."""
        ints = np.empty((len(identifiers), len(INT_FIELDS)), dtype=np.int64)
        for column, name in enumerate(INT_FIELDS):
            ints[:, column] = fields[name]
        floats = np.empty(
            (len(identifiers), len(FLOAT_FIELDS)), dtype=np.float64
        )
        for column, name in enumerate(FLOAT_FIELDS):
            floats[:, column] = fields[name]
        encoded = [str(text).encode("utf-8") for text in identifiers]
        return cls.from_columns(
            counts, ints, floats, [len(b) for b in encoded], b"".join(encoded)
        )

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[ClusterMatch]]
    ) -> "MatchTable":
        """A table from the list-of-lists-of-:class:`ClusterMatch` form."""
        flat = [match for row in rows for match in row]
        return cls.from_fields(
            [len(row) for row in rows],
            [match.medoid_identifier for match in flat],
            **{
                name: [getattr(match, name) for match in flat]
                for name in INT_FIELDS + FLOAT_FIELDS
            },
        )

    @classmethod
    def empty(cls, rows: int) -> "MatchTable":
        """``rows`` rows without a single match."""
        return cls.from_fields(
            np.zeros(rows, dtype=np.int64),
            [],
            **{name: [] for name in INT_FIELDS + FLOAT_FIELDS},
        )

    # ------------------------------------------------------------------
    # Columnar operations (no ClusterMatch is built by any of these)
    # ------------------------------------------------------------------

    def take(self, matches: np.ndarray, counts: np.ndarray) -> "MatchTable":
        """The table of flat match indices ``matches`` split by ``counts``.

        Owns its int/float columns and shares the identifier blob.
        """
        return MatchTable(
            counts,
            self.ints.take(matches, axis=0),
            self.floats.take(matches, axis=0),
            self.id_lengths.take(matches),
            self.id_starts.take(matches),
            self.id_blob,
        )

    def scored(
        self, ordinals: np.ndarray, distances: np.ndarray, dim: int
    ) -> "MatchTable":
        """One shard scan as a table: row ``j`` holds the matches at
        ``ordinals[j]`` of this (shard medoid) table, with their
        ``distances[j]`` and ``distances[j] / dim`` filled in."""
        num_queries, keep = ordinals.shape
        table = self.take(
            ordinals.ravel(), np.full(num_queries, keep, dtype=np.int64)
        )
        table.ints[:, _DISTANCE] = distances.ravel()
        table.floats[:, _NORMALIZED] = distances.ravel() / float(dim)
        return table

    def _row_offsets(self) -> np.ndarray:
        if self._offsets is None:
            self._offsets = np.concatenate(([0], np.cumsum(self.counts)))
        return self._offsets

    def head(self, k: int) -> "MatchTable":
        """Every row trimmed to its first ``k`` matches."""
        kept = np.minimum(self.counts, max(int(k), 0))
        if np.array_equal(kept, self.counts):
            return self
        return self.take(_ranges(self._row_offsets()[:-1], kept), kept)

    def scattered(self, positions: Sequence[int], size: int) -> "MatchTable":
        """These rows placed at ascending ``positions`` of a ``size``-row
        table, every other row empty — how spectrum queries keep result
        positions aligned with inputs that failed QC."""
        counts = np.zeros(size, dtype=np.int64)
        counts[np.asarray(positions, dtype=np.int64)] = self.counts
        return MatchTable(
            counts,
            self.ints,
            self.floats,
            self.id_lengths,
            self.id_starts,
            self.id_blob,
        )

    def wire_columns(self) -> Tuple[np.ndarray, ...]:
        """``(counts, ints, floats, id_lengths, id_bytes)`` in the wire's
        ``n`` / ``i`` / ``f`` / ``idn`` / ``id`` layout: little-endian,
        contiguous, identifier bytes packed in match order."""
        packed = self.id_blob[_ranges(self.id_starts, self.id_lengths)]
        return (
            np.ascontiguousarray(self.counts, dtype="<i8"),
            np.ascontiguousarray(self.ints, dtype="<i8"),
            np.ascontiguousarray(self.floats, dtype="<f8"),
            np.ascontiguousarray(self.id_lengths, dtype="<i8"),
            packed,
        )

    # ------------------------------------------------------------------
    # The Sequence-of-rows view
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.counts.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            rows = range(*index.indices(len(self)))
            offsets = self._row_offsets()
            if rows.step == 1:
                stop = max(rows.stop, rows.start)
                lo, hi = int(offsets[rows.start]), int(offsets[stop])
                return MatchTable(
                    self.counts[rows.start : stop],
                    self.ints[lo:hi],
                    self.floats[lo:hi],
                    self.id_lengths[lo:hi],
                    self.id_starts[lo:hi],
                    self.id_blob,
                )
            picked = np.asarray(rows, dtype=np.int64)
            counts = self.counts[picked]
            return self.take(_ranges(offsets[picked], counts), counts)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("MatchTable row index out of range")
        return MatchRow(self, index)

    def __iter__(self) -> Iterator["MatchRow"]:
        return (MatchRow(self, index) for index in range(len(self)))

    def __eq__(self, other) -> bool:
        if isinstance(other, MatchTable):
            ours, theirs = self.wire_columns(), other.wire_columns()
            return all(np.array_equal(a, b) for a, b in zip(ours, theirs))
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                row == theirs for row, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"MatchTable(rows={len(self)}, matches={self.ints.shape[0]})"
        )

    def _identifiers(self, lo: int, hi: int) -> List[str]:
        blob = memoryview(self.id_blob)
        return [
            str(blob[start : start + length], "utf-8")
            for start, length in zip(
                self.id_starts[lo:hi].tolist(), self.id_lengths[lo:hi].tolist()
            )
        ]

    def _matches(self, lo: int, hi: int) -> List[ClusterMatch]:
        """Materialise flat matches ``[lo, hi)`` — the API/CLI edge."""
        return [
            ClusterMatch(gl, sh, ll, di, nd, cs, identifier, mz, mc)
            for (gl, sh, ll, di, cs, mc), (nd, mz), identifier in zip(
                self.ints[lo:hi].tolist(),
                self.floats[lo:hi].tolist(),
                self._identifiers(lo, hi),
            )
        ]


class MatchRow(SequenceABC):
    """One query's matches: a lazy view of a :class:`MatchTable` row."""

    __slots__ = ("_table", "_index")

    def __init__(self, table: MatchTable, index: int) -> None:
        self._table = table
        self._index = index

    def __len__(self) -> int:
        return int(self._table.counts[self._index])

    def _span(self) -> range:
        offsets = self._table._row_offsets()
        return range(int(offsets[self._index]), int(offsets[self._index + 1]))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        picked = self._span()[index]
        return self._table._matches(picked, picked + 1)[0]

    def __iter__(self) -> Iterator[ClusterMatch]:
        span = self._span()
        return iter(self._table._matches(span.start, span.stop))

    def __eq__(self, other) -> bool:
        if isinstance(other, (MatchRow, list, tuple)):
            return len(other) == len(self) and list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


def merge_topk(tables: Iterable[MatchTable], k: int) -> MatchTable:
    """Row-wise union of ``tables`` trimmed to each row's ``k`` best.

    *The* result order of the whole stack — ascending ``(distance,
    shard_id, local_label)`` — is written here and nowhere else: the
    query service merges its per-shard candidates with it and the fleet
    router merges its per-node partial answers with it.  Shards own
    disjoint clusters, so the key is total, and the top-k of a union of
    per-shard top-k lists is the top-k of the union — merging any
    partition of the shard set gives the same bytes as one scan of all
    of it.
    """
    tables = list(tables)
    rows = len(tables[0])
    if any(len(table) != rows for table in tables):
        raise ValueError("merge_topk needs tables with equal row counts")
    base = 0
    starts = []
    for table in tables:
        starts.append(table.id_starts + base)
        base += table.id_blob.shape[0]
    stacked = MatchTable(
        np.sum([table.counts for table in tables], axis=0),
        np.concatenate([table.ints for table in tables]),
        np.concatenate([table.floats for table in tables]),
        np.concatenate([table.id_lengths for table in tables]),
        np.concatenate(starts),
        np.concatenate([table.id_blob for table in tables]),
    )
    row = np.concatenate(
        [np.repeat(np.arange(rows), table.counts) for table in tables]
    )
    keys = [stacked.ints[:, c] for c in (_LABEL, _SHARD, _DISTANCE)] + [row]
    spans = [int(key.max()) + 1 for key in keys] if row.size else []
    if (
        spans
        and min(int(key.min()) for key in keys) >= 0
        and math.prod(spans) < 2**63
    ):
        # The keys fit one int64: a single introsort of the packed key
        # is ~9x faster than the lexsort it stands in for.
        packed = row
        for key, span in zip(keys[2::-1], spans[2::-1]):
            packed = packed * span + key
        order = np.argsort(packed)
    else:
        order = np.lexsort(keys)
    kept = np.minimum(stacked.counts, max(int(k), 0))
    return stacked.take(
        order[_ranges(stacked._row_offsets()[:-1], kept)], kept
    )
