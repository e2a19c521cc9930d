"""Batched top-k nearest-cluster queries against a repository's shards.

Serving mirrors ingest's independence argument: every shard owns a
disjoint set of clusters, so a query batch is encoded once and fanned out
across shards — each fan-out task scans one shard's medoid matrix for the
*whole batch at once* (one :func:`repro.hdc.hamming_cross` pass plus an
``argpartition``-based top-k, optionally pruned by the shard's exact
:class:`~repro.store.index.BitSliceMedoidIndex`), the scan's ordinals
gather a per-shard :class:`~repro.store.matches.MatchTable` out of the
shard's medoid columns, and :func:`~repro.store.matches.merge_topk` —
the same merge the fleet router runs over per-node answers — ranks the
per-shard tables into the answer.  No per-match object is built.

The fan-out reuses the :mod:`repro.execution` backends via a persistent
:class:`~repro.execution.ExecutionPool`.  Small batches and single-shard
repositories skip the pool entirely and scan inline — a serving path
issues many small fan-outs, and for those the dispatch overhead would
dominate the scan.  On the ``processes`` backend the (large, unchanging)
medoid matrices are not re-pickled per fan-out: each repository version's
shard snapshots are written to disk once and workers cache them by path,
so only the query batch crosses the process boundary per call.

The PR 2 per-query scan and per-candidate merge are retained as
:func:`_shard_topk_reference` / :meth:`QueryService.query_vectors_reference`
— the oracle the batched engine is pinned byte-identical to, and the
baseline the query-engine benchmark measures against.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..execution import ExecutionPool
from ..hdc import hamming_cross, hamming_to_query
from ..spectrum import MassSpectrum, preprocess_spectrum
from .index import (
    DEFAULT_MIN_MEDOIDS,
    DEFAULT_PROBE_BITS,
    BitSliceMedoidIndex,
    batched_topk,
)
from .matches import ClusterMatch, MatchTable, merge_topk
from .repository import ClusterRepository


@dataclass
class _ShardIndex:
    """A snapshot of one shard's medoids, ready for scanning."""

    shard_id: int
    local_labels: List[int]
    medoid_vectors: np.ndarray
    #: One row holding every medoid in ``local_labels`` order at distance
    #: 0 — the columns a scan's ordinals gather their matches out of.
    medoids: MatchTable
    bitslice: Optional[BitSliceMedoidIndex] = None
    snapshot_path: Optional[str] = None


#: Worker-side cache of shard snapshots loaded from disk, keyed by file
#: path.  Paths embed the repository version, so an entry never changes
#: once written.  The cache is bounded two ways: loading a shard evicts
#: every cached copy of the *same shard* from superseded versions (a
#: long-lived worker under a checkpointing daemon would otherwise hold
#: one full medoid matrix per checkpoint it ever served), and a FIFO
#: limit backstops pathological many-shard layouts.
_SNAPSHOT_CACHE: Dict[str, Tuple[np.ndarray, Optional[BitSliceMedoidIndex]]] = {}
_SNAPSHOT_CACHE_LIMIT = 64


def _evict_superseded_snapshots(path: str) -> None:
    """Drop cached copies of ``path``'s shard from other versions.

    Snapshot files are named ``<dir>/shard-NNNN-v<version>.npz``; any
    cached key sharing the directory and shard stem but not the exact
    path belongs to a version this load supersedes (the writer only ever
    advances versions).
    """
    directory, name = os.path.split(path)
    stem = name.split("-v", 1)[0]
    prefix = os.path.join(directory, stem + "-v")
    stale = [
        key
        for key in _SNAPSHOT_CACHE
        if key != path and key.startswith(prefix)
    ]
    for key in stale:
        del _SNAPSHOT_CACHE[key]


def _load_shard_snapshot(
    path: str,
) -> Tuple[np.ndarray, Optional[BitSliceMedoidIndex]]:
    """Load (and cache) one shard snapshot written by the query service."""
    cached = _SNAPSHOT_CACHE.get(path)
    if cached is not None:
        return cached
    with np.load(path, allow_pickle=False) as archive:
        vectors = archive["vectors"].astype(np.uint64)
        index: Optional[BitSliceMedoidIndex] = None
        if bool(archive["has_index"][0]):
            index = BitSliceMedoidIndex(
                dim=int(archive["index_dim"][0]),
                count=int(vectors.shape[0]),
                positions=archive["index_positions"].astype(np.int64),
                planes=archive["index_planes"].astype(np.uint64),
            )
    _evict_superseded_snapshots(path)
    while len(_SNAPSHOT_CACHE) >= _SNAPSHOT_CACHE_LIMIT:
        _SNAPSHOT_CACHE.pop(next(iter(_SNAPSHOT_CACHE)))
    _SNAPSHOT_CACHE[path] = (vectors, index)
    return vectors, index


def _topk_for_shard(
    medoid_vectors: np.ndarray,
    bitslice: Optional[BitSliceMedoidIndex],
    query_vectors: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One shard's batched exact top-k: indexed when available, else dense."""
    if bitslice is not None:
        return bitslice.topk(medoid_vectors, query_vectors, k)
    return batched_topk(hamming_cross(query_vectors, medoid_vectors), k)


def _shard_topk_task(task: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """Scan one shard's medoid matrix for a whole query batch.

    ``task`` is either ``("arrays", medoid_vectors, bitslice, queries, k)``
    or ``("snapshot", path, queries, k)`` — the latter ships only a file
    path to ``processes`` workers, which load and cache the medoid
    snapshot once per repository version.  Returns ``(indices,
    distances)`` where row ``j`` holds query ``j``'s ``min(k, count)``
    nearest medoid ordinals and Hamming distances, ascending by
    ``(distance, ordinal)``.  Top-level by design: the ``processes``
    backend pickles it.
    """
    if task[0] == "snapshot":
        _, path, query_vectors, k = task
        medoid_vectors, bitslice = _load_shard_snapshot(path)
    else:
        _, medoid_vectors, bitslice, query_vectors, k = task
    return _topk_for_shard(medoid_vectors, bitslice, query_vectors, k)


def _shard_topk_reference(
    medoid_vectors: np.ndarray, query_vectors: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The PR 2 per-query shard scan, retained as the batched path's oracle.

    Iterates queries in Python and full-sorts every scan with ``lexsort``;
    :func:`_shard_topk_task` is pinned byte-identical to this by
    ``tests/store/test_query_engine.py``.
    """
    count = medoid_vectors.shape[0]
    keep = min(k, count)
    indices = np.zeros((query_vectors.shape[0], keep), dtype=np.int64)
    distances = np.zeros((query_vectors.shape[0], keep), dtype=np.int64)
    for j in range(query_vectors.shape[0]):
        row = hamming_to_query(medoid_vectors, query_vectors[j])
        order = np.lexsort((np.arange(count), row))[:keep]
        indices[j] = order
        distances[j] = row[order]
    return indices, distances


class QueryService:
    """Batch top-k nearest-cluster queries over repository cluster state.

    Parameters
    ----------
    repository:
        The read source: a live :class:`ClusterRepository` *or* a pinned
        :class:`~repro.store.snapshot.RepositorySnapshot` — the service
        only consumes the shared read surface (``shard``/``version``/
        ``global_label``/``cached_query_index``/``manifest``/
        ``encoder``).  Over a snapshot the scan state is built once and
        never refreshed (a snapshot's version is frozen), which is the
        zero-lock serving path the cluster daemon uses while ingest and
        checkpoints proceed underneath.
    execution_backend, num_workers:
        How shard scans are fanned out (see :mod:`repro.execution`).  All
        backends return identical results.
    pool:
        An externally owned :class:`~repro.execution.ExecutionPool` to
        fan out on instead of creating one.  The caller keeps ownership:
        :meth:`close` leaves it running, so a daemon can swap query
        services per snapshot without respawning process workers.
    use_index:
        ``None`` (default) enables the bit-slice medoid index for shards
        with at least ``index_min_medoids`` medoids; ``True`` forces it
        on for every populated shard, ``False`` disables it.  Indexed
        and dense scans return identical results — the index only prunes.
    probe_bits, index_min_medoids:
        Index parameters; default to the repository manifest's
        ``query_index`` settings.
    inline_batch_threshold:
        Batches at most this large are scanned inline (no pool dispatch);
        single-shard repositories always scan inline.
    """

    def __init__(
        self,
        repository: ClusterRepository,
        execution_backend: str = "serial",
        num_workers: Optional[int] = None,
        use_index: Optional[bool] = None,
        probe_bits: Optional[int] = None,
        index_min_medoids: Optional[int] = None,
        inline_batch_threshold: int = 8,
        pool: Optional[ExecutionPool] = None,
    ) -> None:
        self.repository = repository
        self._own_pool = pool is None
        self._pool = (
            pool
            if pool is not None
            else ExecutionPool(execution_backend, num_workers)
        )
        defaults = repository.manifest.query_index
        self._use_index = use_index
        self._probe_bits = int(
            probe_bits
            if probe_bits is not None
            else defaults.get("probe_bits", DEFAULT_PROBE_BITS)
        )
        self._index_min_medoids = int(
            index_min_medoids
            if index_min_medoids is not None
            else defaults.get("min_medoids", DEFAULT_MIN_MEDOIDS)
        )
        if self._probe_bits < 1:
            raise ValueError("probe_bits must be >= 1")
        if self._index_min_medoids < 1:
            raise ValueError("index_min_medoids must be >= 1")
        self.inline_batch_threshold = int(inline_batch_threshold)
        self._indexed_version: Optional[int] = None
        self._indexes: List[_ShardIndex] = []
        self._snapshot_dir: Optional[str] = None

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------

    def _want_index(self, medoid_count: int) -> bool:
        if self._use_index is False or medoid_count == 0:
            return False
        if self._use_index is True:
            return True
        return medoid_count >= self._index_min_medoids

    def _shard_bitslice(
        self, shard_id: int, vectors: np.ndarray
    ) -> Optional[BitSliceMedoidIndex]:
        """The shard's bit-slice index: checkpoint-cached or built fresh."""
        count = vectors.shape[0]
        if not self._want_index(count):
            return None
        dim = self.repository.encoder.dim
        cached = self.repository.cached_query_index(shard_id)
        if (
            cached is not None
            and cached.count == count
            and cached.dim == dim
            and cached.probe_bits == min(self._probe_bits, dim)
        ):
            return cached
        return BitSliceMedoidIndex.build(
            vectors, dim, probe_bits=self._probe_bits
        )

    def _refresh_indexes(self) -> None:
        """Rebuild the medoid snapshots if the repository changed."""
        if self._indexed_version == self.repository.version:
            return
        indexes: List[_ShardIndex] = []
        for shard_id in range(self.repository.num_shards):
            shard = self.repository.shard(shard_id)
            rows_by_label = shard.medoid_rows()
            labels = sorted(rows_by_label)
            medoid_rows = [rows_by_label[label] for label in labels]
            sizes = shard.cluster_sizes()
            if labels:
                vectors = shard.vectors_at(medoid_rows)
            else:
                vectors = np.zeros(
                    (0, self.repository.encoder.words), dtype=np.uint64
                )
            medoids = [shard.spectrum_at(row) for row in medoid_rows]
            indexes.append(
                _ShardIndex(
                    shard_id=shard_id,
                    local_labels=labels,
                    medoid_vectors=vectors,
                    medoids=MatchTable.from_fields(
                        [len(labels)],
                        [s.identifier for s in medoids],
                        global_label=[
                            self.repository.global_label(shard_id, label)
                            for label in labels
                        ],
                        shard_id=shard_id,
                        local_label=labels,
                        distance=0,
                        normalized_distance=0.0,
                        cluster_size=[sizes[label] for label in labels],
                        medoid_precursor_mz=[s.precursor_mz for s in medoids],
                        medoid_charge=[s.precursor_charge for s in medoids],
                    ),
                    bitslice=(
                        self._shard_bitslice(shard_id, vectors)
                        if labels
                        else None
                    ),
                )
            )
        if self._pool.backend == "processes" and not self._pool.is_inline:
            self._write_snapshots(indexes)
        self._indexes = indexes
        self._indexed_version = self.repository.version

    def _write_snapshots(self, indexes: List[_ShardIndex]) -> None:
        """Persist per-shard medoid snapshots for ``processes`` workers.

        One file per populated shard per repository version; workers load
        and cache them by path, so the medoid matrices cross the process
        boundary once per version instead of once per fan-out.
        """
        if self._snapshot_dir is None:
            self._snapshot_dir = tempfile.mkdtemp(prefix="repro-query-")
        version = self.repository.version
        suffix = f"-v{version}.npz"
        for name in os.listdir(self._snapshot_dir):
            if not name.endswith(suffix):
                os.unlink(os.path.join(self._snapshot_dir, name))
        for index in indexes:
            if not index.local_labels:
                continue
            path = os.path.join(
                self._snapshot_dir, f"shard-{index.shard_id:04d}{suffix}"
            )
            if not os.path.exists(path):
                payload = {
                    "vectors": index.medoid_vectors,
                    "has_index": np.array([index.bitslice is not None]),
                }
                if index.bitslice is not None:
                    payload["index_dim"] = np.array(
                        [index.bitslice.dim], dtype=np.int64
                    )
                    payload["index_positions"] = index.bitslice.positions
                    payload["index_planes"] = index.bitslice.planes
                np.savez(path, **payload)
            index.snapshot_path = path

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(
        self, spectra: Sequence[MassSpectrum], k: int = 5
    ) -> MatchTable:
        """Top-k nearest clusters for each query spectrum.

        Queries are preprocessed with the repository's configuration and
        encoded with its encoder; a spectrum that fails QC gets an empty
        result row (positions stay aligned with the input).
        """
        kept: List[MassSpectrum] = []
        kept_positions: List[int] = []
        for position, spectrum in enumerate(spectra):
            processed = preprocess_spectrum(
                spectrum, self.repository.manifest.preprocessing
            )
            if processed is not None:
                kept.append(processed)
                kept_positions.append(position)
        table = (
            self.query_vectors(self.repository.encoder.encode_batch(kept), k)
            if kept
            else MatchTable.empty(0)
        )
        return table.scattered(kept_positions, len(spectra))

    def _validated(self, query_vectors: np.ndarray) -> np.ndarray:
        query_vectors = np.asarray(query_vectors, dtype=np.uint64)
        if query_vectors.ndim != 2:
            raise ValueError("query_vectors must be a (n, words) matrix")
        return query_vectors

    def query_vectors(
        self,
        query_vectors: np.ndarray,
        k: int = 5,
        shards: Optional[Sequence[int]] = None,
    ) -> MatchTable:
        """Top-k nearest clusters for pre-encoded packed query vectors.

        ``k < 1`` yields empty match rows, matching the reference path.

        ``shards`` restricts the scan to that shard subset and returns
        the *exact* top-k over it.  Because the global merge orders by
        the total key ``(distance, shard, local label)``, merging the
        per-subset results of a shard partition by the same key and
        trimming to k reproduces the unrestricted result byte-for-byte —
        the scatter-gather contract the fleet router is built on.
        """
        query_vectors = self._validated(query_vectors)
        num_queries = query_vectors.shape[0]
        if num_queries == 0 or k < 1:
            return MatchTable.empty(num_queries)
        self._refresh_indexes()
        if shards is not None:
            wanted = {int(shard_id) for shard_id in shards}
            out_of_range = sorted(
                shard_id
                for shard_id in wanted
                if shard_id < 0 or shard_id >= len(self._indexes)
            )
            if out_of_range:
                raise ValueError(
                    f"shard ids out of range: {out_of_range} "
                    f"(repository has {len(self._indexes)} shards)"
                )
            populated = [
                index
                for index in self._indexes
                if index.local_labels and index.shard_id in wanted
            ]
        else:
            populated = [
                index for index in self._indexes if index.local_labels
            ]
        if not populated:
            return MatchTable.empty(num_queries)
        inline = (
            len(populated) == 1
            or num_queries <= self.inline_batch_threshold
            or self._pool.is_inline
        )
        tasks = []
        for index in populated:
            if not inline and index.snapshot_path is not None:
                tasks.append(
                    ("snapshot", index.snapshot_path, query_vectors, k)
                )
            else:
                tasks.append(
                    (
                        "arrays",
                        index.medoid_vectors,
                        index.bitslice,
                        query_vectors,
                        k,
                    )
                )
        if inline:
            outcomes = [_shard_topk_task(task) for task in tasks]
        else:
            outcomes = self._pool.map(_shard_topk_task, tasks)
        dim = self.repository.encoder.dim
        return merge_topk(
            [
                index.medoids.scored(ordinals, distances, dim)
                for index, (ordinals, distances) in zip(populated, outcomes)
            ],
            k,
        )

    def query_vectors_reference(
        self, query_vectors: np.ndarray, k: int = 5
    ) -> List[List[ClusterMatch]]:
        """The PR 2 serving path: per-query scans, per-candidate merge.

        Retained as the oracle the batched engine is pinned byte-identical
        to, and as the baseline the query-engine benchmark measures the
        batched/indexed path against.  Always scans densely and serially.
        """
        query_vectors = self._validated(query_vectors)
        num_queries = query_vectors.shape[0]
        if num_queries == 0:
            return []
        self._refresh_indexes()
        populated = [index for index in self._indexes if index.local_labels]
        if not populated:
            return [[] for _ in range(num_queries)]
        outcomes = [
            _shard_topk_reference(index.medoid_vectors, query_vectors, k)
            for index in populated
        ]
        dim = float(self.repository.encoder.dim)
        results: List[List[ClusterMatch]] = []
        for j in range(num_queries):
            candidates: List[Tuple[int, int, int, int]] = []
            for index, (ordinals, distances) in zip(populated, outcomes):
                for ordinal, distance in zip(ordinals[j], distances[j]):
                    candidates.append(
                        (
                            int(distance),
                            index.shard_id,
                            index.local_labels[int(ordinal)],
                            int(ordinal),
                        )
                    )
            candidates.sort(key=lambda item: (item[0], item[1], item[2]))
            matches: List[ClusterMatch] = []
            for distance, shard_id, local_label, ordinal in candidates[:k]:
                (medoid_row,) = self._indexes[shard_id].medoids
                matches.append(
                    replace(
                        medoid_row[ordinal],
                        global_label=self.repository.global_label(
                            shard_id, local_label
                        ),
                        distance=distance,
                        normalized_distance=distance / dim,
                    )
                )
            results.append(matches)
        return results

    def close(self) -> None:
        """Release the fan-out pool (if owned) and any snapshot files."""
        if self._own_pool:
            self._pool.close()
        if self._snapshot_dir is not None:
            shutil.rmtree(self._snapshot_dir, ignore_errors=True)
            self._snapshot_dir = None

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
