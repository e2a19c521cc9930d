"""Batched top-k nearest-cluster queries against a repository's shards.

Every shard owns a disjoint set of clusters, so a query batch is encoded
once and the populated shards are scanned one after another in the
calling thread.  Every shard, whatever its size, is scanned one way:
``batched_topk(hamming_cross(queries, medoids_T), k)`` — one word-major
XOR + popcount pass of the whole batch over the shard's medoid matrix,
kept transposed to ``(words, medoids)`` from one repository version to
the next, plus an ``argpartition``-based top-k in ``(distance,
ordinal)`` order.  The scan's ordinals gather a per-shard
:class:`~repro.store.matches.MatchTable` out of the shard's medoid
columns, and :func:`~repro.store.matches.merge_topk` — the same merge
the fleet router runs over per-node answers — ranks the per-shard tables
into the answer.  No per-match object is built.  The per-query oracle
the batched scan is pinned to lives in :mod:`repro.testing.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..hdc import hamming_cross
from ..spectrum import MassSpectrum
from ..streaming import encode_spectra
from .index import batched_topk
from .matches import MatchTable, merge_topk
from .repository import ClusterRepository


@dataclass
class _ShardIndex:
    """A snapshot of one shard's medoids, ready for scanning."""

    shard_id: int
    local_labels: List[int]
    #: The medoid matrix word-major, ``(words, medoids)`` in
    #: ``local_labels`` order — the layout :func:`hamming_cross` streams.
    medoids_T: np.ndarray
    #: One row holding every medoid in ``local_labels`` order at distance
    #: 0 — the columns a scan's ordinals gather their matches out of.
    medoids: MatchTable

    def topk(
        self, query_vectors: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scan this shard's medoids for a whole query batch.

        Returns ``(indices, distances)`` where row ``j`` holds query
        ``j``'s ``min(k, count)`` nearest medoid ordinals and Hamming
        distances, ascending by ``(distance, ordinal)``.
        """
        return batched_topk(hamming_cross(query_vectors, self.medoids_T), k)


class QueryService:
    """Batch top-k nearest-cluster queries over repository cluster state.

    ``repository`` is the read source: a live :class:`ClusterRepository`
    *or* a pinned :class:`~repro.store.snapshot.RepositorySnapshot` — the
    service only consumes the shared read surface (``shard``/``version``/
    ``global_label``/``manifest``/``encoder``).
    Over a snapshot the scan state is built once and never refreshed (a
    snapshot's version is frozen), which is the zero-lock serving path
    the cluster daemon uses while ingest and checkpoints proceed
    underneath.
    """

    def __init__(self, repository: ClusterRepository) -> None:
        self.repository = repository
        self._indexed_version: Optional[int] = None
        self._indexes: List[_ShardIndex] = []

    # ------------------------------------------------------------------
    # Scan state
    # ------------------------------------------------------------------

    def _refresh_indexes(self) -> None:
        """Rebuild the medoid snapshots if the repository changed.

        The version is read once, before building: a change that lands
        mid-build leaves the stamp behind it, so the next query rebuilds.
        """
        version = self.repository.version
        if self._indexed_version == version:
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
            identifiers, medoid_mz, medoid_charge = shard.metadata_at(
                medoid_rows
            )
            indexes.append(
                _ShardIndex(
                    shard_id=shard_id,
                    local_labels=labels,
                    medoids_T=np.ascontiguousarray(vectors.T),
                    medoids=MatchTable.from_fields(
                        [len(labels)],
                        identifiers,
                        global_label=[
                            self.repository.global_label(shard_id, label)
                            for label in labels
                        ],
                        shard_id=shard_id,
                        local_label=labels,
                        distance=0,
                        normalized_distance=0.0,
                        cluster_size=[sizes[label] for label in labels],
                        medoid_precursor_mz=medoid_mz,
                        medoid_charge=medoid_charge,
                    ),
                )
            )
        self._indexes = indexes
        self._indexed_version = version

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
        batch = encode_spectra(
            spectra,
            self.repository.manifest.preprocessing,
            self.repository.encoder,
        )
        return self.query_vectors(batch.vectors, k).scattered(
            batch.kept_offsets, batch.raw_count
        )

    def query_vectors(
        self,
        query_vectors: np.ndarray,
        k: int = 5,
        shards: Optional[Sequence[int]] = None,
    ) -> MatchTable:
        """Top-k nearest clusters for pre-encoded packed query vectors.

        ``k < 1`` yields empty match rows.

        ``shards`` restricts the scan to that shard subset and returns
        the *exact* top-k over it.  Because the global merge orders by
        the total key ``(distance, shard, local label)``, merging the
        per-subset results of a shard partition by the same key and
        trimming to k reproduces the unrestricted result byte-for-byte —
        the scatter-gather contract the fleet router is built on.
        """
        query_vectors = np.asarray(query_vectors, dtype=np.uint64)
        if query_vectors.ndim != 2:
            raise ValueError("query_vectors must be a (n, words) matrix")
        num_queries = query_vectors.shape[0]
        if num_queries == 0 or k < 1:
            return MatchTable.empty(num_queries)
        self._refresh_indexes()
        populated = [index for index in self._indexes if index.local_labels]
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
                index for index in populated if index.shard_id in wanted
            ]
        if not populated:
            return MatchTable.empty(num_queries)
        dim = self.repository.encoder.dim
        return merge_topk(
            [
                index.medoids.scored(*index.topk(query_vectors, k), dim)
                for index in populated
            ],
            k,
        )

    def close(self) -> None:
        """Nothing to release; kept so callers can use ``with``."""

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
