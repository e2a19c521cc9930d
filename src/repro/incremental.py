"""Incremental clustering: the paper's "one-time preprocessing" extension.

§IV-B: "repeatedly initiating the computational pipeline from the beginning
for every analysis proves not only inefficient but also counterproductive.
One-time preprocessing and subsequent updates, therefore, emerge as a
promising approach for enhancing real-time data analysis."

:class:`IncrementalClusterStore` realises that idea on top of the SpecHD
substrate: hypervectors are encoded once and persisted (they are 24x-108x
smaller than the raw data, so keeping them is cheap); each new batch of
spectra is encoded and grouped by precursor bucket.  A bucket's new rows
are compared against its stored cluster medoids in one cross-distance scan
and absorbed, in batch order, into the nearest medoid within the
threshold; the rows left over are clustered among themselves by the batch
pipeline's bucket step (:func:`repro.pipeline.cluster_bucket_vectors`),
whose distance matrix also gives each fresh cluster its distance sums and
medoid.

The store is snapshotable: :meth:`IncrementalClusterStore.save` persists
the packed hypervectors (as a :class:`repro.io.HypervectorStore`) plus the
cluster bookkeeping as JSON, and :meth:`IncrementalClusterStore.load`
restores a store whose future ``add_batch`` labelling is identical to one
that was never persisted.  Only the encoded representation survives a
round-trip — raw peak arrays are deliberately not written, which is the
paper's compression argument made literal.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigurationError, ParseError
from .hdc import EncoderConfig, IDLevelEncoder, hamming_cross, hamming_to_query
from .io.hvstore import HypervectorStore
from .pipeline import BucketCluster, cluster_bucket_vectors, medoid_position
from .spectrum import (
    BucketingConfig,
    MassSpectrum,
    PreprocessingConfig,
    check_precursor_columns,
    precursor_bucket_key,
)
from .streaming import encode_spectra

#: Format version of the ``state.json`` snapshot companion file.
STATE_FORMAT_VERSION = 1


@dataclass
class _Cluster:
    """Book-keeping for one stored cluster.

    ``dist_sums[i]`` (int64) is the exact total Hamming distance from
    member ``i`` (in ``member_rows`` order) to every other member.  A fresh
    cluster takes them from its bucket's distance matrix; absorbing one
    spectrum adds one Hamming sweep over the members, O(k · words) instead
    of a O(k² · words) pairwise recompute, and the medoid stays the exact
    first minimum of the sums (:func:`repro.pipeline.medoid_position`).
    """

    label: int
    bucket: Tuple[int, int]
    member_rows: List[int]
    medoid_row: int
    dist_sums: np.ndarray


@dataclass(frozen=True)
class UpdateReport:
    """Outcome of one :meth:`IncrementalClusterStore.add_batch` call."""

    num_added: int
    num_absorbed: int
    num_new_clusters: int
    num_dropped: int

    @property
    def absorption_rate(self) -> float:
        """Fraction of accepted spectra absorbed into existing clusters."""
        if self.num_added == 0:
            return 0.0
        return self.num_absorbed / self.num_added


class IncrementalClusterStore:
    """A persistent hypervector store with incremental cluster updates.

    Parameters
    ----------
    encoder_config:
        ID-Level encoder configuration (must stay fixed for the lifetime of
        the store — hypervectors from different item memories are not
        comparable).
    cluster_threshold:
        Normalised Hamming threshold in [0, 1]; used both for absorbing new
        spectra into existing clusters and for clustering leftovers.
    linkage:
        Linkage criterion for the leftover NN-chain pass.
    encoder:
        Optional pre-built encoder sharing ``encoder_config``'s item
        memory.  A sharded repository passes one encoder to all of its
        shard stores so the (large) item memory exists once per process.
    """

    def __init__(
        self,
        encoder_config: EncoderConfig = EncoderConfig(),
        preprocessing: PreprocessingConfig = PreprocessingConfig(),
        bucketing: BucketingConfig = BucketingConfig(),
        cluster_threshold: float = 0.3,
        linkage: str = "complete",
        encoder: IDLevelEncoder | None = None,
    ) -> None:
        if not 0.0 <= cluster_threshold <= 1.0:
            raise ConfigurationError(
                "cluster_threshold must be a normalised distance in [0, 1]"
            )
        if encoder is not None and encoder.config != encoder_config:
            raise ConfigurationError(
                "shared encoder configuration does not match encoder_config"
            )
        self.encoder = encoder or IDLevelEncoder(encoder_config)
        self.preprocessing = preprocessing
        self.bucketing = bucketing
        self.cluster_threshold = cluster_threshold
        self.linkage = linkage

        # One row per stored spectrum: its packed hypervector plus the
        # three precursor columns the hypervector store persists.  Peaks
        # are never kept once a row is encoded.
        self._vectors = np.zeros(
            (0, encoder_config.dim // 64), dtype=np.uint64
        )
        self._identifiers: List[str] = []
        self._precursor_mz = np.zeros(0, dtype=np.float64)
        self._charge = np.zeros(0, dtype=np.int16)
        self._row_labels: List[int] = []
        self._clusters: Dict[int, _Cluster] = {}
        self._clusters_by_bucket: Dict[Tuple[int, int], List[int]] = {}
        self._next_label = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._identifiers)

    @property
    def num_clusters(self) -> int:
        """Number of stored clusters."""
        return len(self._clusters)

    def labels(self) -> np.ndarray:
        """Cluster label per stored spectrum, in insertion order."""
        return np.array(self._row_labels, dtype=np.int64)

    def stored_bytes(self) -> int:
        """Bytes held by the hypervector store (the persisted artefact)."""
        return int(self._vectors.nbytes)

    def cluster_sizes(self) -> Dict[int, int]:
        """``{label: member count}`` for all stored clusters."""
        return {
            label: len(cluster.member_rows)
            for label, cluster in self._clusters.items()
        }

    def medoid_rows(self) -> Dict[int, int]:
        """``{label: medoid row}`` for all stored clusters."""
        return {
            label: cluster.medoid_row
            for label, cluster in self._clusters.items()
        }

    def row_label(self, row: int) -> int:
        """Cluster label of one stored row."""
        return self._row_labels[row]

    def vectors_at(self, rows: Sequence[int]) -> np.ndarray:
        """Packed hypervectors for the given rows (one matrix)."""
        return self._vectors[np.asarray(rows, dtype=np.int64)]

    def metadata_at(
        self, rows: Sequence[int]
    ) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """``(identifiers, precursor m/z, charge)`` of the given rows."""
        rows = np.asarray(rows, dtype=np.int64)
        return (
            [self._identifiers[row] for row in rows.tolist()],
            self._precursor_mz[rows],
            self._charge[rows],
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add_batch(self, spectra: Sequence[MassSpectrum]) -> UpdateReport:
        """Add raw spectra: absorb near-medoid spectra, NN-chain the rest.

        The batch is preprocessed and encoded
        (:func:`repro.streaming.encode_spectra`) and its QC survivors go
        through :meth:`add_encoded`; only their hypervectors and
        precursor fields are stored.  ``num_dropped`` counts the spectra
        QC rejected.
        """
        batch = encode_spectra(spectra, self.preprocessing, self.encoder)
        report = self.add_encoded(
            batch.vectors, batch.precursor_mz, batch.charge, batch.identifiers
        )
        return replace(report, num_dropped=batch.num_dropped)

    def add_encoded(
        self,
        vectors: np.ndarray,
        precursor_mz: Sequence[float],
        charge: Sequence[int],
        identifiers: Sequence[str],
    ) -> UpdateReport:
        """Add pre-encoded hypervectors (e.g. from ``encode_only``).

        The vectors must come from an encoder with this store's exact
        configuration; there is no way to verify bit compatibility after
        the fact, so callers are expected to check ``dim``/``seed``
        (:class:`repro.store.ClusterRepository` does).
        """
        vectors = np.asarray(vectors, dtype=np.uint64)
        if vectors.ndim != 2 or vectors.shape[1] != self.encoder.words:
            raise ConfigurationError(
                f"encoded vectors must be (n, {self.encoder.words}) uint64"
            )
        if not (
            vectors.shape[0]
            == len(precursor_mz)
            == len(charge)
            == len(identifiers)
        ):
            raise ConfigurationError(
                "encoded batch arrays have unequal lengths"
            )
        precursor_mz, charge = check_precursor_columns(
            precursor_mz, charge, self.bucketing
        )
        count = vectors.shape[0]
        if count == 0:
            return UpdateReport(0, 0, 0, 0)
        absorbed, new_clusters = self._ingest(
            vectors, precursor_mz, charge, [str(i) for i in identifiers]
        )
        return UpdateReport(
            num_added=count,
            num_absorbed=absorbed,
            num_new_clusters=new_clusters,
            num_dropped=0,
        )

    def _ingest(
        self,
        new_vectors: np.ndarray,
        precursor_mz: np.ndarray,
        charge: np.ndarray,
        identifiers: List[str],
    ) -> Tuple[int, int]:
        """Shared core: append rows, absorb per bucket, cluster leftovers."""
        threshold_bits = self.cluster_threshold * self.encoder.dim
        base_row = len(self)
        self._vectors = (
            new_vectors
            if self._vectors.size == 0
            else np.vstack([self._vectors, new_vectors])
        )
        self._identifiers.extend(identifiers)
        self._precursor_mz = np.concatenate([self._precursor_mz, precursor_mz])
        self._charge = np.concatenate([self._charge, charge])
        self._row_labels.extend([-1] * len(identifiers))

        rows_by_bucket: Dict[Tuple[int, int], List[int]] = {}
        for offset, (mz, ch) in enumerate(
            zip(precursor_mz.tolist(), charge.tolist())
        ):
            bucket = precursor_bucket_key(mz, ch, self.bucketing)
            rows_by_bucket.setdefault(bucket, []).append(base_row + offset)

        absorbed = 0
        leftovers_by_bucket: Dict[Tuple[int, int], List[int]] = {}
        for bucket, rows in rows_by_bucket.items():
            leftovers = self._absorb_bucket(bucket, rows, threshold_bits)
            absorbed += len(rows) - len(leftovers)
            if leftovers:
                leftovers_by_bucket[bucket] = leftovers

        new_clusters = 0
        # Leftover buckets are clustered in the order of their first
        # leftover row, which fixes the new clusters' label numbering.
        for bucket, rows in sorted(
            leftovers_by_bucket.items(), key=lambda item: item[1][0]
        ):
            clusters, _stats, _distances = cluster_bucket_vectors(
                self._vectors[rows], self.linkage, threshold_bits
            )
            for cluster in clusters:
                self._add_cluster(bucket, rows, cluster)
            new_clusters += len(clusters)
        return absorbed, new_clusters

    def _absorb_bucket(
        self, bucket: Tuple[int, int], rows: List[int], threshold_bits: float
    ) -> List[int]:
        """Absorb one bucket's new rows into their nearest stored medoid.

        One cross-distance scan measures every row against the bucket's
        medoids.  Rows are decided in batch order; a row within the
        threshold joins the first nearest medoid's cluster, and when that
        moves the medoid, its column is recomputed for the rows still to
        come, so each decision is the one a row-at-a-time scan would make.
        Returns the rows that were not absorbed.
        """
        labels = self._clusters_by_bucket.get(bucket)
        if not labels:
            return rows
        medoids = np.array([self._clusters[i].medoid_row for i in labels])
        distances = hamming_cross(
            self._vectors[rows], self._vectors[medoids].T
        )
        leftovers = []
        for index, row in enumerate(rows):
            best = int(np.argmin(distances[index]))
            if distances[index, best] > threshold_bits:
                leftovers.append(row)
                continue
            cluster = self._clusters[labels[best]]
            self._absorb_into(cluster, row)
            if cluster.medoid_row != medoids[best] and index + 1 < len(rows):
                medoids[best] = cluster.medoid_row
                distances[index + 1 :, best] = hamming_to_query(
                    self._vectors[rows[index + 1 :]],
                    self._vectors[cluster.medoid_row],
                )
        return leftovers

    def _absorb_into(self, cluster: _Cluster, row: int) -> None:
        """Add ``row`` to a cluster, updating distance sums incrementally.

        One Hamming sweep over the cluster's members updates every
        member's total distance and yields the newcomer's total; the new
        medoid is the first minimum of the updated totals.
        """
        member_distances = hamming_to_query(
            self._vectors[cluster.member_rows], self._vectors[row]
        )
        cluster.dist_sums = np.append(
            cluster.dist_sums + member_distances, member_distances.sum()
        )
        cluster.member_rows.append(row)
        cluster.medoid_row = cluster.member_rows[
            medoid_position(cluster.dist_sums)
        ]
        self._row_labels[row] = cluster.label

    def _add_cluster(
        self, bucket: Tuple[int, int], rows: List[int], cluster: BucketCluster
    ) -> None:
        """Store one fresh cluster of a leftover bucket (``rows`` order)."""
        member_rows = [rows[i] for i in cluster.members.tolist()]
        label = self._next_label
        self._next_label += 1
        self._clusters[label] = _Cluster(
            label=label,
            bucket=bucket,
            member_rows=member_rows,
            medoid_row=member_rows[cluster.medoid],
            dist_sums=cluster.dist_sums,
        )
        self._clusters_by_bucket.setdefault(bucket, []).append(label)
        for member_row in member_rows:
            self._row_labels[member_row] = label

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the cluster bookkeeping.

        Together with the packed hypervector matrix (persisted separately
        as a :class:`~repro.io.HypervectorStore`) this captures everything
        ``add_batch`` consults, so a restored store labels future batches
        identically to one that was never persisted.
        """
        return {
            "state_version": STATE_FORMAT_VERSION,
            "encoder": asdict(self.encoder.config),
            "preprocessing": asdict(self.preprocessing),
            "bucketing": asdict(self.bucketing),
            "cluster_threshold": self.cluster_threshold,
            "linkage": self.linkage,
            "next_label": self._next_label,
            "clusters": [
                {
                    "label": cluster.label,
                    "bucket": list(cluster.bucket),
                    "members": cluster.member_rows,
                    "medoid": cluster.medoid_row,
                    "dist_sums": cluster.dist_sums.tolist(),
                }
                for cluster in self._clusters.values()
            ],
        }

    def snapshot_store(self) -> HypervectorStore:
        """The persisted artefact: packed vectors + precursor metadata."""
        return HypervectorStore(
            vectors=self._vectors,
            precursor_mz=self._precursor_mz,
            charge=self._charge,
            labels=self.labels(),
            identifiers=list(self._identifiers),
            dim=self.encoder.dim,
            encoder_seed=self.encoder.config.seed,
        )

    def save(
        self,
        directory: Union[str, Path],
        stem: str = "store",
        compress: bool = True,
    ) -> None:
        """Persist to ``<directory>/<stem>.npz`` + ``<directory>/<stem>.state.json``.

        ``compress=False`` writes the hypervector store raw so a later
        :meth:`load` with ``mmap=True`` can memory-map it (the repository
        checkpoints segments this way).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_store().save(directory / f"{stem}.npz", compress=compress)
        (directory / f"{stem}.state.json").write_text(
            json.dumps(self.state_dict()), encoding="utf-8"
        )

    @classmethod
    def load(
        cls,
        directory: Union[str, Path],
        stem: str = "store",
        encoder: IDLevelEncoder | None = None,
        mmap: bool = False,
    ) -> "IncrementalClusterStore":
        """Restore a store persisted by :meth:`save`.

        ``mmap=True`` memory-maps the hypervector payload when the
        snapshot was saved uncompressed (falling back to a copy when
        not); the first ``add_batch`` after restoring converts the
        matrix to an in-memory copy as it appends.
        """
        directory = Path(directory)
        store = HypervectorStore.load(directory / f"{stem}.npz", mmap=mmap)
        state_path = directory / f"{stem}.state.json"
        try:
            state = json.loads(state_path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ParseError("missing cluster state file", str(state_path)) from exc
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"corrupt cluster state: {exc}", str(state_path)
            ) from exc
        return cls.from_snapshot(
            store,
            state,
            encoder=encoder,
        )

    @classmethod
    def from_snapshot(
        cls,
        store: HypervectorStore,
        state: dict,
        encoder: IDLevelEncoder | None = None,
    ) -> "IncrementalClusterStore":
        """Rebuild a store from its two snapshot halves."""
        version = state.get("state_version")
        if version != STATE_FORMAT_VERSION:
            raise ParseError(f"unsupported cluster state version {version}")
        instance = cls(
            encoder_config=EncoderConfig(**state["encoder"]),
            preprocessing=PreprocessingConfig(**state["preprocessing"]),
            bucketing=BucketingConfig(**state["bucketing"]),
            cluster_threshold=state["cluster_threshold"],
            linkage=state["linkage"],
            encoder=encoder,
        )
        # Keep the store's matrix as-is when possible: a memory-mapped
        # segment payload stays mapped (zero-copy restore) until the
        # first append replaces it with an in-memory copy.
        vectors = store.vectors
        if not isinstance(vectors, np.ndarray) or vectors.dtype != np.uint64:
            vectors = np.asarray(vectors, dtype=np.uint64)
        instance._vectors = vectors
        instance._identifiers = list(store.identifiers)
        instance._precursor_mz = np.asarray(
            store.precursor_mz, dtype=np.float64
        )
        instance._charge = np.asarray(store.charge, dtype=np.int16)
        instance._row_labels = [int(label) for label in store.labels]
        instance._next_label = int(state["next_label"])
        for record in state["clusters"]:
            cluster = _Cluster(
                label=int(record["label"]),
                bucket=(int(record["bucket"][0]), int(record["bucket"][1])),
                member_rows=[int(row) for row in record["members"]],
                medoid_row=int(record["medoid"]),
                dist_sums=np.array(record["dist_sums"], dtype=np.int64),
            )
            instance._clusters[cluster.label] = cluster
            instance._clusters_by_bucket.setdefault(
                cluster.bucket, []
            ).append(cluster.label)
        return instance
