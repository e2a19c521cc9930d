"""The SpecHD end-to-end pipeline: preprocess → bucket → encode → cluster.

This is the library's main entry point.  It runs the *algorithmic* pipeline
in software (bit-exact with the hardware model's kernels) and, in parallel,
drives the FPGA performance model with the actual operation counts so every
run yields both cluster assignments and a hardware timing/energy report.

Typical use::

    from repro import SpecHDPipeline, SpecHDConfig
    from repro.datasets import small_benchmark_dataset

    data = small_benchmark_dataset()
    pipeline = SpecHDPipeline(SpecHDConfig(cluster_threshold=0.3))
    result = pipeline.run(data.spectra)
    print(result.labels, result.quality(data.labels))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .cluster import (
    ClusteringStats,
    cluster_members,
    cut_at_height,
    nn_chain_linkage,
    quality_report,
)
from .cluster.metrics import QualityReport
from .errors import ConfigurationError
from .fpga import constants as hw
from .fpga.kernels import (
    distance_matrix_cycles,
    encoder_cycles,
    nnchain_cycles_from_stats,
)
from .hdc import EncoderConfig, IDLevelEncoder, pairwise_hamming_blocked
from .spectrum import (
    BucketingConfig,
    MassSpectrum,
    PreprocessingConfig,
    SpectrumBatch,
    partition_spectra,
    preprocess_batch,
)


@dataclass(frozen=True)
class SpecHDConfig:
    """Configuration of the full SpecHD pipeline.

    ``cluster_threshold`` is the merge cut expressed as a *normalised*
    Hamming distance in [0, 1] (fraction of differing hypervector bits);
    0.5 is the orthogonality distance of unrelated spectra.

    ``encode_batch_size`` is the streaming granularity of the encoder
    stage.  ``num_cluster_kernels`` only scales the hardware model's
    clustering time; the software clusters buckets one after another.
    """

    preprocessing: PreprocessingConfig = field(
        default_factory=PreprocessingConfig
    )
    bucketing: BucketingConfig = field(default_factory=BucketingConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    linkage: str = "complete"
    cluster_threshold: float = 0.3
    num_cluster_kernels: int = hw.DEFAULT_CLUSTER_KERNELS
    clock_hz: float = hw.U280_CLOCK_HZ
    encode_batch_size: int = 4096

    def __post_init__(self) -> None:
        if not 0.0 <= self.cluster_threshold <= 1.0:
            raise ConfigurationError(
                "cluster_threshold is a normalised Hamming distance in [0, 1]"
            )
        if self.num_cluster_kernels < 1:
            raise ConfigurationError("need at least one clustering kernel")
        if self.encode_batch_size < 1:
            raise ConfigurationError("encode_batch_size must be >= 1")


@dataclass
class HardwareReport:
    """Cycle-accurate hardware accounting for one pipeline run."""

    encoder_cycles: float = 0.0
    distance_cycles: float = 0.0
    nnchain_cycles: float = 0.0
    clock_hz: float = hw.U280_CLOCK_HZ
    num_cluster_kernels: int = hw.DEFAULT_CLUSTER_KERNELS

    @property
    def cluster_cycles(self) -> float:
        """Total clustering-kernel cycles (distance + NN-chain)."""
        return self.distance_cycles + self.nnchain_cycles

    @property
    def encode_seconds(self) -> float:
        """Encoder kernel wall time."""
        return self.encoder_cycles / self.clock_hz

    @property
    def cluster_seconds(self) -> float:
        """Clustering wall time with buckets spread across kernels."""
        return self.cluster_cycles / (self.clock_hz * self.num_cluster_kernels)


@dataclass
class SpecHDResult:
    """Everything a pipeline run produces.

    ``spectra`` holds the preprocessed spectra that survived QC, in
    ``labels`` order: a :class:`SpectrumBatch`, whose ``spectra[i]`` is
    row ``i``'s :class:`MassSpectrum`.
    """

    labels: np.ndarray
    kept_indices: List[int]
    spectra: Sequence[MassSpectrum]
    hypervectors: np.ndarray
    bucket_keys: Dict[Tuple[int, int], List[int]]
    medoids: Dict[int, int]
    distances_by_bucket: Dict[Tuple[int, int], np.ndarray]
    clustering_stats: ClusteringStats
    hardware: HardwareReport

    @property
    def num_clusters(self) -> int:
        """Number of clusters over the kept spectra."""
        if self.labels.size == 0:
            return 0
        return int(self.labels.max()) + 1

    def labels_for_input(self, input_size: int) -> np.ndarray:
        """Labels aligned to the *original* input (dropped spectra get -1)."""
        full = np.full(input_size, -1, dtype=np.int64)
        for position, original_index in enumerate(self.kept_indices):
            full[original_index] = self.labels[position]
        return full

    def quality(self, truth: Sequence[Optional[str]]) -> QualityReport:
        """Quality metrics against ground-truth labels for the full input."""
        full_labels = self.labels_for_input(len(truth))
        return quality_report(full_labels, truth)

    def representatives(self) -> List[int]:
        """Kept-set indices of representative (medoid/singleton) spectra."""
        _, inverse, counts = np.unique(
            self.labels, return_inverse=True, return_counts=True
        )
        keep = counts[inverse] < 2
        keep[list(self.medoids.values())] = True
        return np.flatnonzero(keep).tolist()


class BucketCluster(NamedTuple):
    """One cluster of a clustered precursor bucket.

    ``members`` are the cluster's bucket-local positions in ascending
    order, ``dist_sums[i]`` is member ``i``'s total Hamming distance
    (int64) to the other members, and ``medoid`` is the position in
    ``members`` of the cluster's representative (:func:`medoid_position`).
    """

    members: np.ndarray
    dist_sums: np.ndarray
    medoid: int


def medoid_position(dist_sums: np.ndarray) -> int:
    """The medoid rule: the first minimum of the member distance sums.

    SpecHD's representative has "the lowest average distance to all other
    spectra within that cluster" (§III-C); the lowest sum is the lowest
    average, and the lowest position wins ties, like the hardware's
    first-match comparator.
    """
    return int(np.argmin(dist_sums))


def cluster_bucket_vectors(
    vectors: np.ndarray, linkage: str, threshold_bits: float
) -> Tuple[List[BucketCluster], ClusteringStats, np.ndarray]:
    """Cluster one precursor bucket of packed hypervectors.

    Returns ``(clusters, stats, distances)``: the clusters of the cut at
    ``threshold_bits`` in label order (the order of their first member),
    the NN-chain operation counts and the bucket's uint16 Hamming distance
    matrix.  A cluster's distance sums are the row sums of that matrix's
    member block, so no second pairwise pass is needed.  A one-row bucket
    runs neither the pairwise nor the NN-chain pass.
    """
    if len(vectors) == 1:
        labels = np.zeros(1, dtype=np.int64)
        stats, distances = ClusteringStats(), np.zeros((1, 1), np.uint16)
    else:
        distances = pairwise_hamming_blocked(vectors)
        result = nn_chain_linkage(distances, linkage)
        labels = cut_at_height(result, threshold_bits)
        stats = result.stats
    clusters = []
    for members in cluster_members(labels).values():
        # A singleton's sum is 0; skipping its 1x1 block keeps a bucket
        # of mostly singletons as cheap as labelling it.
        if members.size == 1:
            dist_sums = np.zeros(1, dtype=np.int64)
        else:
            block = distances[members[:, None], members]
            dist_sums = block.sum(axis=1, dtype=np.int64)
        clusters.append(
            BucketCluster(members, dist_sums, medoid_position(dist_sums))
        )
    return clusters, stats, distances


class SpecHDPipeline:
    """End-to-end SpecHD: the software twin of Fig. 3's dataflow."""

    def __init__(self, config: SpecHDConfig = SpecHDConfig()) -> None:
        self.config = config
        self.encoder = IDLevelEncoder(config.encoder)

    def run_files(self, paths) -> "SpecHDResult":
        """Run the pipeline over one or more spectrum files (MGF/MS2/mzML).

        Built on the streaming dataflow (:mod:`repro.streaming`): files
        are parsed lazily and each batch is preprocessed *and HD-encoded*
        the moment it streams in.  Peak memory is bounded by the
        *preprocessed* dataset (top-k peaks per spectrum) plus the
        packed hypervectors, mirroring the near-storage flow where raw
        data never reaches the host.
        """
        from .io.source import SpectrumSource
        from .streaming import stream_encoded_batches

        config = self.config
        source = SpectrumSource(paths)
        kept: List[SpectrumBatch] = []
        kept_indices: List[int] = []
        vector_parts: List[np.ndarray] = []
        file_base = 0
        current_file = 0
        file_raw_total = 0
        for batch in stream_encoded_batches(
            source,
            config.preprocessing,
            config.encoder,
            config.encode_batch_size,
            keep_spectra=True,
            encoder=self.encoder,
        ):
            if batch.file_index != current_file:
                # Batches arrive file-major, so the previous file's raw
                # total is final the moment a new file's batch shows up.
                file_base += file_raw_total
                file_raw_total = 0
                current_file = batch.file_index
            file_raw_total = batch.raw_start + batch.raw_count
            kept.append(batch.spectra)
            batch_base = file_base + batch.raw_start
            kept_indices.extend((batch_base + batch.kept_offsets).tolist())
            vector_parts.append(batch.vectors)
        hypervectors = (
            np.vstack(vector_parts)
            if vector_parts
            else np.zeros((0, config.encoder.dim // 64), dtype=np.uint64)
        )
        # Drop the per-batch parts once joined, so clustering never holds
        # two copies of the kept peaks or vectors.
        spectra = SpectrumBatch.concat(kept)
        del kept, vector_parts
        return self._run_preprocessed(
            spectra, kept_indices, hypervectors=hypervectors
        )

    def encode_only(self, spectra: Sequence[MassSpectrum]):
        """Preprocess + encode without clustering; returns a store.

        This is the "one-time preprocessing" artefact (§IV-B): a
        :class:`repro.io.HypervectorStore` that persists the compressed
        dataset for later (incremental) clustering, repository ingest
        (``repro ingest``/:class:`repro.store.ClusterRepository`), or
        library search.
        """
        from .io.hvstore import HypervectorStore

        kept, _ = preprocess_batch(spectra, self.config.preprocessing)
        if len(kept):
            vectors = np.vstack(
                list(
                    self.encoder.encode_stream(
                        kept, batch_size=self.config.encode_batch_size
                    )
                )
            )
        else:
            vectors = np.zeros(
                (0, self.config.encoder.dim // 64), dtype=np.uint64
            )
        return HypervectorStore.from_encoding(
            kept,
            vectors,
            dim=self.config.encoder.dim,
            encoder_seed=self.config.encoder.seed,
        )

    def run(self, spectra: Sequence[MassSpectrum]) -> SpecHDResult:
        """Run the full pipeline over in-memory spectra.

        Stages: column preprocessing (drops QC failures), precursor
        bucketing (Eq. 1), ID-Level encoding (Eq. 2), per-bucket Hamming
        distance matrices, per-bucket NN-chain HAC with the configured
        linkage cut at ``cluster_threshold``, and medoid selection.
        """
        kept, kept_offsets = preprocess_batch(
            spectra, self.config.preprocessing
        )
        return self._run_preprocessed(kept, kept_offsets.tolist())

    def _run_preprocessed(
        self,
        kept: SpectrumBatch,
        kept_indices: List[int],
        hypervectors: Optional[np.ndarray] = None,
    ) -> SpecHDResult:
        """Bucket, encode and cluster already-preprocessed spectra.

        ``hypervectors`` lets a caller that already encoded the spectra
        (the file stream of :meth:`run_files`) skip the encode stage here; the
        hardware encoder-cycle accounting is identical either way since
        it depends only on spectrum and peak counts.
        """
        config = self.config
        hardware = HardwareReport(
            clock_hz=config.clock_hz,
            num_cluster_kernels=config.num_cluster_kernels,
        )
        if not len(kept):
            return SpecHDResult(
                labels=np.zeros(0, dtype=np.int64),
                kept_indices=[],
                spectra=kept,
                hypervectors=np.zeros(
                    (0, config.encoder.dim // 64), dtype=np.uint64
                ),
                bucket_keys={},
                medoids={},
                distances_by_bucket={},
                clustering_stats=ClusteringStats(),
                hardware=hardware,
            )

        buckets = partition_spectra(kept, config.bucketing)
        if hypervectors is None:
            # Stream encode batches (fast vectorised path) rather than one
            # monolithic call, mirroring the FPGA's burst dataflow and
            # bounding encoder scratch memory for very large runs.
            hypervectors = np.vstack(
                list(
                    self.encoder.encode_stream(
                        kept, batch_size=config.encode_batch_size
                    )
                )
            )
        else:
            hypervectors = np.asarray(hypervectors, dtype=np.uint64)
        average_peaks = float(np.mean(kept.counts))
        hardware.encoder_cycles = encoder_cycles(
            len(kept), average_peaks, config.encoder.dim
        )

        labels = np.full(len(kept), -1, dtype=np.int64)
        medoids: Dict[int, int] = {}
        distances_by_bucket: Dict[Tuple[int, int], np.ndarray] = {}
        total_stats = ClusteringStats()
        threshold_bits = config.cluster_threshold * config.encoder.dim
        # Buckets are clustered one after another in sorted-key order, which
        # fixes the global label numbering.
        next_label = 0
        for key in sorted(buckets):
            members = np.asarray(buckets[key])
            clusters, stats, distances = cluster_bucket_vectors(
                hypervectors[members], config.linkage, threshold_bits
            )
            for cluster in clusters:
                rows = members[cluster.members]
                labels[rows] = next_label
                if rows.size > 1:
                    medoids[next_label] = int(rows[cluster.medoid])
                next_label += 1
            if members.size == 1:
                continue
            distances_by_bucket[key] = distances
            total_stats.distance_scans += stats.distance_scans
            total_stats.distance_updates += stats.distance_updates
            total_stats.chain_extensions += stats.chain_extensions
            total_stats.merges += stats.merges
            hardware.distance_cycles += distance_matrix_cycles(
                members.size, config.encoder.dim
            )
            hardware.nnchain_cycles += nnchain_cycles_from_stats(
                stats.distance_scans, stats.distance_updates, members.size
            )

        return SpecHDResult(
            labels=labels,
            kept_indices=kept_indices,
            spectra=kept,
            hypervectors=hypervectors,
            bucket_keys=buckets,
            medoids=medoids,
            distances_by_bucket=distances_by_bucket,
            clustering_stats=total_stats,
            hardware=hardware,
        )
