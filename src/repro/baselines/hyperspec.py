"""HyperSpec baselines: HDC encoding + HAC (fastcluster) or DBSCAN (cuML).

HyperSpec [4] is the paper's closest competitor — the same ID-Level HDC
representation, but clustered with general-purpose libraries on GPU/CPU.
Algorithmically the HAC flavour is *identical* to SpecHD's NN-chain output
(fastcluster also computes exact dendrograms); what differs is the platform.
We therefore reuse the repro encoder and HAC, and the runtime/energy models
(:mod:`repro.baselines.runtime_models`) carry the platform difference, while
the DBSCAN flavour is a genuinely different algorithm whose quality deficit
Fig. 10 shows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster import (
    DBSCANConfig,
    cut_at_height,
    dbscan_precomputed,
    nn_chain_linkage,
)
from ..hdc import EncoderConfig, IDLevelEncoder, pairwise_hamming_blocked
from ..spectrum import MassSpectrum
from .base import ClusteringTool, assign_bucket_labels, bucketed


class HyperSpecHAC(ClusteringTool):
    """HyperSpec with hierarchical agglomerative clustering (fastcluster).

    HyperSpec's HAC uses average linkage on Hamming distances by default;
    ``threshold`` is the normalised Hamming cut in [0, 1].
    """

    name = "hyperspec-hac"

    def __init__(
        self,
        encoder: IDLevelEncoder | None = None,
        linkage: str = "average",
        resolution: float = 1.0,
    ) -> None:
        self.encoder = encoder or IDLevelEncoder(EncoderConfig())
        self.linkage = linkage
        self.resolution = resolution

    def cluster(
        self, spectra: Sequence[MassSpectrum], threshold: float
    ) -> np.ndarray:
        labels = np.full(len(spectra), -1, dtype=np.int64)
        buckets = bucketed(spectra, self.resolution)
        hypervectors = self.encoder.encode_batch(list(spectra))
        threshold_bits = threshold * self.encoder.dim
        next_label = 0
        for key in sorted(buckets):
            members = buckets[key]
            if len(members) == 1:
                labels[members[0]] = next_label
                next_label += 1
                continue
            distances = pairwise_hamming_blocked(hypervectors[members])
            result = nn_chain_linkage(distances, self.linkage)
            bucket_labels = cut_at_height(result, threshold_bits)
            next_label = assign_bucket_labels(
                labels, members, bucket_labels, next_label
            )
        return labels


class HyperSpecDBSCAN(ClusteringTool):
    """HyperSpec with DBSCAN (the cuML GPU flavour).

    ``threshold`` maps to DBSCAN's ``eps`` as a normalised Hamming radius;
    ``min_samples=2`` as HyperSpec uses for spectral data.
    """

    name = "hyperspec-dbscan"

    def __init__(
        self,
        encoder: IDLevelEncoder | None = None,
        min_samples: int = 2,
        resolution: float = 1.0,
    ) -> None:
        self.encoder = encoder or IDLevelEncoder(EncoderConfig())
        self.min_samples = min_samples
        self.resolution = resolution

    def cluster(
        self, spectra: Sequence[MassSpectrum], threshold: float
    ) -> np.ndarray:
        labels = np.full(len(spectra), -1, dtype=np.int64)
        buckets = bucketed(spectra, self.resolution)
        hypervectors = self.encoder.encode_batch(list(spectra))
        eps_bits = threshold * self.encoder.dim
        next_label = 0
        for key in sorted(buckets):
            members = buckets[key]
            if len(members) == 1:
                labels[members[0]] = -1
                continue
            distances = pairwise_hamming_blocked(hypervectors[members])
            bucket_labels = dbscan_precomputed(
                distances,
                DBSCANConfig(eps=eps_bits, min_samples=self.min_samples),
            )
            next_label = assign_bucket_labels(
                labels, members, bucket_labels, next_label
            )
        return labels
