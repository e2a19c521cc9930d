"""Consensus / representative spectrum selection.

After clustering, SpecHD picks a representative per cluster by "the lowest
average minimum distance to all other spectra within that cluster, based on
the original distance matrix" (§III-C) — i.e. the cluster *medoid*.  The
medoid's spectrum (or hypervector) then stands in for the whole cluster in
downstream database searching, which is where the 1.5–2× search speedup of
§IV-E comes from.

For peak-level consensus (needed when exporting representative spectra to a
search engine), we also provide the standard binned-average consensus
builder used by tools like spectra-cluster.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..errors import ClusteringError
from ..spectrum import MassSpectrum


def cluster_members(labels: np.ndarray) -> Dict[int, np.ndarray]:
    """Mapping ``{label: member_indices}`` (noise label -1 excluded)."""
    labels = np.asarray(labels)
    members: Dict[int, np.ndarray] = {}
    for label in np.unique(labels):
        if label < 0:
            continue
        members[int(label)] = np.flatnonzero(labels == label)
    return members


def medoid_index(distances: np.ndarray, members: np.ndarray) -> int:
    """Index (into the full matrix) of the medoid of ``members``.

    The medoid minimises the average distance to the other members; the
    lowest index wins ties, matching the hardware's first-match comparator.
    Unsigned counts (the pipeline's uint16 matrices) sum in uint64.
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        raise ClusteringError("cannot take the medoid of an empty cluster")
    if members.size == 1:
        return int(members[0])
    sub = distances[np.ix_(members, members)]
    mean_distance = sub.sum(axis=1) / (members.size - 1)
    return int(members[int(np.argmin(mean_distance))])


def select_medoids(
    distances: np.ndarray, labels: np.ndarray
) -> Dict[int, int]:
    """Medoid spectrum index for every cluster label."""
    return {
        label: medoid_index(distances, members)
        for label, members in cluster_members(labels).items()
    }


def representative_indices(
    distances: np.ndarray, labels: np.ndarray, include_singletons: bool = True
) -> List[int]:
    """Indices of the spectra that represent the clustered dataset.

    One medoid per multi-member cluster; singleton spectra represent
    themselves when ``include_singletons`` is set.  The length of this list
    over the dataset size is exactly the search-workload reduction factor.
    """
    labels = np.asarray(labels)
    representatives: List[int] = []
    for label, members in cluster_members(labels).items():
        if members.size == 1 and not include_singletons:
            continue
        representatives.append(medoid_index(distances, members))
    if include_singletons:
        representatives.extend(int(i) for i in np.flatnonzero(labels < 0))
    return sorted(representatives)


def consensus_spectrum(
    spectra: Sequence[MassSpectrum],
    members: Sequence[int],
    bin_width: float = 0.02,
    min_occurrence_fraction: float = 0.5,
) -> MassSpectrum:
    """Build a binned-average consensus spectrum for one cluster.

    Peaks from all member spectra are binned at ``bin_width`` Da; bins hit by
    at least ``min_occurrence_fraction`` of the members survive, with m/z and
    intensity averaged (intensity weighted).  The precursor m/z/charge are
    taken from the first member (all members share a precursor bucket).
    """
    if not members:
        raise ClusteringError("consensus of an empty cluster is undefined")
    if bin_width <= 0:
        raise ClusteringError("bin_width must be positive")
    if not 0.0 < min_occurrence_fraction <= 1.0:
        raise ClusteringError("min_occurrence_fraction must be in (0, 1]")

    member_spectra = [spectra[int(index)] for index in members]
    accumulator: Dict[int, List[float]] = {}
    occurrences: Dict[int, int] = {}
    for spectrum in member_spectra:
        seen_bins = set()
        for mz_value, intensity_value in spectrum.peaks():
            bin_id = int(mz_value / bin_width)
            entry = accumulator.setdefault(bin_id, [0.0, 0.0])
            entry[0] += mz_value * intensity_value
            entry[1] += intensity_value
            seen_bins.add(bin_id)
        for bin_id in seen_bins:
            occurrences[bin_id] = occurrences.get(bin_id, 0) + 1

    min_count = max(1, int(np.ceil(min_occurrence_fraction * len(member_spectra))))
    mz_values: List[float] = []
    intensity_values: List[float] = []
    for bin_id in sorted(accumulator):
        if occurrences[bin_id] < min_count:
            continue
        weighted_mz, total_intensity = accumulator[bin_id]
        if total_intensity <= 0:
            continue
        mz_values.append(weighted_mz / total_intensity)
        intensity_values.append(total_intensity / len(member_spectra))

    template = member_spectra[0]
    return MassSpectrum(
        identifier=f"consensus({template.identifier};n={len(member_spectra)})",
        precursor_mz=float(
            np.mean([s.precursor_mz for s in member_spectra])
        ),
        precursor_charge=template.precursor_charge,
        mz=np.array(mz_values, dtype=np.float64),
        intensity=np.array(intensity_values, dtype=np.float64),
        metadata={"cluster_size": str(len(member_spectra))},
    )
