"""Clustering core: NN-chain HAC, baselines, cuts, consensus, and metrics."""

from .linkage import (
    SUPPORTED_LINKAGES,
    lance_williams_coefficients,
    update_distance,
    update_distance_rows,
    validate_linkage,
    prepare_distances,
    finalize_heights,
)
from .nnchain import ClusteringStats, LinkageResult, nn_chain_linkage
from .naive import naive_linkage
from .dendrogram import (
    UnionFind,
    cut_at_height,
    cut_into_k,
    merge_heights_are_monotone,
    cluster_sizes,
)
from .dbscan import DBSCANConfig, dbscan_precomputed, dbscan_num_clusters
from .consensus import cluster_members, consensus_spectrum
from .export import (
    to_newick,
    write_assignments_tsv,
    read_assignments_tsv,
)
from .metrics import (
    QualityReport,
    clustered_spectra_ratio,
    incorrect_clustering_ratio,
    completeness,
    quality_report,
    threshold_for_target_icr,
)

__all__ = [
    "SUPPORTED_LINKAGES",
    "lance_williams_coefficients",
    "update_distance",
    "update_distance_rows",
    "validate_linkage",
    "prepare_distances",
    "finalize_heights",
    "ClusteringStats",
    "LinkageResult",
    "nn_chain_linkage",
    "naive_linkage",
    "UnionFind",
    "cut_at_height",
    "cut_into_k",
    "merge_heights_are_monotone",
    "cluster_sizes",
    "DBSCANConfig",
    "dbscan_precomputed",
    "dbscan_num_clusters",
    "cluster_members",
    "consensus_spectrum",
    "QualityReport",
    "clustered_spectra_ratio",
    "incorrect_clustering_ratio",
    "completeness",
    "quality_report",
    "threshold_for_target_icr",
    "to_newick",
    "write_assignments_tsv",
    "read_assignments_tsv",
]
