"""Fig. 10 — clustered-spectra ratio vs incorrect-clustering ratio.

Sweeps each tool's threshold grid over the shared labelled dataset and
prints one (ICR, clustered-ratio) series per tool — the trade-off curves of
Fig. 10.  SpecHD's operating point at ICR <= 1 % is checked against the
paper's ~45 % clustered-spectra anchor (band, since our data is synthetic).
"""

import numpy as np

from repro import SpecHDConfig, SpecHDPipeline
from repro.baselines import (
    FalconLike,
    GleamsLike,
    HyperSpecDBSCAN,
    HyperSpecHAC,
    MSClusterLike,
    MaRaClusterLike,
    MsCrushLike,
    SpectraClusterLike,
)
from repro.hdc import EncoderConfig
from repro.reporting import banner, format_percent, format_series


def spechd_curve(dataset, encoder_config):
    points = []
    for threshold in np.linspace(0.05, 0.48, 10):
        pipeline = SpecHDPipeline(
            SpecHDConfig(
                encoder=encoder_config, cluster_threshold=float(threshold)
            )
        )
        report = pipeline.run(dataset.spectra).quality(dataset.labels)
        points.append(
            (
                report.incorrect_clustering_ratio,
                report.clustered_spectra_ratio,
            )
        )
    return points


def tool_curve(tool, dataset):
    from repro.cluster import quality_report

    points = []
    for threshold in tool.threshold_grid():
        labels = tool.cluster(dataset.spectra, threshold)
        full = np.full(len(dataset.spectra), -1, dtype=np.int64)
        full[: len(labels)] = labels
        report = quality_report(full, dataset.labels)
        points.append(
            (
                report.incorrect_clustering_ratio,
                report.clustered_spectra_ratio,
            )
        )
    return points


def best_ratio_at_budget(points, budget=0.01):
    eligible = [ratio for icr, ratio in points if icr <= budget]
    return max(eligible) if eligible else 0.0


def bench_fig10_quality_tradeoff(emit_report, quality_dataset, shared_encoder):
    encoder_config = EncoderConfig(
        dim=2048, mz_bins=16_000, intensity_levels=64
    )
    tools = [
        HyperSpecHAC(encoder=shared_encoder),
        HyperSpecDBSCAN(encoder=shared_encoder),
        GleamsLike(),
        FalconLike(),
        MsCrushLike(),
        MaRaClusterLike(),
        MSClusterLike(),
        SpectraClusterLike(),
    ]

    curves = {"spechd": spechd_curve(quality_dataset, encoder_config)}
    for tool in tools:
        curves[tool.name] = tool_curve(tool, quality_dataset)

    sections = [banner("Fig. 10: Clustered spectra ratio vs ICR")]
    operating_points = {}
    for name, points in curves.items():
        ordered = sorted(points)
        sections.append(
            format_series(
                f"[{name}]",
                [
                    (format_percent(icr, 2), format_percent(ratio))
                    for icr, ratio in ordered
                ],
                ["icr", "clustered"],
            )
        )
        operating_points[name] = best_ratio_at_budget(points)
    sections.append("")
    sections.append("Operating points at ICR <= 1%:")
    for name, ratio in sorted(
        operating_points.items(), key=lambda item: -item[1]
    ):
        sections.append(f"  {name:18s} {format_percent(ratio)}")
    sections.append("")
    sections.append(
        "Paper: SpecHD 45%, HyperSpec 48%, MaRaCluster 44%; msCRUSH,"
    )
    sections.append("falcon, MSCluster and spectra-cluster below SpecHD.")
    emit_report("fig10_quality", text := "\n".join(sections))

    # Shape assertions at the 1% ICR budget.
    spechd_point = operating_points["spechd"]
    assert spechd_point > 0.30, f"SpecHD operating point too low: {spechd_point}"
    # SpecHD is competitive with the HDC + HAC baseline (same family)...
    assert (
        spechd_point >= operating_points["hyperspec-hac"] - 0.10
    )
    # ...and beats the greedy tools, as in the paper.
    assert spechd_point >= operating_points["mscluster"] - 0.05
    assert spechd_point >= operating_points["spectra-cluster"] - 0.05
