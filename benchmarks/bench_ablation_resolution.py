"""Ablation — precursor bucketing resolution (Eq. 1's 0.05-1.0 Da knob).

Finer resolution shrinks buckets: less pairwise work (the n^2 term) but a
greater risk of splitting true replicate groups across buckets.  This
ablation quantifies both effects on the labelled dataset.
"""

import numpy as np

from repro import SpecHDConfig, SpecHDPipeline
from repro.hdc import EncoderConfig
from repro.reporting import banner, format_percent, format_table
from repro.spectrum import BucketingConfig, bucket_statistics, partition_spectra

RESOLUTIONS = (0.05, 0.1, 0.25, 0.5, 1.0)


def bench_ablation_resolution(emit_report, quality_dataset):
    encoder = EncoderConfig(dim=2048, mz_bins=16_000, intensity_levels=64)
    rows = []
    qualities = {}
    for resolution in RESOLUTIONS:
        buckets = partition_spectra(
            quality_dataset.spectra, BucketingConfig(resolution=resolution)
        )
        stats = bucket_statistics(buckets)
        pipeline = SpecHDPipeline(
            SpecHDConfig(
                encoder=encoder,
                bucketing=BucketingConfig(resolution=resolution),
                cluster_threshold=0.3,
            )
        )
        report = pipeline.run(quality_dataset.spectra).quality(
            quality_dataset.labels
        )
        qualities[resolution] = report
        rows.append(
            [
                resolution,
                stats["num_buckets"],
                f"{stats['mean_size']:.1f}",
                f"{stats['pairwise_work']:,}",
                format_percent(report.clustered_spectra_ratio),
                format_percent(report.incorrect_clustering_ratio, 2),
            ]
        )
    text = "\n".join(
        [
            banner("Ablation: precursor bucket resolution (Eq. 1)"),
            format_table(
                [
                    "resolution (Da)",
                    "buckets",
                    "mean size",
                    "pairwise work",
                    "clustered",
                    "ICR",
                ],
                rows,
            ),
            "",
            "Finer buckets cut the quadratic distance work; too fine splits",
            "replicate groups (clustered ratio drops).  High-res instruments",
            "tolerate 0.05 Da, as the paper notes.",
        ]
    )
    emit_report("ablation_resolution", text)

    # Finer resolution cannot create more pairwise work than coarser
    # (bucket-boundary jitter makes intermediate points non-monotone,
    # so only the endpoints are compared).
    works = []
    for resolution in (RESOLUTIONS[0], RESOLUTIONS[-1]):
        buckets = partition_spectra(
            quality_dataset.spectra, BucketingConfig(resolution=resolution)
        )
        works.append(bucket_statistics(buckets)["pairwise_work"])
    assert works[0] <= works[1]
    # Quality at 0.05 Da stays within a few points of 1.0 Da on this
    # high-resolution synthetic data (precursor jitter ~5 ppm).
    assert (
        qualities[1.0].clustered_spectra_ratio
        - qualities[0.05].clustered_spectra_ratio
    ) < 0.15
