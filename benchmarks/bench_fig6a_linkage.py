"""Fig. 6a — linkage criterion comparison at a fixed 1 % ICR budget.

For each linkage criterion supported by the NN-chain kernel (complete,
Ward, single, average), sweeps the merge threshold, picks the operating
point with the highest clustered-spectra ratio whose ICR stays within 1 %,
and reports ratio + completeness — the paper's Fig. 6a protocol.

Paper anchors: complete 44 % / 0.764, Ward 40 % / 0.756, single lags.
"""

import numpy as np

from repro import SpecHDConfig, SpecHDPipeline
from repro.hdc import EncoderConfig
from repro.reporting import banner, format_percent, format_table

LINKAGES = ("complete", "ward", "average", "single")
THRESHOLDS = [round(t, 3) for t in np.linspace(0.05, 0.48, 12)]
ICR_BUDGET = 0.01


def best_operating_point(linkage, dataset):
    encoder = EncoderConfig(dim=2048, mz_bins=16_000, intensity_levels=64)
    best = None
    for threshold in THRESHOLDS:
        pipeline = SpecHDPipeline(
            SpecHDConfig(
                encoder=encoder,
                linkage=linkage,
                cluster_threshold=threshold,
            )
        )
        report = pipeline.run(dataset.spectra).quality(dataset.labels)
        if report.incorrect_clustering_ratio <= ICR_BUDGET:
            if best is None or (
                report.clustered_spectra_ratio > best.clustered_spectra_ratio
            ):
                best = report
    return best


def bench_fig6a_linkage_comparison(emit_report, quality_dataset):
    results = {}
    for linkage in LINKAGES:
        results[linkage] = best_operating_point(linkage, quality_dataset)

    rows = []
    paper = {
        "complete": ("44%", "0.764"),
        "ward": ("40%", "0.756"),
        "average": ("-", "-"),
        "single": ("lags", "lags"),
    }
    for linkage in LINKAGES:
        report = results[linkage]
        rows.append(
            [
                linkage,
                format_percent(report.clustered_spectra_ratio)
                if report
                else "n/a",
                f"{report.completeness:.3f}" if report else "n/a",
                format_percent(report.incorrect_clustering_ratio, 2)
                if report
                else "n/a",
                paper[linkage][0],
                paper[linkage][1],
            ]
        )
    text = "\n".join(
        [
            banner("Fig. 6a: Linkage comparison at ICR <= 1% (model vs paper)"),
            format_table(
                [
                    "linkage",
                    "clustered",
                    "completeness",
                    "ICR",
                    "paper clustered",
                    "paper compl.",
                ],
                rows,
            ),
        ]
    )
    emit_report("fig6a_linkage", text)

    # Shape assertions: complete >= ward >= single on clustered ratio.
    complete = results["complete"]
    single = results["single"]
    assert complete is not None
    if single is not None:
        assert (
            complete.clustered_spectra_ratio
            >= single.clustered_spectra_ratio - 0.02
        )
