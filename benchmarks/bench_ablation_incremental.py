"""Ablation — incremental updates vs full re-clustering (§IV-B extension).

The paper argues for "one-time preprocessing and subsequent updates".
This benchmark quantifies the claim: fold a new instrument run into an
existing clustering via :class:`repro.incremental.IncrementalClusterStore`
and compare cost and quality against re-clustering everything from scratch.
"""

import time

import numpy as np

from repro import SpecHDConfig, SpecHDPipeline
from repro.cluster import quality_report
from repro.datasets import SyntheticConfig, generate_dataset
from repro.hdc import EncoderConfig
from repro.incremental import IncrementalClusterStore
from repro.reporting import banner, format_table

ENCODER = EncoderConfig(dim=2048, mz_bins=16_000, intensity_levels=64)


def bench_ablation_incremental(emit_report):
    population = generate_dataset(
        SyntheticConfig(
            num_peptides=20,
            replicates_per_peptide=12,
            extra_singleton_peptides=60,
            seed=4242,
        )
    )
    half = len(population) // 2
    first_half = population.spectra[:half]
    second_half = population.spectra[half:]

    # Baseline: full re-clustering of everything after the new run lands.
    pipeline = SpecHDPipeline(
        SpecHDConfig(encoder=ENCODER, cluster_threshold=0.36)
    )
    start = time.perf_counter()
    pipeline.run(first_half)  # the original clustering (cost already paid)
    full_first = time.perf_counter() - start
    start = time.perf_counter()
    full_result = pipeline.run(population.spectra)
    full_recluster = time.perf_counter() - start

    # Incremental: build once, then only the delta.
    store = IncrementalClusterStore(
        encoder_config=ENCODER, cluster_threshold=0.36
    )
    start = time.perf_counter()
    store.add_batch(first_half)
    incremental_first = time.perf_counter() - start
    start = time.perf_counter()
    update = store.add_batch(second_half)
    incremental_update = time.perf_counter() - start

    full_quality = full_result.quality(population.labels)
    incremental_quality = quality_report(
        store.labels(), population.labels[: len(store)]
    )

    text = "\n".join(
        [
            banner("Ablation: incremental update vs full re-clustering"),
            format_table(
                ["strategy", "initial (s)", "new-run cost (s)",
                 "clustered", "ICR"],
                [
                    [
                        "full re-cluster",
                        f"{full_first:.2f}",
                        f"{full_recluster:.2f}",
                        f"{full_quality.clustered_spectra_ratio:.1%}",
                        f"{full_quality.incorrect_clustering_ratio:.2%}",
                    ],
                    [
                        "incremental",
                        f"{incremental_first:.2f}",
                        f"{incremental_update:.2f}",
                        f"{incremental_quality.clustered_spectra_ratio:.1%}",
                        f"{incremental_quality.incorrect_clustering_ratio:.2%}",
                    ],
                ],
            ),
            "",
            f"absorption rate of the new run: {update.absorption_rate:.0%}",
            "The incremental path touches only the new spectra; quality",
            "stays within a few points of the full re-cluster.",
        ]
    )
    emit_report("ablation_incremental", text)

    # The incremental update must not regress quality catastrophically.
    assert incremental_quality.incorrect_clustering_ratio <= (
        full_quality.incorrect_clustering_ratio + 0.03
    )
    assert incremental_quality.clustered_spectra_ratio >= (
        full_quality.clustered_spectra_ratio - 0.15
    )
    assert update.absorption_rate > 0.3
