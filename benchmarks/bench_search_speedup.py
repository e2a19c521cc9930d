"""§IV-E — database-search speedup from consensus clustering.

The paper: "The tool achieves a 1.5-2x speedup (ICR = 1-2%) in spectra
searching by skipping redundant searches for similar spectra."  We measure
the candidate-scoring workload with and without clustering.
"""

import time

from repro import SpecHDConfig, SpecHDPipeline
from repro.hdc import EncoderConfig
from repro.reporting import banner, format_table
from repro.search import SearchEngine


def bench_search_speedup(emit_report, quality_dataset):
    pipeline = SpecHDPipeline(
        SpecHDConfig(
            encoder=EncoderConfig(dim=2048, mz_bins=16_000, intensity_levels=64),
            cluster_threshold=0.35,
        )
    )
    result = pipeline.run(quality_dataset.spectra)
    database = list(quality_dataset.peptides)

    # Full search: every preprocessed spectrum.
    engine_full = SearchEngine(database)
    start = time.perf_counter()
    engine_full.search_batch(result.spectra)
    full_seconds = time.perf_counter() - start

    # Reduced search: representatives only.
    representatives = [result.spectra[i] for i in result.representatives()]
    engine_reduced = SearchEngine(database)
    start = time.perf_counter()
    engine_reduced.search_batch(representatives)
    reduced_seconds = time.perf_counter() - start

    workload_reduction = (
        engine_full.stats.candidates_scored
        / max(engine_reduced.stats.candidates_scored, 1)
    )
    time_speedup = full_seconds / max(reduced_seconds, 1e-9)

    text = "\n".join(
        [
            banner("§IV-E: Database-search speedup from clustering"),
            format_table(
                ["metric", "full search", "consensus search", "gain"],
                [
                    [
                        "spectra searched",
                        len(result.spectra),
                        len(representatives),
                        f"{len(result.spectra) / len(representatives):.2f}x",
                    ],
                    [
                        "candidates scored",
                        engine_full.stats.candidates_scored,
                        engine_reduced.stats.candidates_scored,
                        f"{workload_reduction:.2f}x",
                    ],
                    [
                        "wall time (s)",
                        f"{full_seconds:.3f}",
                        f"{reduced_seconds:.3f}",
                        f"{time_speedup:.2f}x",
                    ],
                ],
            ),
            "",
            "Paper: 1.5-2x search speedup at ICR = 1-2%.",
        ]
    )
    emit_report("search_speedup", text)

    assert workload_reduction > 1.3
