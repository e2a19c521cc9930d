"""Fig. 2 — naive HAC vs NN-chain HAC.

Measures both wall-clock time and counted distance operations across
problem sizes, demonstrating the O(n^3) vs O(n^2) separation that motivates
the paper's algorithm choice (§II-C).
"""

import time

import numpy as np

from repro.cluster import naive_linkage, nn_chain_linkage
from repro.reporting import banner, format_table


def random_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 4))
    deltas = points[:, None, :] - points[None, :, :]
    return np.sqrt((deltas ** 2).sum(axis=-1))


def bench_fig2_comparison(emit_report):
    sizes = [64, 128, 256, 512]
    rows = []
    for n in sizes:
        matrix = random_matrix(n)
        start = time.perf_counter()
        chain = nn_chain_linkage(matrix, "complete")
        chain_seconds = time.perf_counter() - start
        start = time.perf_counter()
        naive = naive_linkage(matrix, "complete")
        naive_seconds = time.perf_counter() - start
        rows.append(
            [
                n,
                f"{chain.stats.distance_scans:,}",
                f"{naive.stats.distance_scans:,}",
                f"{naive.stats.distance_scans / chain.stats.distance_scans:.1f}x",
                f"{chain_seconds * 1e3:.1f}",
                f"{naive_seconds * 1e3:.1f}",
            ]
        )
    text = "\n".join(
        [
            banner("Fig. 2: Naive vs NN-chain HAC (complete linkage)"),
            format_table(
                [
                    "n",
                    "NN-chain scans",
                    "naive scans",
                    "scan ratio",
                    "NN-chain ms",
                    "naive ms",
                ],
                rows,
            ),
            "",
            "The scan ratio grows ~linearly with n: naive HAC is O(n^3),",
            "NN-chain is O(n^2) (paper Fig. 2).",
        ]
    )
    emit_report("fig2_nnchain_vs_naive", text)

    # NN-chain at n=256 merges every point.
    matrix = random_matrix(256)
    result = nn_chain_linkage(matrix, "complete")
    assert result.merges.shape[0] == 255

    # The asymptotic separation must be visible across the sweep.
    small = random_matrix(64)
    large = random_matrix(512)
    ratio_small = (
        naive_linkage(small).stats.distance_scans
        / nn_chain_linkage(small).stats.distance_scans
    )
    ratio_large = (
        naive_linkage(large).stats.distance_scans
        / nn_chain_linkage(large).stats.distance_scans
    )
    assert ratio_large > 2 * ratio_small
