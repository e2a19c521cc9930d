"""Ablation — number of clustering kernels (1-8).

§IV evaluates "a single encoder and 5 clustering kernels".  This ablation
shows why: end-to-end time scales with kernel count until either the
encoder stream or the preprocessing stream becomes the bottleneck, and the
U280's URAM budget caps the count at 5 anyway (see
:func:`repro.fpga.max_cluster_kernels`).
"""

from repro.datasets import get_dataset
from repro.fpga import max_cluster_kernels, project_dataset
from repro.reporting import banner, format_table
from repro.units import format_seconds

KERNEL_COUNTS = (1, 2, 3, 4, 5, 6, 8)


def bench_ablation_kernel_count(emit_report):
    dataset = get_dataset("PXD000561")

    def compute():
        return {
            count: project_dataset(
                dataset.num_spectra,
                dataset.size_bytes,
                num_cluster_kernels=count,
            )
            for count in KERNEL_COUNTS
        }

    reports = compute()
    feasible_max = max_cluster_kernels()

    rows = []
    for count in KERNEL_COUNTS:
        report = reports[count]
        rows.append(
            [
                count,
                format_seconds(report.cluster_seconds),
                format_seconds(report.total_seconds),
                f"{reports[1].cluster_seconds / report.cluster_seconds:.2f}x",
                "yes" if count <= feasible_max else "NO (URAM)",
            ]
        )
    text = "\n".join(
        [
            banner("Ablation: clustering-kernel count (PXD000561)"),
            format_table(
                [
                    "kernels",
                    "cluster time",
                    "e2e time",
                    "cluster speedup",
                    "fits U280?",
                ],
                rows,
            ),
            "",
            f"Resource model: at most {feasible_max} clustering kernels fit"
            " alongside the encoder (URAM-bound) - the paper's design point.",
        ]
    )
    emit_report("ablation_kernels", text)

    # Near-linear clustering scaling, and the feasibility cliff at 5.
    assert reports[5].cluster_seconds < reports[1].cluster_seconds / 4.0
    assert feasible_max == 5
    # Beyond the bottleneck, e2e gains flatten: 8 kernels buy little.
    gain_5_to_8 = reports[5].total_seconds / reports[8].total_seconds
    assert gain_5_to_8 < 1.35
