"""Fig. 9 — energy efficiency vs HyperSpec-DBSCAN / HyperSpec-HAC.

End-to-end (a) and standalone clustering (b) energy-efficiency ratios on
PXD000561.  Paper anchors: end-to-end 14x (DBSCAN) / 31x (HAC); clustering
phase 12x / 40x.
"""

from repro.baselines import HYPERSPEC_DBSCAN, HYPERSPEC_HAC
from repro.datasets import get_dataset
from repro.fpga import (
    project_dataset,
    spechd_clustering_energy,
    spechd_end_to_end_energy,
)
from repro.fpga.energy import energy_efficiency
from repro.reporting import banner, format_table

PAPER = {
    ("hyperspec-dbscan", "e2e"): 14.0,
    ("hyperspec-hac", "e2e"): 31.0,
    ("hyperspec-dbscan", "cluster"): 12.0,
    ("hyperspec-hac", "cluster"): 40.0,
}


def bench_fig9_energy_efficiency(emit_report):
    dataset = get_dataset("PXD000561")

    def compute():
        spechd = project_dataset(dataset.num_spectra, dataset.size_bytes)
        spechd_e2e = spechd_end_to_end_energy(spechd)
        spechd_cluster = spechd_clustering_energy(spechd)
        out = {"spechd_e2e_kj": spechd_e2e / 1e3,
               "spechd_cluster_kj": spechd_cluster / 1e3}
        for tool in (HYPERSPEC_DBSCAN, HYPERSPEC_HAC):
            out[(tool.name, "e2e")] = energy_efficiency(
                tool.end_to_end_joules(dataset), spechd_e2e
            )
            out[(tool.name, "cluster")] = energy_efficiency(
                tool.clustering_joules(dataset), spechd_cluster
            )
        return out

    results = compute()

    rows = []
    for tool_name in ("hyperspec-dbscan", "hyperspec-hac"):
        for phase in ("e2e", "cluster"):
            rows.append(
                [
                    tool_name,
                    phase,
                    f"{results[(tool_name, phase)]:.1f}x",
                    f"{PAPER[(tool_name, phase)]:.0f}x",
                ]
            )
    text = "\n".join(
        [
            banner("Fig. 9: Energy efficiency over HyperSpec (PXD000561)"),
            f"SpecHD energy: e2e {results['spechd_e2e_kj']:.1f} kJ, "
            f"clustering {results['spechd_cluster_kj']:.1f} kJ",
            "",
            format_table(
                ["baseline", "phase", "efficiency (model)", "paper"], rows
            ),
        ]
    )
    emit_report("fig9_energy", text)

    # Band + ordering assertions (see EXPERIMENTS.md for deviations).
    assert 8 <= results[("hyperspec-dbscan", "e2e")] <= 30
    assert 20 <= results[("hyperspec-hac", "e2e")] <= 55
    assert 7 <= results[("hyperspec-dbscan", "cluster")] <= 25
    assert 25 <= results[("hyperspec-hac", "cluster")] <= 60
    assert (
        results[("hyperspec-hac", "e2e")]
        > results[("hyperspec-dbscan", "e2e")]
    )
