"""Fig. 7 — end-to-end runtime speedup over the comparison tools.

For each of the five PRIDE datasets, computes SpecHD's end-to-end time from
the first-principles hardware model and each baseline's from its calibrated
cost model, then prints the speedup bars of Fig. 7.

Paper anchors: 31x over GLEAMS on PXD001511, 54x on PXD000561, ~6x over
HyperSpec-HAC.
"""

from repro.baselines import TOOL_MODELS, speedup_over
from repro.datasets import DATASET_ORDER, get_dataset
from repro.fpga import project_dataset
from repro.reporting import banner, format_table
from repro.units import format_seconds

TOOL_ORDER = ("hyperspec-dbscan", "hyperspec-hac", "mscrush", "gleams", "falcon")


def bench_fig7_end_to_end_speedup(emit_report):
    def compute():
        table = {}
        for pride_id in DATASET_ORDER:
            dataset = get_dataset(pride_id)
            spechd = project_dataset(dataset.num_spectra, dataset.size_bytes)
            table[pride_id] = (
                spechd.total_seconds,
                {
                    name: speedup_over(
                        TOOL_MODELS[name], dataset, spechd.total_seconds
                    )
                    for name in TOOL_ORDER
                },
            )
        return table

    table = compute()

    rows = []
    for pride_id in DATASET_ORDER:
        spechd_seconds, speedups = table[pride_id]
        rows.append(
            [pride_id, format_seconds(spechd_seconds)]
            + [f"{speedups[name]:.1f}x" for name in TOOL_ORDER]
        )
    text = "\n".join(
        [
            banner("Fig. 7: End-to-end runtime speedup (SpecHD = 1x)"),
            format_table(
                ["dataset", "SpecHD e2e"] + list(TOOL_ORDER), rows
            ),
            "",
            "Paper anchors: GLEAMS 31x (PXD001511) / 54x (PXD000561);",
            "HyperSpec-HAC ~6x; range quoted in the abstract: 6x-54x.",
        ]
    )
    emit_report("fig7_end_to_end", text)

    # Anchor assertions.
    _, speedups_1511 = table["PXD001511"]
    _, speedups_561 = table["PXD000561"]
    assert 25 <= speedups_1511["gleams"] <= 40       # paper: 31x
    assert 45 <= speedups_561["gleams"] <= 70        # paper: 54x
    hyperspec = [table[p][1]["hyperspec-hac"] for p in DATASET_ORDER]
    assert min(hyperspec) < 6 < max(hyperspec)       # paper: "6x"
    # SpecHD wins everywhere.
    for pride_id in DATASET_ORDER:
        assert all(s > 1.0 for s in table[pride_id][1].values())
