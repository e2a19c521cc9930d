"""Fig. 6b — hypervector compression factor per dataset (D_hv = 2048).

The paper reports 24x-108x across the five PRIDE datasets; the factor is
raw dataset bytes over packed hypervector bytes (256 B/spectrum).
"""

from repro.datasets import DATASET_ORDER, get_dataset
from repro.hdc import compression_from_descriptor
from repro.reporting import banner, format_table
from repro.units import format_bytes


def bench_fig6b_compression(emit_report):
    def compute():
        return {
            pride_id: compression_from_descriptor(
                get_dataset(pride_id).size_bytes,
                get_dataset(pride_id).num_spectra,
                dim=2048,
            )
            for pride_id in DATASET_ORDER
        }

    reports = compute()

    rows = []
    for pride_id in DATASET_ORDER:
        dataset = get_dataset(pride_id)
        report = reports[pride_id]
        rows.append(
            [
                pride_id,
                format_bytes(dataset.size_bytes),
                format_bytes(report.hv_bytes),
                f"{report.bytes_per_spectrum_raw:.0f}",
                f"{report.bytes_per_spectrum_hv:.0f}",
                f"{report.factor:.0f}x",
            ]
        )
    text = "\n".join(
        [
            banner("Fig. 6b: Compression factor at D_hv = 2048"),
            format_table(
                [
                    "dataset",
                    "raw size",
                    "HV size",
                    "raw B/spec",
                    "HV B/spec",
                    "factor",
                ],
                rows,
            ),
            "",
            "Paper range: 24x (PXD001468-class) to 108x (PXD001197-class).",
        ]
    )
    emit_report("fig6b_compression", text)

    factors = [reports[p].factor for p in DATASET_ORDER]
    assert min(factors) > 15
    assert max(factors) < 120
    # The spread between datasets matches the paper's ~4.5x ratio.
    assert 3.5 < max(factors) / min(factors) < 5.5
