"""Table I — preprocessing performance metrics on the five PRIDE datasets.

Regenerates the paper's Table I (preprocessing time and energy per dataset)
from the MSAS near-storage model, and reports paper-vs-model deltas.
"""

import pytest

from repro.datasets import DATASET_ORDER, get_dataset
from repro.fpga import MSASModel
from repro.reporting import banner, format_table
from repro.units import format_bytes


def bench_table1_preprocessing(emit_report):
    model = MSASModel()

    def run_all():
        return {
            pride_id: model.preprocess(
                get_dataset(pride_id).size_bytes,
                get_dataset(pride_id).num_spectra,
            )
            for pride_id in DATASET_ORDER
        }

    reports = run_all()

    rows = []
    for pride_id in DATASET_ORDER:
        dataset = get_dataset(pride_id)
        report = reports[pride_id]
        rows.append(
            [
                dataset.sample_type,
                pride_id,
                f"{dataset.num_spectra / 1e6:.1f}M",
                format_bytes(dataset.size_bytes),
                f"{report.seconds:.2f}",
                f"{dataset.paper_pp_seconds:.2f}",
                f"{report.energy_joules:.1f}",
                f"{dataset.paper_pp_joules:.1f}",
            ]
        )
    text = "\n".join(
        [
            banner(
                "Table I: Preprocessing Performance Metrics (model vs paper)"
            ),
            format_table(
                [
                    "Sample Type",
                    "PRIDE ID",
                    "#Spectra",
                    "Size",
                    "PP Time(s)",
                    "paper",
                    "Energy(J)",
                    "paper",
                ],
                rows,
            ),
        ]
    )
    emit_report("table1_preprocessing", text)

    # Regression: every row within 12 % of the paper's measurement.
    for pride_id in DATASET_ORDER:
        dataset = get_dataset(pride_id)
        report = reports[pride_id]
        assert report.seconds == pytest.approx(
            dataset.paper_pp_seconds, rel=0.12
        )
        assert report.energy_joules == pytest.approx(
            dataset.paper_pp_joules, rel=0.12
        )
