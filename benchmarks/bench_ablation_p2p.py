"""Ablation — near-storage preprocessing + P2P vs conventional host path.

§III-A's architectural claims: (a) MSAS preprocessing inside the SSD rides
the internal NAND bandwidth for free, and (b) P2P NVMe->FPGA transfers
"eliminate intermediary host memory interactions".  This ablation compares
three data paths for each dataset:

1. **SpecHD**: in-SSD preprocessing, P2P transfer of the *reduced* stream;
2. **P2P w/o MSAS**: raw data P2P to the FPGA, preprocessing on-card;
3. **host path**: raw data through host DRAM (the bounce-buffer baseline).
"""

from repro.datasets import DATASET_ORDER, get_dataset
from repro.fpga import MSASModel, host_mediated_transfer, p2p_transfer
from repro.reporting import banner, format_table


def bench_ablation_p2p_paths(emit_report):
    msas = MSASModel()

    def compute():
        rows = {}
        for pride_id in DATASET_ORDER:
            dataset = get_dataset(pride_id)
            preprocessed = msas.output_bytes(dataset.num_spectra)
            spechd = (
                msas.preprocess(dataset.size_bytes, dataset.num_spectra).seconds
                + p2p_transfer(preprocessed).seconds
            )
            raw_p2p = p2p_transfer(dataset.size_bytes).seconds
            raw_host = host_mediated_transfer(dataset.size_bytes).seconds
            rows[pride_id] = (spechd, raw_p2p, raw_host)
        return rows

    rows = compute()

    table = []
    for pride_id in DATASET_ORDER:
        spechd, raw_p2p, raw_host = rows[pride_id]
        table.append(
            [
                pride_id,
                f"{spechd:.1f}",
                f"{raw_p2p:.1f}",
                f"{raw_host:.1f}",
                f"{raw_host / spechd:.1f}x",
            ]
        )
    text = "\n".join(
        [
            banner("Ablation: data-path comparison (seconds to FPGA-ready)"),
            format_table(
                [
                    "dataset",
                    "MSAS+P2P (SpecHD)",
                    "raw P2P",
                    "raw host path",
                    "SpecHD gain",
                ],
                table,
            ),
            "",
            "MSAS preprocessing overlaps the NAND stream, and the reduced",
            "output makes the PCIe hop nearly free; the host path pays two",
            "PCIe traversals plus a memcpy on the full raw volume.",
        ]
    )
    emit_report("ablation_p2p", text)

    for pride_id in DATASET_ORDER:
        spechd, raw_p2p, raw_host = rows[pride_id]
        # The paths must order: host slowest, raw P2P in between.
        assert raw_host > raw_p2p
        # SpecHD ships ~50x less data over PCIe; the end state (data
        # FPGA-ready, preprocessed) arrives faster than either raw path
        # can even deliver unpreprocessed bytes for the big datasets.
        if get_dataset(pride_id).size_bytes > 30e9:
            assert spechd < raw_host
