"""Fig. 8 — standalone clustering speedup for PXD000561.

Pre-encoded hypervectors already sit in HBM; only the clustering phase is
timed.  Paper anchors: SpecHD 80 s, HyperSpec 1000 s (12.3x), GLEAMS 14.3x,
falcon ~100x.
"""

import pytest

from repro.baselines import TOOL_MODELS
from repro.datasets import get_dataset
from repro.fpga import project_dataset
from repro.reporting import banner, format_table

TOOL_ORDER = ("hyperspec-hac", "gleams", "mscrush", "falcon")
PAPER_ANCHORS = {
    "spechd": 80.0,
    "hyperspec-hac": 1000.0,
    "gleams": 14.3 * 80.0,
    "falcon": 100.0 * 80.0,
}


def bench_fig8_standalone_clustering(emit_report):
    dataset = get_dataset("PXD000561")

    def compute():
        spechd = project_dataset(dataset.num_spectra, dataset.size_bytes)
        times = {"spechd": spechd.clustering_phase_seconds}
        for name in TOOL_ORDER:
            times[name] = TOOL_MODELS[name].clustering_seconds(dataset)
        return times

    times = compute()

    rows = [
        [
            name,
            f"{times[name]:.0f}",
            f"{times[name] / times['spechd']:.1f}x",
            f"{PAPER_ANCHORS.get(name, float('nan')):.0f}"
            if name in PAPER_ANCHORS
            else "-",
        ]
        for name in ("spechd",) + TOOL_ORDER
    ]
    text = "\n".join(
        [
            banner(
                "Fig. 8: Standalone clustering, PXD000561 (21.1M spectra)"
            ),
            format_table(
                ["tool", "time (s)", "vs SpecHD", "paper time (s)"], rows
            ),
        ]
    )
    emit_report("fig8_standalone", text)

    assert times["spechd"] == pytest.approx(80.0, rel=0.10)
    assert times["hyperspec-hac"] / times["spechd"] == pytest.approx(
        12.3, rel=0.15
    )
    assert times["gleams"] / times["spechd"] == pytest.approx(14.3, rel=0.15)
    assert times["falcon"] / times["spechd"] == pytest.approx(100.0, rel=0.15)
