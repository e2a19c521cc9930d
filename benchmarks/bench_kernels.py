"""Kernel-tier benchmark: per-kernel tier sweep.

What does each kernel tier buy?  Every buildable tier (numpy always;
numba where installed) runs the four hot kernels — ``popcount_swar``,
``hamming_cross``, ``hamming_pairs`` (the XOR+popcount row kernel
behind index verification) and the CSA encode pair (``csa_accumulate``
+ ``counts_from_planes``) — over the full-scale shapes, asserting
byte-identity against the numpy reference before timing.  Unavailable
tiers are *recorded*, not skipped silently: the JSON says why (e.g.
numba not installed), so a fleet node silently serving on the slow tier
is diffable.

Run under pytest (see README) or directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--smoke]

``--smoke`` runs a seconds-scale configuration for CI wiring checks and
does not overwrite the committed full report.
"""

import os
import time

import numpy as np

from repro.hdc import kernels
from repro.hdc.bitops import csa_accumulate, counts_from_planes
from repro.reporting import banner, format_table

#: hamming_cross full-scale shape: 1k queries x 100k refs at 1024 dims.
CROSS_QUERIES, CROSS_REFS, DIM = 1_000, 100_000, 1_024
POPCOUNT_WORDS = 4_000_000
PAIR_ROWS = 1_000_000
CSA_ROWS, CSA_LANES = 48, 4_096


def _best_of(function, repeats=3):
    """Best-of-N wall time plus the last result (cold effects excluded)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def _kernel_cases(rng, smoke):
    """(name, per-tier thunk factory, reference result) per hot kernel."""
    scale = 64 if smoke else 1
    words = DIM // 64
    queries = rng.integers(
        0, 2**64, size=(CROSS_QUERIES // scale, words), dtype=np.uint64
    )
    refs = rng.integers(
        0, 2**64, size=(CROSS_REFS // scale, words), dtype=np.uint64
    )
    flat = rng.integers(
        0, 2**64, size=POPCOUNT_WORDS // scale, dtype=np.uint64
    )
    pairs_a = rng.integers(
        0, 2**64, size=(PAIR_ROWS // scale, words), dtype=np.uint64
    )
    pairs_b = rng.integers(
        0, 2**64, size=(PAIR_ROWS // scale, words), dtype=np.uint64
    )
    csa_rows = rng.integers(
        0,
        2**64,
        size=(CSA_ROWS, CSA_LANES // scale, words),
        dtype=np.uint64,
    )

    def cross(backend):
        return lambda: backend.hamming_cross(queries, refs)

    def popcount(backend):
        return lambda: backend.popcount_swar(flat)

    def pairs(backend):
        return lambda: backend.hamming_pairs(pairs_a, pairs_b)

    def csa(backend):
        def run():
            kernels.set_kernel_tier(backend.name)
            planes = csa_accumulate(csa_rows, CSA_ROWS)
            return counts_from_planes(planes, DIM)

        return run

    return [
        ("hamming_cross", cross, f"{queries.shape[0]}x{refs.shape[0]}"),
        ("popcount_swar", popcount, f"{flat.size} words"),
        ("hamming_pairs", pairs, f"{pairs_a.shape[0]} rows"),
        ("csa+counts", csa, f"{CSA_ROWS}x{csa_rows.shape[1]} lanes"),
    ]


def _tier_sweep(rng, smoke):
    """Per-kernel timings for every buildable tier, numpy-pinned."""
    status = kernels.available_kernel_tiers()
    buildable = [
        name for name in reversed(kernels.KERNEL_TIERS)
        if status[name] is None
    ]  # numpy first: it produces the reference results
    cases = _kernel_cases(rng, smoke)
    repeats = 1 if smoke else 3

    rows = []
    records = []
    reference = {}
    for tier in buildable:
        kernels.set_kernel_tier(tier)
        backend = kernels.active_backend()
        kernels.warm_up()  # JIT cost paid here, not inside the timing
        for name, factory, shape in cases:
            seconds, result = _best_of(factory(backend), repeats)
            if tier == "numpy":
                reference[name] = result
            else:
                np.testing.assert_array_equal(
                    np.asarray(result), np.asarray(reference[name]),
                    err_msg=f"{tier} {name} diverged from numpy",
                )
            speedup = None
            if name in reference and tier != "numpy":
                base = next(
                    r for r in records
                    if r["tier"] == "numpy" and r["kernel"] == name
                )
                speedup = round(base["seconds"] / seconds, 2)
            records.append(
                {
                    "tier": tier,
                    "kernel": name,
                    "shape": shape,
                    "seconds": round(seconds, 4),
                    "speedup_vs_numpy": speedup,
                }
            )
            rows.append(
                [
                    tier,
                    name,
                    shape,
                    f"{seconds * 1e3:,.1f}",
                    "-" if speedup is None else f"{speedup:.2f}x",
                ]
            )
    kernels.set_kernel_tier(None)
    unavailable = {
        name: reason for name, reason in status.items() if reason
    }
    return rows, records, unavailable


def _run(smoke):
    rng = np.random.default_rng(20_240_808)
    kernels._reset_registry()

    runtime = kernels.kernel_runtime()
    sweep_rows, sweep_records, unavailable = _tier_sweep(rng, smoke)

    sections = [
        banner(
            "Kernel tiers: per-kernel sweep"
            + (" (smoke mode)" if smoke else "")
        ),
        f"active tier: {runtime['tier']} "
        f"(v{runtime['tier_version']}); "
        f"numba: {runtime['numba_version'] or 'not installed'}",
    ]
    for name, reason in sorted(unavailable.items()):
        sections.append(f"tier {name} unavailable: {reason}")
    sections += [
        "",
        format_table(
            ["tier", "kernel", "shape", "best ms", "vs numpy"],
            sweep_rows,
        ),
        "",
        "Equivalence asserted per tier before timing: every kernel's",
        "output byte-identical to the numpy reference.",
    ]

    headline = {
        "benchmark": "kernels",
        "runtime": runtime,
        "unavailable_tiers": unavailable,
        "kernel_sweep": sweep_records,
    }
    return "\n".join(sections), headline


def bench_kernels(emit_report):
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
    text, headline = _run(smoke)
    emit_report("kernels", text)
    if not smoke:
        from bench_json import write_bench_json

        write_bench_json("kernels", headline)


if __name__ == "__main__":
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale run for CI wiring checks (no report file)",
    )
    arguments = parser.parse_args()
    report, headline = _run(arguments.smoke)
    print(report)
    if not arguments.smoke:
        from bench_json import write_bench_json

        results = Path(__file__).parent / "results"
        results.mkdir(exist_ok=True)
        (results / "kernels.txt").write_text(
            report + "\n", encoding="utf-8"
        )
        print(f"headline numbers -> {write_bench_json('kernels', headline)}")
