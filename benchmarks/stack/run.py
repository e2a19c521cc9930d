"""The SpecHD stack benchmark: one command, every metric by name.

::

    python3 benchmarks/stack/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/stack/run.py [--seed N] [--seconds S] [--trace] [--runs R] [--smoke]
    python3 benchmarks/stack/run.py compare A.json B.json

With ``--workload`` one workload runs in this interpreter and the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without it every workload runs in
a fresh child interpreter and the collected runs, stamped with where they
were taken, go to ``benchmarks/stack/results/``.  ``--smoke`` runs all
six at toy sizes in this interpreter and writes nothing but trace files.

Names, units, directions and bounds live in ``BENCHMARK.json`` at the
repository root; this file only measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

STACK_DIR = Path(__file__).resolve().parent
REPO_ROOT = STACK_DIR.parents[1]
# The program under test is imported from the checkout's source tree.
for entry in (str(REPO_ROOT / "src"), str(STACK_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

RESULTS_DIR = STACK_DIR / "results"
CHILD_TIMEOUT = 175.0


def load_benchmark() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def provenance() -> dict:
    """Where and on what these numbers were taken."""
    import numpy

    from repro.hdc.kernels import kernel_runtime

    def git(*argv: str):
        try:
            done = subprocess.run(
                ["git", "-C", str(REPO_ROOT), *argv],
                capture_output=True, text=True, timeout=10, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip()

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "commit": commit,
        "dirty": bool(status) if status is not None else None,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": kernel_runtime(),
        "wall_time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "load1_at_start": load1,
        # Recorded, never silently: numbers from a busy host are suspect.
        "noisy_host": load1 > 0.5 * nproc,
    }


# ----------------------------------------------------------------------
# One workload, in this interpreter
# ----------------------------------------------------------------------


def _metric_block(values: dict, definitions: list, fill_missing: bool) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the defined metrics."""
    names = {definition["name"] for definition in definitions}
    unknown = sorted(set(values) - names)
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    block = {}
    for definition in definitions:
        name = definition["name"]
        if name not in values and not fill_missing:
            raise SystemExit(f"workload did not report {name}")
        # A layer the workload never crosses spent no time and did no work.
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            raise SystemExit(f"{name} is not finite: {value}")
        block[name] = {"value": value, "unit": definition["unit"]}
    return block


def run_record(outcome, benchmark: dict, trace: bool) -> dict:
    """The full record of one run (the driver sees only four of its keys)."""
    end_to_end = _metric_block(
        outcome.end_to_end, benchmark["end_to_end"], False
    )
    record = {
        "workload": outcome.workload,
        "trace": int(trace),
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": (
            _metric_block(outcome.layers, benchmark["per_layer"], True)
            if trace
            else end_to_end
        ),
        "end_to_end": end_to_end,
        "phases": outcome.phases,
        "checks": outcome.checks,
        "derived": outcome.derived,
        "notes": outcome.notes,
        "trace_file": outcome.trace_path,
    }
    return record


def print_record(record: dict) -> None:
    print(f"== {record['workload']} (trace {record['trace']})")
    blocks = [("end to end", record["end_to_end"])]
    if record["trace"]:
        blocks.append(("per layer", record["metrics"]))
    for title, block in blocks:
        print(f"-- {title}")
        shown = {n: e for n, e in block.items() if e["value"] != 0.0}
        for name, entry in shown.items():
            print(f"{name:<44} {entry['value']:>16.6g} {entry['unit']}")
        if len(shown) < len(block):
            print(
                f"({len(block) - len(shown)} metrics of layers this "
                "workload does not cross read 0)"
            )
    print("-- phases (attempted / succeeded / failed, seconds)")
    for name, phase in record["phases"].items():
        print(
            f"{name:<44} {phase['attempted']:>7} / {phase['succeeded']:>7} / "
            f"{phase['failed']:>4}  {phase['seconds']:.3f} s"
        )
    if record["derived"]:
        print("-- derived (printed, not metrics)")
        for name, value in record["derived"].items():
            print(f"{name:<44} {value:>16.6g}")
    for name, passed in record["checks"].items():
        print(f"check {name}: {'ok' if passed else 'FAILED'}")
    for note in record["notes"]:
        print(f"note: {note}")
    if record["trace_file"]:
        print(f"trace spans -> {record['trace_file']}")


def run_one(args, benchmark: dict) -> int:
    from workloads import run_workload

    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    record = run_record(outcome, benchmark, bool(args.trace))
    print_record(record)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


# ----------------------------------------------------------------------
# Every workload
# ----------------------------------------------------------------------


def _child_run(workload: str, args, trace: int) -> dict:
    """One workload in a fresh interpreter; returns its full record."""
    RESULTS_DIR.mkdir(exist_ok=True)
    detail = RESULTS_DIR / f".detail-{os.getpid()}-{workload}-{trace}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--detail", str(detail),
    ]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
        if done.returncode != 0:
            raise SystemExit(
                f"{workload} exited with {done.returncode}:\n"
                f"{done.stdout}\n{done.stderr}"
            )
        with open(detail, "r", encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        detail.unlink(missing_ok=True)


def run_all(args, benchmark: dict) -> int:
    from workloads import run_workload

    stamp = provenance()
    print(json.dumps(stamp, indent=2, sort_keys=True))
    if stamp["noisy_host"]:
        print(
            f"noisy_host: 1-min load {stamp['load1_at_start']:.2f} exceeds "
            f"0.5 x {stamp['nproc']} cores; treat these numbers as suspect"
        )
    begin = time.perf_counter()
    runs = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        if args.smoke:
            outcome = run_workload(
                workload, args.seed, args.seconds, True, True
            )
            records = [run_record(outcome, benchmark, True)]
        else:
            records = [
                _child_run(workload, args, 0) for _ in range(args.runs)
            ]
            if args.trace:
                records.append(_child_run(workload, args, 1))
        for record in records:
            print_record(record)
        runs.extend(records)
    stamp["elapsed_s"] = time.perf_counter() - begin
    document = {
        "provenance": stamp,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "runs": runs,
    }
    failed = [r["workload"] for r in runs if not r["correct"] or r["failed"]]
    if not args.smoke:
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / (
            f"stack-{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}"
            f"-seed{args.seed}.json"
        )
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        print(f"results -> {out}")
    else:
        print(json.dumps({"smoke": True, "runs": runs}))
    if failed:
        print(f"FAILED checks or operations in: {sorted(set(failed))}")
        return 1
    return 0


# ----------------------------------------------------------------------


def _raise_interrupt(_signum, _frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from compare import compare

        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2], load_benchmark())

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (all-workload mode)")
    parser.add_argument("--detail", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    benchmark = load_benchmark()
    if not (REPO_ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing"
        )
    if args.seconds is None:
        args.seconds = 0.6 if args.smoke else float(benchmark["run_seconds"])
    # SIGTERM tears the children down the same way Ctrl+C does.
    signal.signal(signal.SIGTERM, _raise_interrupt)
    if args.workload is None:
        return run_all(args, benchmark)
    names = [entry["name"] for entry in benchmark["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {names}")
    return run_one(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
