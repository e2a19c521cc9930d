"""Smoke + unit tests for the stack benchmark (collected by tier-1).

The smoke run executes all six workloads at toy sizes in one fresh
interpreter — real ``repro serve`` / ``repro route serve`` children
included — and checks the contract: every metric named in
``BENCHMARK.json`` is reported, finite and well-named; nothing is left
running; ``BENCHMARK.json`` is untouched.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

STACK_DIR = Path(__file__).resolve().parent
REPO_ROOT = STACK_DIR.parents[1]
if str(STACK_DIR) not in sys.path:
    sys.path.insert(0, str(STACK_DIR))

import compare  # noqa: E402
import loadgen  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_processes():
    """Command lines of live processes started under the scratch dir."""
    marker = str(STACK_DIR / ".work")
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if marker in cmdline:
            found.append(cmdline)
    return found


def test_smoke_reports_every_metric_and_leaks_nothing():
    benchmark_path = REPO_ROOT / "BENCHMARK.json"
    before = benchmark_path.read_bytes()
    benchmark = json.loads(before)
    done = subprocess.run(
        [sys.executable, str(STACK_DIR / "run.py"), "--smoke", "--seed", "5"],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    document = json.loads(done.stdout.strip().splitlines()[-1])
    runs = {run["workload"]: run for run in document["runs"]}
    assert list(runs) == [entry["name"] for entry in benchmark["workloads"]]
    for workload, run in runs.items():
        assert run["correct"], (workload, run["checks"])
        assert run["failed"] == 0 and run["attempted"] >= 1, workload
        for section, definitions in (
            ("end_to_end", benchmark["end_to_end"]),
            ("metrics", benchmark["per_layer"]),
        ):
            block = run[section]
            assert list(block) == [d["name"] for d in definitions], workload
            for definition in definitions:
                entry = block[definition["name"]]
                assert NAME.match(definition["name"])
                assert entry["unit"] == definition["unit"]
                assert math.isfinite(entry["value"]), definition["name"]
        for entry in run["end_to_end"].values():
            assert entry["value"] > 0.0, (workload, run["end_to_end"])
    # Nothing outlives the run: no child process (hence no port), no
    # scratch directory; and smoke never rewrites the benchmark's contract.
    assert _benchmark_processes() == []
    assert not (STACK_DIR / ".work").exists()
    assert benchmark_path.read_bytes() == before


def test_open_loop_charges_a_stall_to_every_request_due_during_it():
    """A 200 ms server stall must inflate the requests that came due in it."""
    stall = threading.Event()
    origin = time.perf_counter()

    def stub(_index: int) -> bool:
        # The stub "server": 1 ms of service, frozen from 100 ms to 300 ms.
        elapsed = time.perf_counter() - origin
        if 0.10 <= elapsed < 0.30:
            stall.set()
            time.sleep(0.30 - elapsed)
        time.sleep(0.001)
        return True

    result = loadgen.open_loop([stub, stub], rate=100.0, seconds=0.6)
    assert stall.is_set()
    assert result.attempted == 60 and result.failed == 0
    slow = [latency for latency in result.latencies if latency > 0.05]
    # Only two requests were in flight when the server froze; a clock
    # started at send time would show two slow requests.  ~15 came due.
    assert len(slow) >= 10, sorted(result.latencies)
    assert max(result.lateness) >= 0.10
    assert loadgen.median_ms(result.latencies) < 50.0


def test_loops_count_failures_and_give_them_no_latency():
    def flaky(index: int) -> bool:
        if index % 3 == 0:
            raise ConnectionError("refused")
        return index % 3 == 1  # index % 3 == 2: wrong-shape reply

    result = loadgen.open_loop([flaky], rate=500.0, seconds=0.06)
    assert result.attempted == 30 and result.failed == 20
    assert len(result.latencies) == 10
    closed = loadgen.closed_loop([flaky], seconds=0.05)
    assert closed.attempted == closed.failed + len(closed.latencies)
    assert closed.failed > 0


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [100.2, 99.9, 100.4], "lower", 0.05) == "same"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "lower", 0.05) == "worse"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], "lower", 0.05) == "better"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "higher", 0.05) == "better"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], "higher", 0.05) == "worse"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.verdict(noisy, [95.0, 105.0, 100.0], "lower", 0.05) == "unresolved"
    # Wider than the bound, but every run reads better than every base run.
    assert compare.verdict(noisy, [60.0, 70.0, 65.0], "lower", 0.05) == "better"
    assert compare.verdict(noisy, [160.0, 170.0], "lower", 0.05) == "worse"
    assert compare.verdict([100.0], [103.0], "lower", 0.05) == "same"


def test_compare_exit_code(tmp_path, capsys):
    benchmark = {
        "workloads": [{"name": "w", "why": ""}],
        "end_to_end": [
            {"name": "m", "unit": "ms", "better": "lower", "bound": 0.05}
        ],
    }

    def results(path, values, failed=0):
        runs = [
            {
                "workload": "w", "trace": 0, "attempted": 10, "failed": failed,
                "metrics": {"m": {"value": value, "unit": "ms"}},
            }
            for value in values
        ]
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    base = results(tmp_path / "a.json", [10.0, 10.1, 9.9])
    same = results(tmp_path / "b.json", [10.05, 10.0, 9.95])
    worse = results(tmp_path / "c.json", [12.0, 12.1, 11.9])
    failing = results(tmp_path / "d.json", [10.0, 10.0, 10.0], failed=1)
    assert compare.compare(base, same, benchmark) == 0
    assert compare.compare(base, worse, benchmark) == 1
    assert compare.compare(base, failing, benchmark) == 1
    assert "worse" in capsys.readouterr().out
