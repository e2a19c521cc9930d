"""Subprocess harness: real ``repro serve`` / ``repro route serve`` children.

One :class:`ProcessGroup` owns a scratch directory inside the checkout
and every child it spawned.  Children are started through the CLI on
``--port 0``; the bound port is parsed from the banner line.  Leaving the
group — on success, on an exception or on SIGINT — stops every child,
waits for it, removes the scratch directory and raises if any child is
still alive, so a run can never leak a process or a port.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

STACK_DIR = Path(__file__).resolve().parent
REPO_ROOT = STACK_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
#: Scratch space for repositories, MGF files and child logs.  Inside the
#: checkout on purpose: the benchmark reads and writes nowhere else.
WORK_ROOT = STACK_DIR / ".work"

_SERVE_BANNER = re.compile(r"serving .* on [\w.]+:(\d+) \(generation (\d+)")
_ROUTE_BANNER = re.compile(r"routing \d+ shards .* on [\w.]+:(\d+) ")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

SPAWN_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0


class ProcessLeak(RuntimeError):
    """A child outlived the group that spawned it."""


def proc_cpu_seconds(pid: int) -> float:
    """``utime + stime`` of one live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # The command name may hold spaces; fields resume after ')'.
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_hwm_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


class Child:
    """One CLI daemon subprocess."""

    def __init__(
        self, role: str, argv: Sequence[str], banner, log_path: Path, env
    ) -> None:
        self.role = role
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", *argv],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            cwd=str(log_path.parent),
        )
        self._banner = banner
        self.port: Optional[int] = None
        self.generation: Optional[int] = None
        #: Last values sampled while the process was alive.
        self.cpu_seconds = 0.0
        self.hwm_mib = 0.0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def await_banner(self) -> "Child":
        deadline = time.monotonic() + SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            match = self._banner.search(text)
            if match:
                self.port = int(match.group(1))
                if match.lastindex and match.lastindex >= 2:
                    self.generation = int(match.group(2))
                return self
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        raise RuntimeError(
            f"{self.role} never printed its banner:\n"
            + self.log_path.read_text(encoding="utf-8", errors="replace")
        )

    def sample(self) -> None:
        """Refresh CPU seconds and peak RSS (no-op once the child is gone)."""
        if self.proc.poll() is None:
            try:
                self.cpu_seconds = proc_cpu_seconds(self.pid)
                self.hwm_mib = proc_hwm_mib(self.pid)
            except (OSError, IndexError, RuntimeError):
                pass

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> None:
        """Clean stop: SIGINT is the CLI's Ctrl+C path (``service.stop()``)."""
        self.sample()
        if self.alive():
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=STOP_TIMEOUT)
        self._log.close()

    def kill(self) -> None:
        """SIGKILL: no handlers, no flush — the crash the WAL is for."""
        self.sample()
        if self.alive():
            self.proc.kill()
        self.proc.wait(timeout=STOP_TIMEOUT)
        self._log.close()


def cpu_seconds(children: Sequence[Child]) -> float:
    """Summed CPU seconds of ``children`` (last sample of dead ones)."""
    for child in children:
        child.sample()
    return sum(child.cpu_seconds for child in children)


def peak_rss_mib(children: Sequence[Child]) -> float:
    """Summed ``VmHWM`` of ``children`` (last sample of dead ones)."""
    for child in children:
        child.sample()
    return sum(child.hwm_mib for child in children)


def self_hwm_mib() -> float:
    return proc_hwm_mib(os.getpid())


class ProcessGroup:
    """Scratch directory + children, torn down together."""

    def __init__(self, tag: str) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.root = WORK_ROOT / f"{tag}-{os.getpid()}-{time.time_ns()}"
        self.root.mkdir()
        self.children: List[Child] = []
        python_path = os.pathsep.join(
            part
            for part in (str(SRC_DIR), os.environ.get("PYTHONPATH"))
            if part
        )
        self._env = {
            **os.environ,
            "PYTHONPATH": python_path,
            # Anything a child writes to a temp dir stays in the checkout.
            "TMPDIR": str(self.root),
        }

    # ------------------------------------------------------------------

    def __enter__(self) -> "ProcessGroup":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _spawn(self, role, argv, banner) -> Child:
        log_path = self.root / f"{role}-{len(self.children)}.log"
        child = Child(role, argv, banner, log_path, self._env)
        self.children.append(child)
        return child

    def serve(self, repository: Path, *extra: str, role="daemon") -> Child:
        """``python -m repro serve <repository> --port 0 [extra]``."""
        return self._spawn(
            role,
            ["serve", str(repository), "--port", "0", *extra],
            _SERVE_BANNER,
        )

    def route(self, placement: Path) -> Child:
        """``python -m repro route serve <map> --port 0``."""
        return self._spawn(
            "router",
            ["route", "serve", str(placement), "--port", "0"],
            _ROUTE_BANNER,
        )

    def close(self) -> None:
        try:
            for child in reversed(self.children):
                try:
                    child.stop()
                except Exception:  # noqa: BLE001 - keep tearing down
                    if child.alive():
                        child.proc.kill()
                        child.proc.wait(timeout=STOP_TIMEOUT)
            leaked = [child for child in self.children if child.alive()]
        finally:
            shutil.rmtree(self.root, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()  # only when no other run is using it
            except OSError:
                pass
        if leaked:
            raise ProcessLeak(
                "children outlived the run: "
                + ", ".join(f"{c.role} pid {c.pid}" for c in leaked)
            )
