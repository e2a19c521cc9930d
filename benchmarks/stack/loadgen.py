"""Load generation: closed loop, open loop, and the latency summary.

Both loops drive ``send(index) -> bool`` callables — one per connection,
each used by exactly one thread — so the scheduler is independent of what
a request is (the unit tests drive it with a stub).  A request that
raises or returns ``False`` counts as failed and contributes no latency.

*Closed loop*: every connection sends its next request when the previous
reply arrives; a slow system receives less load.  Reported as rows
answered per second.

*Open loop*: request ``i`` is due at ``start + i / rate`` regardless of
how the system is doing.  Latency is measured **from the due time**, so a
stall is charged to every request that came due during it, not only to
the one that was in flight.  How late the generator itself ran (send time
minus due time) is reported beside the latencies.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence


@dataclass
class PhaseResult:
    """Counts and samples of one load phase."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    #: Completion times of successful requests, seconds since phase start.
    completions: List[float] = field(default_factory=list)
    #: CPU seconds the generating process spent during the phase.
    cpu_seconds: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def steady_rate(self, groups: int = 8) -> float:
        """Successful requests per second: the median over ``groups``
        consecutive equal-count slices of the phase.

        A burst of interference from the host slows the slices it hits;
        the median slice is what the system sustains.  Falls back to
        succeeded / seconds when there are too few completions to slice.
        """
        done = sorted(self.completions)
        size = len(done) // groups
        if size < 3:
            return self.succeeded / self.seconds if self.seconds else 0.0
        rates = []
        previous = 0.0
        for group in range(groups):
            last = done[(group + 1) * size - 1]
            rates.append(size / (last - previous))
            previous = last
        return statistics.median(rates)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


def median_ms(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def _attempt(send, index: int, result: PhaseResult, lock) -> bool:
    try:
        ok = bool(send(index))
        error = None if ok else "wrong-shape reply"
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        ok = False
        error = f"{type(exc).__name__}: {exc}"
    if not ok:
        with lock:
            result.failed += 1
            if len(result.errors) < 5:
                result.errors.append(error)
    return ok


def closed_loop(
    senders: Sequence[Callable[[int], bool]], seconds: float
) -> PhaseResult:
    """One thread per sender, each sending back to back for ``seconds``."""
    result = PhaseResult()
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def worker(slot: int, send) -> None:
        latencies = []
        completions = []
        attempted = 0
        # Disjoint request streams per connection: slot, slot + n, ...
        index = slot
        while True:
            begin = time.perf_counter()
            if begin >= deadline:
                break
            attempted += 1
            if _attempt(send, index, result, lock):
                end = time.perf_counter()
                latencies.append(end - begin)
                completions.append(end - start)
            index += len(senders)
        with lock:
            result.attempted += attempted
            result.latencies.extend(latencies)
            result.completions.extend(completions)

    cpu_start = time.process_time()
    threads = [
        threading.Thread(target=worker, args=(slot, send), daemon=True)
        for slot, send in enumerate(senders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.seconds = time.perf_counter() - start
    result.cpu_seconds = time.process_time() - cpu_start
    return result


def open_loop(
    senders: Sequence[Callable[[int], bool]], rate: float, seconds: float
) -> PhaseResult:
    """Fixed-rate schedule served by ``len(senders)`` connections.

    Each free connection claims the next request of the schedule, sleeps
    until it is due, and sends it.  When every connection is busy the
    schedule keeps running: the next request is sent late and its latency
    — counted from when it was due — includes the wait.
    """
    result = PhaseResult()
    lock = threading.Lock()
    count = max(1, int(rate * seconds))
    claimed = [0]
    start = time.perf_counter() + 0.01

    def worker(send) -> None:
        latencies = []
        lateness = []
        while True:
            with lock:
                index = claimed[0]
                if index >= count:
                    break
                claimed[0] += 1
            due = start + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            lateness.append(max(sent - due, 0.0))
            if _attempt(send, index, result, lock):
                latencies.append(time.perf_counter() - due)
        with lock:
            result.latencies.extend(latencies)
            result.lateness.extend(lateness)

    cpu_start = time.process_time()
    threads = [
        threading.Thread(target=worker, args=(send,), daemon=True)
        for send in senders
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.attempted = count
    result.seconds = time.perf_counter() - start
    result.cpu_seconds = time.process_time() - cpu_start
    return result
