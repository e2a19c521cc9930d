"""Execution backends: how independent pipeline work units are scheduled.

SpecHD's FPGA runs five clustering kernels side by side because precursor
buckets are embarrassingly parallel (§III-C).  This module is the software
counterpart: a small abstraction that maps a function over independent work
items either serially, on a thread pool, or on a process pool, always
returning results in input order so downstream label assignment stays
deterministic regardless of backend.

Backends
--------
``serial``
    Plain in-order loop; zero overhead, the default.
``threads``
    ``concurrent.futures.ThreadPoolExecutor``.  The Hamming kernels are
    numpy ufunc loops (XOR, ``np.bitwise_count``, reductions) that
    release the GIL, so threads overlap on multi-core hosts without any
    pickling cost.
``processes``
    ``concurrent.futures.ProcessPoolExecutor``.  True parallelism for
    CPU-bound Python sections at the price of pickling work items; the
    mapped function and its arguments must be picklable (top-level
    functions and numpy arrays are).
"""

from __future__ import annotations

import os
from concurrent.futures import Future
from typing import Callable, List, Optional, Sequence, TypeVar

from .errors import ConfigurationError

#: Names accepted by :func:`execution_map` and pipeline configurations.
EXECUTION_BACKENDS = ("serial", "threads", "processes")

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def validate_backend(backend: str) -> str:
    """Return ``backend`` if known, raise :class:`ConfigurationError` else."""
    if backend not in EXECUTION_BACKENDS:
        raise ConfigurationError(
            f"unknown execution backend {backend!r}; "
            f"choose one of {', '.join(EXECUTION_BACKENDS)}"
        )
    return backend


def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count: explicit value or the host CPU count."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ConfigurationError(f"num_workers must be >= 1, got {workers}")
    return workers


def execution_map(
    function: Callable[[_ItemT], _ResultT],
    items: Sequence[_ItemT],
    backend: str = "serial",
    workers: Optional[int] = None,
) -> List[_ResultT]:
    """Map ``function`` over ``items`` on the chosen backend.

    Results are returned in input order for every backend, so callers can
    zip them back to their work items and produce output that is invariant
    under the backend choice.  Empty input returns an empty list without
    spinning up any pool.
    """
    validate_backend(backend)
    count = resolve_workers(workers)
    if not items:
        return []
    if backend == "serial" or count == 1 or len(items) == 1:
        return [function(item) for item in items]
    if backend == "threads":
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=count) as pool:
            return list(pool.map(function, items))
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(items) // (4 * count))
    with ProcessPoolExecutor(max_workers=count) as pool:
        return list(pool.map(function, items, chunksize=chunksize))


class ExecutionPool:
    """A reusable executor for long-lived tasks on one backend.

    :func:`execution_map` spins a pool up and tears it down per call, which
    is the right trade-off for one-shot bucket fan-outs.  The streaming
    ingest stage graph instead submits long-lived producer tasks and
    consumes their output as it arrives, so this class keeps one pool
    alive across :meth:`submit` calls.

    Usable as a context manager; ``close`` is idempotent, and a ``serial``
    pool never allocates an executor at all.
    """

    def __init__(
        self, backend: str = "serial", workers: Optional[int] = None
    ) -> None:
        self.backend = validate_backend(backend)
        self.workers = resolve_workers(workers)
        self._executor = None
        self._closed = False

    def _ensure_executor(self):
        if self._executor is None:
            if self.backend == "threads":
                from concurrent.futures import ThreadPoolExecutor

                self._executor = ThreadPoolExecutor(max_workers=self.workers)
            else:
                from concurrent.futures import ProcessPoolExecutor

                self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    @property
    def is_inline(self) -> bool:
        """True when :meth:`submit` runs calls in the calling thread."""
        return self.backend == "serial" or self.workers == 1

    def submit(self, function: Callable[..., _ResultT], *args) -> Future:
        """Schedule one call, returning its :class:`Future`.

        This is the building block the streaming ingest stage graph uses
        for long-lived producer tasks, where a run-to-completion map
        would serialise the pipeline.  An inline
        pool (``serial`` backend or one worker) executes the call
        immediately in the calling thread and returns an already-resolved
        future, so callers need no backend-specific branches — but note
        that an inline "producer" therefore runs to completion before
        ``submit`` returns; stage graphs that rely on producer/consumer
        overlap must check :attr:`is_inline` and fall back to a
        sequential generator instead.
        """
        if self._closed:
            raise ConfigurationError("execution pool is closed")
        if self.is_inline:
            future: Future = Future()
            try:
                future.set_result(function(*args))
            except BaseException as exc:
                future.set_exception(exc)
            return future
        return self._ensure_executor().submit(function, *args)

    def close(self, cancel_pending: bool = False) -> None:
        """Shut the underlying executor down (idempotent).

        ``cancel_pending=True`` abandons queued-but-unstarted work —
        the right call on error paths, where waiting for a backlog of
        doomed tasks only delays the exception.
        """
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=cancel_pending)
            self._executor = None

    def __enter__(self) -> "ExecutionPool":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        # A body that raised mid-stream should not wait for a backlog of
        # queued work it no longer wants.
        self.close(cancel_pending=exc_type is not None)
