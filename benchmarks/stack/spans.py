"""Outside-in span recorder for the stack benchmark.

Spans are recorded by the benchmark, around calls into each layer's
public functions — nothing under ``src/`` knows it is being traced.  A
:class:`Tracer` keeps ``(id, name, start, end, parent, request)`` tuples
in memory and writes them out once, when the workload ends.  Layer
functions are instrumented by swapping a module or class attribute for a
timing wrapper (:meth:`Tracer.wrap`) for the duration of the traced phase
and restoring it afterwards.

A span's *self time* is its duration minus the part its child spans
cover; the per-layer metrics in ``workloads.py`` are sums and medians of
self times, so a layer is never charged for the layers it calls.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Tracer:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        #: ``[id, name, start, end, parent_id or -1, request_id or -1]``
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restores: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: int = -1) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            parent_id = parent[0]
            if request < 0:
                request = parent[5]
        else:
            parent_id = -1
        with self._lock:
            span = [len(self.spans), name, 0.0, 0.0, parent_id, request]
            self.spans.append(span)
        stack.append(span)
        span[2] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, request: int = -1):
        record = self.begin(name, request)
        try:
            yield record
        finally:
            self.end(record)

    # ------------------------------------------------------------------
    # Instrumenting public functions from outside
    # ------------------------------------------------------------------

    def wrap(self, owner, attribute: str, name: str, after=None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        Generator functions are timed per ``next()`` — the time the
        consumer waits for each item — under one span per resumption.
        ``after(result, *args)`` runs outside the span, for counters.
        Plain functions and methods only (no static or class methods).
        """
        function = inspect.getattr_static(owner, attribute)
        tracer = self

        if inspect.isgeneratorfunction(function):

            def wrapper(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    record = tracer.begin(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(record)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                record = tracer.begin(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.end(record)
                if after is not None:
                    after(result, *args)
                return result

        wrapper.__wrapped__ = function
        setattr(owner, attribute, wrapper)
        self._restores.append(lambda: setattr(owner, attribute, function))

    def unwrap_all(self) -> None:
        while self._restores:
            self._restores.pop()()

    @contextmanager
    def wrapped(self, targets):
        """Apply ``(owner, attribute, name[, after])`` wraps for a block."""
        try:
            for target in targets:
                self.wrap(*target)
            yield self
        finally:
            self.unwrap_all()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def self_times(self, since: int = 0) -> Dict[str, float]:
        """Total self time per span name over spans with id >= ``since``."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans[since:]:
            if span[4] >= since:
                child_time[span[4]] += span[3] - span[2]
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans[since:]:
            totals[span[1]] += (span[3] - span[2]) - child_time[span[0]]
        return dict(totals)

    def with_children(self, name: str, since: int = 0):
        """``(duration, summed duration of direct children)`` per span
        called ``name`` with id >= ``since``."""
        inner: Dict[int, float] = {
            span[0]: 0.0 for span in self.spans[since:] if span[1] == name
        }
        for span in self.spans[since:]:
            if span[4] in inner:
                inner[span[4]] += span[3] - span[2]
        return [
            (self.spans[index][3] - self.spans[index][2], total)
            for index, total in inner.items()
        ]

    def durations(self, name: str, since: int = 0) -> List[float]:
        return [
            span[3] - span[2]
            for span in self.spans[since:]
            if span[1] == name
        ]

    def by_request(self, since: int = 0) -> Dict[int, Dict[str, float]]:
        """``{request id: {span name: summed duration}}``."""
        table: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for span in self.spans[since:]:
            if span[5] >= 0:
                table[span[5]][span[1]] += span[3] - span[2]
        return table

    def write(self, path, header: Optional[dict] = None) -> None:
        record = dict(header or {})
        record["columns"] = ["id", "name", "start", "end", "parent", "request"]
        record["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
            handle.write("\n")
