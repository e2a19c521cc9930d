"""Pluggable kernel-backend registry for the packed-bit hot paths.

Every hot loop in the system — encode (``csa_accumulate``), scan
(``hamming_cross``, ``popcount_swar``) and candidate generation
(``counts_from_planes`` inside the bit-slice medoid index) — dispatches
through this registry.  Two tiers exist:

``numpy``
    The original vectorised implementations in :mod:`repro.hdc.bitops`
    and :mod:`repro.hdc.hamming`, retained verbatim.  Always available;
    the bit-identical reference every other tier is pinned against.
``numba``
    JIT-compiled fused loops (``parallel=True`` prange tiles, XOR +
    SWAR popcount with no intermediate allocation).  Available when
    numba imports and compiles; see :mod:`.numba_tier`.

Selection is automatic at first dispatch — the best available tier wins
(``numba`` > ``numpy``) — with overrides layered as

1. the ``REPRO_KERNEL_TIER`` environment variable (highest),
2. :func:`set_kernel_tier` (what ``RepositoryConfig.kernel_tier`` and
   the CLI ``--kernel-tier`` flag call),
3. auto-selection (lowest).

A requested tier that is *unknown* raises
:class:`~repro.errors.ConfigurationError`; a known tier that is
*unavailable* (numba not installed, JIT failure) degrades
silently to ``numpy`` with one structured log line — never an error.
Exactness bar: every backend function is property-pinned byte-identical
to the numpy tier (``tests/hdc/test_kernel_tiers.py``).

Backends are *fill-style* where allocation matters: validation and
output allocation stay in the public :mod:`repro.hdc.bitops` /
:mod:`repro.hdc.hamming` wrappers, so a backend only ever sees
contiguous validated ``uint64`` arrays.
"""

from __future__ import annotations

import importlib
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ...errors import ConfigurationError
from ...logging import get_logger

log = get_logger("kernels")

#: Environment variable overriding the tier (highest precedence).
ENV_VAR = "REPRO_KERNEL_TIER"

#: Known tier names, best first (the auto-selection probe order).
KERNEL_TIERS = ("numba", "numpy")

#: Tier name -> module implementing ``build_backend()``.  A dict (not
#: hardcoded imports) so tests can simulate a missing dependency by
#: pointing a tier at a module that does not import.
_TIER_MODULES: Dict[str, str] = {
    "numpy": "repro.hdc.kernels.numpy_tier",
    "numba": "repro.hdc.kernels.numba_tier",
}


@dataclass
class KernelBackend:
    """One tier's kernel table (fill-style where outputs preallocate).

    ``popcount_swar(words)`` mirrors the public function (any-shape in,
    same-shape uint64 counts out).  ``hamming_cross(queries, refs)``
    returns the dense int64 distance matrix of two validated 2-D packed
    matrices.  ``hamming_pairs(a, b)`` returns int64 row-wise distances
    of two same-shape 2-D packed matrices.  ``csa_fill(rows, planes)``
    and ``counts_fill(planes, out)`` write into caller-allocated
    outputs.  ``warm()`` force-compiles every kernel on tiny inputs (a
    no-op for numpy) and is where JIT failures surface.
    """

    name: str
    popcount_swar: Callable
    hamming_cross: Callable
    hamming_pairs: Callable
    csa_fill: Callable
    counts_fill: Callable
    warm: Callable[[], None]
    version: Optional[str] = None


class _Registry:
    """Process-wide tier state (thread-safe; one instance per process)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._backends: Dict[str, KernelBackend] = {}
        self._unavailable: Dict[str, str] = {}
        self._configured: Optional[str] = None
        self._warmed: set = set()
        self._warm_calls = 0
        # (env value, configured value) -> resolved backend; invalidated
        # whenever either part of the key changes.
        self._cache: Optional[Tuple[Tuple[Optional[str], Optional[str]],
                                    KernelBackend]] = None

    # -- construction ---------------------------------------------------

    def _build(self, name: str) -> Optional[KernelBackend]:
        if name in self._backends:
            return self._backends[name]
        if name in self._unavailable:
            return None
        try:
            module = importlib.import_module(_TIER_MODULES[name])
            backend = module.build_backend()
        except Exception as exc:  # noqa: BLE001 - any failure = tier off
            reason = f"{type(exc).__name__}: {exc}"
            self._unavailable[name] = reason
            if name != "numpy":
                log.info(
                    "kernel tier unavailable",
                    extra={"tier": name, "reason": reason},
                )
            return None
        self._backends[name] = backend
        return backend

    # -- resolution -----------------------------------------------------

    def _check_name(self, name: str, source: str) -> None:
        if name not in KERNEL_TIERS:
            raise ConfigurationError(
                f"unknown kernel tier {name!r} (from {source}); "
                f"choose one of {', '.join(KERNEL_TIERS)}"
            )

    def active_backend(self) -> KernelBackend:
        env = os.environ.get(ENV_VAR) or None
        if env is not None:
            env = env.strip().lower() or None
        with self._lock:
            key = (env, self._configured)
            if self._cache is not None and self._cache[0] == key:
                return self._cache[1]
            if env is not None:
                requested, source = env, f"{ENV_VAR} environment variable"
            elif self._configured is not None:
                requested, source = self._configured, "set_kernel_tier"
            else:
                requested, source = None, "auto"
            if requested is not None:
                self._check_name(requested, source)
                backend = self._build(requested)
                if backend is None:
                    log.warning(
                        "requested kernel tier unavailable; using numpy",
                        extra={
                            "tier": requested,
                            "source": source,
                            "reason": self._unavailable.get(requested),
                        },
                    )
                    backend = self._build("numpy")
            else:
                backend = None
                for candidate in KERNEL_TIERS:
                    backend = self._build(candidate)
                    if backend is not None:
                        break
            if backend is None:  # pragma: no cover - numpy cannot fail
                raise ConfigurationError(
                    "no kernel tier available "
                    f"(numpy: {self._unavailable.get('numpy')})"
                )
            self._cache = (key, backend)
            return backend

    def set_tier(self, tier: Optional[str]) -> Optional[str]:
        if tier is not None:
            tier = tier.strip().lower()
            if tier in ("", "auto"):
                tier = None
        if tier is not None:
            self._check_name(tier, "set_kernel_tier")
        with self._lock:
            previous = self._configured
            self._configured = tier
            self._cache = None
        return previous

    def configured_tier(self) -> Optional[str]:
        with self._lock:
            return self._configured

    # -- warm-up --------------------------------------------------------

    def warm_up(self) -> str:
        """Compile the active tier's kernels once per process.

        Returns the tier that ended up warm.  A JIT failure disables the
        tier (structured log line) and warms numpy instead — callers
        never see the exception.
        """
        backend = self.active_backend()
        with self._lock:
            if backend.name in self._warmed:
                return backend.name
        try:
            backend.warm()
        except Exception as exc:  # noqa: BLE001 - degrade, never raise
            reason = f"{type(exc).__name__}: {exc}"
            with self._lock:
                self._backends.pop(backend.name, None)
                self._unavailable[backend.name] = reason
                self._cache = None
            log.warning(
                "kernel tier failed to compile; degrading to numpy",
                extra={"tier": backend.name, "reason": reason},
            )
            return self.warm_up()
        with self._lock:
            self._warmed.add(backend.name)
            self._warm_calls += 1
        return backend.name

    def is_warmed(self, tier: Optional[str] = None) -> bool:
        with self._lock:
            if tier is not None:
                return tier in self._warmed
            return bool(self._warmed)

    def warm_call_count(self) -> int:
        with self._lock:
            return self._warm_calls

    # -- introspection --------------------------------------------------

    def tier_status(self) -> Dict[str, Optional[str]]:
        """Tier -> ``None`` when available, else the recorded reason."""
        status: Dict[str, Optional[str]] = {}
        for name in KERNEL_TIERS:
            self._build(name)
            with self._lock:
                status[name] = self._unavailable.get(name)
        return status

    def runtime_record(self) -> dict:
        """JSON-serialisable record for ``metrics`` / ``repo-info``.

        Fleet operators diff this across nodes to spot one silently
        serving on the slow tier.
        """
        backend = self.active_backend()
        status = self.tier_status()
        return {
            "tier": backend.name,
            "tier_version": backend.version,
            "warmed": sorted(self._warmed),
            "tiers": {
                name: (
                    {"available": True}
                    if reason is None
                    else {"available": False, "reason": reason}
                )
                for name, reason in status.items()
            },
            "numba_version": _dist_version("numba"),
        }

    def reset(self) -> None:
        """Forget everything (tests only): builds, failures, overrides."""
        with self._lock:
            self._backends.clear()
            self._unavailable.clear()
            self._configured = None
            self._warmed.clear()
            self._warm_calls = 0
            self._cache = None


def _dist_version(name: str) -> Optional[str]:
    try:
        from importlib.metadata import version

        return version(name)
    except Exception:  # noqa: BLE001 - absent or unpackaged
        return None


_REGISTRY = _Registry()


def active_backend() -> KernelBackend:
    """The resolved kernel table (env > configured > auto)."""
    return _REGISTRY.active_backend()


def active_kernel_tier() -> str:
    """Name of the tier hot-path calls currently dispatch to."""
    return _REGISTRY.active_backend().name


def set_kernel_tier(tier: Optional[str]) -> Optional[str]:
    """Set the configuration-level tier override; returns the previous one.

    ``None`` or ``"auto"`` restores auto-selection.  The ``REPRO_KERNEL_TIER``
    environment variable still wins over this.  Unknown names raise
    :class:`~repro.errors.ConfigurationError`; known-but-unavailable
    tiers degrade to numpy at dispatch with a logged warning.
    """
    return _REGISTRY.set_tier(tier)


def configured_tier() -> Optional[str]:
    """The current :func:`set_kernel_tier` override (``None`` = auto)."""
    return _REGISTRY.configured_tier()


def available_kernel_tiers() -> Dict[str, Optional[str]]:
    """Tier name -> ``None`` if available, else the unavailability reason."""
    return _REGISTRY.tier_status()


def warm_up() -> str:
    """JIT-compile the active tier now (once per process); returns its name.

    Daemons and pool workers call this at startup so the first request
    never pays compile latency.  Safe to call repeatedly.
    """
    return _REGISTRY.warm_up()


def is_warmed(tier: Optional[str] = None) -> bool:
    """Whether :func:`warm_up` has completed (for ``tier`` if given)."""
    return _REGISTRY.is_warmed(tier)


def warm_call_count() -> int:
    """How many tier warm-ups this process has actually executed."""
    return _REGISTRY.warm_call_count()


def kernel_runtime() -> dict:
    """Operator-facing record: active tier, availability, versions."""
    return _REGISTRY.runtime_record()


def _reset_registry() -> None:
    """Test hook: drop every cached backend, failure and override."""
    _REGISTRY.reset()


__all__ = [
    "ENV_VAR",
    "KERNEL_TIERS",
    "KernelBackend",
    "active_backend",
    "active_kernel_tier",
    "available_kernel_tiers",
    "configured_tier",
    "is_warmed",
    "kernel_runtime",
    "set_kernel_tier",
    "warm_call_count",
    "warm_up",
]
