"""Test-support utilities shipped with the library.

Nothing here runs in production paths; the package exists so the fault
injection harness (:mod:`repro.testing.faults`) and the kernel reference
implementations (:mod:`repro.testing.oracles`) are importable both from
the test suite and from ad-hoc reproduction scripts.
"""

from .faults import FaultInjector, FaultSpec, InjectedFault, flip_bit

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "flip_bit",
]
