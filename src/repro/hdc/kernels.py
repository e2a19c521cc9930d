"""Provenance record of the packed-bit kernels (one implementation)."""

from __future__ import annotations

import numpy as np


def kernel_runtime() -> dict:
    """JSON-serialisable record for ``metrics`` / ``info`` / ``repo-info``."""
    return {"popcount": "numpy.bitwise_count", "numpy": np.__version__}
