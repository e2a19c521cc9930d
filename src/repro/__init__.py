"""SpecHD reproduction: hyperdimensional computing for FPGA-based MS clustering.

Subpackages
-----------
``repro.spectrum``
    Spectrum data structures, preprocessing, quantization, precursor bucketing.
``repro.io``
    MGF / MS2 / minimal mzML readers and writers.
``repro.hdc``
    Packed binary hypervectors, ID-Level encoding, Hamming kernels.
``repro.cluster``
    NN-chain HAC (the paper's core algorithm), baselines, metrics.
``repro.fpga``
    Alveo U280 / MSAS / SSD performance and energy models.
``repro.baselines``
    Re-implementations and runtime models of the comparison tools.
``repro.search``
    Peptide database search (theoretical spectra, hyperscore, FDR).
``repro.datasets``
    PRIDE dataset descriptors and synthetic labelled data.
``repro.store``
    Sharded persistent cluster repository: WAL-backed ingest, segment
    checkpoints, top-k medoid query service.
``repro.streaming``
    Streaming dataflow (parse → preprocess → encode → ordered apply)
    feeding repository ingest and ``run_files``.

The top-level exports are the end-to-end pipeline API.
"""

from .streaming import EncodedBatch, StreamStats
from .pipeline import (
    SpecHDConfig,
    SpecHDPipeline,
    SpecHDResult,
    HardwareReport,
)
from .errors import (
    SpecHDError,
    SpectrumError,
    ParseError,
    EncodingError,
    ClusteringError,
    ConfigurationError,
    CapacityError,
    SearchError,
)

__version__ = "1.0.0"

__all__ = [
    "EncodedBatch",
    "StreamStats",
    "SpecHDConfig",
    "SpecHDPipeline",
    "SpecHDResult",
    "HardwareReport",
    "SpecHDError",
    "SpectrumError",
    "ParseError",
    "EncodingError",
    "ClusteringError",
    "ConfigurationError",
    "CapacityError",
    "SearchError",
    "__version__",
]
