"""Spectrum preprocessing: the software model of SpecHD's MSAS stages.

The paper's near-storage preprocessing module is a fixed three-stage
pipeline (§III-A):

1. **Spectra Filter** — remove peaks outside the m/z window, peaks near
   the precursor ion and peaks whose intensity is below 1 % of the base
   peak.
2. **Top-k Selector** — keep only the ``k`` most intense peaks (realised on
   the FPGA with a bitonic sorting network; see :mod:`repro.fpga.bitonic`).
3. **Scale and Normalization** — intensity scaling (square-root by default,
   which is the standard variance-stabilising transform for ion counts)
   followed by L2 normalisation.

:func:`preprocess_batch` runs all three on a :class:`SpectrumBatch` as
masked operations over its flat peak columns, so no per-spectrum object
is built between the parser and the encoder; :func:`preprocess_spectrum`
is its one-row case.  The per-spectrum stage functions the column code
reproduces bit for bit live in :mod:`repro.testing.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from ..units import PROTON_MASS
from .spectrum import MassSpectrum, SpectrumBatch, _ramp

#: Paper default: drop peaks below 1 % of the base-peak intensity.
DEFAULT_MIN_INTENSITY_FRACTION = 0.01

#: Window (Da) around the precursor m/z within which peaks are removed.
DEFAULT_PRECURSOR_TOLERANCE_DA = 1.5

#: Paper-scale default for the Top-k selector.
DEFAULT_TOP_K = 50

#: Minimum number of surviving peaks for a spectrum to be considered usable.
DEFAULT_MIN_PEAKS = 5

#: Default m/z acceptance window.
DEFAULT_MZ_MIN = 101.0
DEFAULT_MZ_MAX = 1500.0


@dataclass(frozen=True)
class PreprocessingConfig:
    """Configuration for the preprocessing pipeline.

    The defaults correspond to the settings the paper inherits from
    HyperSpec/falcon-style preprocessing.
    """

    min_intensity_fraction: float = DEFAULT_MIN_INTENSITY_FRACTION
    precursor_tolerance_da: float = DEFAULT_PRECURSOR_TOLERANCE_DA
    top_k: int = DEFAULT_TOP_K
    min_peaks: int = DEFAULT_MIN_PEAKS
    min_mz: float = DEFAULT_MZ_MIN
    max_mz: float = DEFAULT_MZ_MAX
    scaling: str = "sqrt"  # one of: "sqrt", "rank", "none"

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_intensity_fraction < 1.0:
            raise ConfigurationError(
                "min_intensity_fraction must be in [0, 1), got "
                f"{self.min_intensity_fraction}"
            )
        if self.precursor_tolerance_da < 0:
            raise ConfigurationError("precursor_tolerance_da must be >= 0")
        if self.top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {self.top_k}")
        if self.min_peaks < 1:
            raise ConfigurationError("min_peaks must be >= 1")
        if self.min_mz >= self.max_mz:
            raise ConfigurationError(
                f"min_mz ({self.min_mz}) must be < max_mz ({self.max_mz})"
            )
        if self.scaling not in ("sqrt", "rank", "none"):
            raise ConfigurationError(
                f"unknown scaling {self.scaling!r}; "
                "expected 'sqrt', 'rank', or 'none'"
            )


def preprocess_batch(
    spectra: Union[SpectrumBatch, Iterable[MassSpectrum]],
    config: PreprocessingConfig = PreprocessingConfig(),
) -> Tuple[SpectrumBatch, np.ndarray]:
    """Run the three stages on every row of a batch at once.

    Returns ``(kept, kept_offsets)``: the rows that pass quality control
    (at least ``config.min_peaks`` peaks survive the filter), with their
    selected and scaled peaks, and their int64 positions in the input.

    * Filter: the m/z window, then the precursor window at every charge
      ``1..c`` of a charge-``c`` precursor, then the base-peak threshold
      (a ``np.maximum.reduceat`` over each row's unfiltered peaks).
    * Top-k: a row with more than ``k`` surviving peaks keeps its ``k``
      most intense in m/z order.  Peaks that tie in intensity at the cut
      are kept by position: the lower position (lower m/z) wins.
    * Scale: ``sqrt`` / ``rank`` / ``none``, then each row divided by its
      L2 norm, taken per row with :func:`numpy.dot` so that the norm is
      the same float as ``np.linalg.norm`` of the row.
    """
    batch = SpectrumBatch.from_spectra(spectra)
    mz, intensity, offsets = batch.mz, batch.intensity, batch.offsets
    peak_rows = batch.peak_rows()

    keep = (mz >= config.min_mz) & (mz <= config.max_mz)
    # A charge-c precursor also shows up at charges 1..c after charge
    # reduction in the collision cell; each window only tests the peaks
    # of rows whose charge reaches it.  An unbucketable precursor (inf,
    # NaN) runs through silently, as the per-spectrum float arithmetic
    # did.
    charge = batch.charge
    peak_charge = charge[peak_rows]
    live = np.arange(mz.size)
    with np.errstate(over="ignore", invalid="ignore"):
        neutral = batch.precursor_mz * charge - charge * PROTON_MASS
        for reduced in range(1, int(charge.max(initial=0)) + 1):
            live = live[peak_charge[live] >= reduced]
            if not live.size:
                break
            window = (neutral + reduced * PROTON_MASS) / reduced
            keep[live] &= (
                np.abs(mz[live] - window[peak_rows[live]])
                > config.precursor_tolerance_da
            )
    nonempty = batch.counts > 0
    base_peak = np.zeros(len(batch))
    if mz.size:
        base_peak[nonempty] = np.maximum.reduceat(
            intensity, offsets[:-1][nonempty]
        )
    threshold = config.min_intensity_fraction * base_peak
    keep &= intensity >= threshold[peak_rows]

    survivors = np.bincount(peak_rows[keep], minlength=len(batch))
    passed = survivors >= config.min_peaks
    keep &= passed[peak_rows]
    over = passed & (survivors > config.top_k)
    if over.any():
        candidates = np.flatnonzero(keep & over[peak_rows])
        # Row-major, most intense first; lexsort is stable, so equal
        # intensities stay in position order and the lower position wins
        # a tie at the cut.
        ranked = candidates[
            np.lexsort((-intensity[candidates], peak_rows[candidates]))
        ]
        keep[ranked[_ramp(survivors[over]) >= config.top_k]] = False

    kept_offsets = np.flatnonzero(passed)
    counts = np.minimum(survivors, config.top_k)[kept_offsets]
    selected = np.flatnonzero(keep)
    scaled = _scale(intensity[selected], counts, config.scaling)
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    norms = np.empty(counts.size)
    for row in range(counts.size):
        segment = scaled[bounds[row] : bounds[row + 1]]
        norms[row] = np.dot(segment, segment)
    norms = np.repeat(np.sqrt(norms), counts)
    np.divide(scaled, norms, out=scaled, where=norms > 0)

    rows = kept_offsets.tolist()
    kept = SpectrumBatch._trusted(
        counts,
        mz[selected],
        scaled,
        batch.precursor_mz[kept_offsets],
        charge[kept_offsets],
        [batch.identifiers[row] for row in rows],
        [batch.retention_time[row] for row in rows],
        [batch.metadata[row] for row in rows],
    )
    return kept, kept_offsets


def _scale(values: np.ndarray, counts: np.ndarray, scaling: str) -> np.ndarray:
    """Stage 3's intensity transform of rows of ``counts`` flat values."""
    if scaling == "sqrt":
        return np.sqrt(values)
    if scaling == "rank":
        # 1-based rank within the row, ties in position order (a stable
        # argsort of the row's argsort).
        rows = np.repeat(np.arange(counts.size), counts)
        ranks = np.empty(values.size)
        ranks[np.lexsort((values, rows))] = _ramp(counts) + 1
        return ranks
    return values.copy()


def preprocess_spectrum(
    spectrum: MassSpectrum,
    config: PreprocessingConfig = PreprocessingConfig(),
) -> MassSpectrum | None:
    """Run the full three-stage pipeline on one spectrum.

    The one-row case of :func:`preprocess_batch`.  Returns ``None`` when
    the spectrum does not survive quality control (fewer than
    ``config.min_peaks`` peaks after filtering), matching the behaviour
    of production MS pipelines which drop unusable spectra early.
    """
    kept, _ = preprocess_batch([spectrum], config)
    return kept[0] if len(kept) else None


def preprocessing_survival_rate(
    spectra: Sequence[MassSpectrum],
    config: PreprocessingConfig = PreprocessingConfig(),
) -> float:
    """Fraction of spectra that survive preprocessing (QC pass rate)."""
    if not len(spectra):
        return 0.0
    kept, _ = preprocess_batch(spectra, config)
    return len(kept) / len(spectra)
