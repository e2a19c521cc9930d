"""The :class:`MassSpectrum` and :class:`SpectrumBatch` data structures.

A tandem mass spectrum is a list of (m/z, intensity) peaks plus precursor
metadata (precursor m/z and charge state).  :class:`MassSpectrum` is one
such spectrum, array-backed.  :class:`SpectrumBatch` holds many as
columns — per-row peak counts, one flat m/z and one flat intensity array,
and per-row precursor columns — which is how the write path carries them
from the parser through preprocessing to the encoder, mirroring how the
FPGA kernels stream ``peak_count`` pairs of fixed-point words with no
per-spectrum objects in between.  A batch builds a :class:`MassSpectrum`
only when a caller asks for a row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import SpectrumError


@dataclass
class MassSpectrum:
    """An MS/MS spectrum: peak arrays plus precursor metadata.

    Parameters
    ----------
    identifier:
        Stable identifier, e.g. the MGF ``TITLE`` or scan number.
    precursor_mz:
        Measured mass-to-charge ratio of the precursor ion.
    precursor_charge:
        Charge state of the precursor ion (``>= 1``).
    mz:
        Peak m/z values, ascending.
    intensity:
        Peak intensities, same length as ``mz``.
    retention_time:
        Optional retention time in seconds.
    metadata:
        Free-form key/value annotations (source file, peptide label, ...).
    """

    identifier: str
    precursor_mz: float
    precursor_charge: int
    mz: np.ndarray
    intensity: np.ndarray
    retention_time: Optional[float] = None
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.mz = np.asarray(self.mz, dtype=np.float64)
        self.intensity = np.asarray(self.intensity, dtype=np.float64)
        if self.mz.ndim != 1 or self.intensity.ndim != 1:
            raise SpectrumError(
                f"spectrum {self.identifier!r}: peak arrays must be 1-D"
            )
        if self.mz.shape != self.intensity.shape:
            raise SpectrumError(
                f"spectrum {self.identifier!r}: mz and intensity lengths differ "
                f"({self.mz.size} vs {self.intensity.size})"
            )
        if self.precursor_charge < 1:
            raise SpectrumError(
                f"spectrum {self.identifier!r}: precursor charge must be >= 1, "
                f"got {self.precursor_charge}"
            )
        if self.precursor_mz <= 0:
            raise SpectrumError(
                f"spectrum {self.identifier!r}: precursor m/z must be positive"
            )
        if self.mz.size and np.any(np.diff(self.mz) < 0):
            order = np.argsort(self.mz, kind="stable")
            self.mz = self.mz[order]
            self.intensity = self.intensity[order]

    @property
    def peak_count(self) -> int:
        """Number of peaks in the spectrum."""
        return int(self.mz.size)

    @property
    def base_peak_intensity(self) -> float:
        """Intensity of the most intense peak (0.0 for empty spectra)."""
        if self.intensity.size == 0:
            return 0.0
        return float(self.intensity.max())

    @property
    def total_ion_current(self) -> float:
        """Sum of all peak intensities."""
        return float(self.intensity.sum())

    @property
    def neutral_mass(self) -> float:
        """Neutral (uncharged) precursor mass implied by m/z and charge."""
        from ..units import PROTON_MASS

        return self.precursor_mz * self.precursor_charge - (
            self.precursor_charge * PROTON_MASS
        )

    def peaks(self) -> Iterator[Tuple[float, float]]:
        """Iterate over ``(mz, intensity)`` pairs in m/z order."""
        for mz_value, intensity_value in zip(self.mz, self.intensity):
            yield float(mz_value), float(intensity_value)

    def copy(self) -> "MassSpectrum":
        """Deep copy (peak arrays and metadata are duplicated)."""
        return MassSpectrum(
            identifier=self.identifier,
            precursor_mz=self.precursor_mz,
            precursor_charge=self.precursor_charge,
            mz=self.mz.copy(),
            intensity=self.intensity.copy(),
            retention_time=self.retention_time,
            metadata=dict(self.metadata),
        )

    def with_peaks(
        self, mz: np.ndarray, intensity: np.ndarray
    ) -> "MassSpectrum":
        """Return a copy of this spectrum with replaced peak arrays."""
        return MassSpectrum(
            identifier=self.identifier,
            precursor_mz=self.precursor_mz,
            precursor_charge=self.precursor_charge,
            mz=np.asarray(mz, dtype=np.float64),
            intensity=np.asarray(intensity, dtype=np.float64),
            retention_time=self.retention_time,
            metadata=dict(self.metadata),
        )

    def restrict_mz_range(
        self, min_mz: float, max_mz: float
    ) -> "MassSpectrum":
        """Return a copy keeping only peaks with ``min_mz <= mz <= max_mz``."""
        if min_mz > max_mz:
            raise SpectrumError(
                f"invalid m/z window [{min_mz}, {max_mz}]"
            )
        mask = (self.mz >= min_mz) & (self.mz <= max_mz)
        return self.with_peaks(self.mz[mask], self.intensity[mask])

    def estimated_raw_bytes(self) -> int:
        """Approximate on-disk footprint of the raw peak list.

        Profile-free MS files store each peak as two floating-point values
        plus textual overhead; we count two 8-byte doubles per peak plus a
        small fixed header, which matches the compression accounting used in
        Fig. 6b.
        """
        header_bytes = 64
        return header_bytes + 16 * self.peak_count

    def __len__(self) -> int:
        return self.peak_count

    def __repr__(self) -> str:
        return (
            f"MassSpectrum(id={self.identifier!r}, "
            f"precursor_mz={self.precursor_mz:.4f}, "
            f"charge={self.precursor_charge}, peaks={self.peak_count})"
        )


class SpectrumBatch(Sequence[MassSpectrum]):
    """Spectra as columns: the write path's one representation.

    Row ``i``'s ``counts[i]`` peaks sit at ``offsets[i]:offsets[i + 1]``
    of the flat float64 ``mz`` and ``intensity`` arrays;
    ``precursor_mz`` (float64), ``charge`` (int64), ``identifiers``,
    ``retention_time`` and ``metadata`` hold one entry per row.  That is
    the wire ``spectra`` layout (:mod:`repro.service.protocol`).

    The constructor applies :class:`MassSpectrum`'s rules once for the
    whole batch: it raises :class:`SpectrumError` with the first bad
    row's message (charge >= 1, then precursor m/z > 0) and stably sorts
    by m/z every row whose peaks are out of order, on copies of the peak
    columns, so a caller's arrays are never reordered.  ``batch[i]``
    builds row ``i``'s :class:`MassSpectrum` (its peak arrays are views
    of the columns); ``batch[a:b]`` and :meth:`take` give batches.
    """

    __slots__ = (
        "counts",
        "offsets",
        "mz",
        "intensity",
        "precursor_mz",
        "charge",
        "identifiers",
        "retention_time",
        "metadata",
    )

    def __init__(
        self,
        counts: Sequence[int],
        mz: np.ndarray,
        intensity: np.ndarray,
        precursor_mz: Sequence[float],
        charge: Sequence[int],
        identifiers: Sequence[str],
        retention_time: Optional[Sequence[Optional[float]]] = None,
        metadata: Optional[Sequence[Dict[str, str]]] = None,
    ) -> None:
        counts = np.asarray(counts, dtype=np.int64)
        rows = len(counts) if counts.ndim == 1 else 0
        self._assign(
            counts,
            np.asarray(mz, dtype=np.float64),
            np.asarray(intensity, dtype=np.float64),
            np.asarray(precursor_mz, dtype=np.float64),
            np.asarray(charge, dtype=np.int64),
            list(identifiers),
            [None] * rows if retention_time is None else list(retention_time),
            [{} for _ in range(rows)] if metadata is None else list(metadata),
        )
        self._check()

    def _assign(
        self, counts, mz, intensity, precursor_mz, charge, identifiers,
        retention_time, metadata,
    ) -> None:
        self.counts = counts
        self.mz = mz
        self.intensity = intensity
        self.precursor_mz = precursor_mz
        self.charge = charge
        self.identifiers = identifiers
        self.retention_time = retention_time
        self.metadata = metadata
        self.offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])

    @classmethod
    def _trusted(cls, *columns) -> "SpectrumBatch":
        """A batch over columns that already obey the rules (no checks)."""
        batch = cls.__new__(cls)
        batch._assign(*columns)
        return batch

    def _check(self) -> None:
        if any(
            column.ndim != 1
            for column in (self.counts, self.mz, self.intensity)
        ):
            raise SpectrumError("spectrum batch columns must be 1-D")
        rows = self.counts.size
        if any(
            len(column) != rows
            for column in (
                self.precursor_mz,
                self.charge,
                self.identifiers,
                self.retention_time,
                self.metadata,
            )
        ):
            raise SpectrumError("spectrum batch row columns differ in length")
        if rows and int(self.counts.min()) < 0:
            raise SpectrumError("spectrum batch peak counts must be >= 0")
        total = int(self.offsets[-1])
        if self.mz.size != total or self.intensity.size != total:
            raise SpectrumError(
                f"spectrum batch holds {self.mz.size} m/z and "
                f"{self.intensity.size} intensity values for {total} peaks"
            )
        bad = (self.charge < 1) | (self.precursor_mz <= 0)
        if bad.any():
            row = int(np.argmax(bad))
            name = self.identifiers[row]
            if self.charge[row] < 1:
                raise SpectrumError(
                    f"spectrum {name!r}: precursor charge must be >= 1, "
                    f"got {int(self.charge[row])}"
                )
            raise SpectrumError(
                f"spectrum {name!r}: precursor m/z must be positive"
            )
        # Descending adjacent pairs, minus the pairs that straddle two
        # rows: every row holding one is sorted as MassSpectrum sorts.
        descending = np.diff(self.mz) < 0
        starts = self.offsets[1:-1]
        descending[starts[(starts > 0) & (starts < total)] - 1] = False
        positions = np.flatnonzero(descending)
        if positions.size:
            self.mz = self.mz.copy()
            self.intensity = self.intensity.copy()
            unsorted = np.searchsorted(self.offsets, positions, side="right")
            for row in np.unique(unsorted - 1).tolist():
                window = slice(self.offsets[row], self.offsets[row + 1])
                order = np.argsort(self.mz[window], kind="stable")
                self.mz[window] = self.mz[window][order]
                self.intensity[window] = self.intensity[window][order]

    @classmethod
    def from_spectra(cls, spectra: Iterable[MassSpectrum]) -> "SpectrumBatch":
        """The batch of ``spectra`` (a :class:`SpectrumBatch` as it is).

        The one converter from spectrum objects to columns, for the
        readers that build :class:`MassSpectrum` rows and for in-memory
        callers.
        """
        if isinstance(spectra, SpectrumBatch):
            return spectra
        spectra = list(spectra)
        if spectra:
            mz = np.concatenate([spectrum.mz for spectrum in spectra])
            intensity = np.concatenate(
                [spectrum.intensity for spectrum in spectra]
            )
        else:
            mz = intensity = np.empty(0, dtype=np.float64)
        return cls(
            [spectrum.mz.size for spectrum in spectra],
            mz,
            intensity,
            [spectrum.precursor_mz for spectrum in spectra],
            [spectrum.precursor_charge for spectrum in spectra],
            [spectrum.identifier for spectrum in spectra],
            [spectrum.retention_time for spectrum in spectra],
            [spectrum.metadata for spectrum in spectra],
        )

    @classmethod
    def concat(cls, batches: Sequence["SpectrumBatch"]) -> "SpectrumBatch":
        """One batch holding the rows of ``batches`` in order."""
        if not batches:
            return cls.from_spectra([])
        if len(batches) == 1:
            return batches[0]
        return cls._trusted(
            np.concatenate([batch.counts for batch in batches]),
            np.concatenate([batch.mz for batch in batches]),
            np.concatenate([batch.intensity for batch in batches]),
            np.concatenate([batch.precursor_mz for batch in batches]),
            np.concatenate([batch.charge for batch in batches]),
            [name for batch in batches for name in batch.identifiers],
            [rt for batch in batches for rt in batch.retention_time],
            [meta for batch in batches for meta in batch.metadata],
        )

    def peak_rows(self) -> np.ndarray:
        """The row (int64) of every peak of the flat columns."""
        return np.repeat(np.arange(self.counts.size), self.counts)

    def take(self, rows: np.ndarray) -> "SpectrumBatch":
        """The batch of ``rows`` (positions, in the order given)."""
        rows = np.asarray(rows, dtype=np.int64)
        counts = self.counts[rows]
        peaks = np.repeat(self.offsets[rows], counts) + _ramp(counts)
        row_list = rows.tolist()
        return SpectrumBatch._trusted(
            counts,
            self.mz[peaks],
            self.intensity[peaks],
            self.precursor_mz[rows],
            self.charge[rows],
            [self.identifiers[row] for row in row_list],
            [self.retention_time[row] for row in row_list],
            [self.metadata[row] for row in row_list],
        )

    def __len__(self) -> int:
        return int(self.counts.size)

    def _row(self, row: int) -> MassSpectrum:
        window = slice(self.offsets[row], self.offsets[row + 1])
        return MassSpectrum(
            identifier=self.identifiers[row],
            precursor_mz=float(self.precursor_mz[row]),
            precursor_charge=int(self.charge[row]),
            mz=self.mz[window],
            intensity=self.intensity[window],
            retention_time=self.retention_time[row],
            metadata=dict(self.metadata[row]),
        )

    def __getitem__(self, index: Any) -> Union[MassSpectrum, "SpectrumBatch"]:
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        row = operator.index(index)
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError(f"row {index} out of range for {len(self)} rows")
        return self._row(row)

    def __iter__(self) -> Iterator[MassSpectrum]:
        for row in range(len(self)):
            yield self._row(row)

    def __eq__(self, other: object) -> bool:
        """Row-for-row equality with another batch, or with a list of
        spectra: the form :func:`repro.service.protocol.extract_spectra`
        returned before it returned a batch, which callers still compare
        against (as :class:`repro.store.MatchTable` compares with lists)."""
        if isinstance(other, list):
            other = SpectrumBatch.from_spectra(other)
        if not isinstance(other, SpectrumBatch):
            return NotImplemented
        return (
            np.array_equal(self.counts, other.counts)
            and np.array_equal(self.mz, other.mz, equal_nan=True)
            and np.array_equal(self.intensity, other.intensity, equal_nan=True)
            and np.array_equal(
                self.precursor_mz, other.precursor_mz, equal_nan=True
            )
            and np.array_equal(self.charge, other.charge)
            and self.identifiers == other.identifiers
            and self.retention_time == other.retention_time
            and self.metadata == other.metadata
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        peaks = int(self.offsets[-1])
        return f"SpectrumBatch(rows={len(self)}, peaks={peaks})"


def _ramp(counts: np.ndarray) -> np.ndarray:
    """``0 .. c - 1`` for every ``c`` of ``counts``, concatenated (int64)."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        starts, counts
    )
