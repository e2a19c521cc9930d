"""Precursor-m/z bucketing (Eq. 1 of the paper).

To bound the size of the pairwise distance matrix, SpecHD partitions the
dataset into buckets by neutral precursor mass:

.. math::

    \\text{bucket}_i = \\left\\lfloor
        \\frac{(m/z_i - 1.00794) \\times C_i}{\\text{resolution}}
    \\right\\rfloor

where :math:`C_i` is the charge state and 1.00794 Da the charge mass.  Only
spectra in the same bucket are ever compared, which is valid because spectra
of the same peptide share (approximately) the same neutral mass.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from ..units import PAPER_CHARGE_MASS
from .spectrum import MassSpectrum, SpectrumBatch

#: The paper states resolution ranges from 0.05 (high-res instruments) to 1.0.
MIN_RESOLUTION = 0.05
MAX_RESOLUTION = 1.0


@dataclass(frozen=True)
class BucketingConfig:
    """Configuration for precursor bucketing.

    Parameters
    ----------
    resolution:
        Mass granularity in Da per bucket (paper: 0.05–1.0).
    split_by_charge:
        When True (the default, and what falcon/HyperSpec do), spectra with
        different precursor charges never share a bucket even if their
        neutral masses collide.
    """

    resolution: float = 1.0
    split_by_charge: bool = True

    def __post_init__(self) -> None:
        if not MIN_RESOLUTION <= self.resolution <= MAX_RESOLUTION:
            raise ConfigurationError(
                f"resolution must be in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], "
                f"got {self.resolution}"
            )


def bucket_index(
    precursor_mz: float,
    charge: int,
    config: BucketingConfig = BucketingConfig(),
) -> int:
    """Eq. 1 — the bucket index for a single spectrum."""
    if charge < 1:
        raise ConfigurationError(f"charge must be >= 1, got {charge}")
    neutral = (precursor_mz - PAPER_CHARGE_MASS) * charge
    return int(np.floor(neutral / config.resolution))


def precursor_bucket_key(
    precursor_mz: float,
    charge: int,
    config: BucketingConfig = BucketingConfig(),
) -> Tuple[int, int]:
    """Bucket key from precursor fields: ``(charge, index)`` or ``(0, index)``.

    The first element is the precursor charge when ``split_by_charge`` is
    set, else 0, so keys remain comparable across configurations.  Pass
    Python numbers (a column's ``.tolist()``), so keys serialise to JSON.
    """
    index = bucket_index(precursor_mz, charge, config)
    return (charge if config.split_by_charge else 0, index)


def bucket_key(
    spectrum: MassSpectrum, config: BucketingConfig = BucketingConfig()
) -> Tuple[int, int]:
    """Bucket key for a spectrum (see :func:`precursor_bucket_key`)."""
    return precursor_bucket_key(
        spectrum.precursor_mz, spectrum.precursor_charge, config
    )


def check_precursor_columns(
    precursor_mz: Sequence[float],
    charge: Sequence[int],
    config: BucketingConfig = BucketingConfig(),
    *,
    first_row: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Precursor columns as float64 m/z and int16 charge, every row bucketable.

    Raises :class:`ConfigurationError` naming the first row whose m/z is
    not positive and finite, whose charge is outside ``[1, 32767]`` (the
    int16 the hypervector store persists) or whose Eq. 1 quotient
    overflows.  Rows are numbered from ``first_row``, so a caller that
    checks a stream batch by batch can name rows from the stream's start.
    """
    mz = np.asarray(precursor_mz, dtype=np.float64).reshape(-1)
    wide = np.asarray(charge, dtype=np.int64).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        quotient = (mz - PAPER_CHARGE_MASS) * wide / config.resolution
    bad = ~(mz > 0) | ~np.isfinite(quotient) | (wide < 1)
    bad |= wide > np.iinfo(np.int16).max
    if bad.any():
        row = int(np.argmax(bad))
        raise ConfigurationError(
            f"row {first_row + row}: precursor m/z {float(mz[row])} with "
            f"charge {int(wide[row])} cannot be bucketed"
        )
    return mz, wide.astype(np.int16)


def partition_spectra(
    spectra: Union[SpectrumBatch, Iterable[MassSpectrum]],
    config: BucketingConfig = BucketingConfig(),
) -> Dict[Tuple[int, int], List[int]]:
    """Partition spectra into buckets.

    Returns a mapping from bucket key to the list of *positions* of member
    spectra in the input order.  Positions (not objects) are returned so the
    caller can slice parallel arrays (e.g. the encoded hypervector matrix).
    A :class:`SpectrumBatch` is read through its precursor columns; any
    other iterable of spectra through each spectrum's fields.  The
    columns go through :func:`check_precursor_columns` first, so a row
    the repository writer would refuse is refused here too, with the
    same :class:`ConfigurationError`.
    """
    if isinstance(spectra, SpectrumBatch):
        columns = (spectra.precursor_mz, spectra.charge)
    else:
        spectra = list(spectra)
        columns = (
            [spectrum.precursor_mz for spectrum in spectra],
            [spectrum.precursor_charge for spectrum in spectra],
        )
    precursor_mz, charge = check_precursor_columns(*columns, config)
    buckets: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for position, (mz, ch) in enumerate(
        zip(precursor_mz.tolist(), charge.tolist())
    ):
        buckets[precursor_bucket_key(mz, ch, config)].append(position)
    return dict(buckets)


def bucket_size_histogram(
    buckets: Dict[Tuple[int, int], List[int]]
) -> Dict[int, int]:
    """Histogram of bucket sizes: ``{size: number_of_buckets}``."""
    histogram: Dict[int, int] = defaultdict(int)
    for members in buckets.values():
        histogram[len(members)] += 1
    return dict(histogram)


def pairwise_work(sizes: Iterable[int]) -> int:
    """Pairwise distances the clustering stage must compute.

    Sum over bucket sizes of ``n*(n-1)/2``; shared by
    :func:`bucket_statistics` and streaming consumers that only track
    bucket *sizes* (e.g. the CLI ``info`` verb) so the statistic has one
    definition.
    """
    values = np.fromiter(sizes, dtype=np.int64)
    return int((values * (values - 1) // 2).sum())


def bucket_statistics(
    buckets: Dict[Tuple[int, int], List[int]]
) -> Dict[str, float]:
    """Summary statistics of a bucket partition.

    Keys: ``num_buckets``, ``num_spectra``, ``max_size``, ``mean_size``,
    ``singleton_fraction`` (fraction of buckets of size 1), and
    ``pairwise_work`` (sum over buckets of ``n*(n-1)/2`` — the number of
    pairwise distances the clustering stage must compute).
    """
    sizes = np.array([len(m) for m in buckets.values()], dtype=np.int64)
    if sizes.size == 0:
        return {
            "num_buckets": 0,
            "num_spectra": 0,
            "max_size": 0,
            "mean_size": 0.0,
            "singleton_fraction": 0.0,
            "pairwise_work": 0,
        }
    return {
        "num_buckets": int(sizes.size),
        "num_spectra": int(sizes.sum()),
        "max_size": int(sizes.max()),
        "mean_size": float(sizes.mean()),
        "singleton_fraction": float((sizes == 1).mean()),
        "pairwise_work": pairwise_work(sizes),
    }


def split_oversized_buckets(
    buckets: Dict[Tuple[int, int], List[int]],
    max_bucket_size: int,
) -> Dict[Tuple[int, int, int], List[int]]:
    """Split buckets larger than ``max_bucket_size`` into chunks.

    On the FPGA the distance matrix lives in on-chip memory, which caps the
    number of spectra a single clustering invocation can handle; oversized
    buckets are processed in mass-ordered chunks.  Keys gain a third element
    (the chunk ordinal).
    """
    if max_bucket_size < 1:
        raise ConfigurationError("max_bucket_size must be >= 1")
    result: Dict[Tuple[int, int, int], List[int]] = {}
    for key, members in buckets.items():
        for chunk_ordinal, start in enumerate(
            range(0, len(members), max_bucket_size)
        ):
            chunk = members[start : start + max_bucket_size]
            result[(key[0], key[1], chunk_ordinal)] = chunk
    return result
