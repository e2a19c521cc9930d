"""The ID-Level spectrum encoder (Eq. 2 of the paper).

For each peak ``(mz, intensity)`` of a preprocessed spectrum, the encoder
binds the ID hypervector of the quantized m/z bin with the Level hypervector
of the quantized intensity using XOR, accumulates the bound vectors
dimension-wise, and applies a point-wise majority threshold:

.. math::

    \\text{spectra}_i = \\Big[ \\sum_{(i,j)} (\\text{ID}_i \\oplus L_j) \\Big]_{maj}

The result is one binary hypervector per spectrum, packed 64 bits per word.
The software implementation is bit-exact with the FPGA kernel model in
:mod:`repro.fpga.kernels` (which consumes per-spectrum peak counts to compute
cycle counts for the same computation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from ..errors import EncodingError
from ..spectrum import MassSpectrum, QuantizerConfig, quantize_spectrum
from ..spectrum.quantize import quantize_intensity, quantize_mz
from .bitops import (
    csa_accumulate,
    majority_bundle,
    pack_bits,
    planes_greater_than,
    unpack_bits,
)
from .itemmemory import ItemMemory, ItemMemoryConfig

#: Upper bound on padded bound-vector rows processed per fast-path chunk;
#: bounds scratch memory to roughly ``PEAK_CHUNK_BUDGET * dim / 8`` bytes
#: (16 MiB at the paper's D_hv = 2048) while keeping chunks large enough
#: to amortise per-call numpy overhead.
PEAK_CHUNK_BUDGET = 65_536


@dataclass(frozen=True)
class EncoderConfig:
    """End-to-end encoder configuration.

    ``dim`` is the hypervector dimensionality ``D_hv`` (paper default 2048);
    the quantizer bin counts must match the item-memory shapes.
    """

    dim: int = 2048
    mz_bins: int = 34_976
    intensity_levels: int = 64
    min_mz: float = 101.0
    max_mz: float = 1500.0
    seed: int = 0x5BEC_4D

    def item_memory_config(self) -> ItemMemoryConfig:
        """Derive the matching :class:`ItemMemoryConfig`."""
        return ItemMemoryConfig(
            dim=self.dim,
            mz_bins=self.mz_bins,
            intensity_levels=self.intensity_levels,
            seed=self.seed,
        )

    def quantizer_config(self) -> QuantizerConfig:
        """Derive the matching :class:`QuantizerConfig`."""
        return QuantizerConfig(
            min_mz=self.min_mz,
            max_mz=self.max_mz,
            mz_bins=self.mz_bins,
            intensity_levels=self.intensity_levels,
        )


class IDLevelEncoder:
    """Encode preprocessed spectra into binary hypervectors.

    Parameters
    ----------
    config:
        Encoder configuration; defaults follow the paper (``D_hv = 2048``).
    item_memory:
        Optional pre-built item memory (shared across encoders to model the
        FPGA's single on-chip copy).
    """

    def __init__(
        self,
        config: EncoderConfig = EncoderConfig(),
        item_memory: ItemMemory | None = None,
    ) -> None:
        self.config = config
        self.item_memory = item_memory or ItemMemory(config.item_memory_config())
        if self.item_memory.config.dim != config.dim:
            raise EncodingError(
                "item memory dimensionality "
                f"({self.item_memory.config.dim}) does not match encoder "
                f"configuration ({config.dim})"
            )
        self._quantizer = config.quantizer_config()
        self._id_augmented: np.ndarray | None = None
        self._level_augmented: np.ndarray | None = None
        self._scratch_buffers: dict = {}

    def clone(self) -> "IDLevelEncoder":
        """A new encoder sharing this one's read-only lookup tables.

        :meth:`encode_batch` reuses per-instance scratch buffers and
        lazily builds the sentinel-augmented tables, so a single encoder
        must never be driven from two threads at once.  Clones share the
        item memory and the augmented tables (both read-only after this
        call) while keeping scratch private — one clone per thread is the
        concurrency contract (the service daemon's connection threads each
        encode with their own clone).
        """
        twin = IDLevelEncoder(self.config, item_memory=self.item_memory)
        twin._id_augmented, twin._level_augmented = self._augmented_memories()
        return twin

    @property
    def dim(self) -> int:
        """Hypervector dimensionality in bits."""
        return self.config.dim

    @property
    def words(self) -> int:
        """uint64 words per hypervector."""
        return self.config.dim // 64

    def encode(self, spectrum: MassSpectrum) -> np.ndarray:
        """Encode one spectrum into a packed hypervector (1-D uint64).

        Raises
        ------
        EncodingError
            If the spectrum has no peaks (preprocessing should have dropped
            it before encoding).
        """
        if spectrum.peak_count == 0:
            raise EncodingError(
                f"cannot encode empty spectrum {spectrum.identifier!r}"
            )
        id_indices, level_indices = quantize_spectrum(spectrum, self._quantizer)
        bound = np.bitwise_xor(
            self.item_memory.id_memory[id_indices],
            self.item_memory.level_memory[level_indices],
        )
        bound_bits = unpack_bits(bound, self.config.dim)
        accumulator = bound_bits.sum(axis=0, dtype=np.int64)
        majority = majority_bundle(accumulator, spectrum.peak_count)
        return pack_bits(majority)

    def _augmented_memories(self) -> tuple[np.ndarray, np.ndarray]:
        """ID/Level tables with one all-zero sentinel row appended.

        The fast batch path pads ragged peak lists by pointing padding
        slots at the sentinel, whose bound vector is ``0 ^ 0 = 0`` and
        therefore contributes nothing to the majority counters.
        """
        if self._id_augmented is None:
            zero = np.zeros((1, self.words), dtype=np.uint64)
            # The guard field is published *last*: a concurrent reader
            # that observes a non-None _id_augmented is then guaranteed
            # to see _level_augmented too (clone() may race this lazy
            # build from several producer threads).
            self._level_augmented = np.vstack(
                [self.item_memory.level_memory, zero]
            )
            self._id_augmented = np.vstack(
                [self.item_memory.id_memory, zero]
            )
        return self._id_augmented, self._level_augmented

    def _scratch(self, key: str, shape: tuple, dtype) -> np.ndarray:
        """Reusable scratch array (grown geometrically, viewed to size)."""
        needed = int(np.prod(shape))
        buffer = self._scratch_buffers.get(key)
        if buffer is None or buffer.size < needed or buffer.dtype != dtype:
            buffer = np.empty(max(needed, 1), dtype=dtype)
            self._scratch_buffers[key] = buffer
        return buffer[:needed].reshape(shape)

    def encode_batch(self, spectra: Sequence[MassSpectrum]) -> np.ndarray:
        """Encode a batch; returns packed matrix ``(n, dim // 64)``.

        Vectorised fast path, bit-identical to one :meth:`encode` call per
        spectrum (:func:`repro.testing.oracles.encode_batch`) but roughly
        an order of magnitude faster on realistic batches:

        1. every peak of every spectrum is quantized in one shot;
        2. spectra are sorted by peak count and cut into chunks; each
           chunk's peak indices are laid out peak-major ``(c, m)`` with
           ragged tails pointing at an all-zero sentinel row, so a single
           ``np.take`` per item memory binds the whole chunk with one XOR;
        3. per-dimension majority counts are accumulated in the *packed*
           domain with carry-save adders
           (:func:`repro.hdc.bitops.csa_accumulate`) — no per-spectrum
           ``unpack_bits``/sum, no expanded bit matrices at all;
        4. the majority rule ``count > peaks // 2`` is evaluated directly
           on the bit-planes (:func:`repro.hdc.bitops.planes_greater_than`),
           yielding the packed hypervectors without a final ``pack_bits``.
        """
        if len(spectra) == 0:
            return np.zeros((0, self.words), dtype=np.uint64)
        peak_counts = np.array(
            [spectrum.peak_count for spectrum in spectra], dtype=np.int64
        )
        empty = np.flatnonzero(peak_counts == 0)
        if empty.size:
            raise EncodingError(
                "cannot encode empty spectrum "
                f"{spectra[int(empty[0])].identifier!r}"
            )
        id_indices = quantize_mz(
            np.concatenate([spectrum.mz for spectrum in spectra]),
            self._quantizer,
        )
        level_indices = quantize_intensity(
            np.concatenate([spectrum.intensity for spectrum in spectra]),
            self._quantizer,
        )
        id_table, level_table = self._augmented_memories()
        id_sentinel = id_table.shape[0] - 1
        level_sentinel = level_table.shape[0] - 1

        words = self.words
        total = int(peak_counts.sum())
        starts = np.concatenate(([0], np.cumsum(peak_counts)))
        # Descending peak count: each chunk's max count is its first entry
        # and sorting keeps padding waste small.
        order = np.argsort(-peak_counts, kind="stable")
        encoded = np.empty((len(spectra), words), dtype=np.uint64)
        thresholds = peak_counts // 2
        position = 0
        while position < len(spectra):
            count_max = int(peak_counts[order[position]])
            chunk = max(1, PEAK_CHUNK_BUDGET // count_max)
            selected = order[position : position + chunk]
            m = selected.shape[0]
            # Peak-major (c, m) index layout: row j holds peak j of every
            # chunk spectrum, padding slots aimed at the sentinel rows.
            offsets = np.arange(count_max)[:, None]
            peak_rows = starts[selected][None, :] + offsets
            valid = offsets < peak_counts[selected][None, :]
            np.minimum(peak_rows, total - 1, out=peak_rows)
            id_padded = np.where(valid, id_indices[peak_rows], id_sentinel)
            level_padded = np.where(
                valid, level_indices[peak_rows], level_sentinel
            )
            bound = self._scratch("bound", (count_max * m, words), np.uint64)
            np.take(id_table, id_padded.reshape(-1), axis=0, out=bound)
            level_bound = self._scratch(
                "level", (count_max * m, words), np.uint64
            )
            np.take(
                level_table, level_padded.reshape(-1), axis=0,
                out=level_bound,
            )
            np.bitwise_xor(bound, level_bound, out=bound)
            planes = csa_accumulate(
                bound.reshape(count_max, m, words), count_max
            )
            encoded[selected] = planes_greater_than(
                planes, thresholds[selected]
            )
            position += chunk
        return encoded

    def encode_stream(
        self, spectra: Iterable[MassSpectrum], batch_size: int = 4096
    ) -> Iterable[np.ndarray]:
        """Encode a stream lazily, yielding packed batches.

        Mirrors the FPGA dataflow where the encoder kernel emits HVs to HBM
        in bursts while the host streams spectra from storage.
        """
        if batch_size < 1:
            raise EncodingError("batch_size must be >= 1")
        batch: List[MassSpectrum] = []
        for spectrum in spectra:
            batch.append(spectrum)
            if len(batch) == batch_size:
                yield self.encode_batch(batch)
                batch = []
        if batch:
            yield self.encode_batch(batch)
