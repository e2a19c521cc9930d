"""The streaming dataflow: parse → preprocess → encode → ordered apply.

This is the software twin of the paper's near-storage pipeline, where raw
spectra stream continuously through preprocessing and HD encoding without
ever being materialised on the host.  One generator feeds any consumer
that applies encoded batches in order — the sharded repository
(:class:`repro.store.StreamingIngestor`) and the end-to-end pipeline
(:meth:`repro.pipeline.SpecHDPipeline.run_files`) both ride on it:

.. code-block:: text

    file ──> read_batches ──> preprocess_batch ──> encode_batch ──> consumer
             SpectrumBatch    kept SpectrumBatch   EncodedBatch     (apply)
             (columns)        + kept offsets       (vectors)

Every stage between the file and the consumer works on one
:class:`~repro.spectrum.SpectrumBatch` — per-row peak counts and flat
m/z / intensity columns — so no per-spectrum object is built on the
way; a consumer that wants rows indexes ``EncodedBatch.spectra``.
Everything runs in the calling thread, one batch in flight: each batch is
parsed, preprocessed and encoded the moment the consumer asks for it, so
peak memory is one raw batch plus whatever the consumer keeps.  Batches
are yielded file-major in batch order — exactly the order a sequential
loop over ``SpectrumSource.iter_batches`` produces — so every downstream
label and journal record is a pure function of the input plan.  The
hardware's parallelism (five clustering kernels side by side) lives in
the FPGA model, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError
from .hdc import EncoderConfig, IDLevelEncoder
from .io.source import SpectrumSource
from .spectrum import (
    MassSpectrum,
    PreprocessingConfig,
    SpectrumBatch,
    preprocess_batch,
)

# The one-row stage stays importable here because the stack benchmark's
# traced run wraps ``streaming.preprocess_spectrum`` by name; the column
# stage does not call it.
from .spectrum import preprocess_spectrum  # noqa: F401


@dataclass
class EncodedBatch:
    """One batch after the preprocess + encode stages.

    ``raw_count`` counts every spectrum parsed into the batch;
    ``kept_offsets`` are the within-batch offsets of the QC survivors, so
    consumers can reconstruct original-input indices.  The parallel
    arrays (``identifiers``/``precursor_mz``/``charge``/``vectors``)
    cover survivors only and are the kept batch's columns.  ``spectra``
    is that preprocessed :class:`SpectrumBatch` when the producer ran
    with ``keep_spectra=True`` (the clustering pipeline needs peaks;
    repository ingest does not).
    """

    file_index: int
    batch_index: int
    raw_start: int
    raw_count: int
    kept_offsets: np.ndarray
    identifiers: List[str]
    precursor_mz: np.ndarray
    charge: np.ndarray
    vectors: np.ndarray
    spectra: Optional[SpectrumBatch] = None

    @property
    def num_kept(self) -> int:
        """Spectra that survived preprocessing QC."""
        return int(self.vectors.shape[0])

    @property
    def num_dropped(self) -> int:
        """Spectra the preprocess stage dropped."""
        return self.raw_count - self.num_kept


@dataclass
class StreamStats:
    """Progress counters of one streaming run.

    The generator updates the parse/encode counters as it yields; the
    consumer calls :meth:`note_applied` per applied batch.
    """

    files_total: int = 0
    files_done: int = 0
    spectra_parsed: int = 0
    spectra_kept: int = 0
    spectra_dropped: int = 0
    batches_encoded: int = 0
    batches_applied: int = 0
    spectra_applied: int = 0

    def note_encoded(self, batch: EncodedBatch) -> None:
        self.spectra_parsed += batch.raw_count
        self.spectra_kept += batch.num_kept
        self.spectra_dropped += batch.num_dropped
        self.batches_encoded += 1

    def note_applied(self, batch: EncodedBatch) -> None:
        self.batches_applied += 1
        self.spectra_applied += batch.num_kept

    def snapshot(self) -> Dict[str, int]:
        """A copy of all counters."""
        return dict(vars(self))


def _encode_raw_batch(
    raw: SpectrumBatch,
    preprocessing: PreprocessingConfig,
    encoder: IDLevelEncoder,
    keep_spectra: bool,
    file_index: int,
    batch_index: int,
    raw_start: int,
) -> EncodedBatch:
    """Preprocess + encode one raw batch."""
    kept, kept_offsets = preprocess_batch(raw, preprocessing)
    return EncodedBatch(
        file_index=file_index,
        batch_index=batch_index,
        raw_start=raw_start,
        raw_count=len(raw),
        kept_offsets=kept_offsets,
        identifiers=kept.identifiers,
        precursor_mz=kept.precursor_mz,
        charge=kept.charge,
        vectors=encoder.encode_batch(kept),
        spectra=kept if keep_spectra else None,
    )


def encode_spectra(
    spectra: Union[SpectrumBatch, Sequence[MassSpectrum]],
    preprocessing: PreprocessingConfig,
    encoder: IDLevelEncoder,
    keep_spectra: bool = False,
) -> EncodedBatch:
    """Preprocess + encode one in-memory batch; the RPC-shaped entry point.

    :func:`stream_encoded_batches` chops files itself; this is for
    callers whose batches arrive already materialised — the cluster
    service daemon runs every client ingest and query payload through it
    *outside* its writer lock, so only the compact encoded rows enter
    the repository's critical section.  Semantics (QC drops, encoding,
    ``kept_offsets`` bookkeeping) are exactly the file stream's.
    """
    return _encode_raw_batch(
        SpectrumBatch.from_spectra(spectra),
        preprocessing,
        encoder,
        keep_spectra,
        file_index=0,
        batch_index=0,
        raw_start=0,
    )


def stream_encoded_batches(
    source: SpectrumSource,
    preprocessing: PreprocessingConfig,
    encoder_config: EncoderConfig,
    batch_size: int = 1024,
    *,
    keep_spectra: bool = False,
    encoder: Optional[IDLevelEncoder] = None,
    stats: Optional[StreamStats] = None,
) -> Iterator[EncodedBatch]:
    """Parse, preprocess and encode a source, one batch at a time.

    Yields :class:`EncodedBatch` objects file-major in batch order, at
    most ``batch_size`` raw spectra each; a batch never spans two files.
    ``encoder`` may supply a pre-built encoder (the repository passes its
    own, guaranteeing the streamed vectors match what ``add_batch`` would
    have encoded); it must carry ``encoder_config``.
    """
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    if encoder is not None and encoder.config != encoder_config:
        raise ConfigurationError(
            "shared encoder configuration does not match encoder_config"
        )
    if encoder is None:
        encoder = IDLevelEncoder(encoder_config)
    if stats is None:
        stats = StreamStats()
    stats.files_total = len(source.files)
    for file_index, entry in enumerate(source.files):
        raw_start = 0
        for batch_index, raw in enumerate(entry.read_batches(batch_size)):
            batch = _encode_raw_batch(
                raw,
                preprocessing,
                encoder,
                keep_spectra,
                file_index,
                batch_index,
                raw_start,
            )
            raw_start += len(raw)
            stats.note_encoded(batch)
            yield batch
        stats.files_done += 1
