"""Streaming repository ingest: the ordered apply end of the stream.

:class:`StreamingIngestor` connects :func:`repro.streaming.stream_encoded_batches`
to a :class:`~repro.store.ClusterRepository`.  Each batch is parsed,
preprocessed and HD-encoded, then journaled to the WAL and applied to its
shards before the next batch is read — all on the caller's thread, in the
file-major batch order the sequential path uses.  So a streamed ingest is
a sequential ``add_batch`` loop over the same files:

* the *order* of journal records and applies is a pure function of the
  input plan (files × batch size);
* the *content* of each batch is bit-identical to what ``add_batch`` would
  have produced, because the stream encodes with the repository's own
  encoder;
* empty batches (all spectra QC-dropped) still consume a WAL sequence
  number, so ``applied_seq`` — and with it the checkpoint manifest —
  matches the sequential path one-to-one.

Labels and checkpoints from a streamed ingest are therefore byte-identical
to a sequential ``add_batch`` loop over the same files (pinned by
``tests/store/test_stream_ingest.py``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from ..errors import ConfigurationError
from ..io.source import SpectrumSource
from ..streaming import StreamStats, stream_encoded_batches
from .repository import ClusterRepository, RepositoryUpdateReport

#: Applied batches between two progress callback invocations.
PROGRESS_EVERY_BATCHES = 8


class StreamingIngestor:
    """Deterministic streaming ingest into a repository.

    Parameters
    ----------
    repository:
        An open :class:`~repro.store.ClusterRepository`.
    batch_size:
        Spectra per WAL record — identical chop to the sequential path.
    checkpoint_every_batches:
        When set, the ingestor checkpoints the repository whenever that
        many WAL batches have accumulated since the last checkpoint, so a
        long stream publishes fresh generations as it goes instead of one
        giant WAL at the end.  Safe under MVCC: pinned snapshot readers
        are unaffected, and labels are identical either way (checkpoints
        never change cluster state).  ``None`` (default) preserves the
        caller-controlled behaviour.
    """

    def __init__(
        self,
        repository: ClusterRepository,
        batch_size: int = 1024,
        checkpoint_every_batches: Optional[int] = None,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if (
            checkpoint_every_batches is not None
            and checkpoint_every_batches < 1
        ):
            raise ConfigurationError(
                "checkpoint_every_batches must be >= 1"
            )
        self.checkpoint_every_batches = checkpoint_every_batches
        self.repository = repository
        self.batch_size = batch_size
        self.stats = StreamStats()

    def ingest(
        self,
        paths: Union[str, Path, Sequence[Union[str, Path]], SpectrumSource],
        progress: Optional[Callable[[dict], None]] = None,
    ) -> RepositoryUpdateReport:
        """Stream spectrum files into the repository; returns the total.

        ``progress`` (if given) is called with a
        :meth:`repro.streaming.StreamStats.snapshot` dict every
        :data:`PROGRESS_EVERY_BATCHES` applied batches and once at the
        end.  The returned report aggregates every applied batch;
        ``seq`` is the last applied WAL sequence number.
        """
        # Fresh counters per run: ``stats`` always describes the current
        # (or most recent) ingest, so reusing the ingestor for a second
        # plan never reports carried-over totals against a new
        # ``files_total``.
        self.stats = StreamStats()
        source = (
            paths
            if isinstance(paths, SpectrumSource)
            else SpectrumSource(paths)
        )
        repository = self.repository
        added = absorbed = new_clusters = dropped = 0
        touched: set = set()
        # Live applied sequence, not the checkpoint-time manifest value:
        # a zero-batch ingest must report the repository's actual seq.
        last_seq = repository._applied_seq  # noqa: SLF001
        for batch in stream_encoded_batches(
            source,
            repository.manifest.preprocessing,
            repository.manifest.encoder,
            self.batch_size,
            encoder=repository.encoder,
            stats=self.stats,
        ):
            report = repository.add_encoded_batch(
                batch.vectors,
                batch.precursor_mz,
                batch.charge,
                batch.identifiers,
                num_dropped=batch.num_dropped,
            )
            self.stats.note_applied(batch)
            added += report.num_added
            absorbed += report.num_absorbed
            new_clusters += report.num_new_clusters
            dropped += report.num_dropped
            touched |= repository._last_touched_shards  # noqa: SLF001
            last_seq = report.seq
            if (
                self.checkpoint_every_batches is not None
                and repository.wal_pending_batches
                >= self.checkpoint_every_batches
            ):
                repository.checkpoint()
            if (
                progress is not None
                and self.stats.batches_applied % PROGRESS_EVERY_BATCHES == 0
            ):
                progress(self.stats.snapshot())
        if progress is not None:
            progress(self.stats.snapshot())
        return RepositoryUpdateReport(
            seq=last_seq,
            num_added=added,
            num_absorbed=absorbed,
            num_new_clusters=new_clusters,
            num_dropped=dropped,
            shards_touched=len(touched),
        )
