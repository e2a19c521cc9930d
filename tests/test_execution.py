"""Execution backend tests: primitives, edge cases, backend equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SpecHDConfig, SpecHDPipeline
from repro.errors import ConfigurationError
from repro.execution import (
    EXECUTION_BACKENDS,
    execution_map,
    resolve_workers,
    validate_backend,
)
from repro.hdc import EncoderConfig
from repro.incremental import IncrementalClusterStore
from repro.spectrum import MassSpectrum


def _square(value: int) -> int:
    return value * value


SMALL_ENCODER = EncoderConfig(dim=256, mz_bins=2_000, intensity_levels=16)


class TestExecutionMap:
    @pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
    def test_preserves_order(self, backend):
        items = list(range(17))
        assert execution_map(
            _square, items, backend=backend, workers=2
        ) == [value * value for value in items]

    @pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
    def test_empty_items(self, backend):
        assert execution_map(_square, [], backend=backend) == []

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_backend("gpu")
        with pytest.raises(ConfigurationError):
            execution_map(_square, [1], backend="gpu")

    def test_worker_validation(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ConfigurationError):
            resolve_workers(0)

    def test_config_validates_backend(self):
        with pytest.raises(ConfigurationError):
            SpecHDConfig(execution_backend="cuda")
        with pytest.raises(ConfigurationError):
            SpecHDConfig(num_workers=0)
        with pytest.raises(ConfigurationError):
            SpecHDConfig(encode_batch_size=0)


class TestPipelineBackendEdgeCases:
    @pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
    def test_empty_input(self, backend):
        pipeline = SpecHDPipeline(
            SpecHDConfig(encoder=SMALL_ENCODER, execution_backend=backend)
        )
        result = pipeline.run([])
        assert result.labels.size == 0
        assert result.num_clusters == 0

    @pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
    def test_single_spectrum_bucket(self, backend, simple_spectrum):
        pipeline = SpecHDPipeline(
            SpecHDConfig(encoder=SMALL_ENCODER, execution_backend=backend)
        )
        result = pipeline.run([simple_spectrum])
        assert result.labels.tolist() == [0]
        assert result.num_clusters == 1
        assert result.distances_by_bucket == {}

    @pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
    def test_two_singleton_buckets(self, backend):
        spectra = [
            MassSpectrum(
                identifier=f"s{index}",
                precursor_mz=400.0 + 50.0 * index,
                precursor_charge=2,
                mz=np.linspace(150.0, 900.0, 12),
                intensity=np.linspace(0.1, 1.0, 12),
            )
            for index in range(2)
        ]
        pipeline = SpecHDPipeline(
            SpecHDConfig(encoder=SMALL_ENCODER, execution_backend=backend)
        )
        result = pipeline.run(spectra)
        assert sorted(result.labels.tolist()) == [0, 1]


class TestBackendEquivalence:
    def test_all_backends_identical_labels(self, labelled_dataset):
        results = {}
        for backend in EXECUTION_BACKENDS:
            pipeline = SpecHDPipeline(
                SpecHDConfig(
                    encoder=SMALL_ENCODER,
                    execution_backend=backend,
                    num_workers=2,
                )
            )
            results[backend] = pipeline.run(labelled_dataset.spectra)
        serial = results["serial"]
        for backend in ("threads", "processes"):
            other = results[backend]
            np.testing.assert_array_equal(serial.labels, other.labels)
            assert serial.medoids == other.medoids
            assert serial.clustering_stats == other.clustering_stats
            assert serial.hypervectors.tobytes() == (
                other.hypervectors.tobytes()
            )

    def test_incremental_backends_identical(self, labelled_dataset):
        spectra = labelled_dataset.spectra
        half = len(spectra) // 2
        labels = {}
        for backend in EXECUTION_BACKENDS:
            store = IncrementalClusterStore(
                encoder_config=SMALL_ENCODER,
                execution_backend=backend,
                num_workers=2,
            )
            store.add_batch(spectra[:half])
            store.add_batch(spectra[half:])
            labels[backend] = store.labels()
        np.testing.assert_array_equal(labels["serial"], labels["threads"])
        np.testing.assert_array_equal(labels["serial"], labels["processes"])

    def test_incremental_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            IncrementalClusterStore(execution_backend="tpu")

    def test_incremental_rejects_invalid_workers_eagerly(self):
        # Regression: an invalid worker count must fail at construction,
        # not mid-add_batch after the store has already mutated state.
        with pytest.raises(ConfigurationError):
            IncrementalClusterStore(
                execution_backend="threads", num_workers=0
            )


class TestExecutionPoolLifecycle:
    """Audit of pool teardown on submit/error paths (streaming ingest)."""

    @pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
    def test_submit_returns_future(self, backend):
        from repro.execution import ExecutionPool

        with ExecutionPool(backend, 2) as pool:
            future = pool.submit(_square, 6)
            assert future.result() == 36

    def test_inline_submit_captures_exception(self):
        from repro.execution import ExecutionPool

        def explode():
            raise ValueError("inline boom")

        with ExecutionPool("serial") as pool:
            future = pool.submit(explode)
            with pytest.raises(ValueError, match="inline boom"):
                future.result()

    def test_submit_after_close_raises(self):
        from repro.execution import ExecutionPool

        pool = ExecutionPool("threads", 2)
        pool.close()
        with pytest.raises(ConfigurationError, match="closed"):
            pool.submit(_square, 2)

    def test_close_idempotent_and_cancels_pending(self):
        import threading
        from repro.execution import ExecutionPool

        release = threading.Event()
        pool = ExecutionPool("threads", 1)
        pool.submit(release.wait, 5)  # occupies the only worker
        queued = [pool.submit(_square, n) for n in range(8)]
        release.set()
        pool.close(cancel_pending=True)
        pool.close()  # idempotent
        assert all(f.done() for f in queued)

    def test_context_manager_closes_on_error(self):
        from repro.execution import ExecutionPool

        pool = ExecutionPool("threads", 2)
        with pytest.raises(RuntimeError):
            with pool:
                pool.submit(_square, 3)
                raise RuntimeError("body failed")
        assert pool._closed
        with pytest.raises(ConfigurationError):
            pool.submit(_square, 4)

    def test_worker_exception_surfaces_via_future(self):
        from repro.execution import ExecutionPool

        with ExecutionPool("threads", 2) as pool:
            future = pool.submit(_raise_value_error)
            with pytest.raises(ValueError):
                future.result()


def _raise_value_error():
    raise ValueError("worker boom")
