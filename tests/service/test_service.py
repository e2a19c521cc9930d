"""The cluster-query daemon: protocol, coalescing, checkpointer, shedding.

Correctness bar: every remote result is identical to what a local
:class:`~repro.store.QueryService` over the same state returns, under
any interleaving of concurrent clients — coalescing and snapshot swaps
must be invisible to callers.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import ServiceBusy, ServiceError
from repro.service import ClusterService, ServiceClient, ServiceConfig
from repro.service.daemon import _PendingQuery
from repro.service.protocol import (
    MAGIC,
    attach_vectors,
    encode_frame,
    extract_vectors,
    recv_message,
)
from repro.store import ClusterRepository, QueryService


def make_service(directory, **overrides):
    defaults = dict(
        checkpoint_interval=0.2,
        coalesce_window_ms=1.0,
    )
    defaults.update(overrides)
    return ClusterService(directory, ServiceConfig(**defaults))


def queries_of(dataset):
    half = len(dataset) // 2
    return dataset.spectra[half : half + 6]


class TestRoundTrip:
    def test_ping_info_query_ingest_checkpoint(
        self, populated_repo, service_dataset
    ):
        with make_service(populated_repo) as service:
            service.start()
            with ServiceClient(port=service.port) as client:
                generation = client.ping()
                assert generation == 1

                info = client.info()
                assert info["serving_generation"] == generation
                assert info["num_spectra"] == len(service_dataset) // 2
                assert "backend" not in info["service"]

                matches = client.query(queries_of(service_dataset), k=3)
                assert len(matches) == 6
                assert all(len(m) == 3 for m in matches)

                report = client.ingest(service_dataset.spectra[-8:])
                assert report.num_added == 8

                new_generation = client.checkpoint()
                assert new_generation == generation + 1
                assert client.ping() == new_generation
                info = client.info()
                assert info["num_spectra"] == len(service_dataset) // 2 + 8

    def test_remote_equals_local_query_service(
        self, populated_repo, service_dataset
    ):
        queries = queries_of(service_dataset)
        with ClusterRepository.open(populated_repo) as repository:
            with QueryService(repository) as local:
                expected = local.query(queries, k=4)
        with make_service(populated_repo) as service:
            service.start()
            with ServiceClient(port=service.port) as client:
                assert client.query(queries, k=4) == expected

    def test_query_vectors_round_trip(self, populated_repo, service_dataset):
        with make_service(populated_repo) as service:
            service.start()
            vectors = service.repository.encoder.encode_batch(
                queries_of(service_dataset)
            )
            with ServiceClient(port=service.port) as client:
                remote = client.query_vectors(vectors, k=2)
            local = service.query_vectors(vectors, k=2)
            assert remote == local

    def test_unknown_op_is_an_error_response(self, populated_repo):
        with make_service(populated_repo) as service:
            service.start()
            with ServiceClient(port=service.port) as client:
                with pytest.raises(ServiceError, match="unknown op"):
                    client._call({"op": "frobnicate"})

    def test_bad_magic_drops_connection(self, populated_repo):
        with make_service(populated_repo) as service:
            service.start()
            with socket.create_connection(
                ("127.0.0.1", service.port), timeout=5.0
            ) as raw:
                raw.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\0" * 16)
                raw.settimeout(5.0)
                try:
                    assert raw.recv(1) == b""  # server hung up, no reply
                except ConnectionResetError:
                    pass  # RST instead of FIN: also a hang-up

    def test_shutdown_op_stops_the_daemon(self, populated_repo):
        service = make_service(populated_repo)
        service.start()
        with ServiceClient(port=service.port) as client:
            client.shutdown()
        deadline = time.monotonic() + 5.0
        while not service._stop.is_set() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service._stop.is_set()
        service.stop()  # idempotent


class TestCoalescing:
    def test_concurrent_clients_get_identical_results(
        self, populated_repo, service_dataset
    ):
        queries = queries_of(service_dataset)
        with make_service(populated_repo, coalesce_window_ms=5.0) as service:
            service.start()
            vectors = service.repository.encoder.encode_batch(queries)
            solo = service.query_vectors(vectors, k=3)
            outcomes = []
            failures = []

            def one_client():
                try:
                    with ServiceClient(port=service.port) as client:
                        outcomes.append(client.query_vectors(vectors, k=3))
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)

            threads = [
                threading.Thread(target=one_client) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures
            assert all(outcome == solo for outcome in outcomes)
            stats = service.stats.snapshot()
            # 8 client queries + 1 solo, in strictly fewer kernel passes.
            assert stats["queries"] == 9
            assert stats["query_passes"] < 9

    def test_mixed_k_coalesced_pass_matches_solo(
        self, populated_repo, service_dataset
    ):
        """White-box: one pass at max(k), trimmed per caller, is exact."""
        queries = queries_of(service_dataset)
        with make_service(populated_repo) as service:
            vectors = service.repository.encoder.encode_batch(queries)
            solo_small = service.query_vectors(vectors[:3], k=2)
            solo_large = service.query_vectors(vectors[3:], k=5)
            small = _PendingQuery(vectors=vectors[:3], k=2, future=Future())
            large = _PendingQuery(vectors=vectors[3:], k=5, future=Future())
            service._run_pass([small, large])
            assert small.future.result(timeout=5) == solo_small
            assert large.future.result(timeout=5) == solo_large

    @pytest.mark.parametrize("bad_words", [8, 32])
    def test_malformed_query_fails_only_its_caller(
        self, populated_repo, service_dataset, bad_words
    ):
        """A wrong-width query coalesced with a good one must not take the
        good one's pass down with it."""
        queries = queries_of(service_dataset)
        with make_service(
            populated_repo, coalesce_window_ms=300.0
        ) as service:
            service.start()
            good = service.repository.encoder.encode_batch(queries)
            assert bad_words != good.shape[1]
            bad = np.zeros((2, bad_words), dtype=np.uint64)
            expected = service.query_vectors(good, k=3)
            outcomes = {}

            def run(name, vectors):
                try:
                    outcomes[name] = service.query_vectors(vectors, k=3)
                except BaseException as exc:
                    outcomes[name] = exc

            threads = [
                threading.Thread(target=run, args=("good", good)),
                threading.Thread(target=run, args=("bad", bad)),
            ]
            for thread in threads:
                thread.start()
                time.sleep(0.05)  # both inside one coalesce window
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert outcomes["good"] == expected
            assert isinstance(outcomes["bad"], ServiceError)
            assert "words" in str(outcomes["bad"])
            with pytest.raises(ServiceError, match="words"):
                service.query_vectors_at(bad, k=3)

    def test_wrong_width_is_a_service_error_without_dispatcher(
        self, populated_repo
    ):
        with make_service(populated_repo) as service:
            with pytest.raises(ServiceError, match="words"):
                service.query_vectors(np.zeros((1, 3), dtype=np.uint64))

    def test_failed_pass_propagates_to_every_caller(self, populated_repo):
        with make_service(populated_repo) as service:
            bad = _PendingQuery(
                vectors=np.zeros((1, 3), dtype=np.uint64),  # wrong width
                k=1,
                future=Future(),
            )
            service._run_pass([bad])
            with pytest.raises(Exception):
                bad.future.result(timeout=5)


class TestWriterAndCheckpointer:
    def test_background_checkpointer_republishes(
        self, populated_repo, service_dataset
    ):
        with make_service(populated_repo, checkpoint_interval=0.1) as service:
            service.start()
            first = service.serving_generation
            service.ingest(service_dataset.spectra[-10:])
            deadline = time.monotonic() + 10.0
            while (
                service.serving_generation == first
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert service.serving_generation > first
            # The WAL was folded into the generation: nothing pending.
            assert service.repository.wal_pending_batches == 0

    def test_snapshot_swap_is_invisible_to_queries(
        self, populated_repo, service_dataset
    ):
        """Queries racing ingest+checkpoint always see a whole snapshot."""
        queries = queries_of(service_dataset)
        with make_service(populated_repo, checkpoint_interval=0.05) as service:
            service.start()
            vectors = service.repository.encoder.encode_batch(queries)
            failures = []
            stop = threading.Event()

            def hammer():
                try:
                    with ServiceClient(port=service.port) as client:
                        while not stop.is_set():
                            results = client.query_vectors(vectors, k=3)
                            # k results from *some* complete generation.
                            assert all(len(r) == 3 for r in results)
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)

            thread = threading.Thread(target=hammer)
            thread.start()
            for start in range(0, 30, 5):
                service.ingest(service_dataset.spectra[start : start + 5])
                time.sleep(0.05)
            stop.set()
            thread.join()
            assert not failures
            assert service.stats.snapshot()["snapshot_swaps"] >= 1

    def test_ingest_admission_control_sheds(
        self, populated_repo, service_dataset
    ):
        with make_service(
            populated_repo,
            max_wal_bytes=1,
            checkpoint_interval=60.0,  # keep the backlog standing
        ) as service:
            service.ingest(service_dataset.spectra[:5])  # WAL now > 1 byte
            with pytest.raises(ServiceBusy):
                service.ingest(service_dataset.spectra[5:10])
            assert service.stats.snapshot()["ingest_shed"] == 1

    def test_unstarted_service_serves_inline(
        self, populated_repo, service_dataset
    ):
        with make_service(populated_repo) as service:
            results = service.query(queries_of(service_dataset), k=2)
            assert all(len(matches) == 2 for matches in results)

    def test_requests_after_stop_fail_instead_of_hanging(
        self, populated_repo, service_dataset
    ):
        service = make_service(populated_repo)
        service.start()
        vectors = service.repository.encoder.encode_batch(
            queries_of(service_dataset)
        )
        service.stop()
        with pytest.raises(ServiceError, match="stopping"):
            service.query_vectors(vectors, k=2)
        # The writer is closed too: ingest fails loudly, it is never
        # acknowledged into a repository whose final sweep already ran.
        with pytest.raises(Exception, match="closed"):
            service.ingest(service_dataset.spectra[:3])

    def test_checkpoint_failure_is_visible_in_health(
        self, populated_repo, service_dataset, monkeypatch
    ):
        with make_service(populated_repo, checkpoint_interval=0.05) as service:
            service.start()
            monkeypatch.setattr(
                service.repository,
                "checkpoint",
                lambda: (_ for _ in ()).throw(OSError("disk full")),
            )
            service.ingest(service_dataset.spectra[:5])
            deadline = time.monotonic() + 10.0
            while (
                service._checkpoint_error is None
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            info = service.info()
            assert "disk full" in info["service"]["last_checkpoint_error"]

    def test_info_and_metrics_carry_kernel_record(self, populated_repo):
        from repro.hdc.kernels import kernel_runtime

        with make_service(populated_repo) as service:
            service.start()
            with ServiceClient(port=service.port) as client:
                assert client.info()["kernel"] == kernel_runtime()
                assert client.metrics()["kernel"] == kernel_runtime()


class TestProtocolCodecs:
    @staticmethod
    def _over_the_wire(message):
        left, right = socket.socketpair()
        try:
            left.sendall(encode_frame(message))
            return recv_message(right)
        finally:
            left.close()
            right.close()

    def test_vectors_round_trip(self):
        rng = np.random.default_rng(5)
        vectors = rng.integers(
            0, 2**63, size=(7, 16), dtype=np.uint64
        )
        received = self._over_the_wire(
            attach_vectors({"op": "query_vectors"}, vectors)
        )
        np.testing.assert_array_equal(extract_vectors(received), vectors)

    def test_frame_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            message = {"op": "ping", "nested": {"x": [1, 2, 3]}}
            left.sendall(encode_frame(message))
            assert recv_message(right) == message
            left.close()
            assert recv_message(right) is None  # clean EOF
        finally:
            right.close()

    def test_frame_magic_is_checked(self):
        left, right = socket.socketpair()
        try:
            frame = bytearray(encode_frame({"op": "ping"}))
            frame[:4] = b"EVIL"
            left.sendall(bytes(frame))
            with pytest.raises(ServiceError, match="magic"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_mismatched_vector_payload_rejected(self):
        message = attach_vectors(
            {"op": "query_vectors"}, np.ones((2, 3), dtype=np.uint64)
        )
        message["dim"] = 128  # the payload is 3 words = 192 bits wide
        with pytest.raises(ServiceError, match="does not match dim"):
            extract_vectors(self._over_the_wire(message))

    def test_magic_constant(self):
        assert MAGIC == b"RPRO"
