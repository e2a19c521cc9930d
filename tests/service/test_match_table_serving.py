"""The served answer is a ``MatchTable``: no objects, and it owns its memory.

* **Zero per-match objects.**  A ``query_vectors`` op through a real
  daemon handler and a real client builds no :class:`ClusterMatch`
  anywhere between the shard scan and the caller — counting rows and
  matches included.  Objects appear only when a caller indexes a row.
* **View lifetime.**  Every other ``extract_*`` helper returns views into
  the connection's receive buffer; a table must not.  The table from
  call N stays equal to a deep copy taken immediately while later,
  different answers reuse the same buffer, and after a frame larger
  than the retention cap swaps the buffer out.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.service import ClusterService, ServiceClient, ServiceConfig
from repro.service import protocol
from repro.store import ClusterMatch, MatchTable


def encoded_queries(service, dataset):
    half = len(dataset) // 2
    return service.repository.encoder.encode_batch(
        dataset.spectra[half : half + 6]
    )


def test_serving_path_builds_no_cluster_match(
    populated_repo, service_dataset, monkeypatch
):
    built = []
    init = ClusterMatch.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    with ClusterService(populated_repo, ServiceConfig()) as service:
        service.start()
        vectors = encoded_queries(service, service_dataset)
        with ServiceClient(port=service.port) as client:
            monkeypatch.setattr(ClusterMatch, "__init__", counting_init)
            table = client.query_vectors(vectors, k=3)
            assert isinstance(table, MatchTable)
            assert len(table) == 6
            assert all(len(row) == 3 for row in table)
            assert table == client.query_vectors(vectors, k=3)
            assert not built
            assert table[0][0].distance <= table[0][1].distance
            assert len(built) == 2  # the counter was live all along


def test_client_tables_outlive_the_receive_buffer(
    populated_repo, service_dataset
):
    with ClusterService(populated_repo, ServiceConfig()) as service:
        service.start()
        vectors = encoded_queries(service, service_dataset)
        with ServiceClient(port=service.port) as client:
            table = client.query_vectors(vectors, k=4)
            frozen = copy.deepcopy(table)
            for shift in (1, 2, 3):
                other = client.query_vectors(np.roll(vectors, shift, 0), k=4)
                assert other != table
                assert table == frozen

            # One answer past the retention cap: it rides a transient
            # buffer, and the retained one is reused right after.
            received = client.bytes_received
            big = client.query_vectors(np.tile(vectors, (3000, 1)), k=100)
            assert (
                client.bytes_received - received
                > protocol._RETAIN_BUFFER_BYTES
            )
            big_frozen = copy.deepcopy(big)
            assert client.query_vectors(vectors, k=4) == frozen
            assert table == frozen
            assert big == big_frozen
