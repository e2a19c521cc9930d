"""Generation shipping: pull/push transfers, resume, corruption, guards.

Correctness bar: an installed replica answers queries byte-identically
to its source — same distances, same labels, same medoids — because the
transfer ships the published generation's files verbatim and installs
them with checkpoint's own crash-safe ordering.
"""

from __future__ import annotations

import pytest

from repro.errors import ReplicationError
from repro.fleet import Replicator
from repro.service import (
    NO_RETRY,
    ClusterService,
    ServiceClient,
    ServiceConfig,
)
from repro.store import ClusterRepository, QueryService, RepositorySnapshot
from repro.store.generation import (
    GenerationStager,
    file_digest,
    list_generation_files,
)
from repro.store.manifest import RepositoryManifest


def make_node_service(directory, **overrides):
    defaults = dict(checkpoint_interval=0.2, coalesce_window_ms=1.0)
    defaults.update(overrides)
    return ClusterService(directory, ServiceConfig(**defaults))


def queries_of(dataset):
    half = len(dataset) // 2
    return dataset.spectra[half : half + 6]


def expected_matches(repo_dir, spectra, k=4):
    with RepositorySnapshot.open(repo_dir) as snapshot:
        with QueryService(snapshot) as service:
            return service.query(spectra, k=k)


class TestPull:
    def test_bootstrap_pull_is_byte_identical(
        self, tmp_path, populated_repo, fleet_dataset
    ):
        target = tmp_path / "follower"
        with make_node_service(populated_repo) as service:
            service.start()
            with ServiceClient(port=service.port) as client:
                # Tiny chunks: the transfer must traverse many
                # fetch_chunk round trips, not one lucky read.
                installed = Replicator(chunk_bytes=1024).pull(
                    client, target
                )
        assert installed == 1
        source_files = list_generation_files(populated_repo, 1)
        target_files = list_generation_files(target, 1)
        assert target_files == source_files
        assert (
            RepositoryManifest.load(target).to_json()
            == RepositoryManifest.load(populated_repo).to_json()
        )
        queries = queries_of(fleet_dataset)
        assert expected_matches(target, queries) == expected_matches(
            populated_repo, queries
        )

    def test_pull_is_idempotent_when_current(
        self, tmp_path, populated_repo
    ):
        target = tmp_path / "follower"
        with make_node_service(populated_repo) as service:
            service.start()
            with ServiceClient(port=service.port) as client:
                replicator = Replicator(chunk_bytes=4096)
                assert replicator.pull(client, target) == 1
                assert replicator.pull(client, target) is None

    def test_pull_resumes_a_partial_transfer(
        self, tmp_path, populated_repo, fleet_dataset
    ):
        target = tmp_path / "follower"
        target.mkdir()
        files = list_generation_files(populated_repo, 1)
        manifest_json = RepositoryManifest.load(populated_repo).to_json()
        # Stage the first half of the largest file by hand, as if a
        # previous pull died mid-transfer.
        largest = max(files, key=lambda entry: entry.size)
        stager = GenerationStager(target, 1)
        offsets = stager.begin(files, manifest_json)
        assert set(offsets.values()) == {0}
        half = largest.size // 2
        source_path = (
            populated_repo / "segments" / "gen-000001" / largest.name
        )
        stager.write_chunk(
            largest.name, 0, source_path.read_bytes()[:half]
        )
        # A fresh stager (new process) reports the staged bytes as the
        # resume point...
        resumed = GenerationStager(target, 1).begin(files, manifest_json)
        assert resumed[largest.name] == half
        # ...and a full pull completes from there, byte-identically.
        with make_node_service(populated_repo) as service:
            service.start()
            with ServiceClient(port=service.port) as client:
                assert Replicator().pull(client, target) == 1
        assert list_generation_files(target, 1) == files

    def test_corrupt_staged_file_is_discarded_and_retried(
        self, tmp_path, populated_repo
    ):
        target = tmp_path / "follower"
        target.mkdir()
        files = list_generation_files(populated_repo, 1)
        manifest_json = RepositoryManifest.load(populated_repo).to_json()
        victim = max(files, key=lambda entry: entry.size)
        stager = GenerationStager(target, 1)
        stager.begin(files, manifest_json)
        # Stage every file fully, then flip bytes in one of them.
        for entry in files:
            data = (
                populated_repo / "segments" / "gen-000001" / entry.name
            ).read_bytes()
            if entry.name == victim.name:
                data = b"\xff" * len(data)
            stager.write_chunk(entry.name, 0, data)
        with pytest.raises(ReplicationError, match="checksum mismatch"):
            stager.commit()
        # The damaged file was dropped, so the retry refetches it…
        retry = GenerationStager(target, 1).begin(files, manifest_json)
        assert retry[victim.name] == 0
        # …and a pull then completes and verifies.
        with make_node_service(populated_repo) as service:
            service.start()
            with ServiceClient(port=service.port) as client:
                assert Replicator().pull(client, target) == 1
        assert file_digest(
            target / "segments" / "gen-000001" / victim.name
        ) == victim.sha256


class TestPush:
    def test_push_installs_and_republishes_without_restart(
        self, tmp_path, populated_repo, fleet_dataset
    ):
        import shutil

        # Follower: a copy still at generation 1.
        follower = tmp_path / "follower"
        shutil.copytree(populated_repo, follower)
        # Leader: the same repository advanced to generation 2.
        with ClusterRepository.open(populated_repo) as leader:
            leader.add_batch(fleet_dataset.spectra[-8:])
            leader.checkpoint()
        queries = queries_of(fleet_dataset)
        expected = expected_matches(populated_repo, queries)
        with make_node_service(follower) as service:
            service.start()
            assert service.serving_generation == 1
            with ServiceClient(port=service.port) as client:
                installed = Replicator(chunk_bytes=2048).push(
                    populated_repo, client
                )
                assert installed == 2
                # The daemon republished in place: same process, new
                # generation, answers byte-identical to the leader.
                assert client.ping() == 2
                assert client.query(queries, k=4) == expected

    def test_push_to_current_target_is_a_noop(
        self, tmp_path, populated_repo
    ):
        import shutil

        follower = tmp_path / "follower"
        shutil.copytree(populated_repo, follower)
        with make_node_service(follower) as service:
            service.start()
            with ServiceClient(port=service.port) as client:
                assert Replicator().push(populated_repo, client) is None

    def test_push_refuses_targets_with_pending_writes(
        self, tmp_path, populated_repo, fleet_dataset
    ):
        import shutil

        from repro.errors import ServiceBusy

        follower = tmp_path / "follower"
        shutil.copytree(populated_repo, follower)
        with ClusterRepository.open(populated_repo) as leader:
            leader.add_batch(fleet_dataset.spectra[-8:])
            leader.checkpoint()
        # Long checkpoint interval: the follower's WAL keeps its
        # pending batch for the duration of the assertion.
        with make_node_service(
            follower, checkpoint_interval=60.0
        ) as service:
            service.start()
            service.ingest(fleet_dataset.spectra[-4:])
            with ServiceClient(port=service.port, retry=NO_RETRY) as client:
                with pytest.raises(ServiceBusy, match="pending local WAL"):
                    Replicator().push(populated_repo, client)


class TestHeal:
    def test_heal_refetches_identical_bytes_over_binary_frames(
        self, tmp_path, populated_repo
    ):
        import shutil

        from repro.store.repository import SEGMENTS_DIR

        replica = tmp_path / "replica"
        shutil.copytree(populated_repo, replica)
        files = list_generation_files(replica, 1)
        victim = max(files, key=lambda entry: entry.size)
        member = replica / SEGMENTS_DIR / f"gen-{1:06d}" / victim.name
        expected = file_digest(member)
        corrupt = bytearray(member.read_bytes())
        corrupt[len(corrupt) // 2] ^= 0xFF
        member.write_bytes(bytes(corrupt))
        assert file_digest(member) != expected
        with make_node_service(populated_repo) as source:
            source.start()
            with ServiceClient(port=source.port) as client:
                healed = Replicator(chunk_bytes=2048).heal(
                    client, replica, 1, [victim.name]
                )
        assert healed == [victim.name]
        assert file_digest(member) == expected
