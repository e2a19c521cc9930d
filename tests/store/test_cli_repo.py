"""End-to-end CLI round trip: repro ingest → repo-info → query."""

import pytest

from repro.cli import main
from repro.datasets import SyntheticConfig, generate_dataset
from repro.io import write_mgf


@pytest.fixture(scope="module")
def mgf_fixture(tmp_path_factory):
    data = generate_dataset(
        SyntheticConfig(
            num_peptides=8,
            replicates_per_peptide=5,
            peptides_per_mass_group=1,
            seed=5,
        )
    )
    directory = tmp_path_factory.mktemp("repo-cli")
    input_path = directory / "input.mgf"
    query_path = directory / "queries.mgf"
    write_mgf(data.spectra, input_path)
    write_mgf(data.spectra[:6], query_path)
    return directory, input_path, query_path


def ingest_args(repo, input_path, *extra):
    return [
        "ingest", str(repo), str(input_path),
        "--dim", "1024", "--threshold", "0.35", "--shards", "3",
        *extra,
    ]


class TestIngestCommand:
    def test_creates_and_populates(self, mgf_fixture, capsys):
        directory, input_path, _ = mgf_fixture
        repo = directory / "repo-a"
        assert main(ingest_args(repo, input_path)) == 0
        out = capsys.readouterr().out
        assert "creating repository" in out
        assert "checkpointed generation 1" in out
        assert "ingested 40 spectra" in out
        assert (repo / "manifest.json").exists()
        assert (repo / "wal.log").exists()
        assert (repo / "segments" / "gen-000001").is_dir()

    def test_second_ingest_reopens(self, mgf_fixture, capsys):
        directory, input_path, _ = mgf_fixture
        repo = directory / "repo-b"
        assert main(ingest_args(repo, input_path)) == 0
        assert main(ingest_args(repo, input_path)) == 0
        captured = capsys.readouterr()
        assert "opening repository" in captured.out
        assert "repository now 80 spectra" in captured.out
        # Matching creation flags on reopen stay silent.
        assert "warning" not in captured.err

    def test_conflicting_creation_flags_warn(self, mgf_fixture, capsys):
        directory, input_path, _ = mgf_fixture
        repo = directory / "repo-warn"
        assert main(ingest_args(repo, input_path)) == 0
        capsys.readouterr()
        assert main(
            ["ingest", str(repo), str(input_path),
             "--dim", "2048", "--threshold", "0.2"]
        ) == 0
        err = capsys.readouterr().err
        assert "--dim 2048 ignored" in err
        assert "--threshold 0.2 ignored" in err

    def test_omitted_creation_flags_do_not_warn(self, mgf_fixture, capsys):
        directory, input_path, _ = mgf_fixture
        repo = directory / "repo-nowarn"
        assert main(ingest_args(repo, input_path)) == 0
        capsys.readouterr()
        assert main(["ingest", str(repo), str(input_path)]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_no_checkpoint_leaves_wal(self, mgf_fixture, capsys):
        directory, input_path, _ = mgf_fixture
        repo = directory / "repo-c"
        assert main(
            ingest_args(repo, input_path, "--no-checkpoint")
        ) == 0
        out = capsys.readouterr().out
        assert "checkpointed" not in out
        assert (repo / "wal.log").stat().st_size > 0
        # The journaled batches are recovered on the next open.
        assert main(["repo-info", str(repo)]) == 0
        info = capsys.readouterr().out
        assert "spectra    : 40" in info

    def test_npz_store_input(self, mgf_fixture, capsys):
        from repro.hdc import EncoderConfig
        from repro.io import read_spectra
        from repro.pipeline import SpecHDConfig, SpecHDPipeline

        directory, input_path, _ = mgf_fixture
        store_path = directory / "encoded.npz"
        pipeline = SpecHDPipeline(
            SpecHDConfig(encoder=EncoderConfig(dim=1024))
        )
        pipeline.encode_only(list(read_spectra(input_path))).save(store_path)
        repo = directory / "repo-npz"
        assert main(ingest_args(repo, store_path)) == 0
        out = capsys.readouterr().out
        assert "ingested 40 spectra" in out

    def test_missing_input_leaves_existing_repository_untouched(
        self, mgf_fixture, tmp_path, capsys
    ):
        from repro.store import ClusterRepository

        directory, input_path, _ = mgf_fixture
        repo = tmp_path / "repo-untouched"
        assert main(ingest_args(repo, input_path)) == 0
        wal_before = (repo / "wal.log").read_bytes()
        manifest_before = (repo / "manifest.json").read_bytes()
        capsys.readouterr()
        # The good file is listed first: nothing of it may be journaled.
        missing = tmp_path / "missing.mgf"
        assert main(
            ["ingest", str(repo), str(input_path), str(missing)]
        ) == 1
        assert "no such file" in capsys.readouterr().err
        assert (repo / "wal.log").read_bytes() == wal_before
        assert (repo / "manifest.json").read_bytes() == manifest_before
        assert len(ClusterRepository.open(repo)) == 40

    def test_bad_batch_size(self, mgf_fixture, capsys):
        directory, input_path, _ = mgf_fixture
        repo = directory / "repo-bad"
        assert main(
            ingest_args(repo, input_path, "--batch-size", "0")
        ) == 2
        assert "--batch-size must be >= 1" in capsys.readouterr().err
        assert not repo.exists()


class TestRepoInfoCommand:
    def test_summary(self, mgf_fixture, capsys):
        directory, input_path, _ = mgf_fixture
        repo = directory / "repo-info"
        assert main(ingest_args(repo, input_path)) == 0
        capsys.readouterr()
        assert main(["repo-info", str(repo)]) == 0
        out = capsys.readouterr().out
        assert "generation 1" in out
        assert "spectra    : 40" in out
        assert "shard 0" in out

    def test_missing_repository(self, tmp_path, capsys):
        assert main(["repo-info", str(tmp_path / "nope")]) == 1
        assert "no manifest" in capsys.readouterr().err

    def test_json_output_is_parseable_and_stable(
        self, mgf_fixture, capsys
    ):
        import json

        directory, input_path, _ = mgf_fixture
        repo = directory / "repo-info-json"
        assert main(ingest_args(repo, input_path)) == 0
        capsys.readouterr()
        assert main(["repo-info", str(repo), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["generation"] == 1
        assert record["num_spectra"] == 40
        assert record["wal_pending_batches"] == 0
        assert record["generations_on_disk"] == [1]
        assert record["pinned_generations"] == {}
        assert len(record["shards"]) == 3
        assert record["encoder"]["dim"] == 1024

    def test_reports_the_one_popcount(self, mgf_fixture, capsys):
        import json

        import numpy as np

        directory, input_path, _ = mgf_fixture
        repo = directory / "repo-info-kernel"
        assert main(ingest_args(repo, input_path)) == 0
        capsys.readouterr()
        assert main(["repo-info", str(repo)]) == 0
        kernel_lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("kernels")
        ]
        assert kernel_lines == [
            f"kernels    : numpy.bitwise_count (numpy {np.__version__}), "
            "word-major uint16 scan"
        ]
        assert main(["repo-info", str(repo), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kernel"] == {
            "popcount": "numpy.bitwise_count",
            "numpy": np.__version__,
            "scan": "word-major uint16",
        }


class TestQueryCommand:
    def test_round_trip(self, mgf_fixture, capsys):
        directory, input_path, query_path = mgf_fixture
        repo = directory / "repo-query"
        assert main(ingest_args(repo, input_path)) == 0
        capsys.readouterr()
        assert main(["query", str(repo), str(query_path), "-k", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("query\trank\tcluster")
        assert len(out) == 1 + 6 * 2  # header + 6 queries x k=2

    def test_tsv_output(self, mgf_fixture, tmp_path, capsys):
        directory, input_path, query_path = mgf_fixture
        repo = directory / "repo-query-tsv"
        assert main(ingest_args(repo, input_path)) == 0
        tsv = tmp_path / "matches.tsv"
        assert main(
            ["query", str(repo), str(query_path), "-k", "3",
             "-o", str(tsv)]
        ) == 0
        lines = tsv.read_text().strip().splitlines()
        assert len(lines) == 1 + 6 * 3

    def test_empty_query_file(self, mgf_fixture, tmp_path, capsys):
        directory, input_path, _ = mgf_fixture
        repo = directory / "repo-query-empty"
        assert main(ingest_args(repo, input_path)) == 0
        empty = tmp_path / "empty.mgf"
        empty.write_text("")
        assert main(["query", str(repo), str(empty)]) == 1

    def test_missing_query_file(self, mgf_fixture, tmp_path, capsys):
        directory, input_path, _ = mgf_fixture
        repo = directory / "repo-query-missing"
        assert main(ingest_args(repo, input_path)) == 0
        capsys.readouterr()
        missing = tmp_path / "missing.mgf"
        assert main(["query", str(repo), str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read file: no such file")
        assert "Traceback" not in err

    def test_bad_top_k(self, mgf_fixture, tmp_path):
        directory, input_path, query_path = mgf_fixture
        repo = directory / "repo-query-badk"
        assert main(ingest_args(repo, input_path)) == 0
        assert main(
            ["query", str(repo), str(query_path), "-k", "0"]
        ) == 2

    def test_repository_and_remote_are_exclusive(
        self, mgf_fixture, capsys
    ):
        directory, input_path, query_path = mgf_fixture
        repo = directory / "repo-query-excl"
        assert main(ingest_args(repo, input_path)) == 0
        capsys.readouterr()
        assert main(
            ["query", str(repo), str(query_path),
             "--remote", "127.0.0.1:1"]
        ) == 2
        assert main(["query", str(query_path)]) == 2
        err = capsys.readouterr().err
        assert "exactly one" in err


class TestServeAndRemoteQuery:
    def test_remote_query_matches_local(self, mgf_fixture, capsys):
        import threading

        from repro.service import ClusterService, ServiceConfig

        directory, input_path, query_path = mgf_fixture
        repo = directory / "repo-serve"
        assert main(ingest_args(repo, input_path)) == 0
        capsys.readouterr()
        assert main(["query", str(repo), str(query_path), "-k", "2"]) == 0
        local_out = capsys.readouterr().out

        with ClusterService(
            repo, ServiceConfig(port=0, checkpoint_interval=60.0)
        ) as service:
            service.start()
            assert main(
                ["query", str(query_path),
                 "--remote", f"127.0.0.1:{service.port}", "-k", "2"]
            ) == 0
            remote_out = capsys.readouterr().out
            assert threading.active_count() >= 1  # daemon still alive
        assert remote_out == local_out

    def test_remote_bad_address(self, mgf_fixture, capsys):
        _directory, _input_path, query_path = mgf_fixture
        assert main(
            ["query", str(query_path), "--remote", "nonsense"]
        ) == 1
        assert "HOST:PORT" in capsys.readouterr().err


class TestStreamingIngestCli:
    def test_ingest_with_progress(self, mgf_fixture, tmp_path, capsys):
        directory, input_path, _ = mgf_fixture
        repo = tmp_path / "repo-stream"
        assert main(
            ingest_args(repo, input_path, "--batch-size", "7", "--progress")
        ) == 0
        captured = capsys.readouterr()
        assert "ingested 40 spectra" in captured.out
        assert "progress:" in captured.err
        assert "files 1/1" in captured.err

    def test_streamed_matches_sequential_add_batch(
        self, mgf_fixture, tmp_path
    ):
        import numpy as np

        from repro.hdc import EncoderConfig
        from repro.io import read_spectra
        from repro.store import ClusterRepository, RepositoryConfig

        directory, input_path, _ = mgf_fixture
        streamed_repo = tmp_path / "repo-streamed"
        assert main(
            ingest_args(streamed_repo, input_path, "--batch-size", "7")
        ) == 0
        sequential = ClusterRepository.create(
            tmp_path / "repo-sequential",
            RepositoryConfig(
                num_shards=3,
                encoder=EncoderConfig(dim=1024),
                cluster_threshold=0.35,
            ),
        )
        spectra = list(read_spectra(input_path))
        for start in range(0, len(spectra), 7):
            sequential.add_batch(spectra[start : start + 7])
        np.testing.assert_array_equal(
            ClusterRepository.open(streamed_repo).labels(),
            sequential.labels(),
        )

    def test_gzipped_input_ingests(self, mgf_fixture, tmp_path, capsys):
        import gzip

        directory, input_path, _ = mgf_fixture
        compressed = tmp_path / "input.mgf.gz"
        compressed.write_bytes(gzip.compress(input_path.read_bytes()))
        repo = tmp_path / "repo-gz"
        assert main(ingest_args(repo, compressed)) == 0
        assert "ingested 40 spectra" in capsys.readouterr().out

    def test_empty_query_emits_no_header(self, mgf_fixture, tmp_path, capsys):
        directory, input_path, _ = mgf_fixture
        repo = tmp_path / "repo-empty-q"
        assert main(ingest_args(repo, input_path)) == 0
        empty = tmp_path / "empty.mgf"
        empty.write_text("")
        capsys.readouterr()
        out_tsv = tmp_path / "matches.tsv"
        assert main(
            ["query", str(repo), str(empty), "-o", str(out_tsv)]
        ) == 1
        captured = capsys.readouterr()
        assert "query\trank" not in captured.out  # no spurious header
        assert not out_tsv.exists()  # and no half-written file

    def test_failed_query_preserves_previous_output(
        self, mgf_fixture, tmp_path
    ):
        directory, input_path, query_path = mgf_fixture
        repo = tmp_path / "repo-preserve"
        assert main(ingest_args(repo, input_path)) == 0
        out_tsv = tmp_path / "matches.tsv"
        assert main(
            ["query", str(repo), str(query_path), "-o", str(out_tsv)]
        ) == 0
        previous = out_tsv.read_bytes()
        corrupt = tmp_path / "corrupt.mgf"
        corrupt.write_text("BEGIN IONS\nTITLE=x\nPEPMASS=bad\nEND IONS\n")
        assert main(["query", str(repo), str(corrupt), "-o", str(out_tsv)]) == 1
        assert out_tsv.read_bytes() == previous  # untouched on failure
        assert not out_tsv.with_name("matches.tsv.tmp").exists()

    def test_failed_stdout_query_emits_nothing(
        self, mgf_fixture, tmp_path, capsys
    ):
        directory, input_path, _ = mgf_fixture
        repo = tmp_path / "repo-stdout-fail"
        assert main(ingest_args(repo, input_path)) == 0
        good_then_bad = tmp_path / "tail-corrupt.mgf"
        good_then_bad.write_text(
            input_path.read_text()
            + "BEGIN IONS\nTITLE=x\nPEPMASS=bad\nEND IONS\n"
        )
        capsys.readouterr()
        from repro.errors import SpecHDError

        with pytest.raises(SpecHDError):
            # Bypass main()'s error handler to observe raw stdout.
            from repro.cli import _cmd_query, build_parser

            args = build_parser().parse_args(
                ["query", str(repo), str(good_then_bad)]
            )
            _cmd_query(args)
        assert capsys.readouterr().out == ""  # nothing leaked to stdout
