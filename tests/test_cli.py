"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import SyntheticConfig, generate_dataset
from repro.io import read_mgf, write_mgf


@pytest.fixture(scope="module")
def mgf_path(tmp_path_factory):
    data = generate_dataset(
        SyntheticConfig(
            num_peptides=8,
            replicates_per_peptide=5,
            peptides_per_mass_group=1,
            seed=5,
        )
    )
    path = tmp_path_factory.mktemp("cli") / "input.mgf"
    write_mgf(data.spectra, path)
    return path


class TestClusterCommand:
    def test_basic_run(self, mgf_path, capsys):
        assert main(["cluster", str(mgf_path), "--threshold", "0.35",
                     "--dim", "1024"]) == 0
        out = capsys.readouterr().out
        assert "clusters" in out

    def test_writes_representatives(self, mgf_path, tmp_path, capsys):
        output = tmp_path / "reps.mgf"
        assert main([
            "cluster", str(mgf_path), "-o", str(output),
            "--threshold", "0.35", "--dim", "1024",
        ]) == 0
        representatives = list(read_mgf(output))
        assert 0 < len(representatives) <= 40

    def test_writes_consensus(self, mgf_path, tmp_path):
        output = tmp_path / "consensus.mgf"
        assert main([
            "cluster", str(mgf_path), "-o", str(output), "--consensus",
            "--threshold", "0.35", "--dim", "1024",
        ]) == 0
        assert output.exists()

    def test_writes_assignments_tsv(self, mgf_path, tmp_path):
        tsv = tmp_path / "assignments.tsv"
        assert main([
            "cluster", str(mgf_path), "--assignments", str(tsv),
            "--threshold", "0.35", "--dim", "1024",
        ]) == 0
        lines = tsv.read_text().strip().splitlines()
        assert lines[0] == "identifier\tprecursor_mz\tcharge\tcluster"
        assert len(lines) == 41  # header + 40 spectra

    def test_summary_table(self, mgf_path, capsys):
        assert main([
            "cluster", str(mgf_path), "--summary",
            "--threshold", "0.35", "--dim", "1024",
        ]) == 0
        out = capsys.readouterr().out
        assert "purity" in out
        assert "medoid" in out

    def test_empty_input_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.mgf"
        empty.write_text("")
        assert main(["cluster", str(empty)]) == 1


class TestInfoCommand:
    def test_summary(self, mgf_path, capsys):
        assert main(["info", str(mgf_path)]) == 0
        out = capsys.readouterr().out
        assert "format        : mgf" in out
        assert "spectra       : 40" in out
        assert "buckets" in out


class TestValidateCommand:
    def test_clean_file(self, mgf_path, capsys):
        assert main(["validate", str(mgf_path)]) == 0
        out = capsys.readouterr().out
        assert "valid   : 40 (100.0%)" in out

    def test_strict_fails_on_bad_spectra(self, tmp_path, capsys):
        bad = tmp_path / "bad.mgf"
        bad.write_text(
            "BEGIN IONS\nTITLE=bad\nPEPMASS=500\n150 0\n200 0\nEND IONS\n"
        )
        assert main(["validate", str(bad), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "all-zero-intensity" in out


class TestProjectCommand:
    def test_pride_dataset(self, capsys):
        assert main(["project", "PXD000561"]) == 0
        out = capsys.readouterr().out
        assert "end-to-end" in out
        assert "kJ" in out

    def test_explicit_size(self, capsys):
        assert main([
            "project", "--spectra", "1e6", "--gigabytes", "10",
        ]) == 0
        assert "end-to-end" in capsys.readouterr().out

    def test_missing_arguments(self, capsys):
        assert main(["project"]) == 2

    def test_unknown_dataset(self, capsys):
        assert main(["project", "PXD424242"]) == 1
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["ingest"], ["query"], ["serve"], ["route", "serve"]],
    ids=["ingest", "query", "serve", "route-serve"],
)
class TestNoKernelTierOption:
    """One popcount, no backend switch: the retired flag is an error."""

    def test_help_omits_and_parser_rejects_kernel_tier(
        self, command, capsys
    ):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command, "--help"])
        assert exit_info.value.code == 0
        help_text = capsys.readouterr().out
        assert help_text.startswith(f"usage: repro {' '.join(command)}")
        assert "--kernel-tier" not in help_text
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                [*command, "target", "--kernel-tier", "numpy"]
            )
        assert exit_info.value.code == 2
        assert "--kernel-tier" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,option",
    [
        (["query", "repo", "input.mgf"], ["--backend", "threads"]),
        (["query", "repo", "input.mgf"], ["--workers", "2"]),
        (["query", "repo", "input.mgf"], ["--index", "on"]),
        (["query", "repo", "input.mgf"], ["--probe-bits", "64"]),
        (["serve", "repo"], ["--index", "off"]),
        (["cluster", "input.mgf"], ["--backend", "threads"]),
        (["cluster", "input.mgf"], ["--workers", "2"]),
        (["ingest", "repo", "input.mgf"], ["--backend", "processes"]),
        (["ingest", "repo", "input.mgf"], ["--workers", "2"]),
        (["ingest", "repo", "input.mgf"], ["--queue-depth", "4"]),
        (["serve", "repo"], ["--backend", "threads"]),
        (["serve", "repo"], ["--workers", "2"]),
    ],
    ids=[
        "query-backend", "query-workers", "query-index", "query-probe-bits",
        "serve-index", "cluster-backend", "cluster-workers",
        "ingest-backend", "ingest-workers", "ingest-queue-depth",
        "serve-backend", "serve-workers",
    ],
)
class TestNoQueryScanOptions:
    """One scan path and one writer path: no flag selects another."""

    def test_help_omits_and_parser_rejects_scan_option(
        self, command, option, capsys
    ):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command[0], "--help"])
        assert exit_info.value.code == 0
        assert option[0] not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command, *option])
        assert exit_info.value.code == 2
        assert option[0] in capsys.readouterr().err


class TestMissingInput:
    """A missing input is a one-line error, found before any work starts."""

    @pytest.mark.parametrize("command", ["cluster", "info", "validate"])
    def test_file_commands(self, command, tmp_path, capsys):
        missing = tmp_path / "nonexistent.mgf"
        assert main([command, str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read file: no such file")
        assert str(missing) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("missing_name", ["nonexistent.mgf", "gone.npz"])
    def test_ingest_creates_no_repository(
        self, mgf_path, missing_name, tmp_path, capsys
    ):
        repo = tmp_path / "repoX"
        missing = tmp_path / missing_name
        assert main(["ingest", str(repo), str(mgf_path), str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read file: no such file")
        assert str(missing) in err
        assert "Traceback" not in err
        assert not repo.exists()


class TestDatasetsCommand:
    def test_lists_all_five(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for pride_id in ("PXD001468", "PXD000561"):
            assert pride_id in out
