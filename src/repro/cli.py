"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``cluster``
    Cluster a spectrum file (MGF/MS2/mzML) and write representative
    spectra plus a TSV assignment table.
``info``
    Summarise a spectrum file (counts, charge histogram, bucket stats).
``validate``
    Run quality-control checks on a spectrum file.
``project``
    Print the modelled SpecHD end-to-end report for a PRIDE dataset
    descriptor (or explicit ``--spectra``/``--gigabytes``).
``datasets``
    List the built-in PRIDE dataset descriptors.
``ingest``
    Durably ingest spectrum files (or pre-encoded ``.npz`` hypervector
    stores) into a sharded cluster repository directory, creating it on
    first use.
``query``
    Top-k nearest clusters for each spectrum of a query file, served from
    a repository's shard medoids — directly, or via ``--remote`` from a
    running ``repro serve`` daemon.
``repo-info``
    Summarise a repository directory (manifest, shard stats, WAL state);
    ``--json`` emits the machine-readable health record.
``serve``
    Run the cluster-query daemon on a repository: snapshot-isolated
    queries with request coalescing, background checkpointing, and
    socket ingest, all concurrent.
``scrub``
    Verify every byte of a repository's published generation against
    the manifest's integrity records; optionally heal corrupt files
    from a replica (``--repair-from``).  Exit 0 clean, 1 corrupt.

Global flags: ``--log-level``/``--log-json`` configure structured
logging for every subcommand (scrub, repair and quarantine events carry
shard + generation fields).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import __version__
from .errors import ParseError, SpecHDError

#: Query spectra processed per QueryService batch when streaming a file.
QUERY_STREAM_BATCH = 2048


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpecHD reproduction: HDC mass-spectrometry clustering",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--log-level", default="warning",
        choices=("debug", "info", "warning", "error"),
        help="structured-log threshold on stderr (default warning)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit logs as one JSON object per line (for collectors)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    cluster = subparsers.add_parser(
        "cluster", help="cluster a spectrum file"
    )
    cluster.add_argument("input", type=Path, help="MGF/MS2/mzML file")
    cluster.add_argument(
        "-o", "--output", type=Path, default=None,
        help="output MGF of representative spectra",
    )
    cluster.add_argument(
        "--assignments", type=Path, default=None,
        help="output TSV of per-spectrum cluster assignments",
    )
    cluster.add_argument(
        "--threshold", type=float, default=0.3,
        help="normalised Hamming merge threshold in [0, 1] (default 0.3)",
    )
    cluster.add_argument(
        "--linkage", default="complete",
        choices=("single", "complete", "average", "ward"),
        help="linkage criterion (default complete)",
    )
    cluster.add_argument(
        "--dim", type=int, default=2048,
        help="hypervector dimensionality D_hv (default 2048)",
    )
    cluster.add_argument(
        "--resolution", type=float, default=1.0,
        help="precursor bucket resolution in Da (default 1.0)",
    )
    cluster.add_argument(
        "--consensus", action="store_true",
        help="export binned-average consensus spectra instead of medoids",
    )
    cluster.add_argument(
        "--summary", action="store_true",
        help="print a per-cluster summary table (multi-member clusters)",
    )

    info = subparsers.add_parser("info", help="summarise a spectrum file")
    info.add_argument("input", type=Path, help="MGF/MS2/mzML file")

    validate = subparsers.add_parser(
        "validate", help="run quality-control checks on a spectrum file"
    )
    validate.add_argument("input", type=Path, help="MGF/MS2/mzML file")
    validate.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any spectrum fails QC",
    )

    project = subparsers.add_parser(
        "project", help="model SpecHD end-to-end performance"
    )
    project.add_argument(
        "dataset", nargs="?", default=None,
        help="PRIDE accession (e.g. PXD000561)",
    )
    project.add_argument("--spectra", type=float, default=None,
                         help="spectrum count (e.g. 21e6)")
    project.add_argument("--gigabytes", type=float, default=None,
                         help="dataset size in GB")
    project.add_argument("--kernels", type=int, default=5,
                         help="clustering kernel count (default 5)")

    subparsers.add_parser("datasets", help="list PRIDE dataset descriptors")

    ingest = subparsers.add_parser(
        "ingest",
        help="ingest spectrum files into a sharded cluster repository",
    )
    ingest.add_argument(
        "repository", type=Path, help="repository directory"
    )
    ingest.add_argument(
        "inputs", type=Path, nargs="+",
        help="MGF/MS2/mzML files or .npz hypervector stores",
    )
    ingest.add_argument(
        "--batch-size", type=int, default=1024,
        help="spectra journaled per WAL record (default 1024)",
    )
    ingest.add_argument(
        "--no-checkpoint", action="store_true",
        help="leave batches in the WAL instead of checkpointing at the end",
    )
    ingest.add_argument(
        "--shards", type=int, default=None,
        help="shard count when creating a new repository (default 4)",
    )
    ingest.add_argument(
        "--shard-width", type=int, default=None,
        help="contiguous bucket indices per shard run (default 64)",
    )
    ingest.add_argument(
        "--threshold", type=float, default=None,
        help="normalised Hamming merge threshold for a new repository "
             "(default 0.3)",
    )
    ingest.add_argument(
        "--linkage", default=None,
        choices=("single", "complete", "average", "ward"),
        help="linkage criterion for a new repository (default complete)",
    )
    ingest.add_argument(
        "--dim", type=int, default=None,
        help="hypervector dimensionality for a new repository (default 2048)",
    )
    ingest.add_argument(
        "--resolution", type=float, default=None,
        help="precursor bucket resolution for a new repository (default 1.0)",
    )
    ingest.add_argument(
        "--progress", action="store_true",
        help="report streaming progress (spectra/s, batches, files) "
             "to stderr",
    )

    query = subparsers.add_parser(
        "query", help="top-k nearest clusters from a repository"
    )
    query.add_argument(
        "repository", type=Path, nargs="?", default=None,
        help="repository directory (omit with --remote)",
    )
    query.add_argument("input", type=Path, help="MGF/MS2/mzML query file")
    query.add_argument(
        "--remote", default=None, metavar="HOST:PORT",
        help="query a running `repro serve` daemon instead of opening "
             "the repository directory",
    )
    query.add_argument(
        "--router", default=None, metavar="HOST:PORT",
        help="query a running `repro route serve` fleet router — "
             "answers are byte-identical to a single node over the "
             "same data",
    )
    query.add_argument(
        "-k", "--top-k", type=int, default=5,
        help="matches reported per query spectrum (default 5)",
    )
    query.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write matches as TSV instead of printing",
    )

    repo_info = subparsers.add_parser(
        "repo-info", help="summarise a cluster repository directory"
    )
    repo_info.add_argument(
        "repository", type=Path, help="repository directory"
    )
    repo_info.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable health record (stable keys: "
             "generation, wal_pending_batches, pinned_generations, ...)",
    )

    serve = subparsers.add_parser(
        "serve", help="run the cluster-query daemon on a repository"
    )
    serve.add_argument(
        "repository", type=Path, help="repository directory"
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="listen address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=7677,
        help="listen port; 0 picks an ephemeral one (default 7677)",
    )
    serve.add_argument(
        "--checkpoint-interval", type=float, default=2.0,
        help="seconds between background checkpointer wake-ups "
             "(default 2.0)",
    )
    serve.add_argument(
        "--checkpoint-min-batches", type=int, default=1,
        help="pending WAL batches required before a wake-up "
             "checkpoints (default 1)",
    )
    serve.add_argument(
        "--coalesce-window-ms", type=float, default=2.0,
        help="how long the first query of a batch waits for company "
             "before one coalesced kernel pass (default 2.0)",
    )
    serve.add_argument(
        "--coalesce-max-rows", type=int, default=4096,
        help="coalesced query rows per kernel pass (default 4096)",
    )
    serve.add_argument(
        "--max-wal-bytes", type=int, default=256 * 1024 * 1024,
        help="shed ingest once the WAL backlog exceeds this many bytes "
             "(default 256 MiB)",
    )
    serve.add_argument(
        "--retain-generations", type=int, default=2,
        help="superseded snapshot leases kept serving generation-pinned "
             "reads after a checkpoint (fleet consistency; default 2)",
    )
    serve.add_argument(
        "--verify", default="sampled", choices=("full", "sampled", "off"),
        help="integrity policy for repository/snapshot opens "
             "(default sampled)",
    )
    serve.add_argument(
        "--scrub-interval", type=float, default=0.0,
        help="seconds between background scrub passes over the serving "
             "generation; 0 disables the scrubber (default 0)",
    )
    serve.add_argument(
        "--scrub-rate", type=float, default=None,
        help="scrub read-rate ceiling in bytes/second (default unpaced)",
    )
    serve.add_argument(
        "--repair-peer", action="append", default=[], metavar="HOST:PORT",
        help="replica to heal corrupt files from (repeat per peer, "
             "tried in order)",
    )
    serve.add_argument(
        "--partial-sweep-age", type=float, default=3600.0,
        help="orphaned .partial staging dirs older than this many "
             "seconds are swept during retirement (default 3600)",
    )

    scrub = subparsers.add_parser(
        "scrub",
        help="verify a repository's published generation byte-for-byte",
    )
    scrub.add_argument(
        "repository", type=Path, help="repository directory"
    )
    scrub.add_argument(
        "--rate", type=float, default=None,
        help="read-rate ceiling in bytes/second (default unpaced)",
    )
    scrub.add_argument(
        "--repair-from", default=None, metavar="HOST:PORT",
        help="heal corrupt files from this running replica, then "
             "re-verify",
    )
    scrub.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable scrub report",
    )

    fleet = subparsers.add_parser(
        "fleet", help="manage a multi-node fleet's placement map"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_init = fleet_sub.add_parser(
        "init", help="create a placement map for a set of nodes"
    )
    fleet_init.add_argument(
        "map", type=Path, help="placement map file to create"
    )
    fleet_init.add_argument(
        "--node", action="append", required=True, metavar="NAME=HOST:PORT",
        help="fleet member (repeat per node)",
    )
    fleet_init.add_argument(
        "--shards", type=int, default=None,
        help="shard count (omit with --repository to read it from the "
             "manifest)",
    )
    fleet_init.add_argument(
        "--repository", type=Path, default=None,
        help="repository whose manifest supplies the shard count",
    )
    fleet_init.add_argument(
        "--replication", type=int, default=1,
        help="replicas per shard (default 1)",
    )

    fleet_add = fleet_sub.add_parser(
        "add-node", help="add a node and rebalance the map"
    )
    fleet_add.add_argument("map", type=Path, help="placement map file")
    fleet_add.add_argument(
        "node", metavar="NAME=HOST:PORT", help="the joining node"
    )

    fleet_remove = fleet_sub.add_parser(
        "remove-node", help="remove a node and rebalance the map"
    )
    fleet_remove.add_argument("map", type=Path, help="placement map file")
    fleet_remove.add_argument("name", help="the leaving node's name")

    fleet_status = fleet_sub.add_parser(
        "status", help="probe every placed node and summarise health"
    )
    fleet_status.add_argument("map", type=Path, help="placement map file")
    fleet_status.add_argument(
        "--timeout", type=float, default=2.0,
        help="per-node probe timeout in seconds (default 2.0)",
    )
    fleet_status.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable fleet record",
    )

    fleet_replicate = fleet_sub.add_parser(
        "replicate",
        help="ship a published generation between a daemon and a "
             "directory (either direction)",
    )
    fleet_replicate.add_argument(
        "source", help="HOST:PORT of a daemon (pull) or a repository "
                       "directory (push)",
    )
    fleet_replicate.add_argument(
        "target", help="repository directory (pull) or HOST:PORT of a "
                       "daemon (push)",
    )
    fleet_replicate.add_argument(
        "--chunk-bytes", type=int, default=4 * 1024 * 1024,
        help="transfer granularity (default 4 MiB)",
    )

    route = subparsers.add_parser(
        "route", help="the fleet's scatter-gather query router"
    )
    route_sub = route.add_subparsers(dest="route_command", required=True)
    route_serve = route_sub.add_parser(
        "serve", help="run the query router over a placement map"
    )
    route_serve.add_argument(
        "map", type=Path, help="placement map file"
    )
    route_serve.add_argument(
        "--host", default="127.0.0.1",
        help="listen address (default 127.0.0.1)",
    )
    route_serve.add_argument(
        "--port", type=int, default=7678,
        help="listen port; 0 picks an ephemeral one (default 7678)",
    )
    route_serve.add_argument(
        "--probe-interval", type=float, default=2.0,
        help="seconds between node health probes (default 2.0)",
    )
    route_serve.add_argument(
        "--probe-timeout", type=float, default=2.0,
        help="per-probe timeout in seconds (default 2.0)",
    )
    return parser


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .cluster import consensus_spectrum
    from .hdc import EncoderConfig
    from .io import read_spectra, write_mgf
    from .pipeline import SpecHDConfig, SpecHDPipeline
    from .spectrum import BucketingConfig

    spectra = list(read_spectra(args.input))
    if not spectra:
        print("no spectra found in input", file=sys.stderr)
        return 1
    pipeline = SpecHDPipeline(
        SpecHDConfig(
            encoder=EncoderConfig(dim=args.dim),
            bucketing=BucketingConfig(resolution=args.resolution),
            linkage=args.linkage,
            cluster_threshold=args.threshold,
        )
    )
    result = pipeline.run(spectra)
    dropped = len(spectra) - len(result.spectra)
    print(
        f"{len(spectra)} spectra read, {dropped} failed QC, "
        f"{result.num_clusters} clusters"
    )

    if args.output is not None:
        members_by_label: dict = {}
        for index, label in enumerate(result.labels):
            members_by_label.setdefault(int(label), []).append(index)
        output_spectra = []
        for label in sorted(members_by_label):
            members = members_by_label[label]
            if args.consensus and len(members) >= 2:
                output_spectra.append(
                    consensus_spectrum(result.spectra, members)
                )
            else:
                medoid = result.medoids.get(label, members[0])
                output_spectra.append(result.spectra[medoid])
        count = write_mgf(output_spectra, args.output)
        print(f"wrote {count} representative spectra to {args.output}")

    if args.summary:
        from .cluster.summarize import summaries_to_table, summarize_clusters

        summaries = summarize_clusters(
            result.spectra,
            result.labels,
            result.distances_by_bucket,
            result.bucket_keys,
            result.medoids,
            min_size=2,
        )
        print(summaries_to_table(summaries))

    if args.assignments is not None:
        full_labels = result.labels_for_input(len(spectra))
        with open(args.assignments, "w", encoding="utf-8") as handle:
            handle.write("identifier\tprecursor_mz\tcharge\tcluster\n")
            for spectrum, label in zip(spectra, full_labels):
                handle.write(
                    f"{spectrum.identifier}\t{spectrum.precursor_mz:.4f}\t"
                    f"{spectrum.precursor_charge}\t{int(label)}\n"
                )
        print(f"wrote assignments to {args.assignments}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from collections import Counter

    from .io import detect_format, read_spectra
    from .spectrum import BucketingConfig, bucket_key, pairwise_work

    format_name = detect_format(args.input)
    # One streaming pass: counts, charge histogram and bucket sizes are
    # all reducible, so the file is never materialised in memory.
    charges: Counter = Counter()
    bucket_sizes: Counter = Counter()
    bucketing = BucketingConfig()
    total = 0
    peak_min = peak_max = peak_sum = 0
    for spectrum in read_spectra(args.input):
        count = spectrum.peak_count
        if total == 0:
            peak_min = peak_max = count
        total += 1
        charges[spectrum.precursor_charge] += 1
        peak_min = min(peak_min, count)
        peak_max = max(peak_max, count)
        peak_sum += count
        bucket_sizes[bucket_key(spectrum, bucketing)] += 1
    print(f"format        : {format_name}")
    print(f"spectra       : {total}")
    if total:
        print(
            "charges       : "
            + ", ".join(f"{c}+: {n}" for c, n in sorted(charges.items()))
        )
        print(f"peaks/spectrum: min {peak_min}, max {peak_max}, "
              f"mean {peak_sum / total:.1f}")
        print(f"buckets (1 Da): {len(bucket_sizes)} "
              f"(max size {max(bucket_sizes.values())}, "
              f"pairwise work {pairwise_work(bucket_sizes.values()):,})")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .io import read_spectra
    from .spectrum import validate_dataset

    # validate_dataset makes one pass over any iterable, so the reader
    # streams straight through it.
    report = validate_dataset(read_spectra(args.input))
    print(f"spectra : {report.total}")
    print(f"valid   : {report.valid} ({report.valid_fraction:.1%})")
    if report.issue_counts:
        print("issues  :")
        for code, count in sorted(report.issue_counts.items()):
            print(f"  {code}: {count}")
    if args.strict and report.valid < report.total:
        return 1
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    from .fpga import project_dataset, spechd_end_to_end_energy
    from .units import format_seconds

    if args.dataset is not None:
        from .datasets import get_dataset

        descriptor = get_dataset(args.dataset)
        num_spectra = descriptor.num_spectra
        num_bytes = descriptor.size_bytes
        print(f"{descriptor.pride_id} ({descriptor.sample_type})")
    elif args.spectra is not None and args.gigabytes is not None:
        num_spectra = int(args.spectra)
        num_bytes = int(args.gigabytes * 10 ** 9)
    else:
        print(
            "provide a PRIDE accession or both --spectra and --gigabytes",
            file=sys.stderr,
        )
        return 2
    report = project_dataset(
        num_spectra, num_bytes, num_cluster_kernels=args.kernels
    )
    print(f"preprocess : {format_seconds(report.preprocess_seconds)}")
    print(f"transfer   : {format_seconds(report.transfer_seconds)}")
    print(f"encode     : {format_seconds(report.encode_seconds)}")
    print(f"cluster    : {format_seconds(report.cluster_seconds)} "
          f"({args.kernels} kernels)")
    print(f"end-to-end : {format_seconds(report.total_seconds)}")
    print(f"energy     : {spechd_end_to_end_energy(report) / 1e3:.1f} kJ")
    return 0


def _open_or_create_repository(args: argparse.Namespace):
    from .hdc import EncoderConfig
    from .spectrum import BucketingConfig
    from .store import ClusterRepository, RepositoryConfig
    from .store.manifest import MANIFEST_NAME

    if (args.repository / MANIFEST_NAME).exists():
        print(f"opening repository {args.repository}")
        repository = ClusterRepository.open(args.repository)
        manifest = repository.manifest
        # Creation-time parameters are fixed by the manifest; warn when a
        # flag the user passed disagrees, so a clustering never silently
        # runs under different parameters than the command line implies.
        fixed = (
            ("--shards", args.shards, manifest.num_shards),
            ("--shard-width", args.shard_width, manifest.shard_width),
            ("--dim", args.dim, manifest.encoder.dim),
            ("--resolution", args.resolution,
             manifest.bucketing.resolution),
            ("--threshold", args.threshold, manifest.cluster_threshold),
            ("--linkage", args.linkage, manifest.linkage),
        )
        for flag, requested, actual in fixed:
            if requested is not None and requested != actual:
                print(
                    f"warning: {flag} {requested} ignored — the "
                    f"repository was created with {actual}",
                    file=sys.stderr,
                )
        return repository
    # Only explicitly-passed flags override the dataclass defaults, so a
    # future default change in RepositoryConfig propagates here untouched.
    overrides = {}
    if args.shards is not None:
        overrides["num_shards"] = args.shards
    if args.shard_width is not None:
        overrides["shard_width"] = args.shard_width
    if args.dim is not None:
        overrides["encoder"] = EncoderConfig(dim=args.dim)
    if args.resolution is not None:
        overrides["bucketing"] = BucketingConfig(resolution=args.resolution)
    if args.threshold is not None:
        overrides["cluster_threshold"] = args.threshold
    if args.linkage is not None:
        overrides["linkage"] = args.linkage
    config = RepositoryConfig(**overrides)
    print(
        f"creating repository {args.repository} "
        f"({config.num_shards} shards, dim {config.encoder.dim})"
    )
    return ClusterRepository.create(args.repository, config)


def _cmd_ingest(args: argparse.Namespace) -> int:
    import time

    from .io import detect_format
    from .io.hvstore import HypervectorStore
    from .store import StreamingIngestor

    if args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    # Check every input before the repository is opened or created, so a
    # mistyped path never leaves an empty repository behind.
    for path in args.inputs:
        if path.suffix != ".npz":
            detect_format(path)
        elif not path.exists():
            raise ParseError("cannot read file: no such file", str(path))
    repository = _open_or_create_repository(args)

    # Reset per streamed flush: each StreamingIngestor starts fresh
    # counters, so the rate denominator must start with them.
    flush_start = [time.monotonic()]

    def report_progress(snapshot: dict) -> None:
        elapsed = max(time.monotonic() - flush_start[0], 1e-9)
        rate = snapshot["spectra_applied"] / elapsed
        print(
            f"progress: {snapshot['spectra_applied']} spectra applied "
            f"({rate:.0f}/s), {snapshot['spectra_dropped']} QC-dropped, "
            f"batches {snapshot['batches_applied']}/"
            f"{snapshot['batches_encoded']} applied/encoded, "
            f"files {snapshot['files_done']}/{snapshot['files_total']}",
            file=sys.stderr,
        )

    progress = report_progress if args.progress else None

    def ingest_reports():
        # Inputs are ingested strictly in command-line order; consecutive
        # spectrum files ride one stream, .npz stores go through the
        # pre-encoded path between flushes.
        pending = []

        def flush():
            if not pending:
                return
            flush_start[0] = time.monotonic()
            ingestor = StreamingIngestor(
                repository, batch_size=args.batch_size
            )
            yield ingestor.ingest(list(pending), progress=progress)
            pending.clear()

        for path in args.inputs:
            if path.suffix == ".npz":
                yield from flush()
                yield repository.add_store(
                    HypervectorStore.load(path), batch_rows=args.batch_size
                )
                continue
            pending.append(path)
        yield from flush()

    added = absorbed = new_clusters = dropped = 0
    for report in ingest_reports():
        added += report.num_added
        absorbed += report.num_absorbed
        new_clusters += report.num_new_clusters
        dropped += report.num_dropped
    if not args.no_checkpoint:
        generation = repository.checkpoint()
        print(f"checkpointed generation {generation}")
    print(
        f"ingested {added} spectra ({dropped} failed QC): "
        f"{absorbed} absorbed, {new_clusters} new clusters; "
        f"repository now {len(repository)} spectra in "
        f"{repository.num_clusters} clusters across "
        f"{repository.num_shards} shards"
    )
    return 0


def _query_service_context(args: argparse.Namespace):
    """The query callable for the verb: local snapshot or remote daemon.

    Local mode reads through a pinned :class:`RepositorySnapshot` (plus
    a WAL-replaying ``ClusterRepository.open`` only when un-checkpointed
    batches exist, so the common reopen-after-checkpoint path never pays
    replay), remote mode through a :class:`ServiceClient`.  Both yield a
    ``query(spectra, k)`` callable returning identical match objects.
    """
    from contextlib import contextmanager

    @contextmanager
    def local():
        from .store import ClusterRepository, QueryService
        from .store.manifest import RepositoryManifest
        from .store.repository import WAL_NAME

        manifest = RepositoryManifest.load(args.repository)
        wal = args.repository / WAL_NAME
        source = None
        if manifest.generation > 0 and (
            not wal.exists() or wal.stat().st_size == 0
        ):
            from .store import RepositorySnapshot

            source = RepositorySnapshot.open(args.repository)
        else:
            # Un-checkpointed batches exist: replay them for complete
            # results, but never truncate the WAL — another process (a
            # live daemon) may be appending to this directory.
            source = ClusterRepository.open(
                args.repository, recover_wal=False
            )
        try:
            yield QueryService(source).query
        finally:
            if hasattr(source, "close"):
                source.close()

    @contextmanager
    def remote(address: str, flag: str):
        from .service import ServiceClient

        host, port = _parse_address(address, flag)
        with ServiceClient(host, port) as client:
            yield client.query

    if args.router is not None:
        # A router speaks the same query op as a single daemon, so the
        # same client drives both; only the address source differs.
        return remote(args.router, "--router")
    if args.remote is not None:
        return remote(args.remote, "--remote")
    return local()


def _parse_address(address: str, flag: str):
    """``HOST:PORT`` → ``(host, port)`` with a clear CLI error."""
    host, _, port_text = address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise SpecHDError(
            f"{flag} must be HOST:PORT, got {address!r}"
        ) from None
    return host or "127.0.0.1", port


def _cmd_query(args: argparse.Namespace) -> int:
    from .io import SpectrumSource

    if args.top_k < 1:
        print("error: --top-k must be >= 1", file=sys.stderr)
        return 2
    sources = sum(
        source is not None
        for source in (args.repository, args.remote, args.router)
    )
    if sources != 1:
        print(
            "error: give a repository directory, --remote HOST:PORT, or "
            "--router HOST:PORT (exactly one)",
            file=sys.stderr,
        )
        return 2

    header = (
        "query\trank\tcluster\tshard\tdistance\tnormalized\t"
        "cluster_size\tmedoid\tmedoid_mz\tmedoid_charge"
    )
    num_queries = 0
    num_matches = 0
    handle = None
    # Stream rows into a temp file and rename on success, so a mid-run
    # failure (corrupt tail, Ctrl+C) never truncates or deletes the
    # matches file of a previous successful run.
    temp_output = (
        args.output.with_name(args.output.name + ".tmp")
        if args.output is not None
        else None
    )
    try:
        # Query files stream through the service in bounded batches: each
        # spectrum's top-k is independent, so chunking never changes any
        # row, only the peak memory of very large query runs.  The header
        # is emitted lazily with the first batch, so an empty input (or a
        # failure before any result) produces no output at all.
        import io

        with _query_service_context(args) as query_fn:
            source = SpectrumSource(args.input)
            for _file_index, _batch_index, spectra in source.iter_batches(
                QUERY_STREAM_BATCH
            ):
                if num_queries == 0:
                    if temp_output is not None:
                        handle = open(temp_output, "w", encoding="utf-8")
                        out = handle
                    else:
                        # stdout stays all-or-nothing: buffer and print
                        # only on success, so a mid-run failure never
                        # emits partial TSV to a redirected stream.
                        # This costs O(result rows) memory — the same
                        # profile the verb always had on stdout; very
                        # large query runs should use -o, which streams
                        # through a temp file in O(batch) memory.
                        out = io.StringIO()
                    out.write(header + "\n")
                results = query_fn(spectra, k=args.top_k)
                num_queries += len(spectra)
                for spectrum, matches in zip(spectra, results):
                    for rank, match in enumerate(matches, start=1):
                        num_matches += 1
                        out.write(
                            f"{spectrum.identifier}\t{rank}\t"
                            f"{match.global_label}\t"
                            f"{match.shard_id}\t{match.distance}\t"
                            f"{match.normalized_distance:.4f}\t"
                            f"{match.cluster_size}\t"
                            f"{match.medoid_identifier}\t"
                            f"{match.medoid_precursor_mz:.4f}\t"
                            f"{match.medoid_charge}\n"
                        )
    except BaseException:
        # Never leave a half-written temp file behind; the previous
        # matches file (if any) is untouched.
        if handle is not None:
            handle.close()
            temp_output.unlink(missing_ok=True)
        raise
    if handle is not None:
        handle.close()
        import os

        os.replace(temp_output, args.output)
    if num_queries == 0:
        print("no spectra found in query input", file=sys.stderr)
        return 1
    if args.output is not None:
        print(
            f"wrote {num_matches} matches for {num_queries} queries "
            f"to {args.output}"
        )
    else:
        sys.stdout.write(out.getvalue())
    return 0


def _cmd_repo_info(args: argparse.Namespace) -> int:
    import json

    from .hdc.kernels import kernel_runtime
    from .store import ClusterRepository
    from .units import format_bytes

    repository = ClusterRepository.open(args.repository)
    kernel = kernel_runtime()
    if args.json:
        record = repository.info()
        record["kernel"] = kernel
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    manifest = repository.manifest
    print(f"repository : {args.repository}")
    print(f"format     : v{manifest.format_version}, "
          f"generation {manifest.generation}, "
          f"applied seq {manifest.applied_seq}")
    print(f"encoder    : dim {manifest.encoder.dim}, "
          f"seed {manifest.encoder.seed:#x}")
    print(f"bucketing  : resolution {manifest.bucketing.resolution} Da, "
          f"shard width {manifest.shard_width}")
    print(f"clustering : threshold {manifest.cluster_threshold}, "
          f"{manifest.linkage} linkage")
    print(f"spectra    : {len(repository)}")
    print(f"clusters   : {repository.num_clusters}")
    print(f"stored     : {format_bytes(repository.stored_bytes())} "
          f"packed hypervectors")
    print(f"WAL        : {format_bytes(repository.wal_bytes())}")
    print(f"kernels    : {kernel['popcount']} (numpy {kernel['numpy']})")
    print("shards     :")
    for stats in repository.shard_stats():
        print(f"  shard {stats['shard']}: {stats['spectra']} spectra, "
              f"{stats['clusters']} clusters, "
              f"{format_bytes(stats['bytes'])}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ClusterService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_min_batches=args.checkpoint_min_batches,
        coalesce_window_ms=args.coalesce_window_ms,
        coalesce_max_rows=args.coalesce_max_rows,
        max_wal_bytes=args.max_wal_bytes,
        retain_generations=args.retain_generations,
        verify=args.verify,
        scrub_interval=args.scrub_interval,
        scrub_bytes_per_second=args.scrub_rate,
        repair_peers=tuple(args.repair_peer),
        partial_sweep_age_seconds=args.partial_sweep_age,
    )
    service = ClusterService(args.repository, config)
    try:
        service.start()
        print(
            f"serving {args.repository} on {config.host}:{service.port} "
            f"(generation {service.serving_generation}, "
            f"{len(service.repository)} spectra in "
            f"{service.repository.num_clusters} clusters); Ctrl+C stops"
        )
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        service.stop()
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    import json

    from .store.integrity import GenerationScrubber
    from .store.manifest import RepositoryManifest
    from .store.snapshot import _write_pin

    directory = Path(args.repository)
    manifest = RepositoryManifest.load(directory)
    generation = manifest.generation
    if generation < 1:
        print("nothing published yet: nothing to scrub")
        return 0
    if not manifest.integrity:
        print(
            f"generation {generation} predates integrity records; "
            "checkpoint once to record checksums",
            file=sys.stderr,
        )
        return 0
    # Pin the generation so a concurrent daemon's sweep cannot retire
    # it out from under the scan.
    pin = _write_pin(directory, generation)
    try:
        scrubber = GenerationScrubber(bytes_per_second=args.rate)
        report = scrubber.scrub(directory, generation, manifest.integrity)
        if not report.clean and args.repair_from:
            from .fleet import Replicator
            from .service import ServiceClient

            host, port = _parse_address(args.repair_from, "--repair-from")
            with ServiceClient(host=host, port=port) as client:
                Replicator().heal(
                    client, directory, generation, report.corrupt_names()
                )
            report = scrubber.scrub(
                directory, generation, manifest.integrity
            )
    finally:
        pin.unlink(missing_ok=True)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        state = "clean" if report.clean else "CORRUPT"
        print(
            f"generation {generation}: {state} — "
            f"{report.files_checked} files, "
            f"{report.bytes_checked} bytes in "
            f"{report.duration_seconds:.2f}s"
        )
        for error in report.errors:
            print(f"  {error}", file=sys.stderr)
    return 0 if report.clean else 1


def _parse_node_spec(spec: str):
    """``NAME=HOST:PORT`` → :class:`~repro.fleet.NodeInfo`."""
    from .fleet import NodeInfo

    name, eq, address = spec.partition("=")
    if not eq or not name:
        raise SpecHDError(
            f"node spec must be NAME=HOST:PORT, got {spec!r}"
        )
    host, port = _parse_address(address, f"node {name!r}")
    return NodeInfo(name=name, host=host, port=port)


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from .fleet import PlacementMap, Replicator
    from .units import format_bytes

    if args.fleet_command == "init":
        num_shards = args.shards
        if (num_shards is None) == (args.repository is None):
            print(
                "error: give --shards N or --repository DIR "
                "(exactly one)",
                file=sys.stderr,
            )
            return 2
        if num_shards is None:
            from .store.manifest import RepositoryManifest

            num_shards = RepositoryManifest.load(
                args.repository
            ).num_shards
        nodes = [_parse_node_spec(spec) for spec in args.node]
        placement = PlacementMap.create(
            nodes, num_shards=num_shards, replication=args.replication
        )
        placement.save(args.map)
        print(
            f"placed {num_shards} shards x{args.replication} across "
            f"{len(nodes)} nodes -> {args.map} (version 1)"
        )
        return 0

    if args.fleet_command == "add-node":
        placement = PlacementMap.load(args.map)
        node = _parse_node_spec(args.node)
        rebalanced = placement.add_node(node)
        rebalanced.save(args.map)
        moved = sum(
            before != after
            for before, after in zip(
                placement.assignments, rebalanced.assignments
            )
        )
        print(
            f"added {node.name}; {moved} shard assignments moved "
            f"(version {rebalanced.version}, loads {rebalanced.loads()})"
        )
        return 0

    if args.fleet_command == "remove-node":
        placement = PlacementMap.load(args.map)
        rebalanced = placement.remove_node(args.name)
        rebalanced.save(args.map)
        print(
            f"removed {args.name} "
            f"(version {rebalanced.version}, loads {rebalanced.loads()})"
        )
        return 0

    if args.fleet_command == "status":
        from .fleet import RouterConfig, RouterDaemon

        placement = PlacementMap.load(args.map)
        router = RouterDaemon(
            placement,
            RouterConfig(
                probe_interval=0,
                probe_timeout=args.timeout,
            ),
        )
        try:
            router.probe_once()
            record = router.fleet_status()
        finally:
            router.stop()
        if args.json:
            print(json.dumps(record, indent=2, sort_keys=True))
            return 0
        print(
            f"placement version {record['placement_version']}: "
            f"{record['num_shards']} shards "
            f"x{record['replication']} replicas"
        )
        healthy = 0
        for name, node in record["nodes"].items():
            mark = "up  " if node["healthy"] else "DOWN"
            healthy += node["healthy"]
            if node["healthy"]:
                detail = (
                    f"generation {node['generation']}, "
                    f"shards {node['shards']}"
                )
                if node.get("bytes_sent") is not None:
                    detail += (
                        f", wire {format_bytes(node['bytes_sent'])} out / "
                        f"{format_bytes(node['bytes_received'])} in"
                    )
            else:
                detail = f"({node['last_error']})"
            print(f"  {mark} {name} {node['host']}:{node['port']} {detail}")
        print(f"{healthy}/{len(record['nodes'])} nodes healthy")
        return 0 if healthy == len(record["nodes"]) else 1

    if args.fleet_command == "replicate":
        from .service import ServiceClient

        replicator = Replicator(chunk_bytes=args.chunk_bytes)
        pull = ":" in args.source and args.source.rsplit(":", 1)[
            1
        ].isdigit()
        if pull:
            host, port = _parse_address(args.source, "source")
            with ServiceClient(host, port) as client:
                installed = replicator.pull(client, Path(args.target))
        else:
            host, port = _parse_address(args.target, "target")
            with ServiceClient(host, port) as client:
                installed = replicator.push(Path(args.source), client)
        if installed is None:
            print("already up to date")
        else:
            direction = "pulled" if pull else "pushed"
            print(f"{direction} generation {installed}")
        return 0

    print(f"error: unknown fleet command {args.fleet_command!r}",
          file=sys.stderr)
    return 2


def _cmd_route(args: argparse.Namespace) -> int:
    from .fleet import PlacementMap, RouterConfig, RouterDaemon

    placement = PlacementMap.load(args.map)
    router = RouterDaemon(
        placement,
        RouterConfig(
            host=args.host,
            port=args.port,
            probe_interval=args.probe_interval,
            probe_timeout=args.probe_timeout,
        ),
    )
    try:
        router.start()
        healthy = sum(
            1 for name in placement.nodes if router._is_healthy(name)
        )
        print(
            f"routing {placement.num_shards} shards across "
            f"{len(placement.nodes)} nodes "
            f"({healthy} healthy) on {args.host}:{router.port} "
            f"(placement version {placement.version}); Ctrl+C stops"
        )
        router.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        router.stop()
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from .datasets import DATASET_ORDER, get_dataset
    from .units import format_bytes

    for pride_id in DATASET_ORDER:
        descriptor = get_dataset(pride_id)
        print(f"{pride_id}  {descriptor.sample_type:15s} "
              f"{descriptor.num_spectra / 1e6:5.1f} M spectra  "
              f"{format_bytes(descriptor.size_bytes)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from .logging import setup_logging

    setup_logging(level=args.log_level, json_output=args.log_json)
    handlers = {
        "cluster": _cmd_cluster,
        "info": _cmd_info,
        "validate": _cmd_validate,
        "project": _cmd_project,
        "datasets": _cmd_datasets,
        "ingest": _cmd_ingest,
        "query": _cmd_query,
        "repo-info": _cmd_repo_info,
        "serve": _cmd_serve,
        "scrub": _cmd_scrub,
        "fleet": _cmd_fleet,
        "route": _cmd_route,
    }
    try:
        return handlers[args.command](args)
    except SpecHDError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
