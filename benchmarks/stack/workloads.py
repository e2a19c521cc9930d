"""The six workloads of the stack benchmark.

Sizes are the constants in :data:`FULL` (and toy ones in :data:`SMOKE`);
only the seed varies between runs.  Every workload returns an
:class:`Outcome` holding the end-to-end metrics (always) and the
per-layer metrics (when ``trace`` is set).  Why each workload exists is
recorded once, in ``BENCHMARK.json`` and the README, not here.

Layer names are module names: ``io`` → ``spectrum`` → ``hdc`` →
``cluster`` → ``pipeline`` offline; ``store`` → ``service`` → ``fleet``
serving.  Layers are timed from outside — around their public functions
in this process, and through the daemon's ``metrics`` op and
``/proc/<pid>`` for the daemon processes.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import loadgen
import procs
from spans import Tracer

from repro import SpecHDConfig, SpecHDPipeline
from repro.datasets import SyntheticConfig, generate_dataset
from repro.fleet import NodeInfo, PlacementMap
from repro.hdc import EncoderConfig, IDLevelEncoder, pack_bits
from repro.io import write_mgf
from repro.io.hvstore import HypervectorStore
from repro.io.source import SpectrumFile
from repro.service import NO_RETRY, ServiceClient, protocol
from repro.spectrum import (
    PreprocessingConfig,
    partition_spectra,
    preprocess_spectrum,
)
from repro.spectrum.bucketing import pairwise_work
from repro.store import (
    BitSliceMedoidIndex,
    ClusterRepository,
    QueryService,
    RepositoryConfig,
    RepositoryManifest,
    RepositorySnapshot,
    WriteAheadLog,
    verify_generation,
)

import repro.pipeline as pipeline_module
import repro.store.query as query_module
import repro.streaming as streaming_module

#: Connections (= load threads) of the closed and open loops.  Twice the
#: bench host's 2 cores: with only 2, both clients are at times decoding
#: replies at once, the daemon idles, and closed-loop throughput swings
#: by 10-20 % between runs; with 4 its queue never drains.
CONNECTIONS = 4
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Requests compared byte for byte with a local ``QueryService`` before
#: and after the timed phases.
CHECK_SAMPLES = 16
#: Cap on the sequential replays of the traced run.
TRACE_REQUESTS = 200

DIM = 1024
ENCODER = EncoderConfig(dim=DIM, mz_bins=8_000, intensity_levels=32)
FAMILY_SIZE = 64
FAMILY_FLIP = 0.02
QUERY_FLIP = 0.05
INGEST_BATCH = 64


# ----------------------------------------------------------------------
# Sizes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterSpec:
    peptides: int
    replicates: int
    singletons: int
    mass_group: int
    files: int = 4
    charges: tuple = (2, 3)

    def config(self, seed: int) -> SyntheticConfig:
        return SyntheticConfig(
            num_peptides=self.peptides,
            replicates_per_peptide=self.replicates,
            extra_singleton_peptides=self.singletons,
            peptides_per_mass_group=self.mass_group,
            charge_states=self.charges,
            seed=seed,
        )


@dataclass(frozen=True)
class ServeSpec:
    medoids: int
    shards: int
    rows: int
    k: int
    requests: int
    open_rate: float
    nodes: int = 0  # 0: one daemon; N: N nodes behind one router


@dataclass(frozen=True)
class MixedSpec:
    base_peptides: int
    replicates: int
    singletons: int
    shards: int
    rows: int
    k: int
    requests: int
    ingest_rate: float
    recovery_spectra: int
    probe_spectra: int


@dataclass(frozen=True)
class Sizes:
    warmup_s: float
    setup_repeats: int
    cluster_sparse: ClusterSpec
    cluster_dense: ClusterSpec
    serve_scan: ServeSpec
    serve_matches: ServeSpec
    route_matches: ServeSpec
    serve_mixed: MixedSpec


FULL = Sizes(
    warmup_s=1.0,
    setup_repeats=SETUP_REPEATS,
    cluster_sparse=ClusterSpec(300, 20, 300, 3),
    # One charge state: with only two mass groups, the charge drawn per
    # group otherwise moves pass time by ~7 % between seeds.
    cluster_dense=ClusterSpec(12, 300, 0, 6, charges=(2,)),
    serve_scan=ServeSpec(20_000, 4, 8, 5, 256, 40.0),
    serve_matches=ServeSpec(1_024, 4, 64, 64, 64, 12.0),
    route_matches=ServeSpec(1_024, 4, 64, 64, 64, 8.0, nodes=2),
    serve_mixed=MixedSpec(200, 20, 200, 4, 8, 5, 64, 1_000.0, 4_096, 2_048),
)

SMOKE = Sizes(
    warmup_s=0.1,
    setup_repeats=1,
    cluster_sparse=ClusterSpec(24, 5, 24, 3, files=2),
    cluster_dense=ClusterSpec(4, 40, 0, 4, files=2, charges=(2,)),
    serve_scan=ServeSpec(512, 4, 8, 5, 16, 40.0),
    serve_matches=ServeSpec(256, 4, 16, 16, 8, 20.0),
    route_matches=ServeSpec(256, 4, 16, 16, 8, 20.0, nodes=2),
    serve_mixed=MixedSpec(12, 8, 12, 4, 8, 5, 8, 400.0, 128, 128),
)


# ----------------------------------------------------------------------
# Outcome
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run reports."""

    workload: str
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: ``{phase: {"attempted", "succeeded", "failed", "seconds"}}``
    phases: Dict[str, dict] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Printed but not metrics: ratios with their base, sample counts.
    derived: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    trace_path: Optional[str] = None

    @property
    def attempted(self) -> int:
        return sum(phase["attempted"] for phase in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(phase["failed"] for phase in self.phases.values())

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and bool(self.checks)

    def phase(self, name: str, attempted: int, failed: int, seconds: float,
              errors: Sequence[str] = ()) -> None:
        self.phases[name] = {
            "attempted": int(attempted),
            "succeeded": int(attempted - failed),
            "failed": int(failed),
            "seconds": seconds,
        }
        for error in errors:
            self.notes.append(f"{name}: {error}")

    def load_phase(self, name: str, result: loadgen.PhaseResult) -> None:
        self.phase(
            name, result.attempted, result.failed, result.seconds,
            result.errors,
        )


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Offline: cluster_sparse / cluster_dense
# ----------------------------------------------------------------------


#: How far a generated dataset's pairwise work may sit from the nominal
#: ``groups x C(group size, 2)`` before its seed is passed over.
LAYOUT_TOLERANCE = 0.02


def _dataset_seed(spec: ClusterSpec, seed: int) -> int:
    """The first generator seed derived from ``seed`` with a nominal layout.

    The synthetic generator sometimes builds a short mass group (its
    confusable-variant search gives up) or lands two groups in one 1 Da
    bucket, which changes the quadratic distance work by tens of per cent
    — a property of the input, not of the program.  Seeds with such
    layouts are skipped, outside every timed region, so that only the
    spectra vary between runs and the amount of work does not.
    """
    group = spec.mass_group * spec.replicates
    nominal = (spec.peptides // spec.mass_group) * (group * (group - 1) // 2)
    for candidate in range(seed * 1000, seed * 1000 + 1000):
        dataset = generate_dataset(spec.config(candidate))
        sizes = [
            len(members)
            for members in partition_spectra(dataset.spectra).values()
        ]
        if abs(pairwise_work(sizes) / nominal - 1.0) <= LAYOUT_TOLERANCE:
            return candidate
    raise RuntimeError(f"no nominal dataset layout near seed {seed}")


def _cluster_setup(root: Path, spec: ClusterSpec, seed: int, tag: str):
    """Generate the spectra, write the MGF files, build + warm the pipeline."""
    begin = time.perf_counter()
    dataset = generate_dataset(spec.config(seed))
    per_file = -(-len(dataset.spectra) // spec.files)
    paths = []
    for index in range(spec.files):
        path = root / f"{tag}-{index}.mgf"
        write_mgf(
            dataset.spectra[index * per_file : (index + 1) * per_file], path
        )
        paths.append(path)
    pipeline = SpecHDPipeline(SpecHDConfig())
    # Lazy encoder tables and kernel warm-up belong to set-up, not to the
    # first timed pass.
    pipeline.run_files(paths[:1])
    return dataset, paths, pipeline, time.perf_counter() - begin


def _label_digest(result, count: int) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(result.labels_for_input(count)).tobytes()
    ).hexdigest()


def _timed_passes(
    pipeline, paths, count: int, seconds: float, minimum: int, tracer=None
):
    """``run_files`` passes until ``seconds`` have elapsed (>= ``minimum``).

    Returns per-pass wall and CPU seconds, the set of label digests seen
    and the last pass's result (earlier ones are dropped so resident
    memory reflects one pass, not the history).
    """
    times, cpu, digests, result = [], [], set(), None
    begin = time.perf_counter()
    while len(times) < minimum or time.perf_counter() - begin < seconds:
        result = None
        cpu_start = time.process_time()
        start = time.perf_counter()
        if tracer is None:
            result = pipeline.run_files(paths)
        else:
            with tracer.span("pipeline.run_files", request=len(times)):
                result = pipeline.run_files(paths)
        times.append(time.perf_counter() - start)
        cpu.append(time.process_time() - cpu_start)
        digests.add(_label_digest(result, count))
    return times, cpu, digests, result


_CLUSTER_WRAPS = (
    (SpectrumFile, "read_batches", "io.parse"),
    (streaming_module, "preprocess_spectrum", "spectrum.preprocess"),
    (IDLevelEncoder, "encode_batch", "hdc.encoder.encode"),
    (pipeline_module, "partition_spectra", "spectrum.bucketing.partition"),
    (pipeline_module, "pairwise_hamming_blocked", "hdc.hamming.pairwise"),
    (pipeline_module, "nn_chain_linkage", "cluster.nnchain"),
    (pipeline_module, "cut_at_height", "cluster.dendrogram.cut"),
)


def run_cluster(
    name: str, sizes: Sizes, seed: int, seconds: float, trace: bool
) -> Outcome:
    spec: ClusterSpec = getattr(sizes, name)
    outcome = Outcome(name)
    with procs.ProcessGroup(name) as group:
        setups = []
        repeats = 1 if trace else sizes.setup_repeats
        dataset_seed = _dataset_seed(spec, seed)
        for repeat in range(repeats):
            dataset, paths, pipeline, took = _cluster_setup(
                group.root, spec, dataset_seed, f"s{repeat}"
            )
            setups.append(took)
        count = len(dataset.spectra)

        untraced_seconds = seconds / 2 if trace else seconds
        times, cpu, digests, result = _timed_passes(
            pipeline, paths, count, untraced_seconds, minimum=2
        )
        quality = result.quality(dataset.labels)
        outcome.checks["labels_identical_across_passes"] = len(digests) == 1
        outcome.checks["icr_at_most_0.01"] = (
            quality.incorrect_clustering_ratio <= 0.01
        )
        outcome.phase("passes", len(times), 0, sum(times))

        outcome.end_to_end = {
            "setup_s": _median(setups),
            "peak_rss_mb": procs.self_hwm_mib(),
            "throughput_per_s": count / _median(times),
            "op_p50_ms": _median(times) * 1e3,
            "cpu_ms_per_item": _median(cpu) / count * 1e3,
        }
        outcome.derived["passes"] = len(times)
        outcome.derived["input_spectra"] = count

        if trace:
            tracer = Tracer()
            with tracer.wrapped(_CLUSTER_WRAPS):
                traced_times, _, traced_digests, result = _timed_passes(
                    pipeline, paths, count, seconds / 2, minimum=1,
                    tracer=tracer,
                )
            digests |= traced_digests
            outcome.checks["labels_identical_across_passes"] = (
                len(digests) == 1
            )
            outcome.phase("traced_passes", len(traced_times), 0,
                          sum(traced_times))
            outcome.layers = _cluster_layers(
                tracer, result, quality, count, len(traced_times),
                _median(times), _median(traced_times),
            )
            outcome.trace_path = _write_trace(tracer, name, seed)
    return outcome


def _cluster_layers(
    tracer, result, quality, count, passes, untraced_pass, traced_pass
) -> Dict[str, float]:
    totals = tracer.self_times()

    def per_pass(span_name: str) -> float:
        return totals.get(span_name, 0.0) / passes

    run_files = sum(tracer.durations("pipeline.run_files")) / passes
    parse = per_pass("io.parse")
    preprocess = per_pass("spectrum.preprocess")
    encode = per_pass("hdc.encoder.encode")
    pairwise = per_pass("hdc.hamming.pairwise")
    nnchain = per_pass("cluster.nnchain") + per_pass("cluster.dendrogram.cut")
    kept = int(result.labels.size)
    bucket_sizes = [len(members) for members in result.bucket_keys.values()]
    pairs = pairwise_work(bucket_sizes)
    words = result.hypervectors.shape[1] if kept else 0
    unattributed = per_pass("pipeline.run_files") / run_files
    return {
        "io.parse_s": parse,
        "io.parse_spectra_per_s": count / parse if parse else 0.0,
        "spectrum.preprocess_s": preprocess,
        "spectrum.kept_share": kept / count,
        "hdc.encoder.encode_s": encode,
        "hdc.encoder.spectra_per_s": kept / encode if encode else 0.0,
        "spectrum.bucketing.partition_s": per_pass(
            "spectrum.bucketing.partition"
        ),
        "spectrum.bucketing.buckets": len(bucket_sizes),
        "spectrum.bucketing.max_bucket": max(bucket_sizes, default=0),
        "spectrum.bucketing.pairwise_work": pairs,
        "hdc.hamming.pairwise_s": pairwise,
        "hdc.hamming.pairs_per_s": pairs / pairwise if pairwise else 0.0,
        # Computed, not measured: two packed operands read per pair.
        "hdc.hamming.bytes_computed": pairs * 2 * words * 8,
        "cluster.nnchain_s": nnchain,
        "cluster.nnchain.merges": result.clustering_stats.merges,
        "cluster.nnchain.distance_scans": (
            result.clustering_stats.distance_scans
        ),
        "cluster.clustered_ratio": quality.clustered_spectra_ratio,
        "cluster.icr": quality.incorrect_clustering_ratio,
        "cluster.completeness": quality.completeness,
        "pipeline.run_files_s": run_files,
        "pipeline.distance_linkage_share": (pairwise + nnchain) / run_files,
        "pipeline.unattributed_share": unattributed,
        "trace.overhead_share": traced_pass / untraced_pass - 1.0,
        "trace.unattributed_share": unattributed,
    }


def _write_trace(tracer: Tracer, name: str, seed: int) -> str:
    results = procs.STACK_DIR / "results"
    results.mkdir(exist_ok=True)
    path = results / f"trace-{name}.json"
    tracer.write(path, {"workload": name, "seed": seed})
    return str(path)


# ----------------------------------------------------------------------
# Serving inputs
# ----------------------------------------------------------------------


def make_medoids(rng, count: int) -> np.ndarray:
    """Replicate-structured packed vectors: families of near-duplicates."""
    words = DIM // 64
    num_bases = max(1, count // FAMILY_SIZE)
    bases = rng.integers(
        0, np.iinfo(np.uint64).max, size=(num_bases, words),
        dtype=np.uint64, endpoint=True,
    )
    family = bases[np.arange(count) % num_bases]
    return family ^ pack_bits(rng.random((count, DIM)) < FAMILY_FLIP)


def build_vector_repository(
    directory: Path, vectors: np.ndarray, num_shards: int
) -> Path:
    """A checkpointed repository of ``len(vectors)`` singleton clusters."""
    count = vectors.shape[0]
    repository = ClusterRepository.create(
        directory,
        RepositoryConfig(num_shards=num_shards, shard_width=1, encoder=ENCODER),
    )
    repository.add_store(
        HypervectorStore(
            vectors=vectors,
            precursor_mz=np.array([300.0 + 0.7 * i for i in range(count)]),
            charge=np.full(count, 2, dtype=np.int16),
            labels=np.full(count, -1, dtype=np.int64),
            identifiers=[f"m{i}" for i in range(count)],
            dim=DIM,
            encoder_seed=ENCODER.seed,
        ),
        batch_rows=4096,
    )
    repository.checkpoint()
    repository.close()
    return directory


def make_requests(rng, medoids, count: int, rows: int) -> List[np.ndarray]:
    """Request batches: fresh noisy replicates of stored medoids."""
    requests = []
    for _ in range(count):
        picks = rng.integers(0, medoids.shape[0], size=rows)
        requests.append(
            medoids[picks] ^ pack_bits(rng.random((rows, DIM)) < QUERY_FLIP)
        )
    return requests


@dataclass
class Serving:
    """One set-up serving stack: processes, front door, inputs."""

    children: List[procs.Child]
    front: procs.Child
    repo_dir: Path
    directories: List[Path]
    requests: list
    first_answer: list
    setup_seconds: float

    def teardown(self) -> None:
        for child in reversed(self.children):
            child.stop()
        for directory in self.directories:
            shutil.rmtree(directory, ignore_errors=True)

    def role(self, role: str) -> List[procs.Child]:
        return [child for child in self.children if child.role == role]


def _client(port: int) -> ServiceClient:
    # NO_RETRY: a busy or failed request is a failed operation here, not
    # something to hide behind a back-off.
    return ServiceClient(port=port, retry=NO_RETRY)


def _setup_serving(group, spec: ServeSpec, seed: int, tag: str) -> Serving:
    """Inputs → repository → processes → first answer, timed as a whole."""
    begin = time.perf_counter()
    rng = np.random.default_rng(seed)
    medoids = make_medoids(rng, spec.medoids)
    requests = make_requests(rng, medoids, spec.requests, spec.rows)
    repo_dir = build_vector_repository(
        group.root / f"{tag}-repo", medoids, spec.shards
    )
    directories = [repo_dir]
    if spec.nodes:
        node_dirs = []
        for index in range(spec.nodes):
            node_dir = group.root / f"{tag}-node{index}"
            shutil.copytree(repo_dir, node_dir)
            node_dirs.append(node_dir)
        directories.extend(node_dirs)
        nodes = [group.serve(node_dir, role="node") for node_dir in node_dirs]
        for node in nodes:
            node.await_banner()
        placement = PlacementMap.create(
            [
                NodeInfo(f"node{index}", "127.0.0.1", node.port)
                for index, node in enumerate(nodes)
            ],
            num_shards=spec.shards,
            replication=1,
        )
        placement_path = group.root / f"{tag}-placement.json"
        placement.save(placement_path)
        front = group.route(placement_path).await_banner()
        children = nodes + [front]
    else:
        front = group.serve(repo_dir).await_banner()
        children = [front]
    with _client(front.port) as client:
        first = client.query_vectors(requests[0], spec.k)
    return Serving(
        children=children,
        front=front,
        repo_dir=repo_dir,
        directories=directories,
        requests=requests,
        first_answer=first,
        setup_seconds=time.perf_counter() - begin,
    )


def _repeat_setup(setup: Callable[[str], Serving], repeats: int):
    """Set up ``repeats`` times; keep the last stack, time them all."""
    times = []
    for repeat in range(repeats):
        serving = setup(f"s{repeat}")
        times.append(serving.setup_seconds)
        if repeat + 1 < repeats:
            serving.teardown()
    return serving, times


def _vector_sender(port, requests, k: int, rows: int, keep: int):
    client = _client(port)

    def send(index: int) -> bool:
        result = client.query_vectors(requests[index % len(requests)], k)
        return len(result) == rows and all(len(row) == keep for row in result)

    return client, send


def _sample_ids(seed: int, num_requests: int) -> List[int]:
    """Request 0 (the first answer) plus seeded picks, CHECK_SAMPLES in all."""
    rng = np.random.default_rng(seed + 1)
    return [0] + [
        int(i) for i in rng.integers(0, num_requests, CHECK_SAMPLES - 1)
    ]


def _verify_ms(repo_dir: Path) -> float:
    """Time ``verify_generation`` under the daemon's default policy."""
    manifest = RepositoryManifest.load(repo_dir)
    start = time.perf_counter()
    verify_generation(
        repo_dir, manifest.generation, manifest.integrity, policy="sampled"
    )
    return (time.perf_counter() - start) * 1e3


def _check_samples(port, ask, expected: Dict[int, list]) -> bool:
    """Sampled requests byte-identical (``==``) to the local answers."""
    with _client(port) as client:
        return all(
            ask(client, index) == answer for index, answer in expected.items()
        )


def _load_phases(
    outcome: Outcome,
    children,
    senders,
    rows: int,
    open_rate: float,
    closed_seconds: float,
    open_seconds: float,
    warmup: float,
):
    """Warm-up (discarded) → closed loop → open loop, all untraced."""
    roles = sorted({child.role for child in children})

    def cpu_by_role() -> Dict[str, float]:
        return {
            role: procs.cpu_seconds([c for c in children if c.role == role])
            for role in roles
        }

    loadgen.closed_loop(senders, warmup)
    cpu_before = cpu_by_role()
    closed = loadgen.closed_loop(senders, closed_seconds)
    cpu_after = cpu_by_role()
    opened = loadgen.open_loop(senders, open_rate, open_seconds)
    outcome.load_phase("closed_loop", closed)
    outcome.load_phase("open_loop", opened)
    answered = closed.succeeded * rows
    cpu = {role: cpu_after[role] - cpu_before[role] for role in roles}
    return closed, opened, answered, cpu


# ----------------------------------------------------------------------
# serve_scan / serve_matches / route_matches
# ----------------------------------------------------------------------


def run_serving(
    name: str, sizes: Sizes, seed: int, seconds: float, trace: bool
) -> Outcome:
    spec: ServeSpec = getattr(sizes, name)
    outcome = Outcome(name)
    keep = min(spec.k, spec.medoids)
    with procs.ProcessGroup(name) as group, ExitStack() as stack:
        serving, setups = _repeat_setup(
            lambda tag: _setup_serving(group, spec, seed, tag),
            1 if trace else sizes.setup_repeats,
        )
        layers: Dict[str, float] = {}
        open_start = time.perf_counter()
        snapshot = stack.enter_context(RepositorySnapshot.open(serving.repo_dir))
        layers["store.snapshot.open_ms"] = (
            time.perf_counter() - open_start
        ) * 1e3
        local = stack.enter_context(QueryService(snapshot))
        expected = {
            index: local.query_vectors(serving.requests[index], spec.k)
            for index in _sample_ids(seed, len(serving.requests))
        }

        def ask(client, index):
            return client.query_vectors(serving.requests[index], spec.k)

        outcome.checks["first_answer_identical_to_local"] = (
            serving.first_answer == expected[0]
        )
        outcome.checks["samples_identical_before"] = _check_samples(
            serving.front.port, ask, expected
        )

        tracer = Tracer() if trace else None
        if trace:
            # Sequential replays first, while the daemon's latency ring
            # holds nothing but single-connection requests.
            layers.update(
                _trace_serving(
                    outcome, tracer, serving, spec, local, seconds / 5
                )
            )

        pairs = [
            _vector_sender(
                serving.front.port, serving.requests, spec.k, spec.rows, keep
            )
            for _ in range(CONNECTIONS)
        ]
        for client, _ in pairs:
            stack.callback(client.close)
        senders = [send for _, send in pairs]
        phase_seconds = seconds / 5 if trace else seconds / 2
        closed, opened, answered, cpu = _load_phases(
            outcome, serving.children, senders, spec.rows, spec.open_rate,
            phase_seconds, phase_seconds, sizes.warmup_s,
        )
        outcome.checks["samples_identical_after"] = _check_samples(
            serving.front.port, ask, expected
        )
        outcome.checks["no_failed_operations"] = outcome.failed == 0

        outcome.end_to_end = {
            "setup_s": _median(setups),
            "peak_rss_mb": procs.peak_rss_mib(serving.children),
            "throughput_per_s": closed.steady_rate() * spec.rows,
            "op_p50_ms": loadgen.median_ms(opened.latencies),
            "cpu_ms_per_item": (
                sum(cpu.values()) / answered * 1e3 if answered else 0.0
            ),
        }
        outcome.derived["open_loop_samples"] = len(opened.latencies)
        outcome.derived["open_loop_rate_per_s"] = spec.open_rate
        outcome.derived["connections"] = CONNECTIONS
        if spec.nodes:
            outcome.notes.append(
                f"{len(serving.children)} processes share "
                f"{os.cpu_count()} cores: this measures total CPU per row "
                "across them, not scaling"
            )

        if trace:
            layers.update(
                _load_layers(serving, closed, opened, answered, cpu)
            )
            standalone = layers["store.query.standalone_rows_per_s"]
            outcome.derived["served_vs_standalone"] = (
                outcome.end_to_end["throughput_per_s"] / standalone
            )
            outcome.derived["standalone_rows_per_s_base"] = standalone
            outcome.layers = layers
            outcome.trace_path = _write_trace(tracer, name, seed)
    return outcome


def _load_layers(serving, closed, opened, answered, cpu) -> Dict[str, float]:
    """Layer metrics read off the untraced load phases and ``metrics`` op."""
    counters = {"queries_shed": 0, "ingest_shed": 0}
    coalesced = []
    for child in serving.role("daemon") + serving.role("node"):
        with _client(child.port) as client:
            metrics = client.metrics()
        coalesced.append(metrics["coalesce"]["mean_rows"])
        for key in counters:
            counters[key] += metrics["counters"][key]
    krows = answered / 1e3 if answered else float("inf")
    generator_cpu = closed.cpu_seconds + opened.cpu_seconds
    generator_wall = closed.seconds + opened.seconds
    return {
        "service.client.open_p90_ms": loadgen.percentile(
            opened.latencies, 0.9
        ) * 1e3,
        "service.client.open_samples": len(opened.latencies),
        "service.client.closed_p50_ms": loadgen.median_ms(closed.latencies),
        "service.daemon.coalesced_rows_mean": _median(coalesced),
        "service.daemon.queries_shed": counters["queries_shed"],
        "service.daemon.ingest_shed": counters["ingest_shed"],
        "service.daemon.cpu_s_per_krow": cpu.get("daemon", 0.0) / krows,
        "fleet.node.cpu_s_per_krow": cpu.get("node", 0.0) / krows,
        "fleet.router.cpu_s_per_krow": cpu.get("router", 0.0) / krows,
        "loadgen.cpu_share": generator_cpu / generator_wall,
        "loadgen.late_p90_ms": loadgen.percentile(opened.lateness, 0.9) * 1e3,
    }


def _sequential_replay(client, serving, spec, budget: float, tracer=None):
    """Single-connection replay; returns per-request round-trip seconds."""
    rtts = []
    begin = time.perf_counter()
    for index in range(TRACE_REQUESTS):
        if time.perf_counter() - begin > budget and rtts:
            break
        vectors = serving.requests[index % len(serving.requests)]
        start = time.perf_counter()
        if tracer is None:
            client.query_vectors(vectors, spec.k)
        else:
            with tracer.span("service.client.query_vectors", request=index):
                client.query_vectors(vectors, spec.k)
        rtts.append(time.perf_counter() - start)
    return rtts


_CLIENT_WRAPS = (
    (protocol, "attach_vectors", "service.protocol.attach_vectors"),
    (protocol, "send_message", "service.protocol.send_message"),
    (protocol.FrameReceiver, "recv_message", "service.protocol.recv_message"),
    (protocol, "extract_matches", "service.protocol.extract_matches"),
)


def _trace_serving(
    outcome, tracer, serving, spec, local, budget: float
) -> Dict[str, float]:
    """The traced half of a serving run: replays and in-process probes."""
    layers: Dict[str, float] = {
        "store.integrity.verify_ms": _verify_ms(serving.repo_dir)
    }

    # Untraced, then traced, over the same requests and connection.
    with _client(serving.front.port) as client:
        untraced = _sequential_replay(client, serving, spec, budget / 2)
        sent, received = client.bytes_sent, client.bytes_received
        with tracer.wrapped(_CLIENT_WRAPS):
            traced = _sequential_replay(
                client, serving, spec, budget / 2, tracer
            )
        sent = (client.bytes_sent - sent) / len(traced)
        received = (client.bytes_received - received) / len(traced)
    outcome.phase("sequential_replay", len(untraced) + len(traced), 0,
                  sum(untraced) + sum(traced))
    rows = tracer.by_request().values()

    def p50(*names: str) -> float:
        return _median(
            [sum(row.get(n, 0.0) for n in names) for row in rows]
        ) * 1e3

    rtt = p50("service.client.query_vectors")
    encode = p50(
        "service.protocol.attach_vectors", "service.protocol.send_message"
    )
    decode = p50("service.protocol.extract_matches")
    handlers = []
    for child in serving.role("daemon") + serving.role("node"):
        with _client(child.port) as client:
            handlers.append(
                client.metrics()["ops"]["query_vectors"]["p50_ms"]
            )
    handler = _median(handlers)

    direct = 0.0
    if spec.nodes:
        # The same requests straight to one node (a full replica), so the
        # difference to the routed round trip is the router's own cost.
        with _client(serving.role("node")[0].port) as client:
            direct = _median(
                _sequential_replay(client, serving, spec, budget / 2)
            ) * 1e3

    # In-process: the store layer alone, scan split from merge.
    mark = len(tracer.spans)
    pruned = []

    def note_mask(mask, *_args) -> None:
        pruned.append(1.0 - float(mask.sum()) / mask.size)

    store_wraps = (
        (BitSliceMedoidIndex, "topk", "store.index.topk"),
        (BitSliceMedoidIndex, "candidate_mask", "store.index.candidate_mask",
         note_mask),
        (query_module, "hamming_cross", "hdc.hamming.cross"),
        (query_module, "batched_topk", "store.index.batched_topk"),
    )
    matches = 0
    replayed = 0
    begin = time.perf_counter()
    with tracer.wrapped(store_wraps):
        for index in range(len(traced)):
            if time.perf_counter() - begin > budget and replayed:
                break
            vectors = serving.requests[index % len(serving.requests)]
            with tracer.span("store.query.query_vectors", request=index):
                result = local.query_vectors(vectors, spec.k)
            matches += sum(len(row) for row in result)
            replayed += 1
    # The scan is whatever query_vectors calls directly; its self time is
    # the merge and the ClusterMatch materialisation.
    split = tracer.with_children("store.query.query_vectors", since=mark)
    query = _median([total for total, _ in split]) * 1e3
    scan = _median([inner for _, inner in split]) * 1e3

    # Untraced single-thread loop: the "standalone" bar served rows/s is
    # compared against.
    done = 0
    begin = time.perf_counter()
    while time.perf_counter() - begin < budget or not done:
        local.query_vectors(
            serving.requests[done % len(serving.requests)], spec.k
        )
        done += 1
    standalone_seconds = time.perf_counter() - begin
    outcome.phase("standalone", done + replayed, 0, standalone_seconds)

    codec = encode + decode
    layers.update({
        "store.query.query_vectors_ms": query,
        "store.query.scan_ms": scan,
        "store.query.merge_ms": query - scan,
        "store.query.matches_per_request": matches / replayed,
        "store.query.standalone_rows_per_s": (
            done * spec.rows / standalone_seconds
        ),
        "hdc.hamming.cross_rows_per_s": (
            spec.rows / (scan / 1e3) if scan else 0.0
        ),
        "store.index.pruned_share": _median(pruned),
        "service.protocol.request_encode_ms": encode,
        "service.protocol.response_decode_ms": decode,
        "service.protocol.request_wire_bytes": sent,
        "service.protocol.response_wire_bytes": received,
        "service.client.rtt_ms": rtt,
        "service.daemon.handler_ms": handler,
        "service.daemon.queue_coalesce_ms": handler - query,
        "service.daemon.residual_ms": rtt - codec - handler,
        "fleet.router.rtt_ms": rtt if spec.nodes else 0.0,
        "fleet.router.overhead_ms": rtt - direct if spec.nodes else 0.0,
        "trace.overhead_share": _median(traced) / _median(untraced) - 1.0,
        "trace.unattributed_share": (rtt - codec - handler) / rtt,
    })
    outcome.derived["scan_share_of_rtt"] = scan / rtt
    outcome.derived["rtt_ms_base"] = rtt
    outcome.derived["trace_replay_requests"] = len(traced)
    return layers


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------


@dataclass
class IngestTally:
    attempted: int = 0
    failed: int = 0
    spectra: int = 0
    rtts: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


class IngestFeed:
    """Hands out 64-spectrum batches once each, in order, to any thread."""

    def __init__(self, spectra: list) -> None:
        self._batches = [
            spectra[start : start + INGEST_BATCH]
            for start in range(0, len(spectra), INGEST_BATCH)
        ]
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> list:
        with self._lock:
            batch = self._batches[self._next % len(self._batches)]
            self._next += 1
        return batch


def _ingest_once(client, feed: IngestFeed, tally: IngestTally) -> None:
    batch = feed.take()
    tally.attempted += 1
    start = time.perf_counter()
    try:
        report = client.ingest(batch)
    except Exception as exc:  # noqa: BLE001 - shed or failed: counted
        tally.failed += 1
        if len(tally.errors) < 5:
            tally.errors.append(f"{type(exc).__name__}: {exc}")
        return
    tally.rtts.append(time.perf_counter() - start)
    tally.spectra += report.num_added


def _paced_ingest(port, feed, rate: float, stop: threading.Event, tally):
    """Stay just behind the ``rate * elapsed`` budget line until stopped."""
    with _client(port) as client:
        begin = time.perf_counter()
        sent = 0
        while not stop.is_set():
            if sent >= rate * (time.perf_counter() - begin):
                time.sleep(0.002)
                continue
            _ingest_once(client, feed, tally)
            sent += INGEST_BATCH


def _mixed_phase(port, senders, feed, rate: float, seconds: float):
    stop = threading.Event()
    tally = IngestTally()
    thread = threading.Thread(
        target=_paced_ingest, args=(port, feed, rate, stop, tally),
        daemon=True,
    )
    thread.start()
    try:
        queries = loadgen.closed_loop(senders, seconds)
    finally:
        stop.set()
        thread.join()
    return queries, tally


def _mixed_config(spec: MixedSpec) -> RepositoryConfig:
    return RepositoryConfig(
        num_shards=spec.shards,
        shard_width=16,
        encoder=ENCODER,
        cluster_threshold=0.36,
    )


def _setup_mixed(group, spec: MixedSpec, seed: int, tag: str, pool_size: int):
    """Base repository by real ingest + the fresh-spectra pool + daemon."""
    begin = time.perf_counter()
    base = generate_dataset(
        SyntheticConfig(
            num_peptides=spec.base_peptides,
            replicates_per_peptide=spec.replicates,
            extra_singleton_peptides=spec.singletons,
            seed=seed,
        )
    )
    pool_peptides = max(1, pool_size // (spec.replicates + 1))
    pool = generate_dataset(
        SyntheticConfig(
            num_peptides=pool_peptides,
            replicates_per_peptide=spec.replicates,
            extra_singleton_peptides=pool_peptides,
            seed=seed + 7919,
        )
    ).spectra
    repo_dir = group.root / f"{tag}-repo"
    repository = ClusterRepository.create(repo_dir, _mixed_config(spec))
    for start in range(0, len(base.spectra), 1024):
        repository.add_batch(base.spectra[start : start + 1024])
    repository.checkpoint()
    base_count = len(repository)
    repository.close()

    rng = np.random.default_rng(seed)
    usable = [
        spectrum for spectrum in base.spectra
        if preprocess_spectrum(spectrum, PreprocessingConfig()) is not None
    ]
    requests = [
        [usable[int(i)] for i in rng.integers(0, len(usable), spec.rows)]
        for _ in range(spec.requests)
    ]
    front = group.serve(repo_dir).await_banner()
    with _client(front.port) as client:
        first = client.query(requests[0], spec.k)
    serving = Serving(
        children=[front],
        front=front,
        repo_dir=repo_dir,
        directories=[repo_dir],
        requests=requests,
        first_answer=first,
        setup_seconds=time.perf_counter() - begin,
    )
    return serving, pool, base_count


def run_mixed(
    name: str, sizes: Sizes, seed: int, seconds: float, trace: bool
) -> Outcome:
    spec: MixedSpec = sizes.serve_mixed
    outcome = Outcome(name)
    mixed_seconds = seconds / 3 if trace else seconds
    # Enough fresh spectra for warm-up + the paced phase, generated in
    # set-up; the traced run's burst and crash phases add their own.
    pool_size = int(spec.ingest_rate * (sizes.warmup_s + mixed_seconds) * 1.1)
    if trace:
        # The burst runs at several times the paced rate for seconds / 6.
        pool_size += spec.recovery_spectra + spec.probe_spectra + int(
            spec.ingest_rate * seconds
        )
    with procs.ProcessGroup(name) as group, ExitStack() as stack:
        pools = {}

        def setup(tag: str) -> Serving:
            serving, pools["pool"], pools["base"] = _setup_mixed(
                group, spec, seed, tag, pool_size
            )
            return serving

        serving, setups = _repeat_setup(
            setup, 1 if trace else sizes.setup_repeats
        )
        pool, base_count = pools["pool"], pools["base"]
        port = serving.front.port

        def ask(client, index):
            return client.query(serving.requests[index], spec.k)

        # Before ingest starts the daemon serves exactly the checkpointed
        # generation, so a local reader of it is the reference.
        with RepositorySnapshot.open(serving.repo_dir) as snapshot:
            with QueryService(snapshot) as local:
                expected = {
                    index: local.query(serving.requests[index], spec.k)
                    for index in _sample_ids(seed, len(serving.requests))
                }
        outcome.checks["first_answer_identical_to_local"] = (
            serving.first_answer == expected[0]
        )
        outcome.checks["samples_identical_before"] = _check_samples(
            port, ask, expected
        )

        client = stack.enter_context(_client(port))

        def send(index: int) -> bool:
            result = client.query(
                serving.requests[index % len(serving.requests)], spec.k
            )
            return len(result) == spec.rows and all(
                len(row) == spec.k for row in result
            )

        reserved = (
            spec.recovery_spectra + spec.probe_spectra if trace else 0
        )
        feed = IngestFeed(pool[: len(pool) - reserved])
        tracer = Tracer() if trace else None
        wraps = (
            ((protocol, "attach_spectra", "service.protocol.attach_spectra"),)
            if trace else ()
        )
        _mixed_phase(port, [send], feed, spec.ingest_rate, sizes.warmup_s)
        with _client(port) as probe:
            before = probe.metrics()["counters"]
        cpu_before = procs.cpu_seconds(serving.children)
        cpu_start = time.process_time()
        with (tracer.wrapped(wraps) if trace else ExitStack()):
            queries, tally = _mixed_phase(
                port, [send], feed, spec.ingest_rate, mixed_seconds
            )
        generator_cpu = time.process_time() - cpu_start
        cpu = procs.cpu_seconds(serving.children) - cpu_before
        outcome.load_phase("mixed_queries", queries)
        outcome.phase("mixed_ingest", tally.attempted, tally.failed,
                      queries.seconds, tally.errors)
        answered = queries.succeeded * spec.rows

        outcome.end_to_end = {
            "setup_s": _median(setups),
            "peak_rss_mb": procs.peak_rss_mib(serving.children),
            "throughput_per_s": queries.steady_rate() * spec.rows,
            "op_p50_ms": loadgen.median_ms(queries.latencies),
            "cpu_ms_per_item": cpu / answered * 1e3 if answered else 0.0,
        }
        outcome.derived["mixed_ingest_spectra_per_s"] = (
            tally.spectra / queries.seconds
        )
        outcome.derived["query_samples"] = len(queries.latencies)

        if trace:
            with _client(port) as probe:
                metrics = probe.metrics()
            layers = {
                "service.client.closed_p50_ms": loadgen.median_ms(
                    queries.latencies
                ),
                "service.client.open_p90_ms": loadgen.percentile(
                    queries.latencies, 0.9
                ) * 1e3,
                "service.client.open_samples": len(queries.latencies),
                "service.daemon.stall_max_ms": max(
                    queries.latencies, default=0.0
                ) * 1e3,
                "service.daemon.checkpoints": (
                    metrics["counters"]["checkpoints"] - before["checkpoints"]
                ),
                "service.daemon.coalesced_rows_mean": (
                    metrics["coalesce"]["mean_rows"]
                ),
                "service.daemon.queries_shed": (
                    metrics["counters"]["queries_shed"]
                ),
                "service.daemon.ingest_shed": (
                    metrics["counters"]["ingest_shed"]
                ),
                "service.daemon.handler_ms": (
                    metrics["ops"]["query"]["p50_ms"]
                ),
                "service.daemon.cpu_s_per_krow": (
                    cpu / (answered / 1e3) if answered else 0.0
                ),
                "service.client.ingest_rtt_ms": loadgen.median_ms(tally.rtts),
                "service.protocol.spectra_encode_ms": _median(
                    tracer.durations("service.protocol.attach_spectra")
                ) * 1e3,
                "loadgen.cpu_share": generator_cpu / queries.seconds,
            }
            layers.update(
                _mixed_crash_phases(
                    outcome, group, serving, spec, feed, pool, base_count,
                    tally, seconds, expected, ask,
                )
            )
            layers.update(
                _store_write_probes(
                    tracer, group.root / "probe-repo", spec,
                    pool[len(pool) - spec.probe_spectra :],
                )
            )
            outcome.layers = layers
            outcome.trace_path = _write_trace(tracer, name, seed)
        outcome.checks["no_failed_operations"] = outcome.failed == 0
    return outcome


def _mixed_crash_phases(
    outcome, group, serving, spec, feed, pool, base_count, tally, seconds,
    expected, ask,
) -> Dict[str, float]:
    """Ingest-only burst → clean stop → fixed WAL → SIGKILL → recovery."""
    layers: Dict[str, float] = {}
    burst = IngestTally()
    with _client(serving.front.port) as client:
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds / 6:
            _ingest_once(client, feed, burst)
        burst_seconds = time.perf_counter() - begin
    outcome.phase("ingest_burst", burst.attempted, burst.failed,
                  burst_seconds, burst.errors)
    layers["service.client.ingest_spectra_per_s"] = (
        burst.spectra / burst_seconds
    )

    serving.front.stop()  # clean: Ctrl+C path, final state on disk
    # A checkpointer that never fires leaves exactly the batches below in
    # the WAL when the process is killed.
    daemon = group.serve(
        serving.repo_dir, "--checkpoint-interval", "3600"
    ).await_banner()
    serving.children.append(daemon)
    with _client(daemon.port) as client:
        before = client.info()["num_spectra"]
        start = len(pool) - spec.probe_spectra - spec.recovery_spectra
        wal_feed = IngestFeed(pool[start : start + spec.recovery_spectra])
        acked = IngestTally()
        for _ in range(spec.recovery_spectra // INGEST_BATCH):
            _ingest_once(client, wal_feed, acked)
    outcome.phase("wal_fill", acked.attempted, acked.failed, sum(acked.rtts),
                  acked.errors)

    killed = time.perf_counter()
    daemon.kill()
    restarted = group.serve(serving.repo_dir).await_banner()
    serving.children.append(restarted)
    serving.front = restarted
    with _client(restarted.port) as client:
        answer = client.query(serving.requests[0], spec.k)
        recovery = time.perf_counter() - killed
        held = client.info()["num_spectra"]
    open_start = time.perf_counter()
    with RepositorySnapshot.open(serving.repo_dir) as snapshot:
        layers["store.snapshot.open_ms"] = (
            time.perf_counter() - open_start
        ) * 1e3
        layers["store.integrity.verify_ms"] = _verify_ms(serving.repo_dir)
        with QueryService(snapshot) as local:
            correct = answer == local.query(serving.requests[0], spec.k)
    outcome.phase("recovery", 1, 0 if correct else 1, recovery)
    outcome.checks["recovered_answer_identical_to_local"] = correct
    outcome.checks["recovered_exactly_the_acknowledged_spectra"] = (
        held == before + acked.spectra
    )
    layers["store.repository.recovery_s"] = recovery
    outcome.derived["recovery_wal_spectra"] = acked.spectra
    return layers


def _store_write_probes(tracer, directory, spec, spectra) -> Dict[str, float]:
    """In-process write path: WAL append, apply, checkpoint, replay."""
    repository = ClusterRepository.create(directory, _mixed_config(spec))
    wraps = (
        (WriteAheadLog, "append_spectra", "store.wal.append"),
        (WriteAheadLog, "append_encoded", "store.wal.append"),
    )
    mark = len(tracer.spans)
    begin = time.perf_counter()
    with tracer.wrapped(wraps):
        for start in range(0, len(spectra), INGEST_BATCH):
            with tracer.span("store.repository.add_batch"):
                repository.add_batch(spectra[start : start + INGEST_BATCH])
    add_seconds = time.perf_counter() - begin
    added = len(repository)
    wal_bytes = repository.wal_bytes()
    repository.close()

    begin = time.perf_counter()
    repository = ClusterRepository.open(directory)  # replays the whole WAL
    replay_seconds = time.perf_counter() - begin
    begin = time.perf_counter()
    repository.checkpoint()
    checkpoint_seconds = time.perf_counter() - begin
    repository.close()
    # What the checkpoint left on disk, not the in-memory vector payload.
    stored = sum(
        path.stat().st_size
        for path in (directory / "segments").rglob("*")
        if path.is_file()
    )
    shutil.rmtree(directory, ignore_errors=True)
    appends = tracer.durations("store.wal.append", since=mark)
    return {
        "store.wal.append_ms": _median(appends) * 1e3,
        "store.wal.bytes_per_spectrum": wal_bytes / added if added else 0.0,
        "store.repository.add_batch_spectra_per_s": added / add_seconds,
        "store.wal.replay_spectra_per_s": added / replay_seconds,
        "store.repository.checkpoint_s": checkpoint_seconds,
        "store.repository.checkpoint_bytes": stored,
        "store.repository.bytes_per_spectrum": (
            stored / added if added else 0.0
        ),
    }


# ----------------------------------------------------------------------


RUNNERS = {
    "cluster_sparse": run_cluster,
    "cluster_dense": run_cluster,
    "serve_scan": run_serving,
    "serve_matches": run_serving,
    "route_matches": run_serving,
    "serve_mixed": run_mixed,
}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Outcome:
    sizes = SMOKE if smoke else FULL
    return RUNNERS[name](name, sizes, seed, seconds, trace)
