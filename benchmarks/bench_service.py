"""Serving-layer benchmark: concurrent ingest + query under the daemon.

Measures what the snapshot-isolated serving layer was built for — query
throughput that *survives* concurrent streaming ingest — and the effect
of the request-coalescing window:

``standalone``
    The PR 3 baseline: one thread, one local
    :class:`~repro.store.QueryService` over a pinned snapshot, no
    ingest.  This is the q/s bar the service is measured against.
``serving sweep``
    A started :class:`~repro.service.ClusterService` (background
    checkpointer live) with N query threads driving real
    :class:`~repro.service.ServiceClient` TCP connections — framing,
    the binary payload codec, and the socket round trip are all on the
    measured path — while an ingest thread pushes spectra through the
    writer the whole time.  Reported per coalesce window: aggregate
    q/s, per-request p50/p99 latency, sustained ingest spectra/s, and
    the mean coalesced kernel-pass size.

Exactness is asserted on every configuration: before ingest starts, the
service's answers must be byte-identical to a local query service over
the same generation.  The full run also asserts the acceptance floor —
sustained service q/s under concurrent ingest ≥ 80% of standalone.

Run under pytest (see README) or directly::

    PYTHONPATH=src python benchmarks/bench_service.py [--smoke]

``--smoke`` runs a seconds-scale configuration for CI wiring checks and
does not overwrite the committed full report.
"""

import os
import threading
import time

import numpy as np

from repro.datasets import SyntheticConfig, generate_dataset
from repro.errors import ServiceBusy
from repro.hdc import EncoderConfig, pack_bits
from repro.io.hvstore import HypervectorStore
from repro.reporting import banner, format_table
from repro.service import ClusterService, ServiceClient, ServiceConfig
from repro.service.protocol import PROTOCOL_VERSION
from repro.store import (
    ClusterRepository,
    QueryService,
    RepositoryConfig,
    RepositorySnapshot,
)

DIM = 1024
ENCODER = EncoderConfig(dim=DIM, mz_bins=8_000, intensity_levels=32)
TOP_K = 5
FAMILY_SIZE = 64
FAMILY_FLIP = 0.02
QUERY_FLIP = 0.05
#: Vector rows per client query request (small on purpose: coalescing
#: is what turns these into efficient kernel passes).
REQUEST_ROWS = 8
QUERY_THREADS = 4
INGEST_BATCH = 64
#: Offered ingest load (spectra/s) during the serving sweep.  A fixed,
#: paced load — not full-bore — so the sweep measures the serving
#: machinery's overhead under a defined ingest SLA rather than how many
#: cores ingest can steal (on a 1-core host, unthrottled ingest alone
#: consumes half the machine and no architecture could hold 80%).
INGEST_RATE = 500.0


def _make_medoids(rng, count):
    """Replicate-structured packed vectors: families of near-duplicates."""
    words = DIM // 64
    num_bases = max(1, count // FAMILY_SIZE)
    bases = rng.integers(
        0, np.iinfo(np.uint64).max, size=(num_bases, words),
        dtype=np.uint64, endpoint=True,
    )
    family = bases[np.arange(count) % num_bases]
    return family ^ pack_bits(rng.random((count, DIM)) < FAMILY_FLIP)


def _build_repository(root, rng, count, tag):
    """A checkpointed repository of ``count`` singleton clusters."""
    repository = ClusterRepository.create(
        root / f"repo-{tag}",
        RepositoryConfig(num_shards=4, shard_width=1, encoder=ENCODER),
    )
    vectors = _make_medoids(rng, count)
    store = HypervectorStore(
        vectors=vectors,
        precursor_mz=np.array([300.0 + 0.7 * i for i in range(count)]),
        charge=np.full(count, 2, dtype=np.int16),
        labels=np.full(count, -1, dtype=np.int64),
        identifiers=[f"m{i}" for i in range(count)],
        dim=DIM,
        encoder_seed=ENCODER.seed,
    )
    repository.add_store(store, batch_rows=4096)
    repository.checkpoint()
    repository.close()
    return root / f"repo-{tag}", vectors


def _query_batches(rng, medoids, count):
    """Pre-generated request batches: fresh replicates of medoids."""
    batches = []
    for _ in range(count):
        picks = rng.integers(0, medoids.shape[0], size=REQUEST_ROWS)
        batches.append(
            medoids[picks]
            ^ pack_bits(rng.random((REQUEST_ROWS, DIM)) < QUERY_FLIP)
        )
    return batches


def _ingest_spectra():
    """A reusable pool of raw spectra batches for the ingest thread."""
    dataset = generate_dataset(
        SyntheticConfig(
            num_peptides=16, replicates_per_peptide=8, seed=1301
        )
    )
    spectra = dataset.spectra
    return [
        spectra[start : start + INGEST_BATCH]
        for start in range(0, len(spectra), INGEST_BATCH)
    ]


def _standalone_qps(repo_dir, batches, duration):
    """PR 3 baseline: single-threaded snapshot reads, no ingest."""
    with RepositorySnapshot.open(repo_dir) as snapshot:
        with QueryService(snapshot) as service:
            service.query_vectors(batches[0], TOP_K)  # build scan state
            deadline = time.perf_counter() + duration
            done = 0
            while time.perf_counter() < deadline:
                service.query_vectors(batches[done % len(batches)], TOP_K)
                done += 1
            elapsed = time.perf_counter() - deadline + duration
    return done * REQUEST_ROWS / elapsed


def _serving_run(repo_dir, window_ms, batches, ingest_pool, duration):
    """One sweep point: N remote clients + 1 ingest thread, ``duration`` s."""
    config = ServiceConfig(
        coalesce_window_ms=window_ms,
        checkpoint_interval=max(duration / 4, 0.25),
    )
    with ClusterService(repo_dir, config) as service:
        # Exactness first, against an independent local reader of the
        # same generation (before ingest can advance it).
        with RepositorySnapshot.open(repo_dir) as snapshot:
            with QueryService(snapshot) as local:
                expected = local.query_vectors(batches[0], TOP_K)
        service.start()
        with ServiceClient(port=service.port) as probe:
            assert probe.query_vectors(batches[0], TOP_K) == expected, (
                f"remote results diverged at window {window_ms}ms"
            )
        stop = threading.Event()
        latencies = []
        latency_lock = threading.Lock()
        counts = [0] * QUERY_THREADS
        ingested = [0]
        failures = []

        def query_worker(worker):
            rng = np.random.default_rng(worker)
            local_latencies = []
            try:
                # Each worker holds one real TCP connection: requests
                # ride the negotiated wire codec, not an in-process
                # shortcut, so serialization cost is on the clock.
                with ServiceClient(port=service.port) as client:
                    while not stop.is_set():
                        batch = batches[int(rng.integers(len(batches)))]
                        start = time.perf_counter()
                        client.query_vectors(batch, TOP_K)
                        local_latencies.append(
                            time.perf_counter() - start
                        )
                        counts[worker] += 1
            except BaseException as exc:  # pragma: no cover - diagnostic
                failures.append(exc)
            with latency_lock:
                latencies.extend(local_latencies)

        def ingest_worker():
            from repro.service import NO_RETRY

            index = 0
            begin = time.perf_counter()
            try:
                # Ingest rides the wire too (spectrum batches through
                # the negotiated codec); NO_RETRY keeps the busy
                # semantics identical to the in-process path.
                with ServiceClient(
                    port=service.port, retry=NO_RETRY
                ) as client:
                    while not stop.is_set():
                        # Pace to the offered load: stay just behind
                        # the INGEST_RATE * elapsed budget line.
                        budget = INGEST_RATE * (
                            time.perf_counter() - begin
                        )
                        if ingested[0] >= budget:
                            time.sleep(0.005)
                            continue
                        try:
                            report = client.ingest(
                                ingest_pool[index % len(ingest_pool)]
                            )
                            ingested[0] += report.num_added
                            index += 1
                        except ServiceBusy:
                            time.sleep(0.01)
            except BaseException as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [
            threading.Thread(target=query_worker, args=(worker,))
            for worker in range(QUERY_THREADS)
        ]
        threads.append(threading.Thread(target=ingest_worker))
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        time.sleep(duration)
        stop.set()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - begin
        assert not failures, failures[:1]
        stats = service.stats.snapshot()
        mean_rows = service.stats.mean_coalesced_rows
        transport = service.metrics()["transport"]

    latencies = np.array(latencies)
    return {
        "qps": sum(counts) * REQUEST_ROWS / elapsed,
        "p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "ingest_rate": ingested[0] / elapsed,
        "mean_rows": mean_rows,
        "checkpoints": stats["checkpoints"],
        "wire_MBps": (
            (transport["bytes_sent"] + transport["bytes_received"])
            / elapsed
            / 1e6
        ),
    }


def _run(root, smoke):
    rng = np.random.default_rng(90210)
    count = 512 if smoke else 20_000
    duration = 0.6 if smoke else 4.0
    windows = (0.0, 2.0) if smoke else (0.0, 0.5, 2.0, 5.0)
    num_batches = 32 if smoke else 256

    repo_dir, medoids = _build_repository(root, rng, count, "serve")
    batches = _query_batches(rng, medoids, num_batches)
    ingest_pool = _ingest_spectra()

    standalone = _standalone_qps(repo_dir, batches, duration)
    headers = ["coalesce window", "q/s", "vs standalone", "p50 ms",
               "p99 ms", "ingest/s", "rows/pass", "wire MB/s", "ckpts"]
    rows = []
    floor_met = []
    points = []
    for window_ms in windows:
        # Fresh copy of the repository per window, so every sweep point
        # starts from the identical generation.
        point_dir, _ = _build_repository(
            root, np.random.default_rng(90210), count, f"w{window_ms}"
        )
        outcome = _serving_run(
            point_dir, window_ms, batches, ingest_pool, duration
        )
        ratio = outcome["qps"] / standalone
        floor_met.append(ratio >= 0.8)
        points.append(
            {
                "window_ms": window_ms,
                "qps": round(outcome["qps"], 1),
                "vs_standalone": round(ratio, 3),
                "p50_ms": round(outcome["p50_ms"], 3),
                "p99_ms": round(outcome["p99_ms"], 3),
                "ingest_rate": round(outcome["ingest_rate"], 1),
                "mean_coalesced_rows": round(outcome["mean_rows"], 2),
                "wire_MBps": round(outcome["wire_MBps"], 2),
            }
        )
        rows.append(
            [
                f"{window_ms:.1f} ms",
                f"{outcome['qps']:,.0f}",
                f"{ratio:.2f}x",
                f"{outcome['p50_ms']:.2f}",
                f"{outcome['p99_ms']:.2f}",
                f"{outcome['ingest_rate']:,.0f}",
                f"{outcome['mean_rows']:.1f}",
                f"{outcome['wire_MBps']:.1f}",
                f"{outcome['checkpoints']}",
            ]
        )
    if not smoke:
        # Acceptance floor: sustained service q/s under concurrent
        # ingest at >= 80% of the PR 3 standalone path for at least one
        # swept window (coalescing should clear it comfortably).
        assert any(floor_met), (
            "no coalesce window sustained >= 80% of standalone q/s"
        )

    sections = [
        banner(
            "Serving benchmark: concurrent ingest + coalesced queries"
            + (" (smoke mode)" if smoke else "")
        ),
        f"repository: {count:,} singleton clusters over 4 shards, "
        f"dim {DIM}",
        f"standalone (PR 3 snapshot reads, no ingest): "
        f"{standalone:,.0f} q/s at {REQUEST_ROWS}-row requests",
        f"service: {QUERY_THREADS} remote TCP clients x "
        f"{REQUEST_ROWS}-row requests (wire protocol v"
        f"{PROTOCOL_VERSION}, binary payload codec) + remote ingest "
        f"offered at {INGEST_RATE:,.0f} spectra/s, "
        f"{duration:.1f}s per window",
        "",
        format_table(headers, rows),
        "",
        "Exactness asserted per window: service answers byte-identical",
        "to a local QueryService over the same pinned generation.",
    ]
    best = max(points, key=lambda point: point["qps"])
    headline = {
        "benchmark": "service",
        "repository": {"clusters": count, "shards": 4, "dim": DIM},
        "load": {
            "query_threads": QUERY_THREADS,
            "request_rows": REQUEST_ROWS,
            "ingest_rate_offered": INGEST_RATE,
            "duration_s": duration,
            "transport": "tcp",
            "protocol_version": PROTOCOL_VERSION,
        },
        "standalone_qps": round(standalone, 1),
        "best": best,
        "windows": points,
    }
    return "\n".join(sections), headline


def _run_integrity(root, smoke):
    """Scrub-overhead smoke: what does verification cost at open time?

    A verified open is exactly an unverified open plus one
    ``verify_generation`` pass, so the addition is timed directly — a
    tight loop over the verification step has millisecond-stable
    samples, where end-to-end open latency jitters by tens of
    milliseconds on a busy CI host and would drown the signal.  The
    serving default is ``verify="sampled"`` (stat every file, digest the
    small sidecars), so the assertion pins *that* policy: the sampled
    pass must stay within 10% of the median unverified open, plus a 2ms
    absolute floor so a tiny smoke repository is not judged on scheduler
    noise.  ``full`` is reported for scale but unasserted: it rehashes
    every byte by design and is priced by the background scrubber
    instead.
    """
    from repro.store.manifest import RepositoryManifest
    from repro.store.integrity import verify_generation

    rng = np.random.default_rng(424242)
    count = 512 if smoke else 20_000
    repeats = 15 if smoke else 40
    repo_dir, _ = _build_repository(root, rng, count, "integrity")
    integrity = RepositoryManifest.load(repo_dir).integrity

    opens = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        with RepositorySnapshot.open(repo_dir, verify="off") as snapshot:
            assert snapshot.manifest.generation >= 1
        opens.append(time.perf_counter() - start)
    open_off = float(np.median(opens[1:]))  # [0] warmed the page cache

    verify_cost = {}
    for policy in ("sampled", "full"):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            verify_generation(repo_dir, 1, integrity, policy=policy)
            times.append(time.perf_counter() - start)
        verify_cost[policy] = float(np.median(times))

    budget = open_off * 0.10 + 0.002
    assert verify_cost["sampled"] <= budget, (
        f"sampled verification adds {verify_cost['sampled'] * 1e3:.2f}ms "
        f"to a {open_off * 1e3:.2f}ms open — over the 10% budget "
        f"({budget * 1e3:.2f}ms)"
    )

    def overhead(policy):
        return verify_cost[policy] / open_off * 100.0

    rows = [["off", f"{open_off * 1e3:.2f}", "-", "-"]] + [
        [policy,
         f"{(open_off + verify_cost[policy]) * 1e3:.2f}",
         f"{verify_cost[policy] * 1e3:.2f}",
         f"+{overhead(policy):.1f}%"]
        for policy in ("sampled", "full")
    ]
    sections = [
        banner(
            "Integrity benchmark: verified snapshot-open overhead"
            + (" (smoke mode)" if smoke else "")
        ),
        f"repository: {count:,} singleton clusters over 4 shards, "
        f"dim {DIM}; medians of {repeats} runs",
        "",
        format_table(
            ["verify policy", "open ms", "verify adds ms", "vs off"], rows
        ),
        "",
        f"budget: sampled verification <= 10% of the unverified open "
        f"+ 2ms ({budget * 1e3:.2f}ms) -- held",
    ]
    headline = {
        "benchmark": "integrity",
        "repository": {"clusters": count, "shards": 4, "dim": DIM},
        "repeats": repeats,
        "open_off_ms": round(open_off * 1e3, 3),
        "verify_adds_ms": {
            policy: round(cost * 1e3, 3)
            for policy, cost in verify_cost.items()
        },
        "sampled_overhead_pct": round(overhead("sampled"), 2),
        "full_overhead_pct": round(overhead("full"), 2),
        "budget_ms": round(budget * 1e3, 3),
    }
    return "\n".join(sections), headline


def bench_service(emit_report, tmp_path_factory):
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
    text, headline = _run(tmp_path_factory.mktemp("service"), smoke)
    emit_report("service", text)
    if not smoke:
        from bench_json import write_bench_json

        write_bench_json("service", headline)


def bench_integrity(emit_report, tmp_path_factory):
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
    text, headline = _run_integrity(
        tmp_path_factory.mktemp("integrity"), smoke
    )
    emit_report("integrity", text)
    if not smoke:
        from bench_json import write_bench_json

        write_bench_json("integrity", headline)


if __name__ == "__main__":
    import argparse
    import tempfile
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale run for CI wiring checks (no report file)",
    )
    arguments = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="bench-service-") as scratch:
        report, headline = _run(Path(scratch), arguments.smoke)
    with tempfile.TemporaryDirectory(prefix="bench-integrity-") as scratch:
        integrity_report, integrity_headline = _run_integrity(
            Path(scratch), arguments.smoke
        )
    print(report)
    print()
    print(integrity_report)
    if not arguments.smoke:
        from bench_json import write_bench_json

        results = Path(__file__).parent / "results"
        results.mkdir(exist_ok=True)
        (results / "service.txt").write_text(report + "\n", encoding="utf-8")
        (results / "integrity.txt").write_text(
            integrity_report + "\n", encoding="utf-8"
        )
        print(f"headline numbers -> {write_bench_json('service', headline)}")
        print(
            "integrity numbers -> "
            f"{write_bench_json('integrity', integrity_headline)}"
        )
