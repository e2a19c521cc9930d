"""Durable sharded repository: ingest instrument runs, query medoids.

The full §IV-B workflow on top of :mod:`repro.store`:

1. create a sharded repository directory;
2. durably ingest two "instrument runs" (every batch is journaled in the
   WAL before any cluster state changes — kill the process at any point
   and reopening replays to identical labels);
3. checkpoint (hypervector segments + manifest, WAL truncated);
4. reopen the directory as a *new* process would, and serve top-k
   nearest-cluster queries from the shard medoids;
5. feed an ``encode_only`` hypervector store (already compressed 24x-108x)
   straight into ingest without re-encoding.

Run:  python examples/repository_ingest_query.py
"""

import shutil
import tempfile
from pathlib import Path

from repro.datasets import SyntheticConfig, generate_dataset
from repro.hdc import EncoderConfig
from repro.pipeline import SpecHDConfig, SpecHDPipeline
from repro.store import ClusterRepository, QueryService, RepositoryConfig
from repro.units import format_bytes

ENCODER = EncoderConfig(dim=1024, mz_bins=8_000, intensity_levels=32)


def main() -> None:
    population = generate_dataset(
        SyntheticConfig(
            num_peptides=20,
            replicates_per_peptide=12,
            peptides_per_mass_group=1,
            extra_singleton_peptides=30,
            seed=77,
        )
    )
    third = len(population) // 3
    run_a = population.spectra[:third]
    run_b = population.spectra[third : 2 * third]
    run_c = population.spectra[2 * third :]

    directory = Path(tempfile.mkdtemp(prefix="spechd-repo-")) / "repo"

    # -- 1-3: create, ingest durably, checkpoint -----------------------
    repository = ClusterRepository.create(
        directory,
        RepositoryConfig(
            num_shards=4,
            shard_width=16,
            encoder=ENCODER,
            cluster_threshold=0.36,
        ),
    )
    for name, run in (("run A", run_a), ("run B", run_b)):
        report = repository.add_batch(run)
        print(
            f"{name}: {report.num_added} spectra -> "
            f"{report.num_absorbed} absorbed, "
            f"{report.num_new_clusters} new clusters "
            f"(WAL {format_bytes(repository.wal_bytes())})"
        )
    generation = repository.checkpoint()
    print(
        f"checkpoint generation {generation}: "
        f"{format_bytes(repository.stored_bytes())} of hypervectors, "
        f"WAL {format_bytes(repository.wal_bytes())}"
    )

    # -- 4: reopen cold and serve queries ------------------------------
    reopened = ClusterRepository.open(directory)
    print(
        f"\nreopened: {len(reopened)} spectra, "
        f"{reopened.num_clusters} clusters on "
        f"{reopened.num_shards} shards"
    )
    with QueryService(reopened) as service:
        for matches in service.query(run_c[:3], k=3):
            print("query top-3:")
            for match in matches:
                print(
                    f"  cluster {match.global_label:3d} "
                    f"(shard {match.shard_id}, "
                    f"size {match.cluster_size}) at "
                    f"normalised distance "
                    f"{match.normalized_distance:.3f} — medoid "
                    f"{match.medoid_identifier}"
                )

    # -- 5: encode once, ingest the compressed artefact ----------------
    pipeline = SpecHDPipeline(
        SpecHDConfig(encoder=ENCODER, cluster_threshold=0.36)
    )
    store = pipeline.encode_only(run_c)
    report = reopened.add_store(store)
    print(
        f"\nencoded ingest of run C: {report.num_added} hypervectors "
        f"({format_bytes(store.nbytes)}) -> "
        f"{report.num_absorbed} absorbed into existing clusters"
    )
    print(
        f"repository now {len(reopened)} spectra in "
        f"{reopened.num_clusters} clusters"
    )
    shutil.rmtree(directory.parent)


if __name__ == "__main__":
    main()
