"""Fig. 11 — overlap of unique identified peptides (Venn diagram).

Clusters the shared dataset with SpecHD, HyperSpec(-HAC) and the GLEAMS-like
embedder, builds consensus spectra per multi-member cluster, searches them
(plus singletons) against the peptide database, and reports the unique-
peptide sets per precursor charge (2+ and 3+) with pairwise overlaps.

Paper anchors: SpecHD trails GLEAMS by 1.38 % (2+) / 3.24 % (3+) and leads
HyperSpec by 7.33 % (2+) / 5.10 % (3+); completeness ~0.82.
"""

import numpy as np

from repro import SpecHDConfig, SpecHDPipeline
from repro.baselines import GleamsLike, HyperSpecHAC
from repro.cluster import consensus_spectrum
from repro.hdc import EncoderConfig
from repro.reporting import banner, format_table
from repro.search import SearchEngine, unique_peptides


def representatives_from_labels(spectra, labels):
    """Consensus spectra for multi-member clusters + singleton originals."""
    members = {}
    for index, label in enumerate(labels):
        members.setdefault(int(label), []).append(index)
    representatives = []
    for label, indices in members.items():
        if label < 0:
            representatives.extend(spectra[i] for i in indices)
        elif len(indices) == 1:
            representatives.append(spectra[indices[0]])
        else:
            representatives.append(consensus_spectrum(spectra, indices))
    return representatives


def identified_sets(spectra, labels, database):
    engine = SearchEngine(database)
    hits = engine.search_batch(representatives_from_labels(spectra, labels))
    return {
        2: unique_peptides(hits, charge=2),
        3: unique_peptides(hits, charge=3),
    }


def bench_fig11_peptide_overlap(emit_report, quality_dataset, shared_encoder):
    spectra = quality_dataset.spectra
    database = list(quality_dataset.peptides)

    spechd = SpecHDPipeline(
        SpecHDConfig(
            encoder=EncoderConfig(dim=2048, mz_bins=16_000, intensity_levels=64),
            cluster_threshold=0.3,
        )
    )
    spechd_result = spechd.run(spectra)
    spechd_labels = spechd_result.labels_for_input(len(spectra))

    hyperspec_labels = HyperSpecHAC(encoder=shared_encoder).cluster(
        spectra, 0.3
    )
    gleams_labels = GleamsLike().cluster(spectra, 0.5)

    sets = {
        "spechd": identified_sets(spectra, spechd_labels, database),
        "hyperspec": identified_sets(spectra, hyperspec_labels, database),
        "gleams": identified_sets(spectra, gleams_labels, database),
    }

    rows = []
    for charge in (2, 3):
        spechd_ids = sets["spechd"][charge]
        for other in ("gleams", "hyperspec"):
            other_ids = sets[other][charge]
            union = spechd_ids | other_ids
            overlap = len(spechd_ids & other_ids)
            delta = (
                (len(spechd_ids) - len(other_ids)) / max(len(other_ids), 1)
            )
            rows.append(
                [
                    f"{charge}+",
                    f"spechd vs {other}",
                    len(spechd_ids),
                    len(other_ids),
                    overlap,
                    len(union),
                    f"{100 * delta:+.2f}%",
                ]
            )
    text = "\n".join(
        [
            banner("Fig. 11: Unique identified peptide overlap"),
            format_table(
                [
                    "charge",
                    "pair",
                    "#spechd",
                    "#other",
                    "overlap",
                    "union",
                    "spechd delta",
                ],
                rows,
            ),
            "",
            "Paper: SpecHD -1.38% (2+) / -3.24% (3+) vs GLEAMS;",
            "       SpecHD +7.33% (2+) / +5.10% (3+) vs HyperSpec.",
        ]
    )
    emit_report("fig11_overlap", text)

    # Shape assertions: heavy overlap between all tools; SpecHD competitive.
    for charge in (2, 3):
        spechd_ids = sets["spechd"][charge]
        if not spechd_ids:
            continue
        for other in ("gleams", "hyperspec"):
            other_ids = sets[other][charge]
            union = spechd_ids | other_ids
            if union:
                jaccard = len(spechd_ids & other_ids) / len(union)
                assert jaccard > 0.5, (charge, other, jaccard)
        # SpecHD identifies at least 85% as many peptides as either tool.
        for other in ("gleams", "hyperspec"):
            assert len(spechd_ids) >= 0.85 * len(sets[other][charge])
