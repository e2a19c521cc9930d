"""Wire-codec benchmark: binary payload frames vs JSON inlining.

Measures the serialization cost the remote hot path actually pays —
encode + decode of one framed message — for each bulk payload kind the
service ships:

``vectors``
    Packed uint64 hypervector matrices (``query_vectors`` requests).
``spectra``
    Encoded spectrum batches (``query``/``ingest`` requests).
``chunk``
    Raw generation file chunks (replication ``fetch_chunk``/``push_chunk``).
``matches``
    Query answers (every query response): a columnar
    :class:`~repro.store.MatchTable` attached and extracted whole, so
    this case times ``attach_matches`` + ``extract_matches`` too — the
    work the serving path does per response.

Each payload is timed under both codecs — **v1** (pure JSON: base64
and float lists) and **v2** (wire version 3: out-of-band little-endian
binary frames, zero-copy ``np.frombuffer`` decode) — after asserting
the two wire forms decode to *equal objects*.  Decode runs through a
real :class:`~repro.service.protocol.FrameReceiver` fed by an
in-memory socket shim, so the measured path is the production
``recv_into`` + descriptor-validation + view-construction code.

The full run asserts the codec acceptance floors: v2 at least 2x v1
throughput on the >= 1 MiB vector and chunk payloads, and at least 20x
on match tables.

Run under pytest (see README) or directly::

    PYTHONPATH=src python benchmarks/bench_protocol.py [--smoke]

``--smoke`` runs a seconds-scale configuration for CI wiring checks and
does not overwrite the committed full report.
"""

import os
import time

import numpy as np

from repro.reporting import banner, format_table
from repro.service import protocol
from repro.service.protocol import FrameReceiver, encode_frame
from repro.spectrum import MassSpectrum
from repro.store import ClusterMatch, MatchTable

PEAKS_PER_SPECTRUM = 64
WORDS = 16  # dim 1024


class _BufferSocket:
    """recv_into from an in-memory frame: the decode path minus syscalls."""

    def __init__(self, data: bytes) -> None:
        self._data = memoryview(data)
        self._pos = 0

    def recv_into(self, view) -> int:
        count = min(view.nbytes, self._data.nbytes - self._pos)
        view[:count] = self._data[self._pos : self._pos + count]
        self._pos += count
        return count

    def rewind(self) -> None:
        self._pos = 0


def _make_vectors(rng, nbytes):
    rows = nbytes // (WORDS * 8)
    vectors = rng.integers(
        0, np.iinfo(np.uint64).max, size=(rows, WORDS),
        dtype=np.uint64, endpoint=True,
    )
    message = protocol.attach_vectors({"op": "query_vectors", "k": 5}, vectors)
    return lambda: message, protocol.extract_vectors, vectors.nbytes


def _vectors_equal(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b))


def _make_spectra(rng, nbytes):
    count = nbytes // (PEAKS_PER_SPECTRUM * 2 * 8)
    spectra = []
    for index in range(count):
        mz = np.sort(rng.uniform(100.0, 1700.0, PEAKS_PER_SPECTRUM))
        intensity = rng.uniform(0.0, 1.0, PEAKS_PER_SPECTRUM)
        spectra.append(
            MassSpectrum(
                identifier=f"scan={index}",
                precursor_mz=float(rng.uniform(300.0, 1500.0)),
                precursor_charge=int(rng.integers(1, 5)),
                mz=mz,
                intensity=intensity,
            )
        )
    message = protocol.attach_spectra({"op": "ingest"}, spectra)
    payload = count * PEAKS_PER_SPECTRUM * 2 * 8
    return lambda: message, protocol.extract_spectra, payload


def _spectra_equal(a, b):
    if len(a) != len(b):
        return False
    return all(
        x.identifier == y.identifier
        and x.precursor_mz == y.precursor_mz
        and x.precursor_charge == y.precursor_charge
        and np.array_equal(x.mz, y.mz)
        and np.array_equal(x.intensity, y.intensity)
        for x, y in zip(a, b)
    )


def _make_chunk(rng, nbytes):
    data = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
    message = protocol.attach_chunk({"status": "ok"}, data)

    def extract(received):
        return bytes(protocol.extract_chunk(received))

    return lambda: message, extract, nbytes


def _chunk_equal(a, b):
    return bytes(a) == bytes(b)


def _make_matches(rng, nbytes):
    # ~96 payload bytes per match (ints + floats + lengths + identifier).
    count = max(1, nbytes // 96)
    results = []
    for query in range(0, count, 5):
        row = [
            ClusterMatch(
                global_label=int(rng.integers(0, 1 << 20)),
                shard_id=int(rng.integers(0, 8)),
                local_label=int(rng.integers(0, 1 << 16)),
                distance=int(rng.integers(0, 1024)),
                normalized_distance=float(rng.uniform()),
                cluster_size=int(rng.integers(1, 512)),
                medoid_identifier=f"scan={query}:{member}",
                medoid_precursor_mz=float(rng.uniform(300.0, 1500.0)),
                medoid_charge=int(rng.integers(1, 5)),
            )
            for member in range(min(5, count - query))
        ]
        results.append(row)
    table = MatchTable.from_rows(results)

    def build():
        return protocol.attach_matches({"status": "ok"}, table)

    payload = sum(d["nbytes"] for d in build()[protocol.PAYLOADS_KEY])
    return build, protocol.extract_matches, payload


def _matches_equal(a, b):
    """Both decodes are tables, equal as columns and as match objects."""
    return (
        isinstance(a, MatchTable)
        and isinstance(b, MatchTable)
        and a == b
        and [list(row) for row in a] == [list(row) for row in b]
    )


def _mib(nbytes):
    scaled = nbytes / (1024 * 1024)
    return f"{scaled:.2f} MiB" if scaled < 1 else f"{scaled:.0f} MiB"


def _time_loop(fn, budget):
    fn()  # warm-up (also proved correct by the equivalence check)
    iters = 0
    start = time.perf_counter()
    while True:
        fn()
        iters += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget and iters >= 3:
            return elapsed / iters


def _measure(build, extract, equal, payload_bytes, budget):
    """Per-version encode/decode seconds-per-message + equivalence.

    ``build`` returns the message to frame; it runs inside the timed
    encode, so a builder that attaches per call is charged for it.
    """
    message = build()
    frames = {
        1: encode_frame(message, version=1),
        3: encode_frame(message, version=3),
    }
    decoded = {}
    for version, frame in frames.items():
        sock = _BufferSocket(frame)
        received = FrameReceiver().recv_message(sock)
        decoded[version] = extract(received)
    reference = extract(message)
    assert equal(decoded[1], reference), "codec v1 decode diverged"
    assert equal(decoded[3], reference), "codec v2 decode diverged"
    assert equal(decoded[1], decoded[3]), "codecs disagree"

    outcome = {}
    for version in (1, 3):
        encode_s = _time_loop(
            lambda v=version: encode_frame(build(), version=v), budget
        )
        receiver = FrameReceiver()
        sock = _BufferSocket(frames[version])

        def decode_once():
            sock.rewind()
            extract(receiver.recv_message(sock))

        decode_s = _time_loop(decode_once, budget)
        outcome[version] = {
            "encode_s": encode_s,
            "decode_s": decode_s,
            "roundtrip_MBps": payload_bytes
            / (encode_s + decode_s)
            / 1e6,
            "wire_bytes": len(frames[version]),
        }
    return outcome


def _run(smoke):
    rng = np.random.default_rng(60321)
    budget = 0.05 if smoke else 0.4
    mib = 1024 * 1024
    sizes = (
        {"vectors": 64 * 1024, "spectra": 64 * 1024,
         "chunk": 256 * 1024, "matches": 48 * 1024}
        if smoke
        else {"vectors": 2 * mib, "spectra": 2 * mib,
              "chunk": 4 * mib, "matches": 512 * 1024}
    )
    kinds = [
        ("vectors", _make_vectors, _vectors_equal),
        ("spectra", _make_spectra, _spectra_equal),
        ("chunk", _make_chunk, _chunk_equal),
        ("matches", _make_matches, _matches_equal),
    ]

    rows = []
    payloads = {}
    speedups = {}
    for name, make, equal in kinds:
        build, extract, payload_bytes = make(rng, sizes[name])
        outcome = _measure(build, extract, equal, payload_bytes, budget)
        v1, v2 = outcome[1], outcome[3]
        speedup = v2["roundtrip_MBps"] / v1["roundtrip_MBps"]
        speedups[name] = speedup
        wire_ratio = v1["wire_bytes"] / v2["wire_bytes"]
        rows.append(
            [
                name,
                _mib(payload_bytes),
                f"{v1['roundtrip_MBps']:,.0f}",
                f"{v2['roundtrip_MBps']:,.0f}",
                f"{speedup:.1f}x",
                f"{wire_ratio:.2f}x",
            ]
        )
        payloads[name] = {
            "payload_bytes": payload_bytes,
            "v1": {
                "roundtrip_MBps": round(v1["roundtrip_MBps"], 1),
                "encode_ms": round(v1["encode_s"] * 1e3, 3),
                "decode_ms": round(v1["decode_s"] * 1e3, 3),
                "wire_bytes": v1["wire_bytes"],
            },
            "v2": {
                "roundtrip_MBps": round(v2["roundtrip_MBps"], 1),
                "encode_ms": round(v2["encode_s"] * 1e3, 3),
                "decode_ms": round(v2["decode_s"] * 1e3, 3),
                "wire_bytes": v2["wire_bytes"],
            },
            "speedup": round(speedup, 2),
        }

    if not smoke:
        # The codec acceptance floor: >= 2x on the >= 1 MiB bulk
        # payloads the remote hot paths actually ship.
        for name in ("vectors", "chunk"):
            assert sizes[name] >= mib
            assert speedups[name] >= 2.0, (
                f"binary codec only {speedups[name]:.2f}x JSON on "
                f"{name} — below the 2x floor"
            )
        assert speedups["matches"] >= 20.0, (
            f"match tables only {speedups['matches']:.2f}x JSON — below "
            "the 20x floor"
        )

    sections = [
        banner(
            "Wire-codec benchmark: binary payload frames vs JSON"
            + (" (smoke mode)" if smoke else "")
        ),
        "encode+decode of one framed message; decode through a real",
        "FrameReceiver (recv_into, descriptor validation, zero-copy "
        "views);",
        "equivalence of both wire forms asserted before timing",
        "",
        format_table(
            ["payload", "size", "v1 MB/s", "v2 MB/s", "speedup",
             "wire shrink"],
            rows,
        ),
        "",
        "floor: v2 >= 2x v1 on the >= 1 MiB vector and chunk payloads, "
        ">= 20x on match tables"
        + (" -- not asserted in smoke" if smoke else " -- held"),
    ]
    headline = {
        "benchmark": "protocol",
        "codec": {
            "v1": "JSON (base64 / float lists)",
            "v2": f"binary frames (wire v{protocol.BINARY_PROTOCOL_VERSION})",
        },
        "payloads": payloads,
        "floor": "v2 >= 2x v1 roundtrip MB/s on >= 1 MiB vectors and "
        "chunks, >= 20x on match tables",
    }
    return "\n".join(sections), headline


def bench_protocol(emit_report):
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
    text, headline = _run(smoke)
    emit_report("protocol", text)
    if not smoke:
        from bench_json import write_bench_json

        write_bench_json("protocol", headline)


if __name__ == "__main__":
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale run for CI wiring checks (no report file)",
    )
    arguments = parser.parse_args()
    report, headline = _run(arguments.smoke)
    print(report)
    if not arguments.smoke:
        from bench_json import write_bench_json

        results = Path(__file__).parent / "results"
        results.mkdir(exist_ok=True)
        (results / "protocol.txt").write_text(report + "\n", encoding="utf-8")
        print(f"headline numbers -> {write_bench_json('protocol', headline)}")
