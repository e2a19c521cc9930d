"""Kernel-tier registry contract: precedence, fallback, byte-identity.

Three groups:

* registry semantics — override precedence (env > ``set_kernel_tier`` >
  auto), unknown names raising, unavailable tiers degrading silently to
  numpy with the reason recorded;
* equivalence — every backend kernel property-pinned byte-identical to
  the numpy reference (randomized hypothesis sweep over every tier the
  host can actually build, plus independent oracles);
* warm-up — once-per-process semantics, including process-pool workers
  paying the JIT cost in the pool initializer rather than on a task.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.execution import ExecutionPool, _kernel_warm_probe
from repro.hdc import kernels
from repro.hdc.bitops import (
    _counts_fill_numpy,
    _csa_fill_numpy,
    _hamming_pairs_numpy,
    _popcount_swar_numpy,
    accumulate_bit_counts,
    counts_from_planes,
    csa_accumulate,
    pack_bits,
    popcount_swar,
    unpack_bits,
    xor_popcount_rows,
)
from repro.hdc.hamming import _hamming_cross_numpy, hamming_cross
from repro.hdc.kernels import (
    ENV_VAR,
    KERNEL_TIERS,
    KernelBackend,
    active_backend,
    active_kernel_tier,
    available_kernel_tiers,
    kernel_runtime,
    set_kernel_tier,
    warm_up,
)


@pytest.fixture(autouse=True)
def clean_registry(monkeypatch):
    """Each test sees a fresh registry and no ambient env override."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    kernels._reset_registry()
    yield
    kernels._reset_registry()


def _fake_backend(name: str) -> KernelBackend:
    """A distinguishable stand-in injected as an 'available' tier."""
    return KernelBackend(
        name=name,
        popcount_swar=_popcount_swar_numpy,
        hamming_cross=_hamming_cross_numpy,
        hamming_pairs=_hamming_pairs_numpy,
        csa_fill=_csa_fill_numpy,
        counts_fill=_counts_fill_numpy,
        warm=lambda: None,
        version="fake",
    )


def _install_fake(monkeypatch, name: str) -> KernelBackend:
    backend = _fake_backend(name)
    monkeypatch.setitem(kernels._REGISTRY._backends, name, backend)
    return backend


class TestPrecedence:
    def test_auto_selects_numpy_without_accelerators(self):
        # In this container numba does not import, so auto resolution
        # must land on the reference tier.
        if available_kernel_tiers()["numba"] is None:
            pytest.skip("numba available: auto would not pick numpy")
        assert active_kernel_tier() == "numpy"

    def test_auto_prefers_best_available(self, monkeypatch):
        _install_fake(monkeypatch, "numba")
        assert active_kernel_tier() == "numba"

    def test_config_overrides_auto(self, monkeypatch):
        _install_fake(monkeypatch, "numba")
        set_kernel_tier("numpy")
        assert active_kernel_tier() == "numpy"

    def test_env_overrides_config(self, monkeypatch):
        _install_fake(monkeypatch, "numba")
        set_kernel_tier("numpy")
        monkeypatch.setenv(ENV_VAR, "numba")
        assert active_kernel_tier() == "numba"

    def test_env_is_case_insensitive(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "  NumPy ")
        assert active_kernel_tier() == "numpy"

    def test_set_tier_returns_previous_and_auto_resets(self):
        assert set_kernel_tier("numpy") is None
        assert set_kernel_tier("auto") == "numpy"
        assert kernels.configured_tier() is None

    def test_unknown_tier_from_config_raises(self):
        with pytest.raises(ConfigurationError, match="unknown kernel tier"):
            set_kernel_tier("fortran")

    def test_unknown_tier_from_env_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fortran")
        with pytest.raises(ConfigurationError, match="unknown kernel tier"):
            active_backend()

    def test_override_change_invalidates_cache(self, monkeypatch):
        assert active_kernel_tier() == "numpy"
        _install_fake(monkeypatch, "numba")
        kernels._REGISTRY._cache = None  # fake arrived after resolution
        set_kernel_tier("numba")
        assert active_kernel_tier() == "numba"
        set_kernel_tier(None)
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert active_kernel_tier() == "numpy"


class TestFallback:
    def test_missing_numba_degrades_to_numpy(self, monkeypatch):
        # Point the numba tier at a module that cannot import — the
        # exact failure mode of an uninstalled dependency.
        monkeypatch.setitem(
            kernels._TIER_MODULES, "numba", "repro.hdc.kernels._no_such"
        )
        set_kernel_tier("numba")
        assert active_kernel_tier() == "numpy"
        reason = available_kernel_tiers()["numba"]
        assert reason is not None and "ModuleNotFoundError" in reason

    def test_missing_tier_via_env_degrades_not_raises(self, monkeypatch):
        monkeypatch.setitem(
            kernels._TIER_MODULES, "numba", "repro.hdc.kernels._no_such"
        )
        monkeypatch.setenv(ENV_VAR, "numba")
        assert active_kernel_tier() == "numpy"

    def test_build_error_degrades_too(self, monkeypatch):
        # A tier whose module imports but whose build_backend raises
        # (e.g. numba present, JIT toolchain broken) is equally
        # unavailable.
        monkeypatch.setitem(
            kernels._TIER_MODULES, "numba", "repro.errors"
        )  # imports fine, has no build_backend
        set_kernel_tier("numba")
        assert active_kernel_tier() == "numpy"
        assert available_kernel_tiers()["numba"] is not None

    def test_warm_failure_degrades_and_records(self, monkeypatch):
        backend = _fake_backend("numba")

        def broken_warm():
            raise RuntimeError("JIT exploded")

        backend.warm = broken_warm
        monkeypatch.setitem(kernels._REGISTRY._backends, "numba", backend)
        set_kernel_tier("numba")
        assert warm_up() == "numpy"
        assert active_kernel_tier() == "numpy"
        assert "JIT exploded" in available_kernel_tiers()["numba"]


class TestRuntimeRecord:
    def test_record_is_json_serialisable_and_complete(self):
        import json

        record = kernel_runtime()
        json.dumps(record)
        assert record["tier"] in KERNEL_TIERS
        assert set(record["tiers"]) == set(KERNEL_TIERS)
        assert record["tiers"]["numpy"] == {"available": True}
        entry = record["tiers"]["numba"]
        assert entry["available"] or entry["reason"]

    def test_record_reflects_override(self, monkeypatch):
        _install_fake(monkeypatch, "numba")
        set_kernel_tier("numba")
        assert kernel_runtime()["tier"] == "numba"


# ---------------------------------------------------------------------------
# Equivalence: every buildable tier is byte-identical to numpy.
# ---------------------------------------------------------------------------

#: Tiers the host can actually build (always contains "numpy"; contains
#: "numba" only where it is installed, so the same sweep pins the JIT tier
#: on hosts that have it).
BUILDABLE = [
    name for name, reason in sorted(available_kernel_tiers().items())
    if reason is None
]


def _backend_for(tier):
    set_kernel_tier(tier)
    backend = active_backend()
    assert backend.name == tier
    return backend


@st.composite
def packed_matrices(draw, max_rows=6, max_words=5):
    rows = draw(st.integers(1, max_rows))
    words = draw(st.integers(1, max_words))
    flat = draw(
        st.lists(
            st.integers(0, 2**64 - 1),
            min_size=rows * words,
            max_size=rows * words,
        )
    )
    return np.array(flat, dtype=np.uint64).reshape(rows, words)


@pytest.mark.parametrize("tier", BUILDABLE)
class TestTierEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_popcount_matches_reference_and_oracle(self, tier, data):
        kernels._reset_registry()
        backend = _backend_for(tier)
        words = data.draw(packed_matrices())
        got = backend.popcount_swar(words)
        np.testing.assert_array_equal(got, _popcount_swar_numpy(words))
        # Independent oracle: count the unpacked bits directly.
        dim = words.shape[-1] * 64
        expected = unpack_bits(words, dim).reshape(
            words.shape[0], words.shape[1], 64
        ).sum(axis=-1)
        np.testing.assert_array_equal(got, expected.astype(np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hamming_cross_matches_reference(self, tier, data):
        kernels._reset_registry()
        backend = _backend_for(tier)
        queries = data.draw(packed_matrices())
        refs = data.draw(
            packed_matrices(max_words=1).map(
                lambda m: np.broadcast_to(
                    m[:, :1], (m.shape[0], queries.shape[1])
                ).copy()
            )
        )
        got = backend.hamming_cross(queries, refs)
        np.testing.assert_array_equal(
            got, _hamming_cross_numpy(queries, refs)
        )
        assert got.dtype == np.int64

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hamming_pairs_matches_reference(self, tier, data):
        kernels._reset_registry()
        backend = _backend_for(tier)
        first = data.draw(packed_matrices())
        second = data.draw(
            st.lists(
                st.integers(0, 2**64 - 1),
                min_size=first.size,
                max_size=first.size,
            )
        )
        second = np.array(second, dtype=np.uint64).reshape(first.shape)
        got = backend.hamming_pairs(first, second)
        np.testing.assert_array_equal(
            got, _hamming_pairs_numpy(first, second)
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_csa_and_counts_match_reference_and_oracle(self, tier, data):
        kernels._reset_registry()
        backend = _backend_for(tier)
        rows = data.draw(packed_matrices(max_rows=9))
        count, groups_words = rows.shape
        grouped = rows.reshape(count, 1, groups_words)
        planes_count = max(1, int(count).bit_length())
        planes = np.zeros(
            (planes_count, 1, groups_words), dtype=np.uint64
        )
        backend.csa_fill(grouped, planes)
        reference = np.zeros_like(planes)
        _csa_fill_numpy(grouped, reference)
        np.testing.assert_array_equal(planes, reference)

        counts = np.zeros((1, groups_words * 64), dtype=np.int64)
        backend.counts_fill(planes, counts)
        oracle = accumulate_bit_counts(
            rows, np.array([0], dtype=np.int64), groups_words * 64
        )
        np.testing.assert_array_equal(counts[0], oracle[0])

    def test_public_wrappers_dispatch_to_tier(self, tier):
        kernels._reset_registry()
        _backend_for(tier)
        rng = np.random.default_rng(7)
        words = rng.integers(0, 2**64, size=(5, 4), dtype=np.uint64)
        refs = rng.integers(0, 2**64, size=(3, 4), dtype=np.uint64)
        set_kernel_tier("numpy")
        want_pop = popcount_swar(words)
        want_cross = hamming_cross(words, refs)
        want_rows = xor_popcount_rows(words[:3], refs)
        want_planes = csa_accumulate(words.reshape(5, 1, 4), 5)
        want_counts = counts_from_planes(want_planes, 256)
        set_kernel_tier(tier)
        np.testing.assert_array_equal(popcount_swar(words), want_pop)
        np.testing.assert_array_equal(
            hamming_cross(words, refs), want_cross
        )
        np.testing.assert_array_equal(
            xor_popcount_rows(words[:3], refs), want_rows
        )
        planes = csa_accumulate(words.reshape(5, 1, 4), 5)
        np.testing.assert_array_equal(planes, want_planes)
        np.testing.assert_array_equal(
            counts_from_planes(planes, 256), want_counts
        )


class TestPublicWrapperShapes:
    def test_xor_popcount_rows_broadcasts(self, rng):
        vectors = rng.integers(0, 2**64, size=(4, 7, 3), dtype=np.uint64)
        queries = rng.integers(0, 2**64, size=(4, 1, 3), dtype=np.uint64)
        got = xor_popcount_rows(vectors, queries)
        assert got.shape == (4, 7)
        assert got.dtype == np.int64
        expected = hamming_cross(
            queries.reshape(4, 3), vectors.reshape(28, 3)
        ).reshape(4, 4, 7)[np.arange(4), np.arange(4)]
        np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------------------------
# Warm-up semantics.
# ---------------------------------------------------------------------------


class TestWarmUp:
    def test_warm_up_is_once_per_process(self):
        assert kernels.warm_call_count() == 0
        tier = warm_up()
        assert tier == active_kernel_tier()
        assert kernels.is_warmed(tier)
        assert kernels.warm_call_count() == 1
        warm_up()
        warm_up()
        assert kernels.warm_call_count() == 1

    def test_execution_pool_warm_up_warms_kernels(self):
        with ExecutionPool("serial") as pool:
            pool.warm_up()
            assert kernels.is_warmed(active_kernel_tier())
        assert kernels.warm_call_count() == 1

    def test_threads_pool_warm_up_shares_process_registry(self):
        with ExecutionPool("threads", workers=2) as pool:
            pool.warm_up()
            assert kernels.is_warmed(active_kernel_tier())

    def test_process_workers_warm_in_initializer(self):
        # The second (and every later) task in a fresh processes pool
        # must observe an already-warm registry: the compile cost was
        # paid by the pool initializer during warm_up(), not by a task.
        with ExecutionPool("processes", workers=2) as pool:
            pool.warm_up()
            probes = pool.map(_kernel_warm_probe, list(range(8)))
        assert probes
        for _pid, tier, warmed in probes:
            assert tier == active_kernel_tier()
            assert warmed, "worker ran a task before its tier was warm"

    def test_process_pool_second_task_pays_no_compile(self):
        import time

        with ExecutionPool("processes", workers=1) as pool:
            # workers=1 is inline by design; force a real pool with 2.
            pass
        with ExecutionPool("processes", workers=2) as pool:
            pool.warm_up()
            start = time.monotonic()
            first = pool.map(_kernel_warm_probe, [0, 1])
            second = pool.map(_kernel_warm_probe, [2, 3])
            elapsed = time.monotonic() - start
        assert all(warmed for _, _, warmed in first + second)
        # Warmed probes are trivial; a per-task JIT would cost seconds.
        assert elapsed < 5.0
