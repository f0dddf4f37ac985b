"""Compiled-kernel cache behaviour.

The build (or the discovery that no toolchain exists) must run at most
once per process: a failed build is cached with a one-line warning so
the compiler is never retried per call, and ``REPRO_DISABLE_C_KERNEL``
is consulted on every lookup so it is honored even after a successful
earlier load.  Libraries are cached by a digest of their source and
compiler command, also under ``REPRO_KERNEL_CACHE``, and a library
built from source that predates the polygonisation entry point loads
without it, leaving :func:`repro.geometry.marching._polygonise` on its
NumPy pass.  The kernel runs 4 SIMD lanes on x86-64 hosts with AVX2,
else 2.
"""

import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.geometry import capsule_kernel, marching
from repro.geometry.capsule_kernel import (
    CapsuleKernel,
    batch_threads,
    compiled_capsule_kernel,
    kernel_available,
    reset_kernel_cache,
)

needs_kernel = pytest.mark.skipif(
    not kernel_available(),
    reason="C capsule kernel unavailable (no toolchain or disabled)",
)


@pytest.fixture()
def fresh_cache(monkeypatch):
    """Run a test against an empty kernel cache, restoring the
    process-wide cache state afterwards."""
    saved = (capsule_kernel._KERNEL, capsule_kernel._ATTEMPTED)
    reset_kernel_cache()
    monkeypatch.delenv("REPRO_DISABLE_C_KERNEL", raising=False)
    yield
    capsule_kernel._KERNEL, capsule_kernel._ATTEMPTED = saved


class TestNegativeResultCache:
    def test_failed_build_not_retried(self, fresh_cache, monkeypatch):
        calls = []

        def failing_build():
            calls.append(1)
            return None

        monkeypatch.setattr(capsule_kernel, "_build", failing_build)
        with pytest.warns(RuntimeWarning, match="build failed"):
            assert compiled_capsule_kernel() is None
        # Subsequent calls neither rebuild nor warn again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(5):
                assert compiled_capsule_kernel() is None
        assert len(calls) == 1

    def test_successful_build_probed_once(self, fresh_cache,
                                          monkeypatch):
        if capsule_kernel._build() is None:
            pytest.skip("no toolchain on this machine")
        reset_kernel_cache()
        calls = []
        real_build = capsule_kernel._build

        def counting_build():
            calls.append(1)
            return real_build()

        monkeypatch.setattr(capsule_kernel, "_build", counting_build)
        first = compiled_capsule_kernel()
        assert isinstance(first, CapsuleKernel)
        for _ in range(5):
            assert compiled_capsule_kernel() is first
        assert len(calls) == 1


class TestDisableEnv:
    def test_disable_honored_after_successful_load(self, fresh_cache,
                                                   monkeypatch):
        kernel = compiled_capsule_kernel()
        if kernel is None:
            pytest.skip("no toolchain on this machine")
        monkeypatch.setenv("REPRO_DISABLE_C_KERNEL", "1")
        assert compiled_capsule_kernel() is None
        assert not kernel_available()
        # Lifting the variable restores the already-loaded kernel
        # without another build attempt.
        monkeypatch.delenv("REPRO_DISABLE_C_KERNEL")
        assert compiled_capsule_kernel() is kernel

    def test_disable_skips_build_entirely(self, fresh_cache,
                                          monkeypatch):
        def exploding_build():  # pragma: no cover - must not run
            raise AssertionError("build attempted while disabled")

        monkeypatch.setattr(capsule_kernel, "_build", exploding_build)
        monkeypatch.setenv("REPRO_DISABLE_C_KERNEL", "1")
        assert compiled_capsule_kernel() is None


class TestBatchThreads:
    """The default fan-out is the CPUs this process may run on."""

    def test_counts_the_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_THREADS", raising=False)
        monkeypatch.setattr(capsule_kernel.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            capsule_kernel.os, "sched_getaffinity", lambda pid: {3},
            raising=False,
        )
        assert batch_threads() == 1

    def test_host_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_THREADS", raising=False)
        monkeypatch.setattr(capsule_kernel.os, "cpu_count", lambda: 8)
        monkeypatch.delattr(
            capsule_kernel.os, "sched_getaffinity", raising=False
        )
        assert batch_threads() == 8

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_THREADS", "3")
        monkeypatch.setattr(
            capsule_kernel.os, "sched_getaffinity", lambda pid: {0},
            raising=False,
        )
        assert batch_threads() == 3


@needs_kernel
class TestLoadedKernelShape:
    def test_both_entry_points_present(self):
        """Every entry point: solo, the level pass, batch and
        polygonise."""
        kernel = compiled_capsule_kernel()
        assert kernel.solo is not None
        assert all(fn is not None for fn in kernel.level)
        assert kernel.batch is not None
        assert kernel.polygonise is not None

    @pytest.mark.skipif(
        not sys.platform.startswith("linux")
        or platform.machine() != "x86_64",
        reason="reads the CPU flags of Linux x86-64",
    )
    def test_lanes_follow_avx2(self):
        flags = set()
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                flags.update(line.split(":", 1)[1].split())
        expected = 4 if "avx2" in flags else 2
        assert compiled_capsule_kernel().lanes == expected


@pytest.fixture(scope="module")
def stale_library(tmp_path_factory):
    """``(cache, kernel)``: a library built in its own cache directory
    from the source as it was before the polygonisation entry point."""
    marker = "/* Marching tetrahedra over a cell list"
    assert marker in capsule_kernel._SOURCE
    cache = tmp_path_factory.mktemp("kernels")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_KERNEL_CACHE", str(cache))
        patch.setattr(
            capsule_kernel, "_SOURCE",
            capsule_kernel._SOURCE[:capsule_kernel._SOURCE.index(marker)],
        )
        kernel = capsule_kernel._build()
    if kernel is None:
        pytest.skip("no toolchain on this machine")
    return cache, kernel


def _sphere_cells():
    """A sphere's cells on a 12^3 grid, with their corner values."""
    axis = np.linspace(-1.0, 1.0, 13)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
    field = np.linalg.norm(points, axis=-1) - 0.7
    cells = np.argwhere(np.ones((12, 12, 12), dtype=bool))
    return cells, marching._gather_corner_values(field, cells)


@needs_kernel
class TestStaleLibrary:
    def test_sources_resolve_to_distinct_libraries(
        self, stale_library, monkeypatch
    ):
        cache, stale = stale_library
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache))
        current = capsule_kernel._build()
        assert len(list(cache.glob("*/capsule_union.so"))) == 2
        assert current.polygonise is not None
        assert stale.polygonise is None

    def test_flags_resolve_to_distinct_libraries(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        assert capsule_kernel._build() is not None
        monkeypatch.setattr(
            capsule_kernel, "_CFLAGS", (*capsule_kernel._CFLAGS, "-DPROBE")
        )
        assert capsule_kernel._build() is not None
        assert len(list(tmp_path.glob("*/capsule_union.so"))) == 2

    def test_missing_symbol_falls_back_bit_identically(
        self, stale_library, monkeypatch
    ):
        _, stale = stale_library
        assert stale.solo is not None and stale.batch is not None
        cells, values = _sphere_cells()
        args = (cells, values, np.array([13, 13, 13]),
                np.array([-1.0, -1.0, -1.0]), 2.0 / 12, 0.0)
        compiled = marching._polygonise(*args)
        monkeypatch.setattr(
            marching, "compiled_capsule_kernel", lambda: stale
        )
        fallback = marching._polygonise(*args)
        assert compiled.num_faces > 0
        assert fallback.vertices.tobytes() == compiled.vertices.tobytes()
        assert fallback.faces.tobytes() == compiled.faces.tobytes()
