"""Tests of the octree extractor, the repository's one extractor.

The octree extractor promises (a) the meshes and evaluation counts of
the retired dense cascade when every cell refines to the deepest level
(frozen digests, :mod:`tests.geometry.frozen`), (b) watertight
crack-free meshes when depths mix under a gaze budget, (c) strictly
fewer field evaluations outside the gaze cone at matching in-cone
quality, and (d) on coarse grids with capsules thinner than a cell,
the surface of the single-level pass over the whole grid from any root.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry import sdf
from repro.geometry.capsule_kernel import kernel_available
from repro.geometry.distance import hausdorff_distance
from repro.geometry.marching import (
    ExtractionStats,
    _QueryScratch,
    _evaluate_corners,
)
from repro.geometry.octree import extract_surface_octree, level_schedule
from repro.geometry.sdf import FusedCapsuleUnion, evaluate_packed
from repro.gaze.lod import GazeDepthBudget
from tests.geometry.frozen import (
    MIXED_SEQUENCES,
    assert_frozen,
    mixed_depth_runs,
)

BOUNDS = (np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))


def _body_field(backend="auto"):
    """A small articulated-body-like field (capsules + ellipsoid)."""
    rng = np.random.default_rng(7)
    # Kept well inside the [-1, 1] box: a surface clipped by the
    # sampling bounds is open no matter how it is extracted.
    heads = rng.uniform(-0.45, 0.45, size=(6, 3))
    tails = heads + rng.uniform(-0.25, 0.25, size=(6, 3))
    return FusedCapsuleUnion(
        heads=heads,
        tails=tails,
        radii_head=rng.uniform(0.06, 0.14, size=6),
        radii_tail=rng.uniform(0.06, 0.14, size=6),
        blend=0.05,
        ellipsoid_center=np.array([0.0, 0.45, 0.0]),
        ellipsoid_radii=np.array([0.22, 0.28, 0.22]),
        backend=backend,
    )


def _budget(drop=1, cone=12.0):
    return GazeDepthBudget(
        eye=np.array([0.0, 0.45, 2.5]),
        direction=np.array([0.0, 0.0, -1.0]),
        cone_degrees=cone,
        peripheral_drop=drop,
    )


class TestLevelSchedule:
    def test_halving_schedule(self):
        assert level_schedule(256, 32) == (32, 64, 128, 256)

    def test_halving_passes_below_base(self):
        # Halving continues while the level is even and above the
        # base, so 96 descends through 48 to 24.
        assert level_schedule(96, 32) == (24, 48, 96)
        assert level_schedule(100, 32) == (25, 50, 100)

    def test_base_at_or_above_resolution(self):
        assert level_schedule(32, 32) == (32,)
        assert level_schedule(24, 32) == (24,)

    def test_derived_root(self):
        # Halve while above 16 and even: the root is the resolution
        # itself at 16 and below, and at most 16 above it.
        assert level_schedule(12) == (12,)
        assert level_schedule(16) == (16,)
        assert level_schedule(24) == (12, 24)
        assert level_schedule(48) == (12, 24, 48)
        assert level_schedule(64) == (16, 32, 64)
        assert level_schedule(96) == (12, 24, 48, 96)
        assert level_schedule(100) == (25, 50, 100)
        assert level_schedule(256) == (16, 32, 64, 128, 256)


BACKENDS = ("c", "numpy") if kernel_available() else ("numpy",)


class TestUniformDepthBitIdentity:
    """With no budget the octree reproduces the retired dense cascade's
    meshes and evaluation counts, bit for bit, on both backends."""

    @pytest.mark.parametrize("resolution", (64, 128))
    def test_mesh_and_evals_identical(self, resolution):
        for backend in BACKENDS:
            shape = _body_field(backend)
            stats = ExtractionStats()
            mesh = extract_surface_octree(
                shape, BOUNDS, resolution, base_resolution=32,
                stats=stats,
            )
            assert_frozen(
                f"body-r{resolution}-base32", mesh,
                stats.field_evaluations, backend=backend,
            )
            # The derived root (16) changes the schedule, never the
            # uniform-depth mesh.
            derived = extract_surface_octree(shape, BOUNDS, resolution)
            assert_frozen(
                f"body-r{resolution}-base32", derived, backend=backend
            )

    def test_sphere_offset_iso(self):
        s = sdf.sphere([0.1, -0.05, 0.0], 0.45)
        stats = ExtractionStats()
        octree = extract_surface_octree(
            s, BOUNDS, 64, iso=0.1, stats=stats
        )
        assert_frozen("sphere-r64-iso0.1", octree, stats.field_evaluations)
        # The dense pass over the whole grid (the root before it was
        # derived as 16) evaluated 65 ** 3 corners for the same mesh.
        assert stats.field_evaluations < 65 ** 3 // 4


class TestMixedDepthBitIdentity:
    """Gaze-budgeted (mixed-depth) reconstructions reproduce the meshes
    and evaluation counts of the sort-based mixed-depth resolution on
    the active kernel backend."""

    @pytest.mark.parametrize(
        "sequence", MIXED_SEQUENCES, ids=lambda seq: seq[0]
    )
    def test_mesh_and_evals_identical(self, sequence):
        for name, mesh, evaluations in mixed_depth_runs(sequence):
            assert_frozen(name, mesh, evaluations)


class TestSurfaceError:
    @pytest.mark.parametrize("resolution", (64, 128, 256))
    def test_hausdorff_within_cell_tolerance(self, resolution):
        shape = _body_field()
        uniform = extract_surface_octree(shape, BOUNDS, resolution)
        coarse_root = extract_surface_octree(
            shape, BOUNDS, resolution, base_resolution=8
        )
        # The sampled Hausdorff between a mesh and itself is the
        # sampling-noise floor; a coarser root must not exceed it.
        floor = hausdorff_distance(uniform, uniform, samples=4000)
        assert (
            hausdorff_distance(uniform, coarse_root, samples=4000)
            <= floor
        )
        # Exact surface error through the field itself (no sampling):
        # every vertex within one fine cell of the level set.
        spacing = 2.0 / resolution
        assert np.abs(shape(coarse_root.vertices)).max() < spacing


class TestFoveatedExtraction:
    def test_fewer_evaluations_outside_cone(self):
        shape = _body_field()
        full = ExtractionStats()
        extract_surface_octree(shape, BOUNDS, 128, stats=full)
        fov = ExtractionStats()
        mesh = extract_surface_octree(
            shape, BOUNDS, 128, budget=_budget(drop=2), stats=fov
        )
        assert fov.field_evaluations < full.field_evaluations
        assert fov.cells_skipped_gaze > 0
        assert mesh.num_faces > 0

    @pytest.mark.parametrize("drop", (1, 2))
    def test_mixed_depth_mesh_watertight(self, drop):
        shape = _body_field()
        mesh = extract_surface_octree(
            shape, BOUNDS, 128, budget=_budget(drop=drop)
        )
        assert mesh.is_watertight()
        assert mesh.volume() > 0

    def test_in_cone_accuracy_matches_dense(self):
        """Vertices inside the gaze cone sit as close to the true
        surface as the uniform-depth extraction's do."""
        shape = _body_field()
        budget = _budget(drop=2)
        dense = extract_surface_octree(shape, BOUNDS, 128)
        fov = extract_surface_octree(
            shape, BOUNDS, 128, budget=budget
        )
        # Strictly interior to the cone (margin of one coarse cell in
        # angle) so depth-transition vertices are excluded.
        to_v = fov.vertices - budget.eye
        cos = (to_v / np.linalg.norm(to_v, axis=1, keepdims=True)) @ (
            budget.direction
        )
        inside = cos >= np.cos(np.deg2rad(budget.cone_degrees - 3.0))
        assert np.any(inside)
        dense_err = np.abs(shape(dense.vertices)).max()
        fov_err = np.abs(shape(fov.vertices[inside])).max()
        assert fov_err <= dense_err + 1e-12

    def test_leaf_depth_mix_reported(self):
        shape = _body_field()
        stats = ExtractionStats()
        extract_surface_octree(
            shape, BOUNDS, 128, budget=_budget(drop=2), stats=stats
        )
        depths = [leaf[0] for leaf in stats.selection.leaves]
        assert len(depths) >= 2
        assert depths == sorted(set(depths))
        assert max(depths) < len(level_schedule(128))


def _thin_union(rng):
    """A random capsule union with radii down to 0.01, a twelfth of a
    16³ cell, that meets root independence's premise (a Lipschitz
    constant of at most 2, see ``level_schedule``): each cone's radius
    changes by at most sqrt(3) per unit of length, and the ellipsoid is
    round."""
    n = int(rng.integers(1, 7))
    heads = rng.uniform(-0.5, 0.5, size=(n, 3))
    tails = heads + rng.uniform(-0.3, 0.3, size=(n, 3))
    lengths = np.linalg.norm(tails - heads, axis=1)
    radii_head = rng.uniform(0.01, 0.15, size=n)
    radii_tail = np.clip(
        radii_head + np.sqrt(3.0) * lengths * rng.uniform(-1, 1, size=n),
        0.01, 0.15,
    )
    return FusedCapsuleUnion(
        heads=heads, tails=tails, radii_head=radii_head,
        radii_tail=radii_tail, blend=float(rng.uniform(0.02, 0.06)),
        ellipsoid_center=rng.uniform(-0.3, 0.3, size=3),
        ellipsoid_radii=np.full(3, rng.uniform(0.08, 0.2)),
    )


class TestThinSurfaces:
    """A capsule thinner than a cell can pass between one level's
    corners.  The activity filter still keeps every cell near it, so
    without a budget every root gives the mesh of the single-level pass
    over the whole grid (root = resolution), coarse grids included."""

    @staticmethod
    def _check(resolution, root, seed):
        field = _thin_union(np.random.default_rng(seed))
        want = extract_surface_octree(
            field, BOUNDS, resolution, base_resolution=resolution
        )
        got = extract_surface_octree(
            field, BOUNDS, resolution, base_resolution=root
        )
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert got.faces.tobytes() == want.faces.tobytes()

    # Coarse grids are where thin capsules hide between corners, and
    # they are cheap: both backends and most examples go there.
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("root", (2, 8))
    @pytest.mark.parametrize("resolution", (16, 24, 32))
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_coarse_grids(self, resolution, root, backend, seed):
        env = {"REPRO_DISABLE_C_KERNEL": "1"} if backend == "numpy" else {}
        with mock.patch.dict(os.environ, env):
            self._check(resolution, root, seed)

    @pytest.mark.parametrize("root", (None, 8))
    @pytest.mark.parametrize("resolution", (48, 64, 128))
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fine_grids(self, resolution, root, seed):
        self._check(resolution, root, seed)


class TestBackendDifferential:
    @pytest.mark.skipif(
        not kernel_available(),
        reason="C capsule kernel unavailable",
    )
    @pytest.mark.parametrize("budget", (None, "gaze"))
    def test_c_matches_numpy(self, budget):
        b = _budget(drop=1) if budget == "gaze" else None
        mesh_c = extract_surface_octree(
            _body_field("c"), BOUNDS, 96, budget=b
        )
        mesh_np = extract_surface_octree(
            _body_field("numpy"), BOUNDS, 96, budget=b
        )
        assert mesh_c.faces.shape == mesh_np.faces.shape
        assert np.array_equal(mesh_c.faces, mesh_np.faces)
        assert (
            np.abs(mesh_c.vertices - mesh_np.vertices).max() <= 1e-9
        )


class TestEvaluatePacked:
    def test_packs_kernel_capable_fields(self):
        shape = _body_field()
        points = np.random.default_rng(0).uniform(-1, 1, (257, 3))
        assert np.array_equal(
            evaluate_packed(shape, points), shape(points)
        )

    def test_plain_callable_falls_through(self):
        s = sdf.sphere([0, 0, 0], 0.5)
        points = np.random.default_rng(1).uniform(-1, 1, (64, 3))
        assert np.array_equal(evaluate_packed(s, points), s(points))


class TestRaggedScratch:
    def test_ragged_growth_bit_identical(self):
        shape = _body_field()
        cells = np.argwhere(np.ones((5, 5, 5), dtype=bool))
        lo = np.array([-1.0, -1.0, -1.0])
        # A scratch grown past the request hands out a prefix view.
        grown = _QueryScratch()
        grown.points(10_000)
        grown.dense(10_000)
        a = _evaluate_corners(shape, cells, lo, 0.25, 6, grown)
        b = _evaluate_corners(
            shape, cells, lo, 0.25, 6, _QueryScratch()
        )
        assert np.array_equal(a, b)

    def test_ragged_scratch_reuse_across_sizes(self):
        shape = _body_field()
        lo = np.array([-1.0, -1.0, -1.0])
        scratch = _QueryScratch()
        for n in (7, 3, 11, 2):
            cells = np.argwhere(np.ones((n, 2, 2), dtype=bool))
            fresh = _evaluate_corners(
                shape, cells, lo, 0.1, 32, _QueryScratch()
            )
            reused = _evaluate_corners(
                shape, cells, lo, 0.1, 32, scratch
            )
            assert np.array_equal(fresh, reused)


class TestValidation:
    def test_bad_bounds(self):
        with pytest.raises(GeometryError):
            extract_surface_octree(
                sdf.sphere([0, 0, 0], 0.5),
                (np.ones(3), np.zeros(3)),
                64,
            )

    def test_empty_field_returns_empty_mesh(self):
        mesh = extract_surface_octree(
            lambda p: np.full(len(p), 10.0), BOUNDS, 64
        )
        assert mesh.num_faces == 0
