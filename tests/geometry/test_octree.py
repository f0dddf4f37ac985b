"""Tests of the octree extractor, the repository's one extractor.

The octree extractor promises (a) the meshes and evaluation counts of
the retired dense cascade when every cell refines to the deepest level
(frozen digests, :mod:`tests.geometry.frozen`), (b) watertight
crack-free meshes when depths mix under a gaze budget, (c) strictly
fewer field evaluations outside the gaze cone at matching in-cone
quality, and (d) warm starts that reproduce cold starts bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry import sdf
from repro.geometry.capsule_kernel import kernel_available
from repro.geometry.distance import hausdorff_distance
from repro.geometry.marching import (
    ExtractionStats,
    _QueryScratch,
    _evaluate_corners,
    dilate_cells,
    remap_cells,
)
from repro.geometry.octree import (
    extract_surface_octree,
    level_schedule,
    warm_seeds,
)
from repro.geometry.sdf import FusedCapsuleUnion, evaluate_packed
from repro.gaze.lod import GazeDepthBudget
from tests.geometry.frozen import assert_frozen

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
        # Up to 64 the root is the resolution itself (one dense pass);
        # above it the schedule starts at 32.
        assert level_schedule(16) == (16,)
        assert level_schedule(64) == (64,)
        assert level_schedule(96) == (24, 48, 96)
        assert level_schedule(256) == (32, 64, 128, 256)


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
            # The derived root (32 above 64, one dense pass up to it)
            # changes the schedule, never the uniform-depth mesh.
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
        assert stats.field_evaluations == 65 ** 3


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
        depths = np.unique(stats.leaf_depths)
        assert len(depths) >= 2
        assert stats.leaf_levels == level_schedule(128)
        assert len(stats.leaf_cells) == len(stats.leaf_depths)


class TestWarmStart:
    def test_seeded_extraction_skips_root_pass(self):
        shape = _body_field()
        cold = ExtractionStats()
        mesh_cold = extract_surface_octree(
            shape, BOUNDS, 64, stats=cold
        )
        levels = level_schedule(64)
        seeds = []
        for depth in np.unique(cold.leaf_depths):
            mask = cold.leaf_depths == depth
            seeds.append(
                (
                    int(depth),
                    dilate_cells(
                        cold.leaf_cells[mask], 1, levels[depth]
                    ),
                )
            )
        warm = ExtractionStats()
        mesh_warm = extract_surface_octree(
            shape, BOUNDS, 64, seed_leaves=seeds, stats=warm
        )
        assert warm.warm_started
        assert warm.field_evaluations < cold.field_evaluations
        assert np.array_equal(mesh_cold.vertices, mesh_warm.vertices)
        assert np.array_equal(mesh_cold.faces, mesh_warm.faces)

    def test_empty_seeds_fall_back_to_cold(self):
        shape = _body_field()
        stats = ExtractionStats()
        mesh = extract_surface_octree(
            shape,
            BOUNDS,
            64,
            seed_leaves=[(2, np.zeros((0, 3), dtype=np.int64))],
            stats=stats,
        )
        assert not stats.warm_started
        assert mesh.num_faces > 0


def _moving_union(seed, shift):
    """A seeded capsule union before and after a small random motion.

    Every bone endpoint (and the ellipsoid centre) moves by at most
    ``shift``; returns both fields and that largest displacement.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    heads = rng.uniform(-0.5, 0.5, size=(n, 3))
    tails = heads + rng.uniform(-0.3, 0.3, size=(n, 3))
    radii = rng.uniform(0.01, 0.15, size=(2, n))
    blend = float(rng.uniform(0.02, 0.06))
    center = rng.uniform(-0.3, 0.3, size=3)
    ell_radii = rng.uniform(0.08, 0.2, size=3)
    moves = rng.normal(size=(2 * n + 1, 3))
    moves *= (
        shift * rng.uniform(0.0, 1.0, size=(2 * n + 1, 1))
        / np.linalg.norm(moves, axis=1, keepdims=True)
    )

    def union(h, t, c):
        return FusedCapsuleUnion(
            heads=h, tails=t, radii_head=radii[0], radii_tail=radii[1],
            blend=blend, ellipsoid_center=c, ellipsoid_radii=ell_radii,
        )

    before = union(heads, tails, center)
    after = union(heads + moves[:n], tails + moves[n:2 * n],
                  center + moves[-1])
    return before, after, float(np.linalg.norm(moves, axis=1).max())


class TestWarmEqualsCold:
    """A warm start from the previous frame's leaves reproduces the
    cold extraction bit for bit, on coarse grids too: seeds come from
    every leaf with a corner within half a cell diagonal of the
    surface, so a surface thin enough to pass between one frame's
    corners is still seeded."""

    @staticmethod
    def _check(resolution, base, seed, motion):
        spacing = 2.0 / resolution
        before, after, delta = _moving_union(seed, motion * spacing)
        prev = ExtractionStats()
        extract_surface_octree(
            before, BOUNDS, resolution, base_resolution=base, stats=prev
        )
        seeds = warm_seeds(prev, BOUNDS, resolution, base, motion=delta)
        assert seeds is not None
        cold = extract_surface_octree(
            after, BOUNDS, resolution, base_resolution=base
        )
        stats = ExtractionStats()
        warm = extract_surface_octree(
            after, BOUNDS, resolution, base_resolution=base,
            seed_leaves=seeds, stats=stats,
        )
        assert stats.warm_started
        assert np.array_equal(warm.vertices, cold.vertices)
        assert np.array_equal(warm.faces, cold.faces)

    # Coarse grids are where thin capsules hide between corners, and
    # they are cheap: most examples go there.
    @pytest.mark.parametrize("base", (None, 8))
    @pytest.mark.parametrize("resolution", (16, 24, 32))
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), motion=st.floats(0.0, 1.0))
    # Unions whose warm start lost surface when seeds came from the
    # straddling leaves alone.
    @example(seed=213, motion=0.25)
    @example(seed=11242, motion=0.25)
    def test_seeded_capsule_unions(self, resolution, base, seed, motion):
        self._check(resolution, base, seed, motion)

    @pytest.mark.parametrize("base", (None, 8))
    @pytest.mark.parametrize("resolution", (48, 64, 128))
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), motion=st.floats(0.0, 1.0))
    def test_seeded_capsule_unions_fine(
        self, resolution, base, seed, motion
    ):
        self._check(resolution, base, seed, motion)

    def test_grid_change_needs_cold_start(self):
        prev = ExtractionStats()
        extract_surface_octree(_body_field(), BOUNDS, 32, stats=prev)
        assert warm_seeds(prev, BOUNDS, 32) is not None
        assert warm_seeds(prev, BOUNDS, 48) is None
        assert warm_seeds(prev, BOUNDS, 32, base_resolution=8) is None
        # Too much motion for the dilation bound.
        assert warm_seeds(prev, BOUNDS, 32, motion=0.5) is None


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


class TestCellRemapping:
    def test_per_axis_resolution_dilation(self):
        cells = np.array([[0, 0, 0], [3, 1, 7]])
        out = dilate_cells(cells, 1, np.array([4, 2, 8]))
        # Clipping differs per axis: x caps at 3, y at 1, z at 7.
        assert out[:, 0].max() == 3
        assert out[:, 1].max() == 1
        assert out[:, 2].max() == 7
        assert out.min() == 0

    def test_remap_between_depths(self):
        # Coarse cell [1,1,1] (spacing 0.5) has centre (0.75,)*3,
        # landing in fine cell [3,3,3] at spacing 0.25.
        src = np.array([[1, 1, 1]])
        lo = np.zeros(3)
        mapped = remap_cells(src, lo, 0.5, lo, 0.25, 4)
        assert np.array_equal(mapped, [[3, 3, 3]])
        dilated = remap_cells(src, lo, 0.5, lo, 0.25, 4, dilation=1)
        lin = set(map(tuple, dilated))
        assert (3, 3, 3) in lin and (2, 2, 2) in lin
        # 3^3 neighbourhood clipped to the grid: {2, 3}^3.
        assert len(dilated) == 8

    def test_remap_drops_outside_cells(self):
        src = np.array([[9, 0, 0]])
        out = remap_cells(
            src, np.zeros(3), 0.5, np.zeros(3), 0.25, 4
        )
        assert out.shape == (0, 3)
        assert out.dtype == np.int64

    def test_remap_nonuniform_resolution(self):
        src = np.array([[1, 0, 3]])
        out = remap_cells(
            src,
            np.zeros(3),
            0.25,
            np.zeros(3),
            0.125,
            np.array([4, 2, 8]),
        )
        # Center (0.375, 0.125, 0.875) / 0.125 = (3, 1, 7).
        assert np.array_equal(out, [[3, 1, 7]])


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
