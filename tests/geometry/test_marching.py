"""Tests for marching-tetrahedra surface extraction."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import sdf
from repro.geometry.marching import (
    ExtractionStats,
    dilate_cells,
    marching_tetrahedra,
    remap_cells,
)
from repro.geometry.octree import extract_surface, level_schedule
from tests.geometry.frozen import assert_frozen

BOUNDS = (np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))


def _sphere_mesh(resolution: int, radius: float = 0.5):
    return extract_surface(sdf.sphere([0, 0, 0], radius), BOUNDS,
                           resolution)


class TestSphereExtraction:
    def test_watertight(self):
        assert _sphere_mesh(32).is_watertight()

    def test_area_converges(self):
        true_area = 4 * np.pi * 0.25
        coarse = abs(_sphere_mesh(16).surface_area() - true_area)
        fine = abs(_sphere_mesh(48).surface_area() - true_area)
        assert fine < coarse
        assert fine / true_area < 0.01

    def test_volume_positive_means_outward_normals(self):
        assert _sphere_mesh(32).volume() > 0

    def test_volume_accuracy(self):
        true_volume = 4.0 / 3.0 * np.pi * 0.125
        assert np.isclose(
            _sphere_mesh(48).volume(), true_volume, rtol=0.01
        )

    def test_vertices_on_surface(self):
        mesh = _sphere_mesh(32)
        radii = np.linalg.norm(mesh.vertices, axis=1)
        # All vertices within one cell of the true radius.
        assert np.abs(radii - 0.5).max() < 2.0 / 32


class TestSparseMatchesDense:
    def test_sparse_watertight_at_higher_resolution(self):
        mesh = extract_surface(
            sdf.sphere([0, 0, 0], 0.5), BOUNDS, 128
        )
        assert mesh.is_watertight()
        assert mesh.volume() > 0


class TestOffsetIso:
    def test_nonzero_iso_grows_surface(self):
        s = sdf.sphere([0, 0, 0], 0.5)
        base = extract_surface(s, BOUNDS, 32, iso=0.0)
        grown = extract_surface(s, BOUNDS, 32, iso=0.2)
        assert grown.surface_area() > base.surface_area()


class TestDenseGridAPI:
    def test_marching_on_explicit_grid(self):
        axis = np.linspace(-1, 1, 33)
        grid = np.stack(
            np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1
        )
        values = np.linalg.norm(grid, axis=-1) - 0.5
        mesh = marching_tetrahedra(values, np.array([-1.0, -1, -1]),
                                   2.0 / 32)
        assert mesh.is_watertight()
        assert np.isclose(mesh.volume(), 4 / 3 * np.pi * 0.125,
                          rtol=0.05)

    def test_empty_grid_raises(self):
        with pytest.raises(GeometryError):
            marching_tetrahedra(np.zeros((1, 1, 1)), np.zeros(3), 1.0)

    def test_no_crossing_returns_empty(self):
        values = np.ones((9, 9, 9))
        mesh = marching_tetrahedra(values, np.zeros(3), 0.125)
        assert mesh.num_faces == 0

    def test_all_inside_returns_empty(self):
        values = -np.ones((9, 9, 9))
        mesh = marching_tetrahedra(values, np.zeros(3), 0.125)
        assert mesh.num_faces == 0


class TestValidation:
    def test_bad_bounds(self):
        with pytest.raises(GeometryError):
            extract_surface(
                sdf.sphere([0, 0, 0], 1.0),
                (np.ones(3), np.zeros(3)),
                16,
            )

    def test_resolution_too_small(self):
        with pytest.raises(GeometryError):
            extract_surface(sdf.sphere([0, 0, 0], 1.0), BOUNDS, 1)

    def test_disconnected_components(self):
        shape = sdf.union(
            [
                sdf.sphere([-0.5, 0, 0], 0.2),
                sdf.sphere([0.5, 0, 0], 0.2),
            ]
        )
        mesh = extract_surface(shape, BOUNDS, 48)
        assert mesh.is_watertight()
        expected = 2 * 4 / 3 * np.pi * 0.2**3
        assert np.isclose(mesh.volume(), expected, rtol=0.05)


class TestExtractionStats:
    def test_counts_evaluations(self):
        stats = ExtractionStats()
        mesh = extract_surface(
            sdf.sphere([0, 0, 0], 0.5), BOUNDS, 96, stats=stats
        )
        assert mesh.num_faces > 0
        assert stats.field_evaluations > 0
        assert not stats.warm_started
        assert stats.resolution == 96
        assert stats.surface_cells is not None
        assert len(stats.surface_cells) > 0
        assert stats.spacing > 0


class TestDilateCells:
    def test_single_cell_ball(self):
        cells = np.array([[5, 5, 5]])
        out = dilate_cells(cells, 1, 16)
        assert len(out) == 27
        assert np.abs(out - cells).max() == 1

    def test_clips_to_grid(self):
        out = dilate_cells(np.array([[0, 0, 0]]), 2, 16)
        assert out.min() == 0
        assert len(out) == 27  # the octant that stays in the grid

    def test_zero_dilation_identity(self):
        cells = np.array([[3, 4, 5], [1, 1, 1]])
        out = dilate_cells(cells, 0, 8)
        linear = (out[:, 0] * 8 + out[:, 1]) * 8 + out[:, 2]
        assert np.all(np.diff(linear) > 0)
        assert len(out) == 2

    def test_output_sorted_unique(self):
        rng = np.random.default_rng(2)
        cells = rng.integers(0, 20, size=(50, 3))
        out = dilate_cells(cells, 2, 20)
        linear = (out[:, 0] * 20 + out[:, 1]) * 20 + out[:, 2]
        assert np.all(np.diff(linear) > 0)

    def test_negative_dilation_raises(self):
        for cells in (
            np.zeros((0, 3), dtype=np.int64),
            np.array([[5, 5, 5]]),
            np.array([[3, 4, 5], [1, 1, 1]]),
        ):
            with pytest.raises(GeometryError, match="dilation"):
                dilate_cells(cells, -1, 16)
            with pytest.raises(GeometryError, match="dilation"):
                remap_cells(cells, np.zeros(3), 0.1, np.zeros(3), 0.1,
                            16, dilation=-1)


class TestSeededExtraction:
    """Finest-depth warm starts, pinned to the retired dense path's
    meshes and evaluation counts (see :mod:`tests.geometry.frozen`)."""

    @staticmethod
    def _finest(resolution, cells):
        return [(len(level_schedule(resolution)) - 1, cells)]

    def test_seeded_matches_cold_for_moved_sphere(self):
        """A translated sphere re-extracted from the previous frame's
        dilated surface cells gives the bit-identical mesh."""
        resolution = 96
        stats = ExtractionStats()
        first = extract_surface(
            sdf.sphere([0, 0, 0], 0.5), BOUNDS, resolution, stats=stats
        )
        assert_frozen("sphere-r96", first, stats.field_evaluations)
        moved = sdf.sphere([0.01, 0.0, -0.01], 0.5)
        cold_stats = ExtractionStats()
        cold = extract_surface(moved, BOUNDS, resolution, stats=cold_stats)
        assert_frozen(
            "moved-sphere-r96-cold", cold, cold_stats.field_evaluations
        )
        seeds = dilate_cells(stats.surface_cells, 2, resolution)
        warm_stats = ExtractionStats()
        warm = extract_surface(
            moved, BOUNDS, resolution,
            seed_leaves=self._finest(resolution, seeds),
            stats=warm_stats,
        )
        assert warm_stats.warm_started
        assert_frozen(
            "moved-sphere-r96-seeded", warm, warm_stats.field_evaluations
        )
        assert np.array_equal(warm.vertices, cold.vertices)
        assert np.array_equal(warm.faces, cold.faces)

    def test_empty_seed_falls_back_to_cascade(self):
        stats = ExtractionStats()
        mesh = extract_surface(
            sdf.sphere([0, 0, 0], 0.5), BOUNDS, 96,
            seed_leaves=self._finest(
                96, np.zeros((0, 3), dtype=np.int64)
            ),
            stats=stats,
        )
        assert not stats.warm_started
        assert_frozen("sphere-r96", mesh, stats.field_evaluations)

    def test_bad_seed_misses_surface(self):
        """Seeds nowhere near the surface produce an empty mesh — the
        caller (reconstructor) is responsible for falling back."""
        seeds = np.array([[0, 0, 0], [1, 0, 0]])
        stats = ExtractionStats()
        mesh = extract_surface(
            sdf.sphere([0, 0, 0], 0.4), BOUNDS, 96,
            seed_leaves=self._finest(96, seeds), stats=stats,
        )
        assert mesh.num_faces == 0
        assert_frozen(
            "sphere-r96-bad-seed", mesh, stats.field_evaluations
        )
