"""Tests for mesh decimation and voxel grids."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import sdf
from repro.geometry.distance import mesh_to_mesh_distance
from repro.geometry.octree import extract_surface
from repro.geometry.pointcloud import PointCloud
from repro.geometry.simplify import (
    decimate_by_clustering,
    decimate_to_vertex_count,
)
from repro.geometry.voxel import VoxelGrid

BOUNDS = (np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))


@pytest.fixture(scope="module")
def dense_sphere():
    return extract_surface(sdf.sphere([0, 0, 0], 0.6), BOUNDS, 64)


class TestClusteringDecimation:
    def test_reduces_vertices(self, dense_sphere):
        out = decimate_by_clustering(dense_sphere, 0.1)
        assert out.num_vertices < dense_sphere.num_vertices

    def test_geometry_preserved(self, dense_sphere):
        out = decimate_by_clustering(dense_sphere, 0.05)
        d = mesh_to_mesh_distance(out, dense_sphere, samples=3000)
        assert d < 0.05

    def test_colors_averaged(self, dense_sphere):
        mesh = dense_sphere.copy()
        mesh.vertex_colors = np.full((mesh.num_vertices, 3), 0.25)
        out = decimate_by_clustering(mesh, 0.1)
        assert np.allclose(out.vertex_colors, 0.25)

    def test_invalid_cell(self, dense_sphere):
        with pytest.raises(GeometryError):
            decimate_by_clustering(dense_sphere, 0.0)

    def test_no_duplicate_faces(self, dense_sphere):
        out = decimate_by_clustering(dense_sphere, 0.15)
        key = np.sort(out.faces, axis=1)
        assert len(np.unique(key, axis=0)) == out.num_faces


class TestTargetDecimation:
    def test_hits_target_within_tolerance(self, dense_sphere):
        target = 1200
        out = decimate_to_vertex_count(dense_sphere, target,
                                       tolerance=0.05)
        assert abs(out.num_vertices - target) / target < 0.15

    def test_small_mesh_passthrough(self, dense_sphere):
        small = decimate_by_clustering(dense_sphere, 0.3)
        out = decimate_to_vertex_count(small, 10_000)
        assert out.num_vertices == small.num_vertices

    def test_invalid_target(self, dense_sphere):
        with pytest.raises(GeometryError):
            decimate_to_vertex_count(dense_sphere, 1)


class TestVoxelGrid:
    def test_from_point_cloud_occupancy(self):
        cloud = PointCloud(points=[[0, 0, 0], [1, 0, 0]])
        grid = VoxelGrid.from_point_cloud(cloud, 0.5)
        assert grid.num_occupied == 2

    def test_contains(self):
        cloud = PointCloud(points=[[0, 0, 0], [1, 1, 1]])
        grid = VoxelGrid.from_point_cloud(cloud, 0.5)
        inside = grid.contains([[0.1, 0.1, 0.1], [5.0, 5.0, 5.0]])
        assert inside[0] and not inside[1]

    def test_voxel_centers_near_points(self):
        cloud = PointCloud(points=[[0.3, 0.3, 0.3]])
        grid = VoxelGrid.from_point_cloud(cloud, 0.2)
        centers = grid.voxel_centers()
        assert np.linalg.norm(centers[0] - [0.3, 0.3, 0.3]) < 0.2

    def test_dilation_grows(self):
        cloud = PointCloud(points=[[0.5, 0.5, 0.5]])
        grid = VoxelGrid.from_point_cloud(cloud, 0.25, padding=2)
        grown = grid.dilated(1)
        assert grown.num_occupied > grid.num_occupied

    def test_dilation_zero_iterations_noop(self):
        cloud = PointCloud(points=[[0, 0, 0]])
        grid = VoxelGrid.from_point_cloud(cloud, 0.5)
        assert grid.dilated(0).num_occupied == grid.num_occupied

    def test_empty_cloud_raises(self):
        with pytest.raises(GeometryError):
            VoxelGrid.from_point_cloud(
                PointCloud(points=np.zeros((0, 3))), 0.5
            )

    def test_to_point_cloud_roundtrip_count(self):
        cloud = PointCloud(points=np.random.default_rng(0).random(
            (100, 3)))
        grid = VoxelGrid.from_point_cloud(cloud, 0.2)
        assert len(grid.to_point_cloud()) == grid.num_occupied
