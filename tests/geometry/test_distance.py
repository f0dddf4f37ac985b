"""Tests for surface distance metrics."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import sdf
from repro.geometry.distance import (
    chamfer_distance,
    closest_point_on_triangles,
    compare_surfaces,
    f_score,
    hausdorff_distance,
    mesh_to_mesh_distance,
    normal_consistency,
    point_to_mesh_distance,
)
from repro.geometry.octree import extract_surface
from repro.geometry.pointcloud import PointCloud

BOUNDS = (np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))


@pytest.fixture(scope="module")
def sphere_mesh():
    return extract_surface(sdf.sphere([0, 0, 0], 0.5), BOUNDS, 32)


@pytest.fixture(scope="module")
def bigger_sphere_mesh():
    return extract_surface(sdf.sphere([0, 0, 0], 0.6), BOUNDS, 32)


class TestChamferHausdorff:
    def test_self_distance_small(self, sphere_mesh):
        d = chamfer_distance(sphere_mesh, sphere_mesh, samples=4000)
        # Sampling floor only; well below the shape scale.
        assert d < 0.03

    def test_concentric_spheres(self, sphere_mesh, bigger_sphere_mesh):
        d = chamfer_distance(
            sphere_mesh, bigger_sphere_mesh, samples=4000
        )
        assert 0.05 < d < 0.15  # radii differ by 0.1

    def test_hausdorff_upper_bounds_chamfer(
        self, sphere_mesh, bigger_sphere_mesh
    ):
        c = chamfer_distance(sphere_mesh, bigger_sphere_mesh,
                             samples=2000)
        h = hausdorff_distance(sphere_mesh, bigger_sphere_mesh,
                               samples=2000)
        assert h >= c

    def test_symmetry(self, sphere_mesh, bigger_sphere_mesh):
        ab = chamfer_distance(sphere_mesh, bigger_sphere_mesh,
                              samples=3000, seed=1)
        ba = chamfer_distance(bigger_sphere_mesh, sphere_mesh,
                              samples=3000, seed=1)
        assert np.isclose(ab, ba, rtol=0.15)

    def test_accepts_point_clouds(self, sphere_mesh):
        cloud = sphere_mesh.sample_points(1000)
        d = chamfer_distance(cloud, sphere_mesh, samples=1000)
        assert d < 0.05

    def test_empty_raises(self, sphere_mesh):
        with pytest.raises(GeometryError):
            chamfer_distance(
                PointCloud(points=np.zeros((0, 3))), sphere_mesh
            )


class TestFScore:
    def test_identical_high(self, sphere_mesh):
        assert f_score(sphere_mesh, sphere_mesh, threshold=0.05,
                       samples=3000) > 0.99

    def test_distant_surfaces_zero(self, sphere_mesh):
        far = sphere_mesh.copy()
        far.vertices = far.vertices + 10.0
        assert f_score(sphere_mesh, far, threshold=0.05,
                       samples=1000) == 0.0

    def test_threshold_monotone(self, sphere_mesh, bigger_sphere_mesh):
        tight = f_score(sphere_mesh, bigger_sphere_mesh, 0.05,
                        samples=2000)
        loose = f_score(sphere_mesh, bigger_sphere_mesh, 0.2,
                        samples=2000)
        assert loose >= tight

    def test_invalid_threshold(self, sphere_mesh):
        with pytest.raises(GeometryError):
            f_score(sphere_mesh, sphere_mesh, threshold=0.0)


class TestNormalConsistency:
    def test_identical_high(self, sphere_mesh):
        assert normal_consistency(sphere_mesh, sphere_mesh,
                                  samples=2000) > 0.95

    def test_wrinkled_surface_lower(self, sphere_mesh):
        wrinkled = sphere_mesh.copy()
        normals = wrinkled.vertex_normals()
        bumps = 0.01 * np.sin(60 * wrinkled.vertices[:, 0]) \
            * np.sin(60 * wrinkled.vertices[:, 1])
        wrinkled.vertices = wrinkled.vertices + bumps[:, None] * normals
        smooth_score = normal_consistency(sphere_mesh, sphere_mesh,
                                          samples=2000)
        wrinkled_score = normal_consistency(sphere_mesh, wrinkled,
                                            samples=2000)
        assert wrinkled_score < smooth_score


class TestPointToMesh:
    def test_exact_for_known_points(self, sphere_mesh):
        queries = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        d = point_to_mesh_distance(queries, sphere_mesh)
        assert np.isclose(d[0], 0.5, atol=0.01)
        assert np.isclose(d[1], 0.5, atol=0.01)

    def test_zero_on_vertices(self, sphere_mesh):
        d = point_to_mesh_distance(sphere_mesh.vertices[:50],
                                   sphere_mesh)
        assert d.max() < 1e-9

    def test_closest_point_on_triangle_regions(self):
        tri = np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]] * 4,
                       dtype=float)
        queries = np.array(
            [
                [0.25, 0.25, 1.0],   # interior (projected)
                [-1.0, -1.0, 0.0],   # vertex A
                [0.5, -1.0, 0.0],    # edge AB
                [2.0, 2.0, 0.0],     # edge BC
            ]
        )
        closest = closest_point_on_triangles(queries, tri)
        assert np.allclose(closest[0], [0.25, 0.25, 0.0])
        assert np.allclose(closest[1], [0, 0, 0])
        assert np.allclose(closest[2], [0.5, 0, 0])
        assert np.allclose(closest[3], [0.5, 0.5, 0.0])

    def test_mesh_to_mesh_resolves_small_offsets(self, sphere_mesh):
        shifted = sphere_mesh.copy()
        shifted.vertices = shifted.vertices * 1.002  # 1mm inflation
        d = mesh_to_mesh_distance(shifted, sphere_mesh, samples=3000)
        assert 0.0002 < d < 0.005

    def test_no_faces_raises(self):
        from repro.geometry.mesh import TriangleMesh

        empty = TriangleMesh(vertices=np.zeros((3, 3)),
                             faces=np.zeros((0, 3)))
        with pytest.raises(GeometryError):
            point_to_mesh_distance(np.zeros((1, 3)), empty)


class TestCompareSurfaces:
    def test_bundle_fields(self, sphere_mesh, bigger_sphere_mesh):
        cmp = compare_surfaces(sphere_mesh, bigger_sphere_mesh,
                               samples=2000)
        assert cmp.chamfer > 0
        assert 0 <= cmp.f_score_fine <= 1
        assert cmp.hausdorff >= cmp.chamfer
        assert set(cmp.as_dict()) == {
            "chamfer",
            "hausdorff",
            "f_score_fine",
            "f_score_coarse",
            "normal_consistency",
        }
