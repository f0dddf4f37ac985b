"""Tests for RGB-D rendering and sensor noise."""

import numpy as np
import pytest

from repro.capture.noise import DepthNoiseModel
from repro.capture.render import RGBDFrame, render_depth, render_rgbd
from repro.errors import CaptureError
from repro.geometry import sdf
from repro.geometry.camera import Camera, Intrinsics
from repro.geometry.octree import extract_surface


@pytest.fixture(scope="module")
def sphere_mesh():
    bounds = (np.array([-1.0, -1, -1]), np.array([1.0, 1, 1]))
    mesh = extract_surface(sdf.sphere([0, 0, 0], 0.5), bounds, 32)
    mesh.vertex_colors = np.full((mesh.num_vertices, 3), 0.5)
    return mesh


@pytest.fixture(scope="module")
def camera():
    return Camera.looking_at(
        Intrinsics.from_fov(64, 48, 60.0), eye=(0, 0, 2.5),
        target=(0, 0, 0),
    )


class TestRender:
    def test_depth_in_expected_range(self, sphere_mesh, camera):
        depth = render_depth(sphere_mesh, camera)
        valid = depth[depth > 0]
        assert valid.size > 100
        # Front of the sphere is 2.0 away, silhouette edge ~2.45.
        assert valid.min() > 1.9
        assert valid.max() < 2.6

    def test_center_pixel_hits_front(self, sphere_mesh, camera):
        frame = render_rgbd(sphere_mesh, camera,
                            samples_per_pixel=8.0)
        h, w = frame.depth.shape
        assert np.isclose(frame.depth[h // 2, w // 2], 2.0, atol=0.05)

    def test_colors_where_depth(self, sphere_mesh, camera):
        frame = render_rgbd(sphere_mesh, camera)
        hit = frame.valid_mask
        assert np.allclose(frame.rgb[hit], 0.5, atol=0.05)
        assert np.allclose(frame.rgb[~hit], 0.0)

    def test_coverage_reasonable(self, sphere_mesh, camera):
        frame = render_rgbd(sphere_mesh, camera)
        # The sphere subtends a modest solid angle.
        assert 0.05 < frame.coverage < 0.5

    def test_deterministic(self, sphere_mesh, camera):
        a = render_rgbd(sphere_mesh, camera,
                        rng=np.random.default_rng(5))
        b = render_rgbd(sphere_mesh, camera,
                        rng=np.random.default_rng(5))
        assert np.array_equal(a.depth, b.depth)

    def test_backface_cull_prevents_leakage(self, sphere_mesh, camera):
        frame = render_rgbd(sphere_mesh, camera, backface_cull=True)
        valid = frame.depth[frame.valid_mask]
        # No samples from the far hemisphere (depth ~3.0).
        assert valid.max() < 2.7

    def test_empty_mesh_raises(self, camera):
        from repro.geometry.mesh import TriangleMesh

        empty = TriangleMesh(vertices=np.zeros((3, 3)),
                             faces=np.zeros((0, 3)))
        with pytest.raises(CaptureError):
            render_rgbd(empty, camera)

    def test_to_point_cloud_roundtrip(self, sphere_mesh, camera):
        frame = render_rgbd(sphere_mesh, camera)
        cloud = frame.to_point_cloud()
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.isclose(np.median(radii), 0.5, atol=0.05)

    def test_frame_validation(self, camera):
        with pytest.raises(CaptureError):
            RGBDFrame(
                depth=np.zeros((10, 10)),
                rgb=np.zeros((10, 10, 3)),
                camera=camera,
            )


class TestNoise:
    def test_ideal_is_identity(self, rng):
        depth = np.full((20, 20), 2.0)
        noisy = DepthNoiseModel.ideal().apply(depth, rng)
        assert np.array_equal(noisy, depth)

    def test_gaussian_noise_scales_with_distance(self, rng):
        model = DepthNoiseModel(
            sigma_base=0.0, sigma_scale=0.002, quantisation=0.0,
            edge_dropout=0.0, random_dropout=0.0,
        )
        near = np.full((50, 50), 1.0)
        far = np.full((50, 50), 4.0)
        near_err = np.abs(model.apply(near, rng) - near).std()
        far_err = np.abs(model.apply(far, rng) - far).std()
        assert far_err > near_err * 4

    def test_quantisation(self, rng):
        model = DepthNoiseModel(
            sigma_base=0.0, sigma_scale=0.0, quantisation=0.01,
            edge_dropout=0.0, random_dropout=0.0,
        )
        depth = np.full((10, 10), 1.234567)
        noisy = model.apply(depth, rng)
        steps = noisy / 0.01
        assert np.allclose(steps, np.round(steps), atol=1e-9)

    def test_holes_preserved(self, rng):
        depth = np.full((10, 10), 2.0)
        depth[5, 5] = 0.0
        noisy = DepthNoiseModel.kinect().apply(depth, rng)
        assert noisy[5, 5] == 0.0

    def test_edge_dropout_at_discontinuity(self):
        model = DepthNoiseModel(
            sigma_base=0.0, sigma_scale=0.0, quantisation=0.0,
            edge_dropout=1.0, random_dropout=0.0,
        )
        depth = np.full((10, 10), 1.0)
        depth[:, 5:] = 3.0  # a depth cliff at column 5
        noisy = model.apply(depth, np.random.default_rng(0))
        assert (noisy[:, 4:6] == 0).all()
        assert (noisy[:, 0:3] > 0).all()

    def test_random_dropout_rate(self, rng):
        model = DepthNoiseModel(
            sigma_base=0.0, sigma_scale=0.0, quantisation=0.0,
            edge_dropout=0.0, random_dropout=0.2,
        )
        depth = np.full((100, 100), 2.0)
        noisy = model.apply(depth, rng)
        dropped = (noisy == 0).mean()
        assert 0.15 < dropped < 0.25

    def test_invalid_parameters(self):
        with pytest.raises(CaptureError):
            DepthNoiseModel(edge_dropout=1.5)
        with pytest.raises(CaptureError):
            DepthNoiseModel(sigma_base=-0.1)
