"""Tests for volume rendering and NeRF training."""

import numpy as np
import pytest

from repro.capture.render import RGBDFrame
from repro.errors import SemHoloError
from repro.geometry.camera import Camera, Intrinsics
from repro.nerf.field import RadianceField
from repro.nerf.render import (
    RenderConfig,
    composite,
    composite_backward,
    render_image,
    render_rays,
)
from repro.nerf.slimmable import SlimmablePolicy
from repro.nerf.train import NeRFTrainer, changed_pixel_mask


def tiny_field(seed=0):
    return RadianceField(
        [-1, -1, -1], [1, 1, 1],
        num_frequencies=3, hidden_width=16, hidden_layers=2, seed=seed,
    )


class TestComposite:
    def test_empty_space_is_background(self):
        rgb = np.zeros((2, 4, 3))
        sigma = np.zeros((2, 4))
        depths = np.tile(np.linspace(1, 2, 4), (2, 1))
        color, _ = composite(rgb, sigma, depths,
                             np.array([0.2, 0.4, 0.6]))
        assert np.allclose(color, [0.2, 0.4, 0.6])

    def test_opaque_first_sample_wins(self):
        rgb = np.zeros((1, 4, 3))
        rgb[0, 0] = [1.0, 0.0, 0.0]
        sigma = np.zeros((1, 4))
        sigma[0, 0] = 1e9
        depths = np.linspace(1, 2, 4)[None]
        color, _ = composite(rgb, sigma, depths, np.zeros(3))
        assert np.allclose(color, [1.0, 0.0, 0.0], atol=1e-6)

    def test_weights_sum_below_one(self, rng):
        rgb = rng.random((3, 8, 3))
        sigma = rng.random((3, 8))
        depths = np.tile(np.linspace(1, 3, 8), (3, 1))
        _, aux = composite(rgb, sigma, depths, np.ones(3))
        totals = aux["weights"].sum(axis=1)
        assert np.all(totals <= 1.0 + 1e-9)

    def test_backward_matches_numeric(self, rng):
        rgb = rng.random((2, 5, 3))
        sigma = rng.random((2, 5)) * 2
        depths = np.tile(np.linspace(1, 2, 5), (2, 1))
        background = np.array([0.5, 0.5, 0.5])
        target = rng.random((2, 3))

        def loss(s):
            c, _ = composite(rgb, s, depths, background)
            return float(((c - target) ** 2).sum())

        color, aux = composite(rgb, sigma, depths, background)
        grad_color = 2 * (color - target)
        _, grad_sigma = composite_backward(grad_color, aux)
        eps = 1e-6
        for r, s in [(0, 0), (1, 2), (0, 4)]:
            sp = sigma.copy()
            sp[r, s] += eps
            sm = sigma.copy()
            sm[r, s] -= eps
            numeric = (loss(sp) - loss(sm)) / (2 * eps)
            assert np.isclose(numeric, grad_sigma[r, s], rtol=1e-4,
                              atol=1e-8)


class TestRenderRays:
    def test_shapes(self, rng):
        fld = tiny_field()
        cfg = RenderConfig(num_samples=8)
        color, aux = render_rays(
            fld, rng.normal(size=(6, 3)), rng.normal(size=(6, 3)), cfg
        )
        assert color.shape == (6, 3)
        assert aux is None

    def test_invalid_config(self):
        with pytest.raises(SemHoloError):
            RenderConfig(near=2.0, far=1.0)
        with pytest.raises(SemHoloError):
            RenderConfig(num_samples=1)

    def test_render_image_shape(self):
        fld = tiny_field()
        camera = Camera(intrinsics=Intrinsics.from_fov(16, 12, 60.0))
        image = render_image(fld, camera, RenderConfig(num_samples=4))
        assert image.shape == (12, 16, 3)


class TestTrainer:
    def _scene(self):
        # A simple scene: a red blob at the origin seen by 2 cameras.
        from repro.geometry import sdf
        from repro.geometry.octree import extract_surface
        from repro.capture.render import render_rgbd

        bounds = (np.array([-1.0, -1, -1]), np.array([1.0, 1, 1]))
        mesh = extract_surface(sdf.sphere([0, 0, 0], 0.4), bounds, 24)
        mesh.vertex_colors = np.tile([0.8, 0.2, 0.2],
                                     (mesh.num_vertices, 1))
        intr = Intrinsics.from_fov(24, 18, 60.0)
        frames = []
        for angle in (0.0, 1.8):
            eye = (2.0 * np.sin(angle), 0.0, 2.0 * np.cos(angle))
            camera = Camera.looking_at(intr, eye, (0, 0, 0))
            frames.append(render_rgbd(mesh, camera,
                                      samples_per_pixel=6.0))
        return frames

    def test_loss_decreases(self):
        frames = self._scene()
        fld = tiny_field(seed=1)
        trainer = NeRFTrainer(
            config=RenderConfig(near=0.5, far=3.5, num_samples=12,
                                stratified=True),
            batch_rays=128,
        )
        report = trainer.train(fld, frames, steps=60)
        early = np.mean(report.loss_history[:5])
        late = np.mean(report.loss_history[-5:])
        assert late < early * 0.7

    def test_finetune_on_masks_faster_than_full(self):
        frames = self._scene()
        fld = tiny_field(seed=2)
        trainer = NeRFTrainer(
            config=RenderConfig(near=0.5, far=3.5, num_samples=12),
            batch_rays=128,
        )
        masks = [np.zeros(f.rgb.shape[:2], dtype=bool) for f in frames]
        for m in masks:
            m[5:8, 5:8] = True
        report = trainer.train(fld, frames, steps=10, masks=masks)
        assert report.steps == 10

    def test_empty_masks_raise(self):
        frames = self._scene()
        trainer = NeRFTrainer()
        masks = [np.zeros(f.rgb.shape[:2], dtype=bool) for f in frames]
        with pytest.raises(SemHoloError):
            trainer.train(tiny_field(), frames, steps=2, masks=masks,
                          replay_fraction=0.0)

    def test_replay_fills_empty_masks(self):
        frames = self._scene()
        trainer = NeRFTrainer()
        masks = [np.zeros(f.rgb.shape[:2], dtype=bool) for f in frames]
        report = trainer.train(tiny_field(), frames, steps=2,
                               masks=masks, replay_fraction=0.3)
        assert report.steps == 2

    def test_sandwich_trains_narrow_widths(self):
        frames = self._scene()
        fld = tiny_field(seed=3)
        trainer = NeRFTrainer(
            config=RenderConfig(near=0.5, far=3.5, num_samples=8),
            batch_rays=64,
        )
        trainer.train(fld, frames, steps=30,
                      sandwich_fractions=[0.5])
        # The half-width sub-network produces a usable render too.
        camera = frames[0].camera
        narrow = render_image(fld, camera, trainer.config,
                              width_fraction=0.5)
        assert np.isfinite(narrow).all()

    def test_changed_pixel_mask(self):
        frames = self._scene()
        same = changed_pixel_mask(frames[0], frames[0])
        assert not same.any()
        shifted = RGBDFrame(
            depth=frames[0].depth,
            rgb=np.clip(frames[0].rgb + 0.3, 0, 1),
            camera=frames[0].camera,
        )
        diff = changed_pixel_mask(frames[0], shifted)
        assert diff.mean() > 0.5

    def test_psnr_evaluation(self):
        frames = self._scene()
        fld = tiny_field(seed=4)
        trainer = NeRFTrainer(
            config=RenderConfig(near=0.5, far=3.5, num_samples=8),
            batch_rays=64,
        )
        before = trainer.evaluate_psnr(fld, frames[0])
        trainer.train(fld, frames, steps=80)
        after = trainer.evaluate_psnr(fld, frames[0])
        assert after > before


class TestSlimmablePolicy:
    def test_tier_selection_monotone(self):
        policy = SlimmablePolicy()
        low = policy.select(1.0)
        high = policy.select(100.0)
        assert low.bitrate_mbps <= high.bitrate_mbps
        assert high.width_fraction >= low.width_fraction

    def test_fallback_to_lowest(self):
        policy = SlimmablePolicy()
        assert policy.select(0.0).name == policy.tiers[0].name

    def test_quality_ladder_conversion(self):
        ladder = SlimmablePolicy().as_quality_ladder()
        assert len(ladder) == 3
        assert ladder[0].bitrate_mbps < ladder[-1].bitrate_mbps
