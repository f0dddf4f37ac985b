"""Tests for the implicit field and mesh reconstructors."""

import numpy as np
import pytest

from repro.avatar.implicit import PosedBodyField
from repro.avatar.pose2mesh import ModelFreeReconstructor
from repro.avatar.reconstructor import (
    KeypointMeshReconstructor,
    ReconstructionResult,
)
from repro.avatar.temporal import TemporalReconstructor
from repro.body.expression import ExpressionParams
from repro.body import motion
from repro.body.keypoints_def import NUM_KEYPOINTS
from repro.body.motion import talking, waving
from repro.body.pose import BodyPose
from repro.body.shape import ShapeParams
from repro.errors import PipelineError
from repro.geometry.distance import chamfer_distance
from repro.keypoints.lifter import Keypoints3D
from tests.geometry.frozen import assert_frozen
from tests.reference_field import reference_field


class TestPosedBodyField:
    def test_rest_field_sign(self):
        fld = PosedBodyField()
        inside = fld(np.array([[0.0, 1.2, 0.0]]))  # torso centre
        outside = fld(np.array([[0.0, 1.2, 1.0]]))
        assert inside[0] < 0 < outside[0]

    def test_pose_moves_field(self):
        pose = BodyPose.identity().set_rotation("left_elbow",
                                                [0, 0, 1.4])
        rest = PosedBodyField()
        posed = PosedBodyField(pose=pose)
        forearm_point = np.array([[0.6, 1.4, 0.0]])
        # In rest pose the forearm occupies this point; after bending
        # the elbow it does not.
        assert rest(forearm_point)[0] < 0.02
        assert posed(forearm_point)[0] > 0.02

    def test_bounds_cover_joints(self):
        fld = PosedBodyField(pose=BodyPose.random(
            np.random.default_rng(0)))
        lo, hi = fld.bounds()
        assert np.all(fld.joints >= lo) and np.all(fld.joints <= hi)

    def test_shape_changes_field(self):
        fld_neutral = PosedBodyField()
        fld_tall = PosedBodyField(shape=ShapeParams(betas=[2.0]))
        crown = np.array([[0.0, 1.74, 0.015]])
        assert fld_tall(crown)[0] < fld_neutral(crown)[0]

    def test_expression_warp_local(self):
        expression = ExpressionParams.named(pout=1.0)
        plain = PosedBodyField()
        pouty = PosedBodyField(expression=expression)
        lips = np.array([[0.0, 1.555, 0.095]])
        hand = np.array([[0.7, 1.4, 0.0]])
        assert pouty(lips)[0] < plain(lips)[0]  # lips pushed out
        assert np.isclose(pouty(hand)[0], plain(hand)[0], atol=1e-9)


class TestKeypointMeshReconstructor:
    def test_produces_plausible_mesh(self):
        rec = KeypointMeshReconstructor(resolution=48)
        out = rec.reconstruct(BodyPose.identity())
        assert out.mesh.num_faces > 1000
        lo, hi = out.mesh.bounds()
        assert 1.5 < hi[1] - lo[1] < 2.0

    def test_higher_resolution_better_quality(self, body_model):
        pose = talking(n_frames=3)[2].pose
        truth = body_model.forward(pose).mesh
        coarse = KeypointMeshReconstructor(resolution=32).reconstruct(
            pose
        )
        fine = KeypointMeshReconstructor(resolution=96).reconstruct(
            pose
        )
        d_coarse = chamfer_distance(coarse.mesh, truth, samples=4000)
        d_fine = chamfer_distance(fine.mesh, truth, samples=4000)
        assert d_fine < d_coarse

    def test_fps_decreases_with_resolution(self):
        pose = BodyPose.identity()
        fast = KeypointMeshReconstructor(resolution=48).reconstruct(
            pose
        )
        slow = KeypointMeshReconstructor(resolution=128).reconstruct(
            pose
        )
        assert slow.seconds > fast.seconds
        assert slow.fps < fast.fps

    def test_expression_channels_zero_ignores_expression(self):
        expression = ExpressionParams.named(pout=1.0)
        rec = KeypointMeshReconstructor(resolution=48,
                                        expression_channels=0)
        with_expr = rec.reconstruct(expression=expression)
        without = rec.reconstruct()
        d = chamfer_distance(with_expr.mesh, without.mesh,
                             samples=3000)
        assert d < 0.02  # statistically identical

    def test_invalid_resolution(self):
        with pytest.raises(PipelineError):
            KeypointMeshReconstructor(resolution=2)


class TestTemporalReconstructor:
    def test_warps_are_fast(self):
        seq = talking(n_frames=6)
        rec = TemporalReconstructor(
            base=KeypointMeshReconstructor(resolution=64)
        )
        results = [rec.reconstruct(f.pose) for f in seq]
        assert rec.keyframes >= 1
        assert rec.warps >= 1
        key_time = results[0].seconds
        warp_times = [r.seconds for r in results[1:] if r.seconds <
                      key_time / 2]
        assert warp_times, "no fast warp frames observed"

    def test_large_pose_jump_forces_keyframe(self):
        rec = TemporalReconstructor(
            base=KeypointMeshReconstructor(resolution=48),
            pose_threshold=0.05,
        )
        rec.reconstruct(BodyPose.identity())
        big = BodyPose.random(np.random.default_rng(1))
        rec.reconstruct(big)
        assert rec.keyframes == 2

    def test_warp_quality_close_to_full(self, body_model):
        seq = waving(n_frames=4)
        rec = TemporalReconstructor(
            base=KeypointMeshReconstructor(resolution=64),
            pose_threshold=10.0,  # force warping
        )
        rec.reconstruct(seq[0].pose)
        warped = rec.reconstruct(seq[2].pose)
        full = KeypointMeshReconstructor(resolution=64).reconstruct(
            seq[2].pose
        )
        d = chamfer_distance(warped.mesh, full.mesh, samples=4000)
        assert d < 0.03

    def test_max_warp_frames(self):
        rec = TemporalReconstructor(
            base=KeypointMeshReconstructor(resolution=32),
            max_warp_frames=2,
            pose_threshold=10.0,
        )
        for _ in range(6):
            rec.reconstruct(BodyPose.identity())
        assert rec.keyframes == 2


class TestModelFree:
    def test_perfect_keypoints_reasonable_mesh(self, body_model):
        pose = waving(n_frames=4)[3].pose
        state = body_model.forward(pose)
        observed = Keypoints3D(
            positions=state.keypoints,
            confidence=np.ones(NUM_KEYPOINTS),
        )
        rec = ModelFreeReconstructor(template=body_model.template)
        out = rec.reconstruct(observed)
        d = chamfer_distance(out.mesh, state.mesh, samples=4000)
        assert d < 0.04

    def test_single_frame_jitter(self, body_model, rng):
        # The model-free path has no temporal model: independent noise
        # on static keypoints produces frame-to-frame vertex jitter.
        state = body_model.forward()
        rec = ModelFreeReconstructor(template=body_model.template)
        meshes = []
        for _ in range(2):
            noisy = Keypoints3D(
                positions=state.keypoints + rng.normal(
                    0, 0.01, state.keypoints.shape
                ),
                confidence=np.ones(NUM_KEYPOINTS),
            )
            meshes.append(rec.reconstruct(noisy).mesh)
        jitter = np.linalg.norm(
            meshes[0].vertices - meshes[1].vertices, axis=1
        ).mean()
        assert jitter > 0.003

    def test_dropped_keypoints_tolerated(self, body_model):
        state = body_model.forward()
        confidence = np.ones(NUM_KEYPOINTS)
        confidence[60:] = 0.0
        observed = Keypoints3D(
            positions=state.keypoints, confidence=confidence
        )
        rec = ModelFreeReconstructor(template=body_model.template)
        out = rec.reconstruct(observed)
        assert np.isfinite(out.mesh.vertices).all()

    def test_all_dropped_raises(self, body_model):
        observed = Keypoints3D(
            positions=np.zeros((NUM_KEYPOINTS, 3)),
            confidence=np.zeros(NUM_KEYPOINTS),
        )
        rec = ModelFreeReconstructor(template=body_model.template)
        with pytest.raises(PipelineError):
            rec.reconstruct(observed)


class TestWarmStart:
    def test_warm_meshes_identical_to_cold(self):
        frames = talking(n_frames=4)
        warm = KeypointMeshReconstructor(resolution=96, warm_start=True)
        cold = KeypointMeshReconstructor(resolution=96,
                                         warm_start=False)
        engaged = []
        for index, frame in enumerate(frames):
            rw = warm.reconstruct(pose=frame.pose)
            rc = cold.reconstruct(pose=frame.pose)
            assert np.array_equal(rw.mesh.vertices, rc.mesh.vertices)
            assert np.array_equal(rw.mesh.faces, rc.mesh.faces)
            assert_frozen(
                f"talking4-r96-f{index}-warm", rw.mesh,
                rw.field_evaluations,
            )
            assert_frozen(
                f"talking4-r96-f{index}-cold", rc.mesh,
                rc.field_evaluations,
            )
            assert 0 < rw.field_evaluations <= rc.field_evaluations
            assert not rc.warm_started
            engaged.append(rw.warm_started)
        assert not engaged[0]
        assert any(engaged[1:])

    @pytest.mark.parametrize(
        "resolution, octree_base, sequence",
        [
            (16, None, "talking"),
            (16, None, "walking"),
            (16, None, "waving"),
            (16, 8, "talking"),
            (16, 8, "walking"),
            (16, 8, "waving"),
            (24, 8, "walking"),
        ],
    )
    def test_warm_equals_cold_on_coarse_grids(
        self, resolution, octree_base, sequence
    ):
        """On coarse grids a limb thinner than a cell can pass between
        one frame's corners and cross a corner in the next; warm starts
        seeded from the straddling leaves alone lost that surface on
        these sequences (e.g. 24 faces on talking frames 18-29 at
        r16)."""
        frames = getattr(motion, sequence)(n_frames=30, seed=5)
        warm = KeypointMeshReconstructor(
            resolution=resolution, octree_base=octree_base
        )
        cold = KeypointMeshReconstructor(
            resolution=resolution, octree_base=octree_base,
            warm_start=False,
        )
        engaged = 0
        for frame in frames:
            rw = warm.reconstruct(pose=frame.pose)
            rc = cold.reconstruct(pose=frame.pose)
            assert np.array_equal(rw.mesh.vertices, rc.mesh.vertices)
            assert np.array_equal(rw.mesh.faces, rc.mesh.faces)
            engaged += rw.warm_started
        assert engaged == len(frames) - 1

    def test_warm_start_saves_evaluations(self):
        frames = talking(n_frames=3)
        warm = KeypointMeshReconstructor(resolution=96, warm_start=True)
        cold = KeypointMeshReconstructor(resolution=96,
                                         warm_start=False)
        warm_evals = [
            warm.reconstruct(pose=f.pose).field_evaluations
            for f in frames
        ]
        cold_evals = [
            cold.reconstruct(pose=f.pose).field_evaluations
            for f in frames
        ]
        assert warm_evals[0] == cold_evals[0]
        assert sum(warm_evals[1:]) < sum(cold_evals[1:])

    def test_reset_forces_cold_frame(self):
        frames = talking(n_frames=2)
        reconstructor = KeypointMeshReconstructor(
            resolution=96, warm_start=True
        )
        reconstructor.reconstruct(pose=frames[0].pose)
        assert reconstructor.reconstruct(
            pose=frames[1].pose
        ).warm_started
        reconstructor.reset()
        assert not reconstructor.reconstruct(
            pose=frames[1].pose
        ).warm_started

    def test_expression_change_forces_cold_frame(self):
        frames = talking(n_frames=2)
        reconstructor = KeypointMeshReconstructor(
            resolution=96, warm_start=True, expression_channels=4
        )
        neutral = ExpressionParams.neutral()
        first = reconstructor.reconstruct(pose=frames[0].pose,
                                          expression=neutral)
        assert_frozen("expr-r96-f0", first.mesh, first.field_evaluations)
        changed = ExpressionParams(
            coefficients=np.eye(1, neutral.coefficients.size,
                                0).ravel() * 0.4
        )
        result = reconstructor.reconstruct(pose=frames[1].pose,
                                           expression=changed)
        assert not result.warm_started
        assert_frozen(
            "expr-r96-f1-changed", result.mesh, result.field_evaluations
        )

    def test_fused_field_matches_reference_reconstruction(self):
        pose = talking(n_frames=3)[2].pose
        fused = KeypointMeshReconstructor(
            resolution=64, warm_start=False
        ).reconstruct(pose)
        assert_frozen(
            "talking3-f2-r64-cold", fused.mesh, fused.field_evaluations
        )
        reference_rec = KeypointMeshReconstructor(
            resolution=64, warm_start=False
        )
        reference_rec.field_hook = reference_field
        reference = reference_rec.reconstruct(pose)
        assert np.allclose(fused.mesh.vertices,
                           reference.mesh.vertices, atol=1e-9)
        assert np.array_equal(fused.mesh.faces, reference.mesh.faces)

    def test_inf_safe_fps(self):
        result = KeypointMeshReconstructor(resolution=48).reconstruct(
            BodyPose.identity()
        )
        assert_frozen(
            "identity-r48", result.mesh, result.field_evaluations
        )
        zero = ReconstructionResult(
            mesh=result.mesh, resolution=48, seconds=0.0
        )
        assert zero.fps == float("inf")
        assert result.fps > 0
