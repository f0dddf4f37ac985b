"""One octree refinement per broadcast frame, through the engine.

In process, the serving engine keeps the latest refinement made under
a gaze budget, keyed on the exact transmitted parameters.  A cache miss
of another tier of the same frame is polygonised from it without
evaluating the field; anything else — another frame, or a pose in the
same mesh-cache bucket that differs bitwise — refines from the field.
Every served mesh equals a fresh extraction of its own frame and tier.
"""

import numpy as np
import pytest

from repro.avatar.implicit import PosedBodyField
from repro.avatar.reconstructor import KeypointMeshReconstructor
from repro.body.motion import talking
from repro.body.pose import BodyPose
from repro.body.skeleton import JOINT_INDEX
from repro.compression.lzma_codec import SemanticKeypointPayload
from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.pipeline import EncodedFrame
from repro.serve import ServingConfig, ServingEngine, gaze_tiers

RESOLUTION = 32
ROOT = 8
TIERS = gaze_tiers(3)


def _viewers():
    """One receiver pipeline per gaze tier."""
    pipes = []
    for budget in TIERS:
        pipe = KeypointSemanticPipeline(
            resolution=RESOLUTION, octree_base=ROOT, seed=0
        )
        pipe.reconstructor.set_depth_budget(budget)
        pipes.append(pipe)
    return pipes


def _decode(engine, pipes, tier, index, pose):
    pipe = pipes[tier]
    payload = SemanticKeypointPayload(pose=pose, frame_index=index)
    encoded = EncodedFrame(
        frame_index=index, payload=pipe.codec.compress(payload)
    )
    return engine.decode(pipe, encoded, session=f"viewer{tier}")


def _cold(pose, tier):
    rec = KeypointMeshReconstructor(resolution=RESOLUTION, octree_base=ROOT)
    rec.set_depth_budget(TIERS[tier])
    return rec.reconstruct(pose=pose).mesh


def _same_mesh(a, b):
    return (
        a.vertices.tobytes() == b.vertices.tobytes()
        and a.faces.tobytes() == b.faces.tobytes()
    )


def _refinements(engine):
    return engine.metrics.value("serve.engine.refinements")


@pytest.fixture(params=["c", "numpy"])
def backend(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_DISABLE_C_KERNEL", "1")
    return request.param


class TestOneRefinementPerFrame:
    def test_tiers_share_one_refinement(self, backend):
        pose = talking(n_frames=1).frames[0].pose
        pipes = _viewers()
        with ServingEngine(ServingConfig(workers=0)) as engine:
            for tier in range(len(TIERS)):
                decoded = _decode(engine, pipes, tier, 0, pose)
                assert _same_mesh(decoded.surface, _cold(pose, tier))
                evaluations = decoded.metadata["field_evaluations"]
                assert (evaluations > 0) == (tier == 0)
            assert _refinements(engine) == 1

    def test_same_bucket_different_pose_refines(self):
        """Two poses in one mesh-cache bucket are different fields: the
        second must not be derived from the first's refinement."""
        pose_a = talking(n_frames=1).frames[0].pose
        pose_b = BodyPose(
            joint_rotations=pose_a.joint_rotations.copy(),
            translation=pose_a.translation.copy(),
        )
        pose_b.joint_rotations[JOINT_INDEX["jaw"], 0] += 1e-4
        pipes = _viewers()
        with ServingEngine(ServingConfig(workers=0)) as engine:
            reconstructor = pipes[1].reconstructor
            keys = [
                engine.cache.key(
                    pose=pose, shape=None, expression=None,
                    resolution=RESOLUTION,
                    expression_channels=reconstructor.expression_channels,
                    blend=reconstructor.blend, octree_base=ROOT,
                    gaze=TIERS[1].to_wire(),
                )
                for pose in (pose_a, pose_b)
            ]
            # The case under test: one bucket, one sampling box, and
            # yet different meshes.
            assert keys[0] == keys[1]
            box_a, box_b = (
                PosedBodyField(pose=pose).bounds()
                for pose in (pose_a, pose_b)
            )
            assert all(map(np.array_equal, box_a, box_b))
            assert not _same_mesh(_cold(pose_a, 1), _cold(pose_b, 1))

            _decode(engine, pipes, 0, 0, pose_a)
            decoded = _decode(engine, pipes, 1, 1, pose_b)
            assert decoded.metadata["field_evaluations"] > 0
            assert _same_mesh(decoded.surface, _cold(pose_b, 1))
            assert _refinements(engine) == 2
            # Tier 1's refinement of pose B is now the record, and it
            # covers tier 2.
            decoded = _decode(engine, pipes, 2, 1, pose_b)
            assert decoded.metadata["field_evaluations"] == 0
            assert _same_mesh(decoded.surface, _cold(pose_b, 2))
            assert _refinements(engine) == 2


class TestLifecycle:
    def test_one_record_dropped_on_close(self):
        pose = talking(n_frames=1).frames[0].pose
        pipes = _viewers()
        engine = ServingEngine(ServingConfig(workers=0))
        for tier in range(len(TIERS)):
            _decode(engine, pipes, tier, 0, pose)
        # One slot: tier 0's refinement, which served the others.
        assert engine._refinement is not None
        engine.close()
        assert engine._refinement is None

    def test_one_refinement_per_sender_frame(self, backend):
        """Over a multi-frame 3-tier broadcast every frame refines once,
        at tier 0, and every tier-1 and tier-2 result is derived from
        that refinement (no state carries between frames to stop
        it)."""
        frames = talking(n_frames=4).frames
        pipes = _viewers()
        results = {tier: [] for tier in range(len(TIERS))}
        for tier, pipe in enumerate(pipes):
            rec = pipe.reconstructor

            def spy(*args, _rec=rec, _out=results[tier], **kwargs):
                result = type(_rec).reconstruct(_rec, *args, **kwargs)
                _out.append(result)
                return result

            rec.reconstruct = spy
        with ServingEngine(ServingConfig(workers=0)) as engine:
            for index, frame in enumerate(frames):
                for tier in range(len(TIERS)):
                    decoded = _decode(engine, pipes, tier, index,
                                      frame.pose)
                    assert _same_mesh(
                        decoded.surface, _cold(frame.pose, tier)
                    )
            assert _refinements(engine) == len(frames)
        assert all(len(r) == len(frames) for r in results.values())
        assert not any(result.derived for result in results[0])
        for tier in (1, 2):
            for result in results[tier]:
                assert result.derived
                assert result.field_evaluations == 0
