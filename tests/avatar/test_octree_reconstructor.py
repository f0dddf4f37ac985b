"""Octree extraction in the keypoint-mesh reconstructor: root grids,
warm start and the gaze LOD budget."""

import numpy as np
import pytest

from repro.avatar.reconstructor import KeypointMeshReconstructor
from repro.avatar.temporal import TemporalReconstructor
from repro.body.motion import talking
from repro.body.pose import BodyPose
from repro.errors import PipelineError
from repro.gaze.lod import GazeDepthBudget
from repro.obs.registry import MetricsRegistry, set_registry
from repro.obs.tracer import KIND_EXTRACT
from tests.geometry.frozen import assert_frozen


def _budget(drop=2):
    return GazeDepthBudget(
        eye=np.array([0.0, 1.5, 3.0]),
        direction=np.array([0.0, 0.0, -1.0]),
        cone_degrees=10.0,
        peripheral_drop=drop,
    )


class TestConfig:
    def test_octree_base_must_fit(self):
        with pytest.raises(PipelineError):
            KeypointMeshReconstructor(resolution=64, octree_base=128)

    def test_octree_base_minimum(self):
        with pytest.raises(PipelineError):
            KeypointMeshReconstructor(octree_base=1)


class TestOctreeMatchesDense:
    """The reconstructor reproduces the retired dense cascade's meshes
    (frozen digests), on the derived root and on an explicit one."""

    def test_cold_and_warm_frames_identical(self):
        frames = talking(n_frames=3)
        for octree_base in (None, 32):
            warm = KeypointMeshReconstructor(
                resolution=96, octree_base=octree_base
            )
            cold = KeypointMeshReconstructor(
                resolution=96, octree_base=octree_base, warm_start=False
            )
            for index, frame in enumerate(frames):
                rw = warm.reconstruct(pose=frame.pose)
                rc = cold.reconstruct(pose=frame.pose)
                assert_frozen(f"talking4-r96-f{index}-warm", rw.mesh)
                assert_frozen(
                    f"talking4-r96-f{index}-cold", rc.mesh,
                    rc.field_evaluations,
                )
                assert rw.warm_started == (index > 0)

    def test_warm_start_saves_evaluations(self):
        frames = talking(n_frames=3)
        rec = KeypointMeshReconstructor(resolution=96)
        evals = [
            rec.reconstruct(pose=f.pose).field_evaluations
            for f in frames
        ]
        assert sum(evals[1:]) < 2 * evals[0]
        assert rec.reconstruct(pose=frames[-1].pose).warm_started

    def test_reset_forces_cold_frame(self):
        frames = talking(n_frames=2)
        rec = KeypointMeshReconstructor(resolution=96)
        rec.reconstruct(pose=frames[0].pose)
        assert rec.reconstruct(pose=frames[1].pose).warm_started
        rec.reset()
        assert not rec.reconstruct(pose=frames[1].pose).warm_started


class TestGazeBudget:
    def test_budget_reduces_evaluations(self):
        pose = BodyPose.identity()
        full = KeypointMeshReconstructor(resolution=96).reconstruct(pose=pose)
        fov = KeypointMeshReconstructor(resolution=96)
        fov.set_depth_budget(_budget())
        result = fov.reconstruct(pose=pose)
        assert result.field_evaluations < full.field_evaluations
        assert result.cells_skipped_gaze > 0
        assert result.mesh.num_faces > 0

    def test_budget_is_not_config(self):
        """The budget must not participate in dataclass equality (pool
        configs and cache keys treat it separately)."""
        a = KeypointMeshReconstructor(resolution=64, octree_base=32)
        b = KeypointMeshReconstructor(resolution=64, octree_base=32)
        a.set_depth_budget(_budget())
        assert a == b

    def test_metrics_and_spans_recorded(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            rec = KeypointMeshReconstructor(
                resolution=64, octree_base=32
            )
            rec.set_depth_budget(_budget())
            result = rec.reconstruct(pose=BodyPose.identity())
        finally:
            set_registry(previous)
        assert registry.value("session.extract.cells_refined") > 0
        assert registry.value(
            "session.extract.cells_skipped_gaze"
        ) == result.cells_skipped_gaze > 0
        depth = registry.histogram("session.extract.depth").snapshot()
        assert depth["count"] > 0
        assert result.extract_spans
        for span in result.extract_spans:
            assert span["kind"] == KIND_EXTRACT
            assert span["name"] == "extract.level"
            assert span["end"] >= span["start"]
            assert span["evaluations"] >= 0


class TestTemporalPassthrough:
    def test_budget_reaches_base_reconstructor(self):
        temporal = TemporalReconstructor(
            base=KeypointMeshReconstructor(
                resolution=64, octree_base=32
            )
        )
        budget = _budget()
        temporal.set_depth_budget(budget)
        assert temporal.base.depth_budget is budget
        result = temporal.reconstruct(pose=BodyPose.identity())
        assert result.cells_skipped_gaze > 0
