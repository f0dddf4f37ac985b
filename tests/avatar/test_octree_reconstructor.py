"""Octree extraction in the keypoint-mesh reconstructor: root grids
and the gaze LOD budget."""

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
    (frozen digests), on the derived root and on an explicit one, with
    each root's frozen evaluation counts."""

    def test_frames_identical(self):
        for octree_base, name, n_frames in (
            (None, "talking4-r96-f{}-cold", 4),
            (32, "talking4-r96-base32-f{}-cold", 3),
        ):
            rec = KeypointMeshReconstructor(
                resolution=96, octree_base=octree_base
            )
            for index, frame in enumerate(talking(n_frames=n_frames)):
                result = rec.reconstruct(pose=frame.pose)
                assert_frozen(
                    name.format(index), result.mesh,
                    result.field_evaluations,
                )


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
            assert span["end"] >= span["start"]
        *levels, polygonise = result.extract_spans
        assert levels
        for span in levels:
            assert span["name"] == "extract.level"
            assert span["evaluations"] >= 0
            assert "depth" in span
        # Polygonisation closes the extraction with its own span and no
        # depth, so per-depth sums skip it; the budget mixed depths.
        assert polygonise["name"] == "extract.polygonise"
        assert "depth" not in polygonise
        assert polygonise["mixed"] is True
        assert polygonise["cells"] > 0


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
