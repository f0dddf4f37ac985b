"""Octree extraction through the reconstruction pool."""

import numpy as np
import pytest

from repro.avatar.reconstructor import KeypointMeshReconstructor
from repro.body.motion import talking
from repro.gaze.lod import GazeDepthBudget
from repro.obs.tracer import KIND_EXTRACT, Tracer
from repro.serve.pool import ReconstructionPool


@pytest.fixture(scope="module")
def poses():
    return [frame.pose for frame in talking(n_frames=3, seed=0).frames]


def _budget():
    return GazeDepthBudget(
        eye=np.array([0.0, 1.5, 3.0]),
        direction=np.array([0.0, 0.0, -1.0]),
        cone_degrees=10.0,
        peripheral_drop=2,
    )


class TestPooledOctree:
    def test_pooled_matches_sequential(self, poses):
        """Octree config and per-job gaze wire survive the process
        boundary: the pooled stream reproduces the in-process octree
        reconstructor bit for bit, warm start included."""
        budget = _budget()
        sequential = KeypointMeshReconstructor(
            resolution=48, octree_base=32
        )
        sequential.set_depth_budget(budget)
        expected = [
            sequential.reconstruct(pose=pose) for pose in poses
        ]
        with ReconstructionPool(workers=1) as pool:
            for pose, ref in zip(poses, expected):
                got = pool.reconstruct(
                    "s",
                    0,
                    pose=pose,
                    resolution=48,
                    octree_base=32,
                    gaze=budget.to_wire(),
                )
                assert np.array_equal(
                    got.mesh.vertices, ref.mesh.vertices
                )
                assert np.array_equal(got.mesh.faces, ref.mesh.faces)
                assert got.field_evaluations == ref.field_evaluations

    def test_extract_spans_forwarded_with_kind(self, poses):
        with ReconstructionPool(workers=1) as pool:
            result = pool.reconstruct(
                "s", 0, pose=poses[0], resolution=48,
                octree_base=32,
            )
        extract = [
            s for s in result.spans if s.get("kind") == KIND_EXTRACT
        ]
        assert extract
        for record in extract:
            assert record["name"] == "extract.level"
            assert record["worker"] == 0
            assert "depth" in record and "evaluations" in record
        tracer = Tracer()
        with tracer.frame(0):
            attached = tracer.attach_worker_spans(result.spans)
        kinds = {span.kind for span in attached}
        assert KIND_EXTRACT in kinds

    def test_gaze_rides_outside_the_config(self, poses):
        """Two streams with different gazes share a config, so they
        coalesce; the budget still applies per job."""
        a = _budget()
        b = GazeDepthBudget(
            eye=np.array([2.0, 1.5, 0.0]),
            direction=np.array([-1.0, 0.0, 0.0]),
            cone_degrees=10.0,
            peripheral_drop=2,
        )
        refs = {}
        for name, budget in (("a", a), ("b", b)):
            rec = KeypointMeshReconstructor(
                resolution=48, octree_base=32
            )
            rec.set_depth_budget(budget)
            refs[name] = rec.reconstruct(pose=poses[0])
        with ReconstructionPool(
            workers=1, coalesce=True, coalesce_window=0.25
        ) as pool:
            pool.stall_worker(0, 0.3)
            ja = pool.submit(
                "stream-a", 0, pose=poses[0], resolution=48,
                octree_base=32, gaze=a.to_wire(),
            )
            jb = pool.submit(
                "stream-b", 0, pose=poses[0], resolution=48,
                octree_base=32, gaze=b.to_wire(),
            )
            ra = pool.result(ja)
            rb = pool.result(jb)
        assert np.array_equal(
            ra.mesh.vertices, refs["a"].mesh.vertices
        )
        assert np.array_equal(
            rb.mesh.vertices, refs["b"].mesh.vertices
        )
        # Different gazes produce different peripheral meshes.
        assert not np.array_equal(ra.mesh.vertices, rb.mesh.vertices)
