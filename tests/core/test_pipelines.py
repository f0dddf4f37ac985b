"""Tests for the four pipelines' encode/decode halves."""

import numpy as np
import pytest

from repro.body.pose import BodyPose
from repro.core.foveated import FoveatedHybridPipeline, merge_meshes
from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.text_pipeline import TextSemanticPipeline
from repro.core.traditional import (
    TraditionalMeshPipeline,
    TraditionalPointCloudPipeline,
)
from repro.errors import PipelineError
from repro.geometry.distance import chamfer_distance
from repro.geometry.mesh import TriangleMesh


class TestTraditionalMesh:
    def test_raw_roundtrip_exact(self, talking_ds):
        pipe = TraditionalMeshPipeline(compressed=False)
        frame = talking_ds.frame(0)
        encoded = pipe.encode(frame)
        decoded = pipe.decode(encoded)
        assert np.allclose(
            decoded.surface.vertices,
            frame.body_state.mesh.vertices,
            atol=1e-4,
        )

    def test_compressed_much_smaller(self, talking_ds):
        frame = talking_ds.frame(0)
        raw = TraditionalMeshPipeline(compressed=False).encode(frame)
        packed = TraditionalMeshPipeline(compressed=True).encode(frame)
        assert packed.payload_bytes < raw.payload_bytes / 4

    def test_timing_reported(self, talking_ds):
        pipe = TraditionalMeshPipeline()
        encoded = pipe.encode(talking_ds.frame(0))
        assert "compress" in encoded.timing.stages
        decoded = pipe.decode(encoded)
        assert "decompress" in decoded.timing.stages

    def test_untextured_by_default(self, talking_ds):
        pipe = TraditionalMeshPipeline(compressed=False)
        decoded = pipe.decode(pipe.encode(talking_ds.frame(0)))
        assert decoded.surface.vertex_colors is None


class TestTraditionalPointCloud:
    def test_roundtrip(self, talking_ds):
        pipe = TraditionalPointCloudPipeline(depth=8)
        frame = talking_ds.frame(0)
        decoded = pipe.decode(pipe.encode(frame))
        assert len(decoded.surface) > 1000

    def test_fusion_stage_timed(self, talking_ds):
        pipe = TraditionalPointCloudPipeline(depth=8)
        encoded = pipe.encode(talking_ds.frame(0))
        assert "fusion" in encoded.timing.stages
        assert "compress" in encoded.timing.stages


class TestKeypointPipeline:
    @pytest.fixture(scope="class")
    def pipe(self):
        return KeypointSemanticPipeline(resolution=48, seed=0)

    def test_payload_tiny(self, talking_ds, pipe):
        pipe.reset()
        encoded = pipe.encode(talking_ds.frame(0))
        assert encoded.payload_bytes < 2500

    def test_decode_produces_body_mesh(self, talking_ds, pipe):
        pipe.reset()
        frame = talking_ds.frame(0)
        decoded = pipe.decode(pipe.encode(frame))
        mesh = decoded.surface
        assert isinstance(mesh, TriangleMesh)
        lo, hi = mesh.bounds()
        assert 1.4 < hi[1] - lo[1] < 2.1

    def test_reconstruction_tracks_pose(self, talking_ds, pipe):
        pipe.reset()
        # Warm the temporal filters up (first-frame fits are noisier).
        for i in range(3):
            pipe.encode(talking_ds.frame(i))
        frame = talking_ds.frame(5)
        decoded = pipe.decode(pipe.encode(frame))
        d = chamfer_distance(
            decoded.surface, frame.body_state.mesh, samples=3000
        )
        assert d < 0.12

    def test_uncompressed_variant_bigger(self, talking_ds):
        compressed = KeypointSemanticPipeline(resolution=48,
                                              compressed=True)
        raw = KeypointSemanticPipeline(resolution=48,
                                       compressed=False)
        compressed.reset()
        raw.reset()
        frame = talking_ds.frame(0)
        assert raw.encode(frame).payload_bytes > \
            compressed.encode(frame).payload_bytes

    def test_temporal_variant_faster_on_average(self, talking_ds):
        pipe = KeypointSemanticPipeline(resolution=48, temporal=True)
        pipe.reset()
        times = []
        for i in range(4):
            decoded = pipe.decode(pipe.encode(talking_ds.frame(i)))
            times.append(decoded.timing.stages["mesh_reconstruction"])
        assert min(times[1:]) < times[0] / 2

    def test_stage_names(self, talking_ds, pipe):
        pipe.reset()
        encoded = pipe.encode(talking_ds.frame(0))
        assert "keypoint_detection" in encoded.timing.stages
        assert "pose_fitting" in encoded.timing.stages
        assert "compress" in encoded.timing.stages


class TestTextPipeline:
    @pytest.fixture(scope="class")
    def pipe(self, body_model):
        return TextSemanticPipeline(model=body_model, points=2000)

    def test_payload_is_json_text(self, talking_ds, pipe):
        pipe.reset()
        encoded = pipe.encode(talking_ds.frame(0))
        assert encoded.payload.startswith(b"{")
        assert encoded.payload_bytes < 3000

    def test_decode_point_cloud(self, talking_ds, pipe):
        pipe.reset()
        decoded = pipe.decode(pipe.encode(talking_ds.frame(0)))
        assert len(decoded.surface) == 2000

    def test_deltas_shrink_stream(self, talking_ds, body_model):
        with_deltas = TextSemanticPipeline(model=body_model,
                                           points=500)
        without = TextSemanticPipeline(model=body_model, points=500,
                                       use_deltas=False)
        with_deltas.reset()
        without.reset()
        sizes_d, sizes_f = [], []
        for i in range(4):
            frame = talking_ds.frame(i)
            sizes_d.append(with_deltas.encode(frame).payload_bytes)
            sizes_f.append(without.encode(frame).payload_bytes)
        assert np.mean(sizes_d[1:]) < np.mean(sizes_f[1:])

    def test_corrupt_payload_raises(self, talking_ds, pipe):
        pipe.reset()
        encoded = pipe.encode(talking_ds.frame(0))
        encoded.payload = b"\xff\xfe garbage"
        with pytest.raises(PipelineError):
            pipe.decode(encoded)


class TestFoveatedPipeline:
    @pytest.fixture(scope="class")
    def pipe(self):
        return FoveatedHybridPipeline(
            foveal_radius_degrees=12.0, peripheral_resolution=40
        )

    def test_payload_between_keypoint_and_traditional(
        self, talking_ds, pipe
    ):
        pipe.reset()
        frame = talking_ds.frame(0)
        hybrid = pipe.encode(frame).payload_bytes
        keypoint = KeypointSemanticPipeline(resolution=48)
        keypoint.reset()
        kp = keypoint.encode(frame).payload_bytes
        trad = TraditionalMeshPipeline(compressed=True).encode(
            frame
        ).payload_bytes
        assert kp < hybrid < trad

    def test_decode_merges_regions(self, talking_ds, pipe):
        pipe.reset()
        frame = talking_ds.frame(0)
        decoded = pipe.decode(pipe.encode(frame))
        assert decoded.surface.num_faces > 1000
        assert "peripheral_reconstruction" in decoded.timing.stages
        assert "composition" in decoded.timing.stages

    def test_foveal_fraction_in_metadata(self, talking_ds, pipe):
        pipe.reset()
        encoded = pipe.encode(talking_ds.frame(0))
        assert 0 <= encoded.metadata["foveal_fraction"] <= 1

    def test_wider_fovea_bigger_payload(self, talking_ds):
        narrow = FoveatedHybridPipeline(foveal_radius_degrees=5.0,
                                        peripheral_resolution=40)
        wide = FoveatedHybridPipeline(foveal_radius_degrees=30.0,
                                      peripheral_resolution=40)
        narrow.reset()
        wide.reset()
        frame = talking_ds.frame(0)
        assert wide.encode(frame).payload_bytes > narrow.encode(
            frame
        ).payload_bytes

    def test_merge_meshes(self):
        a = TriangleMesh(
            vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            faces=[[0, 1, 2]],
        )
        b = TriangleMesh(
            vertices=[[2, 0, 0], [3, 0, 0], [2, 1, 0]],
            faces=[[0, 1, 2]],
        )
        merged = merge_meshes(a, b)
        assert merged.num_vertices == 6
        assert merged.num_faces == 2
        assert merged.faces.max() == 5

    def test_payload_validation(self, talking_ds, pipe):
        from repro.core.pipeline import EncodedFrame

        # Zero-byte payloads are legal (an unchanged delta encodes to
        # nothing); only non-bytes payloads are refused.
        pipe.validate_payload(EncodedFrame(frame_index=0, payload=b""))
        with pytest.raises(PipelineError):
            pipe.validate_payload(
                EncodedFrame(frame_index=0, payload="not bytes")
            )

    def test_octree_periphery_saves_evaluations(self, talking_ds):
        """With a peripheral depth drop, the same gaze cone that selects
        the foveal submesh caps octree depth outside it.  Both sides
        refine from the budgeted pipeline's root of 32, so the saving
        is the depth cap's alone."""
        dense = FoveatedHybridPipeline(
            foveal_radius_degrees=12.0, peripheral_resolution=64,
            octree_base=32,
        )
        assert dense.reconstructor.depth_budget is None
        octree = FoveatedHybridPipeline(
            foveal_radius_degrees=12.0,
            peripheral_resolution=64,
            peripheral_depth_drop=2,
        )
        assert octree.name.endswith("-octree")
        assert octree.reconstructor.depth_budget is not None
        dense.reset()
        octree.reset()
        frame = talking_ds.frame(0)
        decoded = octree.decode(octree.encode(frame))
        assert decoded.surface.num_faces > 1000
        d_evals = dense.reconstructor.reconstruct(
            pose=BodyPose.identity()
        ).field_evaluations
        o_evals = octree.reconstructor.reconstruct(
            pose=BodyPose.identity()
        ).field_evaluations
        assert o_evals < d_evals

    def test_set_gaze_refreshes_budget(self):
        pipe = FoveatedHybridPipeline(
            foveal_radius_degrees=12.0,
            peripheral_resolution=48,
            peripheral_depth_drop=1,
        )
        before = pipe.reconstructor.depth_budget
        pipe.set_gaze(np.array([0.3, -0.1]))
        after = pipe.reconstructor.depth_budget
        assert after is not before
        assert not np.allclose(before.direction, after.direction)
