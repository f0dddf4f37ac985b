"""Tests for the payload / mesh / point-cloud / texture codecs."""

import lzma

import numpy as np
import pytest

from repro.body.expression import ExpressionParams
from repro.body.motion import talking
from repro.body.pose import BodyPose
from repro.body.shape import ShapeParams
from repro.compression.lzma_codec import (
    KeypointPayloadCodec,
    SemanticKeypointPayload,
)
from repro.compression.mesh_codec import (
    MeshCodec,
    deserialize_mesh_raw,
    serialize_mesh_raw,
)
from repro.compression.pointcloud_codec import PointCloudCodec
from repro.compression.texture_codec import TextureCodec
from repro.errors import CodecError
from repro.geometry.distance import mesh_to_mesh_distance
from repro.geometry.pointcloud import PointCloud


class TestKeypointPayload:
    def _payload(self, rng):
        return SemanticKeypointPayload(
            pose=BodyPose(
                joint_rotations=rng.normal(0, 0.4, size=(55, 3)),
                translation=rng.normal(size=3),
            ),
            shape=ShapeParams(betas=rng.normal(0, 0.3, size=20)),
            expression=ExpressionParams(
                coefficients=rng.normal(0, 0.2, size=20)
            ),
            confidences=rng.random(55).astype(np.float32),
            frame_index=42,
        )

    def test_raw_roundtrip(self, rng):
        codec = KeypointPayloadCodec()
        payload = self._payload(rng)
        decoded = codec.decode(codec.encode(payload))
        assert decoded.frame_index == 42
        assert np.allclose(decoded.pose.joint_rotations,
                           payload.pose.joint_rotations)
        assert np.allclose(decoded.shape.betas, payload.shape.betas)
        assert np.allclose(decoded.expression.coefficients,
                           payload.expression.coefficients)
        assert np.allclose(decoded.confidences, payload.confidences)

    def test_raw_size_matches_paper(self):
        # The paper reports 1.91 KB/frame (0.46 Mbps at 30 FPS).
        size = KeypointPayloadCodec().raw_size()
        assert 1700 <= size <= 2100
        mbps = size * 30 * 8 / 1e6
        assert 0.40 <= mbps <= 0.50

    def test_lzma_roundtrip(self, rng):
        codec = KeypointPayloadCodec()
        payload = self._payload(rng)
        decoded = codec.decompress(codec.compress(payload))
        assert np.allclose(decoded.pose.joint_rotations,
                           payload.pose.joint_rotations)

    def test_lzma_shrinks_structured_pose(self, rng):
        # Real fitted poses have structure (inherited hand rotations,
        # zero expression channels); LZMA exploits it, as in Table 2.
        codec = KeypointPayloadCodec()
        rotations = np.zeros((55, 3))
        rotations[:22] = rng.normal(0, 0.4, size=(22, 3))
        payload = SemanticKeypointPayload(
            pose=BodyPose(joint_rotations=rotations),
            confidences=np.ones(55, dtype=np.float32),
        )
        blob = codec.compress(payload)
        assert len(blob) < codec.raw_size() * 0.8

    def test_small_dictionary_keeps_preset_length(self, rng):
        # compress sizes the LZMA2 dictionary to the payload; every
        # match stays in the window, so each stream is exactly as long
        # as the library's preset-6 default and decodes the same.
        codec = KeypointPayloadCodec()
        for index, frame in enumerate(talking(n_frames=24)):
            payload = SemanticKeypointPayload(
                pose=frame.pose,
                expression=frame.expression,
                confidences=rng.uniform(0.5, 1.0, 55).astype(np.float32),
                frame_index=index,
            )
            raw = codec.encode(payload)
            blob = codec.compress(payload)
            assert len(blob) == len(lzma.compress(raw, preset=6))
            assert lzma.decompress(blob) == raw

    def test_corrupt_blob_raises(self):
        with pytest.raises(CodecError):
            KeypointPayloadCodec().decompress(b"not lzma at all")

    def test_wrong_magic_raises(self):
        with pytest.raises(CodecError):
            KeypointPayloadCodec().decode(b"XXXX" + b"\x00" * 100)

    def test_truncated_raises(self, rng):
        codec = KeypointPayloadCodec()
        raw = codec.encode(self._payload(rng))
        with pytest.raises(CodecError):
            codec.decode(raw[:100])


class TestMeshCodec:
    def test_raw_roundtrip(self, body_model):
        mesh = body_model.forward().mesh
        restored = deserialize_mesh_raw(serialize_mesh_raw(mesh))
        assert restored.num_vertices == mesh.num_vertices
        assert np.allclose(restored.vertices, mesh.vertices,
                           atol=1e-4)
        assert np.array_equal(restored.faces, mesh.faces)

    def test_raw_with_colors(self, body_model):
        from repro.capture.dataset import dress

        mesh = dress(body_model.forward())
        restored = deserialize_mesh_raw(serialize_mesh_raw(mesh))
        assert restored.vertex_colors is not None
        assert np.abs(
            restored.vertex_colors - mesh.vertex_colors
        ).max() < 1.0 / 255 + 1e-9

    def test_compressed_geometry_within_quantisation(self, body_model):
        mesh = body_model.forward().mesh
        codec = MeshCodec()
        decoded = codec.decode(codec.encode(mesh))
        assert decoded.num_vertices == mesh.num_vertices
        assert decoded.num_faces == mesh.num_faces
        d = mesh_to_mesh_distance(decoded, mesh, samples=3000)
        assert d < 3 * codec.max_position_error(mesh)

    def test_compression_ratio(self, body_model):
        mesh = body_model.forward().mesh
        raw = serialize_mesh_raw(mesh)
        compressed = MeshCodec().encode(mesh)
        assert len(raw) / len(compressed) > 4.0

    def test_more_bits_bigger_payload(self, body_model):
        mesh = body_model.forward().mesh
        small = MeshCodec(position_bits=8).encode(mesh)
        large = MeshCodec(position_bits=14).encode(mesh)
        assert len(large) > len(small)

    def test_range_backend_roundtrip(self, body_model):
        mesh = body_model.forward().mesh
        sub = mesh.copy()
        # Use a submesh to keep the pure-python coder fast.
        sub.faces = sub.faces[:500]
        sub = sub.remove_unreferenced_vertices()
        codec = MeshCodec(entropy="range")
        decoded = codec.decode(codec.encode(sub))
        assert decoded.num_faces == 500

    def test_colors_roundtrip(self, body_model):
        from repro.capture.dataset import dress

        mesh = dress(body_model.forward())
        codec = MeshCodec()
        decoded = codec.decode(codec.encode(mesh))
        assert decoded.vertex_colors is not None
        assert np.all(decoded.vertex_colors >= 0)
        assert np.all(decoded.vertex_colors <= 1)

    def test_empty_mesh_raises(self):
        from repro.geometry.mesh import TriangleMesh

        with pytest.raises(CodecError):
            MeshCodec().encode(
                TriangleMesh(vertices=np.zeros((0, 3)),
                             faces=np.zeros((0, 3)))
            )

    def test_corrupt_blob_raises(self, body_model):
        mesh = body_model.forward().mesh
        blob = MeshCodec().encode(mesh)
        with pytest.raises(CodecError):
            MeshCodec().decode(b"XXXX" + blob[4:])

    def test_unknown_backend(self):
        with pytest.raises(CodecError):
            MeshCodec(entropy="zstd")


class TestPointCloudCodec:
    def _cloud(self, body_model, n=20000):
        mesh = body_model.forward().mesh
        return mesh.sample_points(n)

    def test_geometry_within_voxel(self, body_model):
        from scipy.spatial import cKDTree

        cloud = self._cloud(body_model)
        codec = PointCloudCodec(depth=8, with_colors=False)
        decoded = codec.decode(codec.encode(cloud))
        d, _ = cKDTree(cloud.points).query(decoded.points)
        assert d.max() < codec.voxel_size(cloud)

    def test_deeper_octree_more_points_more_bytes(self, body_model):
        cloud = self._cloud(body_model)
        shallow = PointCloudCodec(depth=6, with_colors=False)
        deep = PointCloudCodec(depth=9, with_colors=False)
        blob_s = shallow.encode(cloud)
        blob_d = deep.encode(cloud)
        assert len(blob_d) > len(blob_s)
        assert len(deep.decode(blob_d)) > len(
            shallow.decode(blob_s)
        )

    def test_colors_roundtrip(self, body_model):
        from repro.capture.dataset import dress

        mesh = dress(body_model.forward(), with_folds=False)
        cloud = mesh.sample_points(10000)
        codec = PointCloudCodec(depth=8)
        decoded = codec.decode(codec.encode(cloud))
        assert decoded.colors is not None
        assert np.all(decoded.colors >= 0)
        assert np.all(decoded.colors <= 1)

    def test_empty_raises(self):
        with pytest.raises(CodecError):
            PointCloudCodec().encode(
                PointCloud(points=np.zeros((0, 3)))
            )

    def test_invalid_depth(self):
        with pytest.raises(CodecError):
            PointCloudCodec(depth=0)

    def test_corrupt_raises(self, body_model):
        cloud = self._cloud(body_model, 1000)
        blob = PointCloudCodec(depth=6).encode(cloud)
        with pytest.raises(CodecError):
            PointCloudCodec().decode(b"YYYY" + blob[4:])


class TestTextureCodec:
    def _image(self, rng):
        # Smooth gradient + a block: compressible but non-trivial.
        x = np.linspace(0, 1, 64)
        image = np.zeros((48, 64, 3))
        image[..., 0] = x[None, :]
        image[..., 1] = 0.5
        image[10:20, 10:20] = [0.9, 0.1, 0.1]
        return np.clip(image + rng.normal(0, 0.01, image.shape), 0, 1)

    def test_roundtrip_high_quality(self, rng):
        image = self._image(rng)
        codec = TextureCodec(quality=95)
        decoded = codec.decode(codec.encode(image))
        assert decoded.shape == image.shape
        assert codec.psnr(image, decoded) > 35

    def test_quality_size_tradeoff(self, rng):
        image = self._image(rng)
        low = TextureCodec(quality=20)
        high = TextureCodec(quality=90)
        blob_low = low.encode(image)
        blob_high = high.encode(image)
        assert len(blob_low) < len(blob_high)
        assert low.psnr(image, low.decode(blob_low)) < high.psnr(
            image, high.decode(blob_high)
        )

    def test_grayscale(self, rng):
        image = rng.random((32, 32))
        codec = TextureCodec(quality=80)
        decoded = codec.decode(codec.encode(image))
        assert decoded.shape == (32, 32)

    def test_non_multiple_of_block(self, rng):
        image = rng.random((19, 21, 3))
        codec = TextureCodec(quality=80)
        decoded = codec.decode(codec.encode(image))
        assert decoded.shape == (19, 21, 3)

    def test_invalid_quality(self):
        with pytest.raises(CodecError):
            TextureCodec(quality=0)

    def test_corrupt_raises(self, rng):
        blob = TextureCodec().encode(self._image(rng))
        with pytest.raises(CodecError):
            TextureCodec().decode(blob[:20])

    def test_psnr_shape_mismatch(self, rng):
        with pytest.raises(CodecError):
            TextureCodec.psnr(np.zeros((4, 4)), np.zeros((5, 5)))
