"""The foveated hybrid pipeline (§3.1's proposed design).

Only content near the fovea needs full fidelity.  The sender ships the
compressed *foveal* submesh (exact geometry where the viewer looks,
chosen by gaze prediction) plus keypoints for the whole body; the
receiver reconstructs the periphery from keypoints at low resolution
and composes the two.  Bandwidth sits between pure-keypoint and
traditional, reconstruction cost drops with the peripheral resolution,
and foveal quality is exact — the trade-off triangle of §3.1.
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np

from repro.obs.clock import perf_counter
from repro.avatar.reconstructor import KeypointMeshReconstructor
from repro.capture.dataset import DatasetFrame
from repro.compression.lzma_codec import (
    KeypointPayloadCodec,
    SemanticKeypointPayload,
)
from repro.compression.mesh_codec import MeshCodec
from repro.core.pipeline import DecodedFrame, EncodedFrame, \
    HolographicPipeline
from repro.core.timing import LatencyBreakdown
from repro.errors import PipelineError
from repro.gaze.foveation import FoveationModel
from repro.geometry.camera import Camera, Intrinsics
from repro.geometry.mesh import TriangleMesh
from repro.body.skeleton import NUM_JOINTS
from repro.keypoints.detector3d import Keypoint3DDetector
from repro.keypoints.fitting import PoseFitter
from repro.keypoints.tracking import KeypointTracker, PoseSmoother

__all__ = ["FoveatedHybridPipeline", "merge_meshes"]

_MAGIC = b"SHFV"


def merge_meshes(a: TriangleMesh, b: TriangleMesh) -> TriangleMesh:
    """Concatenate two meshes (the naive seam the paper calls out).

    Seamless integration of the original and reconstructed parts is an
    open challenge (§3.1); this union leaves the seam visible, which
    the quality metrics then measure.
    """
    vertices = np.vstack([a.vertices, b.vertices])
    faces = np.vstack([a.faces, b.faces + a.num_vertices])
    colors = None
    if a.vertex_colors is not None and b.vertex_colors is not None:
        colors = np.vstack([a.vertex_colors, b.vertex_colors])
    return TriangleMesh(vertices=vertices, faces=faces,
                        vertex_colors=colors)


class FoveatedHybridPipeline(HolographicPipeline):
    """Foveal mesh + peripheral keypoints.

    Args:
        foveal_radius_degrees: size of the high-fidelity cone.
        peripheral_resolution: voxel resolution of the keypoint
            reconstruction outside the fovea (small = fast).
        viewer_camera: the remote viewer's head pose (updated per
            frame via :meth:`set_gaze`).
        seed: detection noise seed.
        peripheral_depth_drop: refinement levels dropped outside the
            gaze cone.  Above 0 the peripheral reconstruction gets a
            gaze depth budget — the same cone that selects the foveal
            submesh also caps the refinement depth outside it, so the
            periphery refines this many levels shallower than the cone
            interior.  0 installs no budget.
        octree_base: root-grid resolution of the peripheral
            extraction.  ``None`` derives it from the resolution, or,
            under a gaze budget, uses 32 (capped at the resolution) so
            there are levels to drop.
    """

    output_format = "mesh"

    def __init__(
        self,
        foveal_radius_degrees: float = 10.0,
        peripheral_resolution: int = 64,
        viewer_camera: Optional[Camera] = None,
        seed: int = 0,
        peripheral_depth_drop: int = 0,
        octree_base: Optional[int] = None,
    ) -> None:
        if peripheral_depth_drop < 0:
            raise PipelineError("peripheral_depth_drop must be >= 0")
        self.foveation = FoveationModel(
            foveal_radius_degrees=foveal_radius_degrees
        )
        self.mesh_codec = MeshCodec()
        self.keypoint_codec = KeypointPayloadCodec()
        self.detector = Keypoint3DDetector()
        self.tracker = KeypointTracker()
        self.pose_smoother = PoseSmoother()
        self.fitter = PoseFitter()
        self.peripheral_depth_drop = peripheral_depth_drop
        if peripheral_depth_drop and octree_base is None:
            octree_base = 32
        self.reconstructor = KeypointMeshReconstructor(
            resolution=peripheral_resolution,
            octree_base=(
                None
                if octree_base is None
                else min(octree_base, peripheral_resolution)
            ),
        )
        self.viewer_camera = viewer_camera or Camera.looking_at(
            Intrinsics.from_fov(320, 240, 90.0),
            eye=(0.0, 1.6, 2.5),
            target=(0.0, 1.2, 0.0),
        )
        self.gaze_angles = np.zeros(2)
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        octree_tag = "-octree" if peripheral_depth_drop else ""
        self.name = (
            f"foveated-{foveal_radius_degrees:g}deg-"
            f"p{peripheral_resolution}{octree_tag}"
        )
        if peripheral_depth_drop:
            self._update_depth_budget()

    def reset(self) -> None:
        self.tracker.reset()
        self.pose_smoother.reset()
        self._rng = np.random.default_rng(self._seed)

    def set_gaze(
        self, gaze_angles, camera: Optional[Camera] = None
    ) -> None:
        """Update the (predicted) viewer gaze used for partitioning."""
        self.gaze_angles = np.asarray(gaze_angles, dtype=np.float64)
        if camera is not None:
            self.viewer_camera = camera
        if self.peripheral_depth_drop:
            self._update_depth_budget()

    def _update_depth_budget(self) -> None:
        from repro.gaze.lod import GazeDepthBudget

        self.reconstructor.set_depth_budget(
            GazeDepthBudget.from_view(
                self.foveation,
                self.viewer_camera,
                self.gaze_angles,
                peripheral_drop=self.peripheral_depth_drop,
            )
        )

    def encode(self, frame: DatasetFrame) -> EncodedFrame:
        timing = LatencyBreakdown()
        # Keypoint branch (whole body).
        start = perf_counter()
        detected = self.detector.detect(
            frame.views, frame.body_state.keypoints, rng=self._rng
        )
        smoothed = self.tracker.update(detected)
        fit = self.fitter.fit(smoothed)
        stable_pose = self.pose_smoother.update(fit.pose)
        timing.add(
            "keypoint_branch",
            perf_counter() - start + self.detector.total_latency,
        )
        keypoint_blob = self.keypoint_codec.compress(
            SemanticKeypointPayload(
                pose=stable_pose,
                shape=fit.shape,
                expression=frame.body_state.expression,
                confidences=smoothed.confidence[:NUM_JOINTS].astype(
                    np.float32
                ),
                frame_index=frame.index,
            )
        )

        # Foveal branch: exact submesh where the viewer looks.
        start = perf_counter()
        partition = self.foveation.partition(
            frame.body_state.mesh, self.viewer_camera, self.gaze_angles
        )
        if partition.foveal.num_faces == 0:
            foveal_blob = b""
        else:
            foveal_blob = self.mesh_codec.encode(partition.foveal)
        timing.add("foveal_branch", perf_counter() - start)

        header = _MAGIC + struct.pack(
            "<III", frame.index, len(keypoint_blob), len(foveal_blob)
        )
        return EncodedFrame(
            frame_index=frame.index,
            payload=header + keypoint_blob + foveal_blob,
            timing=timing,
            metadata={
                "foveal_fraction": partition.foveal_vertex_fraction,
                "gaze_point": partition.gaze_point,
            },
        )

    def decode(self, encoded: EncodedFrame) -> DecodedFrame:
        timing = LatencyBreakdown()
        fixed = 4 + struct.calcsize("<III")
        if (
            len(encoded.payload) < fixed
            or encoded.payload[:4] != _MAGIC
        ):
            raise PipelineError("not a foveated payload")
        _, kp_len, fv_len = struct.unpack(
            "<III", encoded.payload[4:fixed]
        )
        keypoint_blob = encoded.payload[fixed: fixed + kp_len]
        foveal_blob = encoded.payload[
            fixed + kp_len: fixed + kp_len + fv_len
        ]

        start = perf_counter()
        payload = self.keypoint_codec.decompress(keypoint_blob)
        timing.add("decompress", perf_counter() - start)

        result = self.reconstructor.reconstruct(
            pose=payload.pose, shape=payload.shape
        )
        timing.add("peripheral_reconstruction", result.seconds)

        start = perf_counter()
        if foveal_blob:
            foveal = self.mesh_codec.decode(foveal_blob)
            # Carve the foveal cone out of the reconstruction and slot
            # the exact mesh in.
            partition = self.foveation.partition(
                result.mesh, self.viewer_camera, self.gaze_angles
            )
            mesh = merge_meshes(foveal, partition.peripheral)
        else:
            mesh = result.mesh
        timing.add("composition", perf_counter() - start)
        return DecodedFrame(
            frame_index=encoded.frame_index,
            surface=mesh,
            timing=timing,
            metadata=dict(encoded.metadata),
        )
