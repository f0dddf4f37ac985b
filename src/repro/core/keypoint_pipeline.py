"""The keypoint-semantics pipeline (the paper's proof of concept, §4).

Sender: detect 3D keypoints across the rig, track them, fit SMPL-X-
style parameters, LZMA-compress.  Receiver: decode parameters and
rebuild the mesh through the pose-conditioned implicit field at a
configurable voxel resolution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.obs.clock import perf_counter
from repro.avatar.reconstructor import KeypointMeshReconstructor
from repro.avatar.temporal import TemporalReconstructor
from repro.body.expression import ExpressionParams
from repro.body.pose import BodyPose
from repro.capture.dataset import DatasetFrame
from repro.compression.lzma_codec import (
    KeypointPayloadCodec,
    SemanticKeypointPayload,
)
from repro.core.pipeline import DecodedFrame, EncodedFrame, \
    HolographicPipeline
from repro.core.timing import LatencyBreakdown
from repro.body.skeleton import NUM_JOINTS
from repro.errors import PipelineError
from repro.keypoints.detector3d import Keypoint3DDetector
from repro.keypoints.fitting import PoseFitter
from repro.keypoints.tracking import KeypointTracker, PoseSmoother

__all__ = ["KeypointSemanticPipeline"]

# Simulated per-frame latency of the face-capture network that recovers
# expression coefficients on the sender (runs alongside pose fitting).
_EXPRESSION_CAPTURE_LATENCY = 0.008


class KeypointSemanticPipeline(HolographicPipeline):
    """Keypoints over the wire, implicit reconstruction at the receiver.

    Args:
        resolution: receiver voxel resolution (128/256/512/1024 in §4).
        temporal: use the keyframe+warp reconstructor (§3.1's
            inter-frame proposal) instead of full per-frame extraction.
        compressed: LZMA the payload (Table 2's "w/ compression").
        transmit_expression: include expression coefficients in the
            payload (the reconstructor may still ignore them, see
            ``expression_channels``).
        expression_channels: how many expression channels the receiver
            geometry can realise (0 = X-Avatar behaviour, Figure 3).
        max_extrapolation_frames: how many consecutive lost frames the
            receiver conceals by extrapolating pose before it falls
            back to freezing the last mesh (the concealment floor).
        conceal_damping: per-frame damping of the extrapolated pose
            velocity in (0, 1]; lower values brake the motion sooner.
        octree_base: root-grid resolution of the receiver's surface
            extraction; ``None`` derives it from the resolution.  A
            gaze LOD budget installed on the reconstructor (the
            broadcast caching tier groups receivers by one) needs
            levels between the root and the resolution to drop.
        seed: detection noise seed.
    """

    output_format = "mesh"

    def __init__(
        self,
        resolution: int = 128,
        temporal: bool = False,
        compressed: bool = True,
        transmit_expression: bool = True,
        expression_channels: int = 0,
        max_extrapolation_frames: int = 12,
        conceal_damping: float = 0.85,
        octree_base: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if max_extrapolation_frames < 0:
            raise PipelineError(
                "max_extrapolation_frames must be >= 0"
            )
        if not 0 < conceal_damping <= 1:
            raise PipelineError("conceal_damping must be in (0, 1]")
        self.resolution = resolution
        self.compressed = compressed
        self.transmit_expression = transmit_expression
        self.max_extrapolation_frames = max_extrapolation_frames
        self.conceal_damping = conceal_damping
        self.detector = Keypoint3DDetector()
        self.tracker = KeypointTracker()
        self.pose_smoother = PoseSmoother()
        self.fitter = PoseFitter()
        self.codec = KeypointPayloadCodec()
        base = KeypointMeshReconstructor(
            resolution=resolution,
            expression_channels=expression_channels,
            octree_base=octree_base,
        )
        self.reconstructor = (
            TemporalReconstructor(base=base) if temporal else base
        )
        self._temporal = temporal
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        self._reset_concealment()
        self.name = (
            f"keypoint-r{resolution}"
            + (
                f"-octree{octree_base}"
                if octree_base is not None
                else ""
            )
            + ("-temporal" if temporal else "")
            + ("" if compressed else "-raw")
        )

    @property
    def serving_offloadable(self) -> bool:
        """Whether a :class:`repro.serve.engine.ServingEngine` may
        decode this pipeline's frames through its cache/pool: the
        plain per-frame path is a pure function of the transmitted
        parameters; the temporal (keyframe + warp) variant carries
        receiver state the pool does not model."""
        return not self._temporal

    def _reset_concealment(self) -> None:
        self._last_pose = None
        self._prev_pose = None
        self._last_shape = None
        self._last_expression = None
        self._last_surface = None
        self._conceal_streak = 0
        self._conceal_offset = None

    def reset(self) -> None:
        self.tracker.reset()
        self.pose_smoother.reset()
        # Both reconstructor flavours carry inter-frame state now: the
        # temporal wrapper its keyframe, the base its warm-start seed.
        self.reconstructor.reset()
        self._reset_concealment()
        self._rng = np.random.default_rng(self._seed)

    def encode(self, frame: DatasetFrame) -> EncodedFrame:
        timing = LatencyBreakdown()
        start = perf_counter()
        detected = self.detector.detect(
            frame.views, frame.body_state.keypoints, rng=self._rng
        )
        smoothed = self.tracker.update(detected)
        timing.add(
            "keypoint_detection",
            perf_counter() - start + self.detector.total_latency,
        )

        start = perf_counter()
        fit = self.fitter.fit(smoothed)
        stable_pose = self.pose_smoother.update(fit.pose)
        timing.add("pose_fitting", perf_counter() - start)
        timing.add("expression_capture", _EXPRESSION_CAPTURE_LATENCY)

        expression = (
            frame.body_state.expression
            if self.transmit_expression
            else None
        )
        payload_object = SemanticKeypointPayload(
            pose=stable_pose,
            shape=fit.shape,
            expression=expression or ExpressionParams.neutral(),
            confidences=smoothed.confidence[:NUM_JOINTS].astype(
                np.float32
            ),
            frame_index=frame.index,
        )
        start = perf_counter()
        if self.compressed:
            payload = self.codec.compress(payload_object)
        else:
            payload = self.codec.encode(payload_object)
        timing.add("compress", perf_counter() - start)
        return EncodedFrame(
            frame_index=frame.index,
            payload=payload,
            timing=timing,
            metadata={"fit_residual": fit.residual},
        )

    def decode(self, encoded: EncodedFrame) -> DecodedFrame:
        timing = LatencyBreakdown()
        start = perf_counter()
        if self.compressed:
            payload = self.codec.decompress(encoded.payload)
        else:
            payload = self.codec.decode(encoded.payload)
        timing.add("decompress", perf_counter() - start)

        result = self.reconstructor.reconstruct(
            pose=payload.pose,
            shape=payload.shape,
            expression=payload.expression,
        )
        timing.add("mesh_reconstruction", result.seconds)
        self._record_decode_state(payload, result.mesh)
        return DecodedFrame(
            frame_index=encoded.frame_index,
            surface=result.mesh,
            timing=timing,
            metadata={
                "resolution": self.resolution,
                "field_evaluations": result.field_evaluations,
                "warm_started": result.warm_started,
            },
        )

    def _record_decode_state(self, payload, mesh) -> None:
        """Update receiver-side concealment state after a decode.

        The last two decoded poses give a pose velocity, the last mesh
        is the freeze floor.  Split out of :meth:`decode` so the
        serving engine — which reconstructs in a worker process or
        serves from cache — keeps concealment working identically.
        """
        self._prev_pose = self._last_pose
        self._last_pose = payload.pose.copy()
        self._last_shape = payload.shape
        self._last_expression = payload.expression
        self._last_surface = mesh
        self._conceal_streak = 0
        self._conceal_offset = None

    def conceal(self, frame_index: int) -> Optional[DecodedFrame]:
        """Conceal a lost frame from receiver-side temporal state.

        Strategy ladder: extrapolate the decoded pose stream at damped
        constant velocity (so short bursts stay animated), then — once
        the gap exceeds ``max_extrapolation_frames`` or before two
        poses ever arrived — freeze the last reconstructed mesh.
        Returns None only when nothing was ever decoded.
        """
        if self._last_pose is None:
            return None
        start = perf_counter()
        self._conceal_streak += 1
        timing = LatencyBreakdown()
        extrapolate = (
            self._prev_pose is not None
            and self._conceal_streak <= self.max_extrapolation_frames
        )
        if extrapolate:
            delta = (
                self._last_pose.flatten() - self._prev_pose.flatten()
            )
            if self._conceal_offset is None:
                self._conceal_offset = np.zeros_like(delta)
            # Velocity decays geometrically so the avatar coasts to a
            # stop instead of flying off during a long outage.
            self._conceal_offset = self._conceal_offset + (
                self.conceal_damping ** self._conceal_streak
            ) * delta
            pose = BodyPose.from_flat(
                self._last_pose.flatten() + self._conceal_offset
            )
            result = self.reconstructor.reconstruct(
                pose=pose,
                shape=self._last_shape,
                expression=self._last_expression,
            )
            mesh = result.mesh
            self._last_surface = mesh
            method = "extrapolate"
            timing.add("mesh_reconstruction", result.seconds)
            overhead = perf_counter() - start - result.seconds
        else:
            if self._last_surface is None:
                return None
            mesh = self._last_surface.copy()
            method = "freeze"
            overhead = perf_counter() - start
        timing.add("concealment", max(overhead, 0.0))
        return DecodedFrame(
            frame_index=frame_index,
            surface=mesh,
            timing=timing,
            metadata={
                "concealed": True,
                "conceal_method": method,
                "conceal_streak": self._conceal_streak,
                "resolution": self.resolution,
            },
        )
