"""Temporal-aware reconstruction (§3.1's proposed framework).

Full implicit-field extraction per frame is what makes Figure 4's FPS
collapse.  The paper proposes exploiting inter-frame similarity; this
reconstructor does so with keyframing: a full extraction every so
often, and in between, the cached mesh is re-posed by blending the
rigid motion of the bones between the cached pose and the new one —
orders of magnitude cheaper than re-extraction, at a small quality
cost that grows with pose distance (hence the refresh threshold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.obs.clock import perf_counter
from repro.avatar.implicit import PosedBodyField
from repro.avatar.reconstructor import (
    KeypointMeshReconstructor,
    ReconstructionResult,
)
from repro.body.expression import ExpressionParams
from repro.body.pose import BodyPose
from repro.body.shape import ShapeParams
from repro.body.template import compute_skinning
from repro.errors import PipelineError
from repro.geometry.mesh import TriangleMesh
from repro.geometry.transforms import invert_rigid

__all__ = ["TemporalReconstructor"]


@dataclass
class TemporalReconstructor:
    """Keyframe + warp reconstruction.

    Attributes:
        base: the full (slow) reconstructor used at keyframes.
        pose_threshold: mean geodesic pose distance (radians) beyond
            which the cached keyframe is considered stale.
        max_warp_frames: force a keyframe after this many warps even if
            the pose stayed close (drift control).
    """

    base: KeypointMeshReconstructor = field(
        default_factory=KeypointMeshReconstructor
    )
    # The warp is true skinning-based re-posing, so it stays accurate
    # for substantial pose deltas; the threshold mainly bounds drift of
    # the blend weights computed at the keyframe.  0.35 rad mean over
    # the body joints also rides out fit jitter at short spine bones.
    pose_threshold: float = 0.35
    max_warp_frames: int = 15

    # The keyframe decision looks at the 25 body/face joints only:
    # per-frame finger-fit jitter would otherwise force a keyframe on
    # every frame, and fingers barely affect the warp quality anyway.
    _DECISION_JOINTS = np.arange(25)

    def __post_init__(self) -> None:
        if self.pose_threshold <= 0:
            raise PipelineError("pose_threshold must be positive")
        self._key_mesh: Optional[TriangleMesh] = None
        self._key_pose: Optional[BodyPose] = None
        self._key_shape: Optional[ShapeParams] = None
        self._key_transforms_inverse: Optional[np.ndarray] = None
        self._skin_indices: Optional[np.ndarray] = None
        self._skin_weights: Optional[np.ndarray] = None
        self._warps_since_key = 0
        self.keyframes = 0
        self.warps = 0

    def reset(self) -> None:
        """Drop the cached keyframe and the base's warm-start state."""
        self.__post_init__()
        self.base.reset()

    def set_depth_budget(self, budget) -> None:
        """Install a gaze depth budget on the base reconstructor.

        Keyframes run the base's full extraction, so the base picks
        the budget up there (and its leaf set seeds the next
        keyframe); warps re-pose the cached mesh and never query the
        field, so the budget has nothing to do between keyframes.
        """
        self.base.set_depth_budget(budget)

    def reconstruct(
        self,
        pose: Optional[BodyPose] = None,
        shape: Optional[ShapeParams] = None,
        expression: Optional[ExpressionParams] = None,
    ) -> ReconstructionResult:
        """Reconstruct one frame, warping the cached keyframe when close."""
        pose = pose or BodyPose.identity()
        needs_key = (
            self._key_mesh is None
            or self._warps_since_key >= self.max_warp_frames
            or pose.distance(
                self._key_pose, joints=self._DECISION_JOINTS
            ) > self.pose_threshold
            or float(
                np.linalg.norm(
                    pose.translation - self._key_pose.translation
                )
            ) > 0.10
        )
        if needs_key:
            return self._keyframe(pose, shape, expression)
        return self._warp(pose, shape)

    def _keyframe(
        self,
        pose: BodyPose,
        shape: Optional[ShapeParams],
        expression: Optional[ExpressionParams],
    ) -> ReconstructionResult:
        result = self.base.reconstruct(pose, shape, expression)
        fld = PosedBodyField(pose=pose, shape=shape)
        indices, weights = compute_skinning(
            result.mesh.vertices, fld.segments
        )
        self._key_mesh = result.mesh
        self._key_pose = pose.copy()
        self._key_shape = shape
        self._key_transforms_inverse = invert_rigid(fld.transforms)
        self._skin_indices = indices
        self._skin_weights = weights
        self._warps_since_key = 0
        self.keyframes += 1
        return result

    def _warp(
        self, pose: BodyPose, shape: Optional[ShapeParams]
    ) -> ReconstructionResult:
        start = perf_counter()
        fld = PosedBodyField(pose=pose, shape=shape)
        # Motion of each joint from the keyframe pose to the new pose.
        motion = np.einsum(
            "jab,jbc->jac", fld.transforms, self._key_transforms_inverse
        )
        vertices = self._key_mesh.vertices
        homogeneous = np.concatenate(
            [vertices, np.ones((len(vertices), 1))], axis=1
        )
        blended = np.einsum(
            "vk,vkij->vij",
            self._skin_weights,
            motion[self._skin_indices],
        )
        warped = np.einsum("vij,vj->vi", blended, homogeneous)[:, :3]
        mesh = TriangleMesh(
            vertices=warped, faces=self._key_mesh.faces.copy()
        )
        seconds = perf_counter() - start
        self._warps_since_key += 1
        self.warps += 1
        # Warps re-pose the cached keyframe mesh; the implicit field is
        # never queried.
        return ReconstructionResult(
            mesh=mesh,
            resolution=self.base.resolution,
            seconds=seconds,
            field_evaluations=0,
            warm_started=False,
        )
