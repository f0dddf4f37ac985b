"""Pose-conditioned implicit body field.

X-Avatar learns an implicit occupancy network conditioned on SMPL-X
parameters and extracts a mesh from it on a voxel grid.  Our substitute
is an *analytic* implicit field with the same conditioning and the same
information bottleneck: it sees only the transmitted parameters (pose,
shape, optionally a truncated expression), poses the skeleton, and
builds a smooth-union capsule SDF around the posed bones.  Everything
the parameters cannot carry — clothing folds, full expression detail —
is absent from the field, exactly as in the paper's Figures 2 and 3.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.body.expression import ExpressionParams, expression_displacement
from repro.body.pose import BodyPose
from repro.body.shape import ShapeParams, shape_displacement
from repro.body.skeleton import (
    JOINT_INDEX,
    Skeleton,
    bone_segments,
    rest_joint_positions,
)
from repro.body.template import body_sdf_from_segments
from repro.errors import GeometryError
from repro.geometry.transforms import apply_rigid, invert_rigid

__all__ = ["PosedBodyField"]

_HEAD_CENTER_REST = np.array([0.0, 1.60, 0.015])


class PosedBodyField:
    """An SDF of the body in a given pose/shape/expression.

    Args:
        pose: transmitted pose parameters.
        shape: transmitted shape parameters.
        expression: expression available to the reconstructor — pass
            ``None`` (the default X-Avatar-like behaviour) to model a
            reconstructor whose geometry cannot represent expression
            detail beyond what the jaw joint carries.
        blend: smooth-union radius between bone capsules.
    """

    def __init__(
        self,
        pose: Optional[BodyPose] = None,
        shape: Optional[ShapeParams] = None,
        expression: Optional[ExpressionParams] = None,
        blend: float = 0.035,
    ) -> None:
        self.pose = pose or BodyPose.identity()
        self.shape = shape or ShapeParams.neutral()
        self.expression = expression
        self.blend = blend

        rest = rest_joint_positions()
        if np.any(self.shape.betas):
            rest = rest + shape_displacement(rest, self.shape.betas)
        skeleton = Skeleton(rest_positions=rest)
        joints, transforms = skeleton.forward(
            self.pose.joint_rotations, self.pose.translation
        )
        self.joints = joints
        self.transforms = transforms  # (55, 4, 4) joint world transforms

        # Pose each bone segment: heads/tails ride their driving joint.
        rest_segments = bone_segments(rest)
        posed_segments = []
        for name, head, tail, r_head, r_tail in rest_segments:
            joint = JOINT_INDEX[name]
            transform = transforms[joint]
            rest_anchor = rest[joint]
            posed_head = (
                transform[:3, :3] @ (head - rest_anchor) + transform[:3, 3]
            )
            posed_tail = (
                transform[:3, :3] @ (tail - rest_anchor) + transform[:3, 3]
            )
            posed_segments.append(
                (name, posed_head, posed_tail, r_head, r_tail)
            )
        self.segments = posed_segments  # posed bone capsules

        head_joint = JOINT_INDEX["head"]
        head_transform = transforms[head_joint]
        self._head_transform_inverse = invert_rigid(head_transform)
        rest_head_anchor = rest[head_joint]
        self._head_center = (
            head_transform[:3, :3] @ (_HEAD_CENTER_REST - rest_head_anchor)
            + head_transform[:3, 3]
        )
        self._base_sdf = body_sdf_from_segments(
            self.segments,
            head_center=self._head_center,
            blend=blend,
        )
        self._has_expression = (
            self.expression is not None
            and bool(np.any(self.expression.coefficients))
        )

    def bounds(self, margin: float = 0.15) -> tuple:
        """A bounding box around the posed body (for surface extraction)."""
        anchors = [self.joints]
        for _, head, tail, _, _ in self.segments:
            anchors.append(head[None])
            anchors.append(tail[None])
        stacked = np.vstack(anchors)
        return stacked.min(axis=0) - margin, stacked.max(axis=0) + margin

    def _warp(self, points: np.ndarray) -> np.ndarray:
        """Inverse-warp queries by the expression displacement evaluated
        in the head's rest frame, so expression geometry survives the
        implicit representation.  First-order warp: d(x - D(x)) ~ d(x).
        Identity (the same array) when no expression is active."""
        if not self._has_expression:
            return points
        rest_anchor = rest_joint_positions()[JOINT_INDEX["head"]]
        local = apply_rigid(self._head_transform_inverse, points) + rest_anchor
        displacement = expression_displacement(
            local, self.expression.coefficients
        )
        head_rotation = self._head_transform_inverse[:3, :3].T
        return points - displacement @ head_rotation.T

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Signed distance at world ``points`` (N, 3)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != 3:
            raise GeometryError("query points must be (N, 3)")
        return self._base_sdf(self._warp(points))

    def kernel_problem(self, points: np.ndarray):
        """This field's query as a batchable ``(fused_sdf, points)``
        problem for :func:`repro.geometry.sdf.evaluate_batch` — the
        expression warp is applied here so the packed problem is
        exactly the arithmetic :meth:`__call__` would run."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != 3:
            raise GeometryError("query points must be (N, 3)")
        return self._base_sdf, self._warp(points)
