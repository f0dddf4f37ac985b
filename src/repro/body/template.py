"""Procedural template mesh and skinning weights.

SMPL-X ships a learned template with 10,475 vertices and 20,908 faces;
we generate ours procedurally — a smooth union of rounded-cone capsules
around the rest skeleton plus an ellipsoidal head — then decimate to the
same vertex budget so transmitted mesh sizes match the paper's Table 2.
Skinning weights fall out of bone distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.body.skeleton import (
    JOINT_INDEX,
    NUM_JOINTS,
    bone_segments,
    rest_joint_positions,
)
from repro.errors import GeometryError
from repro.geometry.mesh import TriangleMesh
from repro.geometry.octree import extract_surface
from repro.geometry.sdf import FusedCapsuleUnion
from repro.geometry.simplify import decimate_to_vertex_count

__all__ = [
    "SMPLX_VERTEX_COUNT",
    "SMPLX_FACE_COUNT",
    "BodyTemplate",
    "build_template",
    "body_sdf_from_segments",
]

# The SMPL-X mesh budget the paper's Table 2 numbers are based on.
SMPLX_VERTEX_COUNT = 10475
SMPLX_FACE_COUNT = 20908

_HEAD_CENTER = np.array([0.0, 1.60, 0.015])
_HEAD_RADII = np.array([0.078, 0.105, 0.092])

_template_cache: Dict[Tuple[int, int], "BodyTemplate"] = {}


def body_sdf_from_segments(
    segments: List[Tuple[str, np.ndarray, np.ndarray, float, float]],
    head_center: np.ndarray = None,
    blend: float = 0.035,
) -> FusedCapsuleUnion:
    """Smooth-union SDF of bone capsules plus an ellipsoidal cranium.

    This same constructor serves two roles: building the rest-pose
    template here, and — fed with *posed* segments — acting as the
    pose-conditioned implicit field of the avatar reconstructor.  The
    field is a :class:`FusedCapsuleUnion` evaluated as one batched
    kernel; :meth:`FusedCapsuleUnion.reference` gives the equivalent
    ``smooth_union`` closure chain (the two agree to ~1e-9).
    """
    if not segments and head_center is None:
        raise GeometryError("no body primitives")
    heads = np.array([head for _, head, _, _, _ in segments])
    tails = np.array([tail for _, _, tail, _, _ in segments])
    radii_head = np.array([r for _, _, _, r, _ in segments])
    radii_tail = np.array([r for _, _, _, _, r in segments])
    return FusedCapsuleUnion(
        heads.reshape(-1, 3),
        tails.reshape(-1, 3),
        radii_head,
        radii_tail,
        blend=blend,
        ellipsoid_center=head_center,
        ellipsoid_radii=_HEAD_RADII if head_center is not None else None,
    )


@dataclass
class BodyTemplate:
    """Rest-pose mesh with per-vertex skinning weights.

    Attributes:
        mesh: rest-pose template mesh.
        skin_indices: (V, K) joint indices per vertex.
        skin_weights: (V, K) normalised weights per vertex.
    """

    mesh: TriangleMesh
    skin_indices: np.ndarray
    skin_weights: np.ndarray

    def __post_init__(self) -> None:
        v = self.mesh.num_vertices
        if self.skin_indices.shape != self.skin_weights.shape:
            raise GeometryError("skin indices/weights shape mismatch")
        if self.skin_indices.shape[0] != v:
            raise GeometryError("skinning rows must match vertex count")


def _segment_distances(
    points: np.ndarray,
    segments: List[Tuple[str, np.ndarray, np.ndarray, float, float]],
) -> np.ndarray:
    """Distance from each point to each bone segment, normalised by radius.

    Returns (N, J): per *joint* (not per segment) the minimum normalised
    distance over that joint's segments.  Normalising by the capsule
    radius makes thin fingers as attractive as the thick torso.
    """
    n = len(points)
    per_joint = np.full((n, NUM_JOINTS), np.inf)
    for name, head, tail, r_head, r_tail in segments:
        joint = JOINT_INDEX[name]
        ab = tail - head
        denom = float(np.dot(ab, ab))
        if denom < 1e-18:
            d = np.linalg.norm(points - head, axis=1)
            radius = np.full(n, max(r_head, r_tail))
        else:
            t = np.clip((points - head) @ ab / denom, 0.0, 1.0)
            closest = head + t[:, None] * ab
            d = np.linalg.norm(points - closest, axis=1)
            radius = r_head + (r_tail - r_head) * t
        normalised = d / np.maximum(radius, 1e-6)
        per_joint[:, joint] = np.minimum(per_joint[:, joint], normalised)
    return per_joint


def compute_skinning(
    vertices: np.ndarray,
    segments: List[Tuple[str, np.ndarray, np.ndarray, float, float]],
    k: int = 4,
    sharpness: float = 4.0,
) -> tuple:
    """Bone-distance skinning: soft weights over the ``k`` nearest joints."""
    distances = _segment_distances(vertices, segments)
    order = np.argsort(distances, axis=1)[:, :k]
    rows = np.arange(len(vertices))[:, None]
    nearest = distances[rows, order]
    # Inverse-distance weights with a sharpness exponent; the nearest
    # joint dominates but blends survive near articulations.
    weights = 1.0 / np.maximum(nearest, 1e-3) ** sharpness
    weights /= weights.sum(axis=1, keepdims=True)
    return order.astype(np.int64), weights


def build_template(
    resolution: int = 128,
    target_vertices: int = SMPLX_VERTEX_COUNT,
    cache: bool = True,
) -> BodyTemplate:
    """Build (or fetch from cache) the rest-pose template.

    Args:
        resolution: marching grid resolution for the initial extraction.
        target_vertices: decimation target (defaults to the SMPL-X count).
        cache: reuse a previously built template with the same settings.
    """
    key = (resolution, target_vertices)
    if cache and key in _template_cache:
        return _template_cache[key]

    rest = rest_joint_positions()
    segments = bone_segments(rest)
    sdf = body_sdf_from_segments(segments, head_center=_HEAD_CENTER)
    lo = np.array([-0.95, -0.05, -0.35])
    hi = np.array([0.95, 1.85, 0.35])
    raw = extract_surface(sdf, (lo, hi), resolution)
    mesh = decimate_to_vertex_count(raw, target_vertices)
    mesh = mesh.remove_unreferenced_vertices()
    indices, weights = compute_skinning(mesh.vertices, segments)
    template = BodyTemplate(
        mesh=mesh, skin_indices=indices, skin_weights=weights
    )
    if cache:
        _template_cache[key] = template
    return template
