"""Triangle mesh container and core operations.

Meshes are the primary volumetric representation in SemHolo: the
traditional pipeline ships them whole, and the keypoint pipeline
reconstructs them from transmitted semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import GeometryError
from repro.geometry.pointcloud import PointCloud

__all__ = ["TriangleMesh"]


@dataclass
class TriangleMesh:
    """An indexed triangle mesh.

    Attributes:
        vertices: float64 array of shape (V, 3).
        faces: int64 array of shape (F, 3), indices into ``vertices``.
        vertex_colors: optional (V, 3) float64 in [0, 1].

    A mesh served through :class:`repro.serve.cache.MeshCache` is
    read-only: its arrays are shared by every receiver of the same
    reconstruction and an in-place write raises ``ValueError``.
    Reassigning an attribute only changes that one mesh object; a
    caller that wants to edit the arrays calls :meth:`copy` (as
    :meth:`transformed` and the texture paths do).
    """

    vertices: np.ndarray
    faces: np.ndarray
    vertex_colors: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.vertices = np.atleast_2d(
            np.asarray(self.vertices, dtype=np.float64)
        )
        self.faces = np.atleast_2d(np.asarray(self.faces, dtype=np.int64))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise GeometryError(
                f"vertices must be (V, 3), got {self.vertices.shape}"
            )
        if self.faces.size and (
            self.faces.ndim != 2 or self.faces.shape[1] != 3
        ):
            raise GeometryError(f"faces must be (F, 3), got {self.faces.shape}")
        if self.faces.size == 0:
            self.faces = self.faces.reshape(0, 3)
        if self.faces.size and (
            self.faces.min() < 0 or self.faces.max() >= len(self.vertices)
        ):
            raise GeometryError("face indices out of vertex range")
        if self.vertex_colors is not None:
            self.vertex_colors = np.asarray(
                self.vertex_colors, dtype=np.float64
            )
            if self.vertex_colors.shape != self.vertices.shape:
                raise GeometryError(
                    "vertex_colors shape must match vertices"
                )

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]

    @classmethod
    def from_validated(
        cls,
        vertices: np.ndarray,
        faces: np.ndarray,
        vertex_colors: Optional[np.ndarray] = None,
    ) -> "TriangleMesh":
        """A mesh over arrays taken from an already constructed mesh.

        Nothing is copied and nothing is re-checked: the arrays passed
        ``__post_init__`` when their mesh was built.
        """
        mesh = cls.__new__(cls)
        mesh.vertices = vertices
        mesh.faces = faces
        mesh.vertex_colors = vertex_colors
        return mesh

    def copy(self) -> "TriangleMesh":
        return TriangleMesh(
            vertices=self.vertices.copy(),
            faces=self.faces.copy(),
            vertex_colors=(
                None
                if self.vertex_colors is None
                else self.vertex_colors.copy()
            ),
        )

    def bounds(self) -> tuple:
        """Axis-aligned bounding box as (min_corner, max_corner)."""
        if self.num_vertices == 0:
            raise GeometryError("bounds of an empty mesh")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def face_normals(self) -> np.ndarray:
        """Unit normals per face, shape (F, 3). Degenerate faces get zeros."""
        tri = self.vertices[self.faces]
        normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
        return np.divide(
            normals,
            norms,
            out=np.zeros_like(normals),
            where=norms > 1e-12,
        )

    def vertex_normals(self) -> np.ndarray:
        """Area-weighted per-vertex normals, shape (V, 3)."""
        tri = self.vertices[self.faces]
        # Un-normalised cross product is already area-weighted.
        weighted = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        normals = np.zeros_like(self.vertices)
        for corner in range(3):
            np.add.at(normals, self.faces[:, corner], weighted)
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
        return np.divide(
            normals,
            norms,
            out=np.zeros_like(normals),
            where=norms > 1e-12,
        )

    def face_areas(self) -> np.ndarray:
        """Triangle areas, shape (F,)."""
        tri = self.vertices[self.faces]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def surface_area(self) -> float:
        return float(self.face_areas().sum())

    def volume(self) -> float:
        """Signed volume via the divergence theorem (needs a closed mesh)."""
        tri = self.vertices[self.faces]
        return float(
            np.einsum(
                "ij,ij->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])
            ).sum()
            / 6.0
        )

    def transformed(self, transform: np.ndarray) -> "TriangleMesh":
        """Return a copy with a 4x4 rigid transform applied to vertices."""
        from repro.geometry.transforms import apply_rigid

        out = self.copy()
        out.vertices = apply_rigid(transform, out.vertices)
        return out

    def edges(self, unique: bool = True) -> np.ndarray:
        """All edges as (E, 2) vertex-index pairs, sorted within each pair."""
        e = np.vstack(
            [self.faces[:, [0, 1]], self.faces[:, [1, 2]], self.faces[:, [2, 0]]]
        )
        e = np.sort(e, axis=1)
        if unique:
            e = np.unique(e, axis=0)
        return e

    def euler_characteristic(self) -> int:
        """V - E + F; 2 for a closed genus-0 surface."""
        return self.num_vertices - len(self.edges()) + self.num_faces

    def is_watertight(self) -> bool:
        """True when every edge is shared by exactly two faces."""
        e = np.vstack(
            [self.faces[:, [0, 1]], self.faces[:, [1, 2]], self.faces[:, [2, 0]]]
        )
        e = np.sort(e, axis=1)
        _, counts = np.unique(e, axis=0, return_counts=True)
        return bool(np.all(counts == 2))

    def remove_unreferenced_vertices(self) -> "TriangleMesh":
        """Drop vertices not used by any face and remap face indices."""
        used = np.unique(self.faces)
        remap = np.full(self.num_vertices, -1, dtype=np.int64)
        remap[used] = np.arange(len(used))
        return TriangleMesh(
            vertices=self.vertices[used],
            faces=remap[self.faces],
            vertex_colors=(
                None
                if self.vertex_colors is None
                else self.vertex_colors[used]
            ),
        )

    def sample_points(
        self,
        count: int,
        rng: Optional[np.random.Generator] = None,
        with_normals: bool = False,
    ) -> PointCloud:
        """Sample points uniformly over the surface (area-weighted)."""
        if self.num_faces == 0:
            raise GeometryError("cannot sample an empty mesh")
        rng = rng or np.random.default_rng(0)
        areas = self.face_areas()
        total = areas.sum()
        if total <= 0:
            raise GeometryError("mesh has zero surface area")
        face_idx = rng.choice(
            self.num_faces, size=count, p=areas / total
        )
        tri = self.vertices[self.faces[face_idx]]
        # Uniform barycentric sampling.
        r1 = np.sqrt(rng.random(count))
        r2 = rng.random(count)
        u = 1.0 - r1
        v = r1 * (1.0 - r2)
        w = r1 * r2
        points = (
            u[:, None] * tri[:, 0]
            + v[:, None] * tri[:, 1]
            + w[:, None] * tri[:, 2]
        )
        normals = None
        if with_normals:
            normals = self.face_normals()[face_idx]
        colors = None
        if self.vertex_colors is not None:
            cols = self.vertex_colors[self.faces[face_idx]]
            colors = (
                u[:, None] * cols[:, 0]
                + v[:, None] * cols[:, 1]
                + w[:, None] * cols[:, 2]
            )
        return PointCloud(points=points, colors=colors, normals=normals)

    def to_point_cloud(self) -> PointCloud:
        """The mesh vertices as a point cloud (keeps colors)."""
        return PointCloud(
            points=self.vertices.copy(),
            colors=(
                None
                if self.vertex_colors is None
                else self.vertex_colors.copy()
            ),
            normals=self.vertex_normals() if self.num_faces else None,
        )

    def validate(self) -> None:
        """Raise :class:`GeometryError` if the mesh is malformed."""
        if not np.isfinite(self.vertices).all():
            raise GeometryError("mesh has non-finite vertices")
        degenerate = self.face_areas() < 1e-14
        if degenerate.all() and self.num_faces > 0:
            raise GeometryError("all faces are degenerate")
