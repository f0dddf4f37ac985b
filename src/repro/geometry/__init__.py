"""Geometric substrate: points, meshes, transforms, cameras, SDFs, metrics."""

from repro.geometry.camera import Camera, Intrinsics
from repro.geometry.distance import (
    SurfaceComparison,
    chamfer_distance,
    closest_point_on_triangles,
    compare_surfaces,
    f_score,
    hausdorff_distance,
    mesh_to_mesh_distance,
    normal_consistency,
    point_to_mesh_distance,
)
from repro.geometry.io import load_obj, load_ply, save_obj, save_ply
from repro.geometry.marching import ExtractionStats, marching_tetrahedra
from repro.geometry.octree import extract_surface
from repro.geometry.sdf import FusedCapsuleUnion
from repro.geometry.mesh import TriangleMesh
from repro.geometry.pointcloud import PointCloud
from repro.geometry.simplify import (
    decimate_by_clustering,
    decimate_to_vertex_count,
)
from repro.geometry.transforms import (
    apply_rigid,
    axis_angle_to_matrix,
    axis_angle_to_quaternion,
    compose_rigid,
    invert_rigid,
    look_at,
    matrix_to_axis_angle,
    matrix_to_quaternion,
    quaternion_to_axis_angle,
    quaternion_to_matrix,
    rigid_from_rotation_translation,
    rotation_between_vectors,
)
from repro.geometry.voxel import VoxelGrid

__all__ = [
    "Camera",
    "Intrinsics",
    "PointCloud",
    "TriangleMesh",
    "VoxelGrid",
    "SurfaceComparison",
    "chamfer_distance",
    "closest_point_on_triangles",
    "compare_surfaces",
    "f_score",
    "hausdorff_distance",
    "mesh_to_mesh_distance",
    "normal_consistency",
    "point_to_mesh_distance",
    "ExtractionStats",
    "FusedCapsuleUnion",
    "extract_surface",
    "load_obj",
    "load_ply",
    "marching_tetrahedra",
    "save_obj",
    "save_ply",
    "decimate_by_clustering",
    "decimate_to_vertex_count",
    "apply_rigid",
    "axis_angle_to_matrix",
    "axis_angle_to_quaternion",
    "compose_rigid",
    "invert_rigid",
    "look_at",
    "matrix_to_axis_angle",
    "matrix_to_quaternion",
    "quaternion_to_axis_angle",
    "quaternion_to_matrix",
    "rigid_from_rotation_translation",
    "rotation_between_vectors",
]
