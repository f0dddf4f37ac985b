"""Marching tetrahedra and the cell bookkeeping of surface extraction.

The keypoint-semantics receiver reconstructs a mesh by sampling a
pose-conditioned implicit field on a voxel grid (the X-Avatar
"resolution" knob in the paper: 128/256/512/1024 voxels per axis) and
extracting the zero level set.  The extractor itself —
:func:`repro.geometry.octree.extract_surface_octree`, the repository's
only one — refines coarse-to-fine and evaluates only cells near the
surface, so cost grows roughly with the square of resolution,
reproducing the paper's Figure 4 scaling.  This module holds what it
is built from: corner evaluation with deduplication, warm-start cell
remapping, and polygonisation.

We use marching *tetrahedra* (each cube split into 6 tets) rather than
classic marching cubes: it needs no 256-entry case table, has no
ambiguous configurations, and produces a watertight surface.  Triangle
orientation is fixed numerically so normals point toward positive SDF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.errors import GeometryError
from repro.geometry.mesh import TriangleMesh

__all__ = [
    "marching_tetrahedra",
    "ExtractionStats",
    "dilate_cells",
    "remap_cells",
]


@dataclass
class ExtractionStats:
    """Observability and warm-start state from one extraction.

    Pass a fresh instance to :func:`repro.geometry.octree.
    extract_surface_octree` via ``stats=`` and it is filled in place:
    how many SDF evaluations the extraction actually performed, whether
    it ran from a warm seed, and the leaf set (with its grid frame) that
    a subsequent frame can use as its seed.
    """

    field_evaluations: int = 0
    warm_started: bool = False
    #: (M, 3) integer coords of finest-level cells straddling the iso
    #: level, or None when the extraction produced no surface.
    surface_cells: Optional[np.ndarray] = None
    #: world position of grid corner (0, 0, 0) for ``surface_cells``.
    origin: np.ndarray = field(
        default_factory=lambda: np.zeros(3)
    )
    #: finest-level cell edge length for ``surface_cells``.
    spacing: float = 0.0
    #: finest-level cells per axis.
    resolution: int = 0
    #: (L, 3) cell coords of every retained leaf that may hold surface
    #: — straddling the iso level, or with a corner value within half
    #: a cell diagonal of it — each on the grid of its own depth (see
    #: ``leaf_depths`` / ``leaf_levels``).  A surface thinner than a
    #: cell can pass between a cell's corners, so these are what a
    #: warm start must seed from, not only the straddling leaves.
    leaf_cells: Optional[np.ndarray] = None
    #: (L,) refinement depth of each leaf cell.
    leaf_depths: Optional[np.ndarray] = None
    #: cells per axis at each depth (index = depth).
    leaf_levels: Optional[tuple] = None
    #: cells subdivided into children across all levels.
    cells_refined: int = 0
    #: straddling cells the gaze LOD policy stopped early.
    cells_skipped_gaze: int = 0
    #: per-level timing records (name/start/end/depth/cells/evaluations
    #: dicts) for ``extract_octree`` span reporting.
    level_spans: list = field(default_factory=list)


class _CountingSDF:
    """Wrap an SDF callable, counting how many points it evaluates.

    The wrapped callable may itself be a batching proxy (the serving
    pool's cross-stream coalescer): the count is taken from the points
    handed in *here*, before any batching, so ``field_evaluations``
    stays exact no matter how the downstream evaluation is grouped.
    """

    def __init__(self, sdf: Callable[[np.ndarray], np.ndarray]):
        self._sdf = sdf
        self.count = 0

    def __call__(self, points: np.ndarray) -> np.ndarray:
        self.count += len(points)
        return self._sdf(points)

    def kernel_problem(self, points: np.ndarray):
        """Batchable ``(sdf, points)`` problem for the wrapped field.

        Mirrors the wrapped field's ``kernel_problem`` seam so octree
        flushes routed through :func:`repro.geometry.sdf.
        evaluate_packed` stay packable.  The count is taken here for the
        packed path; when this returns ``None`` the caller falls back to
        :meth:`__call__`, which counts instead — exactly one count per
        evaluation either way.
        """
        inner = getattr(self._sdf, "kernel_problem", None)
        if inner is None:
            return None
        problem = inner(points)
        if problem is not None:
            self.count += len(points)
        return problem


class _QueryScratch:
    """Reusable buffers for the per-level corner queries.

    A coarse-to-fine extraction calls :func:`_evaluate_corners` once
    per refinement level.  One scratch instance per extraction keeps
    the query-point array and the dense gather volume, growing each to
    exactly the largest request seen (per-level query counts are not
    monotone, so doubling past a request would permanently
    over-allocate) and reusing them for every other level.  Scratch
    views hand out the *same memory*, so callers must consume a view
    before requesting the next one — which the level-by-level cascade
    does by construction.
    """

    def __init__(self) -> None:
        self._points = np.empty((0, 3))
        self._dense = np.empty(0)

    def points(self, n: int) -> np.ndarray:
        """An uninitialised (n, 3) float64 view."""
        if len(self._points) < n:
            self._points = np.empty((n, 3))
        return self._points[:n]

    def dense(self, n: int) -> np.ndarray:
        """An uninitialised (n,) float64 view."""
        if len(self._dense) < n:
            self._dense = np.empty(n)
        return self._dense[:n]


# Cube corner offsets, corner c = (x, y, z) bit pattern.
_CUBE_CORNERS = np.array(
    [
        [0, 0, 0],
        [1, 0, 0],
        [1, 1, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 1],
        [1, 1, 1],
        [0, 1, 1],
    ],
    dtype=np.int64,
)

# Decomposition of a cube into 6 tetrahedra sharing the main diagonal 0-6.
_CUBE_TETS = np.array(
    [
        [0, 5, 1, 6],
        [0, 1, 2, 6],
        [0, 2, 3, 6],
        [0, 3, 7, 6],
        [0, 7, 4, 6],
        [0, 4, 5, 6],
    ],
    dtype=np.int64,
)


def _tet_triangles(inside: np.ndarray) -> list:
    """Triangles for one sign configuration of a tetrahedron.

    Args:
        inside: boolean (4,) — which tet corners are inside the surface.

    Returns:
        List of triangles; each triangle is a tuple of 3 edges, each edge
        a (corner_a, corner_b) pair that the surface crosses.
    """
    ins = [i for i in range(4) if inside[i]]
    outs = [i for i in range(4) if not inside[i]]
    if len(ins) == 0 or len(ins) == 4:
        return []
    if len(ins) == 1:
        i = ins[0]
        a, b, c = outs
        return [((i, a), (i, b), (i, c))]
    if len(ins) == 3:
        i = outs[0]
        a, b, c = ins
        return [((i, a), (i, b), (i, c))]
    # Two inside, two outside: the crossing is a quad.
    i, j = ins
    k, l = outs
    return [
        ((i, k), (i, l), (j, l)),
        ((i, k), (j, l), (j, k)),
    ]


# Precomputed triangle lists for all 16 sign configurations.
_CASES = []
for _case in range(16):
    _inside = np.array([(_case >> _bit) & 1 for _bit in range(4)], dtype=bool)
    _CASES.append(_tet_triangles(_inside))


def marching_tetrahedra(
    values: np.ndarray,
    origin: np.ndarray,
    spacing: float,
    iso: float = 0.0,
) -> TriangleMesh:
    """Extract the iso-surface from a dense scalar grid.

    Args:
        values: (nx+1, ny+1, nz+1) scalar samples at cell corners;
            negative values are inside.
        origin: world position of corner (0, 0, 0).
        spacing: edge length of one cell.
        iso: iso value to extract.

    Returns:
        A :class:`TriangleMesh` with vertices deduplicated along shared
        edges (so the result is watertight wherever the surface is
        closed inside the grid).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise GeometryError("values must be a 3D grid")
    nx, ny, nz = (s - 1 for s in values.shape)
    if min(nx, ny, nz) < 1:
        raise GeometryError("grid must contain at least one cell")
    cells = np.stack(
        np.meshgrid(
            np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
        ),
        axis=-1,
    ).reshape(-1, 3)
    grid_shape = np.array(values.shape)
    corner_values = _gather_corner_values(values, cells)
    return _polygonise(
        cells,
        corner_values,
        grid_shape,
        np.asarray(origin, dtype=np.float64),
        float(spacing),
        iso,
    )


def dilate_cells(
    cells: np.ndarray, dilation: int, resolution
) -> np.ndarray:
    """Grow a cell set by a Chebyshev (L-inf) ball of radius ``dilation``.

    Used to widen a previous frame's leaf cells by the inter-frame
    motion bound before seeding a warm-start extraction.  Cells are
    clipped to ``[0, resolution)`` and deduplicated; the result is
    sorted by linear grid index.  ``resolution`` may be a scalar or a
    per-axis ``(3,)`` array — octree warm-start seeding clips against
    the grid of each refinement depth, which need not be the finest
    (or even a cubic) grid.
    """
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
    resolution = np.broadcast_to(
        np.asarray(resolution, dtype=np.int64), (3,)
    )
    if not len(cells):
        return cells
    cells = np.clip(cells, 0, resolution - 1)
    # Work in a boolean volume cropped to the seed bounding box: axis-
    # shifted slice ORs dilate without any sorting, and np.argwhere
    # returns the result already in linear-index order.
    lo = np.maximum(cells.min(axis=0) - dilation, 0)
    hi = np.minimum(cells.max(axis=0) + dilation + 1, resolution)
    volume = np.zeros(hi - lo, dtype=bool)
    local = cells - lo
    volume[local[:, 0], local[:, 1], local[:, 2]] = True
    # One sweep per axis per iteration; composing the three axis sweeps
    # yields the full 3x3x3 neighbourhood, so ``dilation`` iterations
    # cover the L-inf ball of that radius.
    for _ in range(max(dilation, 0)):
        for axis in range(3):
            grown = volume.copy()
            ahead = [slice(None)] * 3
            behind = [slice(None)] * 3
            ahead[axis] = slice(1, None)
            behind[axis] = slice(None, -1)
            grown[tuple(ahead)] |= volume[tuple(behind)]
            grown[tuple(behind)] |= volume[tuple(ahead)]
            volume = grown
    return np.argwhere(volume) + lo


def remap_cells(
    cells: np.ndarray,
    src_origin: np.ndarray,
    src_spacing: float,
    dst_origin: np.ndarray,
    dst_spacing: float,
    dst_resolution,
    dilation: int = 0,
) -> np.ndarray:
    """Map cells from one uniform grid into another, then dilate.

    The source and destination grids may differ in origin, spacing and
    per-axis extent — this is the coordinate mapping warm-start seeding
    needs when the previous frame's cells live on a different (or, for
    octree leaves, per-depth non-uniform) grid than the one being
    refined.  Each source cell is represented by its centre, mapped by
    ``floor((centre - dst_origin) / dst_spacing)``, discarded when it
    lands more than ``dilation`` cells outside the destination grid,
    clipped, and finally grown by :func:`dilate_cells`.  The result is
    deduplicated and sorted by destination linear index; empty input
    (or no survivor) maps to an empty ``(0, 3)`` array.
    """
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
    dst_resolution = np.broadcast_to(
        np.asarray(dst_resolution, dtype=np.int64), (3,)
    )
    if not len(cells):
        return np.zeros((0, 3), dtype=np.int64)
    centers = (
        np.asarray(src_origin, dtype=np.float64)
        + (cells.astype(np.float64) + 0.5) * float(src_spacing)
    )
    mapped = np.floor(
        (centers - np.asarray(dst_origin, dtype=np.float64))
        / float(dst_spacing)
    ).astype(np.int64)
    inside = np.all(
        (mapped >= -dilation) & (mapped < dst_resolution + dilation),
        axis=1,
    )
    mapped = np.clip(mapped[inside], 0, dst_resolution - 1)
    if not len(mapped):
        return np.zeros((0, 3), dtype=np.int64)
    return dilate_cells(mapped, dilation, dst_resolution)


def _sort_cells(
    cells: np.ndarray, corner_values: np.ndarray, resolution: int
) -> tuple:
    """Order cells by linear grid index.

    Cell order determines face order in :func:`_polygonise`, so sorting
    makes the output mesh a pure function of the cell *set* — seeded
    (warm-start) and cold extractions that keep the same cells produce
    array-identical meshes.
    """
    linear = (
        cells[:, 0] * resolution + cells[:, 1]
    ) * resolution + cells[:, 2]
    order = np.argsort(linear, kind="stable")
    return cells[order], corner_values[order]


def _gather_corner_values(
    values: np.ndarray, cells: np.ndarray
) -> np.ndarray:
    corners = cells[:, None, :] + _CUBE_CORNERS[None]
    return values[corners[..., 0], corners[..., 1], corners[..., 2]]


# Above this many corner-grid entries the dense dedup scratch array is
# not worth its memory (8 bytes each); fall back to sort-based dedup.
_DENSE_DEDUP_LIMIT = 24_000_000


def _evaluate_corners(
    sdf, cells: np.ndarray, lo: np.ndarray, spacing: float,
    n_corners: int, scratch: _QueryScratch,
) -> np.ndarray:
    """Evaluate the SDF at the 8 corners of each cell, deduplicated.

    Corners shared between cells are evaluated once.  Both dedup
    strategies visit the unique corners in the same (linear-index)
    order, so they are interchangeable: a scatter/gather through a
    dense scratch array over the cells' bounding box when that fits
    comfortably in memory, and a sort-based ``np.unique`` otherwise.

    The query-point array (and the dense gather volume) live in the
    ``scratch`` buffers, reused across refinement levels instead of
    allocated fresh each level.  The points are built in place as
    ``copy; += bbox; *= spacing; += lo``, which is bit-identical to
    the direct expression ``lo + (coords + bbox) * spacing``: the
    integer-valued float64 additions are exact below 2**53 and IEEE
    addition is commutative, so only the allocations change, never a
    single output bit.
    """
    bbox_lo = cells.min(axis=0)
    shape = cells.max(axis=0) - bbox_lo + 2  # corner grid of the bbox
    if int(shape.prod()) <= _DENSE_DEDUP_LIMIT:
        local = cells - bbox_lo
        s1, s2 = int(shape[1]), int(shape[2])
        dtype = np.int32 if int(shape.prod()) < 2**31 else np.int64
        base = (
            local[:, 0].astype(dtype) * s1 + local[:, 1]
        ) * s2 + local[:, 2]
        offsets = (
            (_CUBE_CORNERS[:, 0] * s1 + _CUBE_CORNERS[:, 1]) * s2
            + _CUBE_CORNERS[:, 2]
        ).astype(dtype)
        flat = base[:, None] + offsets[None, :]  # (M, 8)
        mask = np.zeros(int(shape.prod()), dtype=bool)
        mask[flat.ravel()] = True
        corner_local = np.argwhere(mask.reshape(tuple(shape)))
        points = scratch.points(len(corner_local))
        points[:] = corner_local
        points += bbox_lo
        points *= spacing
        points += lo
        values = sdf(points)
        dense = scratch.dense(int(shape.prod()))
        dense[mask] = values
        return dense[flat]
    n = n_corners
    dtype = np.int32 if n**3 < 2**31 else np.int64
    c = cells.astype(dtype, copy=False)
    base = (c[:, 0] * n + c[:, 1]) * n + c[:, 2]
    offsets = (
        (_CUBE_CORNERS[:, 0] * n + _CUBE_CORNERS[:, 1]) * n
        + _CUBE_CORNERS[:, 2]
    ).astype(dtype)
    linear = (base[:, None] + offsets[None, :]).ravel()
    unique, inverse = np.unique(linear, return_inverse=True)
    coords = scratch.points(len(unique))
    coords[:, 0] = unique // (n * n)
    rem = unique % (n * n)
    coords[:, 1] = rem // n
    coords[:, 2] = rem % n
    coords *= spacing
    coords += lo
    unique_values = sdf(coords)
    return unique_values[inverse].reshape(-1, 8)


def _polygonise(
    cells: np.ndarray,
    corner_values: np.ndarray,
    grid_shape: np.ndarray,
    origin: np.ndarray,
    spacing: float,
    iso: float,
) -> TriangleMesh:
    """Run marching tetrahedra over the given cells.

    ``cells`` are integer cell coordinates, ``corner_values`` their 8
    corner samples, ``grid_shape`` the (virtual) corner-grid shape used
    for global vertex deduplication.
    """
    if len(cells) == 0:
        return TriangleMesh(
            vertices=np.zeros((0, 3)), faces=np.zeros((0, 3), dtype=np.int64)
        )
    corner_coords = cells[:, None, :] + _CUBE_CORNERS[None]  # (M, 8, 3)
    corner_ids = (
        corner_coords[..., 0] * grid_shape[1] + corner_coords[..., 1]
    ) * grid_shape[2] + corner_coords[..., 2]

    edge_a_ids = []
    edge_b_ids = []
    edge_a_vals = []
    edge_b_vals = []

    for tet in _CUBE_TETS:
        tet_vals = corner_values[:, tet]  # (M, 4)
        tet_ids = corner_ids[:, tet]  # (M, 4)
        inside = tet_vals < iso
        case = (
            inside[:, 0].astype(np.int64)
            + 2 * inside[:, 1]
            + 4 * inside[:, 2]
            + 8 * inside[:, 3]
        )
        for case_id in range(1, 15):
            tris = _CASES[case_id]
            if not tris:
                continue
            sel = np.nonzero(case == case_id)[0]
            if sel.size == 0:
                continue
            for tri in tris:
                a_local = np.array([edge[0] for edge in tri])
                b_local = np.array([edge[1] for edge in tri])
                sel2 = sel[:, None]
                edge_a_ids.append(tet_ids[sel2, a_local])  # (S, 3)
                edge_b_ids.append(tet_ids[sel2, b_local])
                edge_a_vals.append(tet_vals[sel2, a_local])
                edge_b_vals.append(tet_vals[sel2, b_local])

    if not edge_a_ids:
        return TriangleMesh(
            vertices=np.zeros((0, 3)), faces=np.zeros((0, 3), dtype=np.int64)
        )

    a_ids = np.concatenate(edge_a_ids, axis=0).ravel()
    b_ids = np.concatenate(edge_b_ids, axis=0).ravel()
    a_vals = np.concatenate(edge_a_vals, axis=0).ravel()
    b_vals = np.concatenate(edge_b_vals, axis=0).ravel()

    # Edges only ever connect corners of one cube, so the id difference
    # is one of a handful of constants.  Encoding an edge as
    # (smaller id, offset code) keeps keys small — int32 when the grid
    # allows, which makes the dedup sort markedly faster — and gives the
    # per-edge direction vector by table lookup instead of decoding
    # every corner id.  Key order matches the old (lo, hi) encoding, so
    # vertex/face output is unchanged.
    gs1, gs2 = int(grid_shape[1]), int(grid_shape[2])
    local_off = (
        _CUBE_CORNERS[:, 0] * gs1 + _CUBE_CORNERS[:, 1]
    ) * gs2 + _CUBE_CORNERS[:, 2]
    pair_diffs = np.unique(np.abs(local_off[:, None] - local_off[None, :]))
    pair_diffs = pair_diffs[pair_diffs > 0]
    n_codes = len(pair_diffs)
    vec_by_off = {}
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                vec_by_off[(dx * gs1 + dy) * gs2 + dz] = (dx, dy, dz)
    pair_vecs = np.array(
        [vec_by_off[int(d)] for d in pair_diffs], dtype=np.float64
    )

    id_diff = b_ids - a_ids
    code = np.searchsorted(pair_diffs, np.abs(id_diff))
    n_corner_total = int(grid_shape.prod())
    flat_keys = np.minimum(a_ids, b_ids) * n_codes + code
    if n_corner_total * n_codes < 2**31:
        flat_keys = flat_keys.astype(np.int32)

    unique_keys, first_idx, inverse = np.unique(
        flat_keys, return_index=True, return_inverse=True
    )
    # Interpolate vertex positions along each unique edge.
    ua = a_ids[first_idx]
    ub = b_ids[first_idx]
    va = a_vals[first_idx]
    vb = b_vals[first_idx]
    denom = vb - va
    t = np.where(np.abs(denom) < 1e-14, 0.5, (iso - va) / np.where(
        np.abs(denom) < 1e-14, 1.0, denom
    ))
    t = np.clip(t, 0.0, 1.0)

    def _id_to_coords(ids: np.ndarray) -> np.ndarray:
        return np.stack(
            [
                ids // (grid_shape[1] * grid_shape[2]),
                (ids // grid_shape[2]) % grid_shape[1],
                ids % grid_shape[2],
            ],
            axis=1,
        ).astype(np.float64)

    pa = _id_to_coords(ua)
    pb = _id_to_coords(ub)
    vertices = origin + (pa + t[:, None] * (pb - pa)) * spacing
    faces = inverse.reshape(-1, 3)

    # Drop degenerate faces (two corners collapsed to one vertex).
    good = (
        (faces[:, 0] != faces[:, 1])
        & (faces[:, 1] != faces[:, 2])
        & (faces[:, 0] != faces[:, 2])
    )
    faces = faces[good]

    mesh = TriangleMesh(vertices=vertices, faces=faces)
    # Per-face outward proxy: each crossing edge runs from its negative
    # (inside) endpoint toward its positive (outside) one; averaging the
    # inside->outside edge directions over a face's 3 edges approximates
    # the SDF gradient there, which is what the face normal must follow.
    # (b - a) in grid coordinates is the code's direction vector times
    # the id-difference sign.
    sgn = np.sign(id_diff).astype(np.float64) * np.sign(b_vals - a_vals)
    edge_dir = sgn[:, None] * pair_vecs[code]
    outward = edge_dir.reshape(-1, 3, 3).mean(axis=1)[good]
    return _orient_outward(mesh, outward)


def _orient_outward(
    mesh: TriangleMesh, outward: np.ndarray
) -> TriangleMesh:
    """Flip triangles whose normal disagrees with the outward proxy."""
    if mesh.num_faces == 0:
        return mesh
    tri = mesh.vertices[mesh.faces]
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    flip = np.einsum("ij,ij->i", normals, outward) < 0
    faces = mesh.faces.copy()
    faces[flip] = faces[flip][:, ::-1]
    return TriangleMesh(vertices=mesh.vertices, faces=faces)
