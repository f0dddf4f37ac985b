"""Marching tetrahedra and the cell bookkeeping of surface extraction.

The keypoint-semantics receiver reconstructs a mesh by sampling a
pose-conditioned implicit field on a voxel grid (the X-Avatar
"resolution" knob in the paper: 128/256/512/1024 voxels per axis) and
extracting the zero level set.  The extractor itself —
:func:`repro.geometry.octree.extract_surface_octree`, the repository's
only one — refines coarse-to-fine and evaluates only cells near the
surface, so cost grows roughly with the square of resolution,
reproducing the paper's Figure 4 scaling.  This module holds what it
is built from: corner evaluation with deduplication, cell
classification, and polygonisation.

We use marching *tetrahedra* (each cube split into 6 tets) rather than
classic marching cubes: a tet's 4 corner signs select one of 16 cases
(``_CASES``, 0–2 triangles each, derived by :func:`_tet_triangles`),
there are no ambiguous configurations, and the surface is watertight.
Triangle orientation is fixed numerically so normals point toward
positive SDF.  :func:`_polygonise` runs the pass as one table-driven
loop in the compiled kernel library
(:mod:`repro.geometry.capsule_kernel`) — sign codes, faces counting-
sorted by (tet, case, triangle), edge dedup by a stable radix sort —
and falls back to the NumPy pass when no compiled library is loaded;
both give the same vertex and face bytes.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.errors import GeometryError
from repro.geometry.capsule_kernel import compiled_capsule_kernel
from repro.geometry.mesh import TriangleMesh

__all__ = [
    "marching_tetrahedra",
    "ExtractionStats",
]


@dataclass
class ExtractionStats:
    """Observability from one extraction.

    Pass a fresh instance to :func:`repro.geometry.octree.
    extract_surface_octree` via ``stats=`` and it is filled in place:
    how many SDF evaluations the extraction performed, the leaves it
    polygonised and how long each step took.
    """

    field_evaluations: int = 0
    #: (M, 3) integer coords of finest-level cells straddling the iso
    #: level, or None when the extraction produced no surface.
    surface_cells: Optional[np.ndarray] = None
    #: the :class:`repro.geometry.octree.LeafSelection` polygonised:
    #: one ``(depth, cells, corner_values, straddling)`` group per
    #: depth its leaves stop at.
    selection: Optional[object] = None
    #: cells subdivided into children across all levels.
    cells_refined: int = 0
    #: straddling cells the gaze LOD policy stopped early.
    cells_skipped_gaze: int = 0
    #: timing records for ``extract_octree`` span reporting: one
    #: ``extract.level`` dict per refinement level (name/start/end/
    #: depth/cells/evaluations), then one ``extract.polygonise`` dict
    #: (name/start/end/cells/mixed, no depth) for the polygonisation.
    level_spans: list = field(default_factory=list)
    #: the extraction's :class:`repro.geometry.octree.OctreeRefinement`
    #: record (None after :func:`repro.geometry.octree.derive_surface`,
    #: which refines nothing).
    refinement: Optional[object] = None


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

    A coarse-to-fine extraction calls :func:`_evaluate_level` once per
    refinement level, and a mixed-depth one resolves its leaves on a
    dense lattice at the end.  One scratch instance per extraction
    keeps the query-point array, the dense float volume, a boolean
    flag volume and the compiled corner pass's int32 corner ranks,
    growing each to exactly the largest request seen
    (per-level query counts are not monotone, so doubling past a
    request would permanently over-allocate) and reusing them for
    every other level.  Scratch views hand out the *same memory*, so
    callers must consume a view before requesting the next one — which
    the level-by-level cascade does by construction.
    """

    def __init__(self) -> None:
        self._points = np.empty((0, 3))
        self._dense = np.empty(0)
        self._flags = np.empty(0, dtype=bool)
        self._ranks = np.empty(0, dtype=np.int32)

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

    def flags(self, n: int) -> np.ndarray:
        """An uninitialised (n,) bool view."""
        if len(self._flags) < n:
            self._flags = np.empty(n, dtype=bool)
        return self._flags[:n]

    def ranks(self, n: int) -> np.ndarray:
        """An uninitialised (n,) int32 view."""
        if len(self._ranks) < n:
            self._ranks = np.empty(n, dtype=np.int32)
        return self._ranks[:n]


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

# The compiled pass's tables, derived from the two above: each tet's
# cube corners, and the cube corners (a, b) of every crossing edge per
# (tet, case, triangle, edge), -1 where a case has fewer triangles.
_TET_CORNERS = _CUBE_TETS.astype(np.int8)
_TET_EDGES = np.full((6, 16, 2, 3, 2), -1, dtype=np.int8)
for _tet, _corners in enumerate(_CUBE_TETS):
    for _case, _tris in enumerate(_CASES):
        for _k, _tri in enumerate(_tris):
            for _e, _edge in enumerate(_tri):
                _TET_EDGES[_tet, _case, _k, _e] = _corners[list(_edge)]


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


def _sort_cells(
    cells: np.ndarray, corner_values: np.ndarray, resolution: int
) -> tuple:
    """Order cells by linear grid index.

    Cell order determines face order in :func:`_polygonise`, so sorting
    makes the output mesh a pure function of the cell *set*.
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


def _classify(
    corner_values: np.ndarray, iso: float, spacing: float
) -> tuple:
    """Per-cell flags of one depth: ``(straddling, active)``.

    A cell straddles when its corner values bracket the iso level;
    refinement keeps (``active``) the cells that straddle or whose
    nearer extreme lies within a cell diagonal of the level (see
    :func:`repro.geometry.octree.level_schedule` for why a diagonal).
    """
    # Reduced column by column: across the 8 values of a row the
    # reduction is several times slower.  Minima and maxima are exact,
    # so the order changes no bit.
    vmin = np.minimum(corner_values[:, 0], corner_values[:, 1])
    vmax = np.maximum(corner_values[:, 0], corner_values[:, 1])
    for corner in range(2, 8):
        np.minimum(vmin, corner_values[:, corner], out=vmin)
        np.maximum(vmax, corner_values[:, corner], out=vmax)
    strad = (vmin <= iso) & (vmax >= iso)
    gap = np.minimum(np.abs(vmin - iso), np.abs(vmax - iso))
    diagonal = spacing * np.sqrt(3.0)
    return strad, strad | (gap <= diagonal)


def _evaluate_level(
    sdf, cells: np.ndarray, lo: np.ndarray, spacing: float,
    n_corners: int, iso: float, scratch: _QueryScratch,
) -> tuple:
    """One refinement level's corner values and :func:`_classify` flags:
    ``(corner_values, straddling, active)``.

    The compiled corner pass (``level_box`` / ``level_points`` /
    ``level_gather`` in :mod:`repro.geometry.capsule_kernel`) dedups
    the cells' corners into query points, ``sdf`` is called once on
    them here, and the pass gathers the values per cell and flags the
    cells.  It gives what :func:`_evaluate_corners` and
    :func:`_classify` give, byte for byte, with the same single field
    call on the same points; those run instead when no compiled library
    is loaded or the cells' box exceeds ``_DENSE_DEDUP_LIMIT`` corners.
    An empty level calls no field.
    """
    m = len(cells)
    if not m:
        flags = np.zeros((2, 0), dtype=bool)
        return (np.zeros((0, 8)), *flags)
    kernel = compiled_capsule_kernel()
    if kernel is not None:
        level_box, level_points, level_gather = kernel.level
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        i64 = ctypes.POINTER(ctypes.c_int64)
        dbl = ctypes.POINTER(ctypes.c_double)
        box = np.empty(6, dtype=np.int64)
        level_box(cells.ctypes.data_as(i64), m, box.ctypes.data_as(i64))
        n_box = int(box[3] * box[4] * box[5])
        if n_box <= _DENSE_DEDUP_LIMIT:
            rank = scratch.ranks(n_box)
            points = scratch.points(min(8 * m, n_box))
            origin = np.ascontiguousarray(
                np.broadcast_to(np.asarray(lo, dtype=np.float64), (3,))
            )
            args = (
                cells.ctypes.data_as(i64), m, box.ctypes.data_as(i64),
                _CUBE_CORNERS.ctypes.data_as(i64),
                rank.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)),
            )
            n = level_points(
                *args, origin.ctypes.data_as(dbl), spacing,
                points.ctypes.data_as(dbl),
            )
            values = np.ascontiguousarray(
                sdf(points[:n]), dtype=np.float64
            ).reshape(-1)
            if len(values) != n:
                raise GeometryError(
                    f"field returned {len(values)} values for {n} points"
                )
            corner_values = np.empty((m, 8))
            flags = np.empty((2, m), dtype=bool)
            level_gather(
                *args, values.ctypes.data_as(dbl), iso, spacing,
                corner_values.ctypes.data_as(dbl),
                flags.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
            )
            return (corner_values, *flags)
    corner_values = _evaluate_corners(
        sdf, cells, lo, spacing, n_corners, scratch
    )
    return (corner_values, *_classify(corner_values, iso, spacing))


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
    float64 corner samples, ``grid_shape`` the (virtual) corner-grid
    shape used for global vertex deduplication.  The compiled pass runs
    when the kernel library provides it, :func:`_polygonise_numpy`
    otherwise; both return the same vertex and face bytes.
    """
    kernel = compiled_capsule_kernel()
    if kernel is None or kernel.polygonise is None:
        return _polygonise_numpy(
            cells, corner_values, grid_shape, origin, spacing, iso
        )
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    values = np.ascontiguousarray(corner_values, dtype=np.float64)
    grid_shape = np.ascontiguousarray(grid_shape, dtype=np.int64)
    origin = np.ascontiguousarray(
        np.broadcast_to(np.asarray(origin, dtype=np.float64), (3,))
    )
    if (cells.shape != (len(cells), 3)
            or values.shape != (len(cells), 8)
            or grid_shape.shape != (3,)):
        raise GeometryError(
            "polygonise needs (M, 3) cells, (M, 8) corner values and a "
            "(3,) grid shape"
        )
    corner_off, pair_code, pair_vecs = _edge_codes(
        int(grid_shape[1]), int(grid_shape[2])
    )
    # A cube's 6 tets cross at most 19 distinct edges with 12 triangles.
    vertices = np.empty((19 * len(cells), 3))
    faces = np.empty((12 * len(cells), 3), dtype=np.int64)
    counts = np.zeros(2, dtype=np.int64)
    dbl = ctypes.POINTER(ctypes.c_double)
    i64 = ctypes.POINTER(ctypes.c_int64)
    i32 = ctypes.POINTER(ctypes.c_int32)
    i8 = ctypes.POINTER(ctypes.c_int8)
    status = kernel.polygonise(
        cells.ctypes.data_as(i64),
        values.ctypes.data_as(dbl),
        ctypes.c_int64(len(cells)),
        grid_shape.ctypes.data_as(i64),
        corner_off.ctypes.data_as(i64),
        _TET_CORNERS.ctypes.data_as(i8),
        _TET_EDGES.ctypes.data_as(i8),
        pair_code.ctypes.data_as(i32),
        pair_vecs.ctypes.data_as(dbl),
        ctypes.c_int64(len(pair_vecs)),
        origin.ctypes.data_as(dbl),
        ctypes.c_double(spacing),
        ctypes.c_double(iso),
        vertices.ctypes.data_as(dbl),
        faces.ctypes.data_as(i64),
        counts.ctypes.data_as(i64),
    )
    if status == -1:
        raise MemoryError("compiled polygonisation could not allocate")
    if status == -2:
        # Edge keys and entry indices overflow one 64-bit word.
        return _polygonise_numpy(
            cells, corner_values, grid_shape, origin, spacing, iso
        )
    # Shrink the buffers in place: nothing else refers to them.
    vertices.resize((int(counts[0]), 3), refcheck=False)
    faces.resize((int(counts[1]), 3), refcheck=False)
    return TriangleMesh(vertices=vertices, faces=faces)


def _edge_codes(gs1: int, gs2: int) -> tuple:
    """The compiled pass's edge-key tables for a corner grid.

    Returns the 8 cube corners' id offsets, the (8, 8) dedup code of
    every corner pair and each code's direction vector, derived exactly
    as :func:`_polygonise_numpy` derives them.
    """
    local_off = (
        _CUBE_CORNERS[:, 0] * gs1 + _CUBE_CORNERS[:, 1]
    ) * gs2 + _CUBE_CORNERS[:, 2]
    pair_diffs = np.unique(np.abs(local_off[:, None] - local_off[None, :]))
    pair_diffs = pair_diffs[pair_diffs > 0]
    vec_by_off = {}
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                vec_by_off[(dx * gs1 + dy) * gs2 + dz] = (dx, dy, dz)
    pair_vecs = np.array(
        [vec_by_off[int(d)] for d in pair_diffs], dtype=np.float64
    )
    pair_code = np.searchsorted(
        pair_diffs, np.abs(local_off[None, :] - local_off[:, None])
    ).astype(np.int32)
    return local_off, pair_code, pair_vecs


def _polygonise_numpy(
    cells: np.ndarray,
    corner_values: np.ndarray,
    grid_shape: np.ndarray,
    origin: np.ndarray,
    spacing: float,
    iso: float,
) -> TriangleMesh:
    """:func:`_polygonise` in NumPy: the fallback when no compiled
    kernel is available, and the reference the compiled pass must
    reproduce bit for bit."""
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
