"""Octree-adaptive isosurface extraction — the one surface extractor.

:func:`extract_surface_octree` (also bound as :func:`extract_surface`)
refines a level schedule from a root grid to the target resolution,
halving while the level is even and above the root.  Refinement is a
per-cell decision: cells straddling (or within a cell diagonal of) the
iso level subdivide, everything else is pruned, and an optional depth
budget — :class:`repro.gaze.lod.GazeDepthBudget` — lets cells outside
the viewer's gaze cone stop one or two levels early, so peripheral
body regions cost a fraction of the foveal ones.

When the caller sets no root grid the schedule halves down to 16 cells
per axis, so the dense root pass covers at most 17^3 corners and every
later level evaluates only the cells near the surface; without a
budget the mesh does not depend on the root (see
:func:`level_schedule`).  Every extraction starts from that dense root
pass: the mesh is a function of the field, the grid and the budget
alone.

Extraction runs in three steps: a refinement pass that evaluates each
depth and records what it evaluated (:class:`OctreeRefinement`), a leaf
selection per depth budget (one stop rule, :func:`_stop_rule`, for the
pass's own budget and for :func:`select_leaves`), and polygonisation.
A budget that never refines a cell the record's budget did not sees,
at every depth, a subset of the recorded cells with the same corner
values, so :func:`derive_surface` extracts a coarser gaze tier's
surface from a finer tier's record without evaluating the field.

Per refinement level all corner queries are gathered into a single
flush routed through :func:`repro.geometry.sdf.evaluate_packed`, so a
C-backed fused field sees one ragged-batch kernel call per level (not
one per cell), and a serving-pool batching proxy keeps coalescing
cross-stream work exactly as before.

Crack-free mixed-depth polygonisation ("constrained corner sampling"):
every retained leaf — straddling or margin — expands its 8 corner
values onto the *finest* lattice via trilinear interpolation, and the
expansions are scattered onto a dense volume over the leaves' fine-
lattice bounding box one depth group at a time, finest first, so each
coarser group overwrites the finer ones and every corner resolves to
its coarsest covering leaf.  Hanging nodes on a coarse face are
thereby constrained to the coarse leaf's interpolant,
which makes the resolved scalar field single-valued; running the
existing marching-tetrahedra tables over that field is then
automatically watertight across depth transitions.  Same-depth
neighbours agree bitwise on shared faces because the interpolation
weights at sub-lattice boundaries are exact 0/1.  The covered fine
cells are marked in a boolean volume and the straddle test runs on
shifted views of the resolved one, so only straddling cells are ever
gathered; boxes above the dense dedup limit go in x-slabs.  When every
leaf lands at the maximum depth (no budget, or the whole surface
in-cone) the mixed path is skipped and the finest straddling cells are
polygonised directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.marching import (
    _CUBE_CORNERS,
    _DENSE_DEDUP_LIMIT,
    _CountingSDF,
    _QueryScratch,
    _evaluate_level,
    _polygonise,
    _sort_cells,
    ExtractionStats,
)
from repro.geometry.mesh import TriangleMesh
from repro.geometry.sdf import evaluate_packed
from repro.obs.clock import perf_counter

__all__ = [
    "LeafSelection",
    "OctreeRefinement",
    "derive_surface",
    "extract_surface",
    "extract_surface_octree",
    "level_schedule",
    "select_leaves",
]

# The derived schedule halves down to this many cells per axis.
_ROOT_LIMIT = 16


def level_schedule(
    resolution: int, base_resolution: Optional[int] = None
) -> tuple:
    """Per-depth grid resolutions: ``(root, ..., resolution)``.

    Halve while even and above ``base_resolution``, so depth ``d`` has
    ``resolution >> (max_depth - d)`` cells per axis and every level
    nests exactly in the next.  ``None`` derives the schedule with a
    base of 16: the root is the resolution itself at 16 and below.

    The root does not change an unbudgeted extraction's mesh.  That
    mesh is the finest straddling cells polygonised from their corner
    values, and a point's value does not depend on which other points
    share its evaluation call, so the mesh is fixed once every
    straddling finest cell is evaluated, i.e. once every ancestor of
    one is refined.  A straddling cell holds a point of the surface
    (the field is continuous), so each of its ancestors does too.  An
    ancestor of edge ``h`` has a corner within half its diagonal,
    ``sqrt(3) h / 2``, of that point, and for a field with Lipschitz
    constant ``L`` that corner's value lies within ``L sqrt(3) h / 2``
    of the iso level.  With ``L <= 2`` that is at most the diagonal,
    so the ancestor is active and refines; the argument needs the bound
    only from surface points outwards.  A rounded cone's gradient has
    norm ``sqrt(1 + (dr / length)^2)`` (``dr`` the change of radius
    along the axis; at most 1.17 on the body), the smooth minimum's
    gradient is a convex combination of its operands', and a round
    ellipsoid is a sphere's exact distance.  The head ellipsoid's
    approximate distance is steeper than 2 only within about a quarter
    of its smallest radius of its centre, deep inside the head.  The
    tests check the cone bound on rest, posed and reshaped bodies and
    sample the bound from their surfaces through that centre
    (``tests/geometry/test_octree_derive.py::TestRootPremise``).  A
    gaze budget's leaf depths count from the root, so a budgeted
    caller that must keep its leaves names its root.
    """
    if base_resolution is None:
        base_resolution = _ROOT_LIMIT
    levels = [int(resolution)]
    while levels[-1] > base_resolution and levels[-1] % 2 == 0:
        levels.append(levels[-1] // 2)
    levels.reverse()
    return tuple(levels)


class _PackedField:
    """Route each corner flush through the ragged-batch entry point."""

    def __init__(self, sdf: Callable[[np.ndarray], np.ndarray]):
        self._sdf = sdf

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return evaluate_packed(self._sdf, points)


# Corner order (_CUBE_CORNERS) -> raster (x, y, z) order, so a leaf's 8
# values reshape to the (2, 2, 2) trilinear tensor.
_SUB_PERM = (0, 4, 3, 7, 1, 5, 2, 6)
# The 8 corners of that tensor in raster order.
_RASTER = tuple(np.ndindex(2, 2, 2))


@dataclass
class LeafSelection:
    """One depth budget's leaves over a refinement.

    Attributes:
        leaves: ``(depth, cells, corner_values, straddling)`` per group
            of leaves that stop at one depth, coarse-first.
        cells_refined: cells the budget subdivided, over all depths.
        cells_skipped_gaze: straddling cells the budget stopped early.
        level_spans: one ``extract.level`` record per depth visited.
    """

    leaves: list
    cells_refined: int
    cells_skipped_gaze: int
    level_spans: list


@dataclass
class OctreeRefinement:
    """What one refinement pass evaluated, depth by depth.

    :func:`extract_surface_octree` leaves it on ``stats.refinement``;
    :func:`derive_surface` extracts another budget's surface from it
    without evaluating the field.

    Attributes:
        origin: world position of grid corner (0, 0, 0).
        extent: edge length of the cubified sampling box.
        resolution: cells per axis at the deepest level.
        levels: cells per axis at each depth.
        iso: iso value.
        frontiers: per depth, ``(cells, corner_values, straddling,
            active, refined)``: the cells evaluated there, their 8
            corner values, their flags (see
            :func:`repro.geometry.marching._classify`), and the mask of
            those the pass subdivided; ``None`` where it evaluated
            nothing.  The root depth is the whole grid, and each later
            depth's cells are the children of the refined cells, 8 per
            parent in ``_CUBE_CORNERS`` order.
        selection: the pass's own budget's leaves.
        field_evaluations: field points the pass evaluated.
    """

    origin: np.ndarray
    extent: float
    resolution: int
    levels: tuple
    iso: float
    frontiers: list
    selection: LeafSelection
    field_evaluations: int


def extract_surface_octree(
    sdf: Callable[[np.ndarray], np.ndarray],
    bounds: Tuple[np.ndarray, np.ndarray],
    resolution: int,
    iso: float = 0.0,
    base_resolution: Optional[int] = None,
    budget=None,
    stats: Optional[ExtractionStats] = None,
) -> TriangleMesh:
    """Extract the zero level set of an SDF inside an axis-aligned box.

    Args:
        sdf: callable mapping (N, 3) points to (N,) signed distances;
            fields exposing ``kernel_problem`` additionally get their
            per-level flushes packed into single batch kernel calls.
        bounds: (min_corner, max_corner) of the sampling box, cubified
            on its longest edge so cells are isotropic (the field
            outside the original bounds is still well defined).
        resolution: cells per axis at the deepest level.
        iso: iso value.
        base_resolution: resolution of the root grid (depth 0); see
            :func:`level_schedule` for the schedule and the root
            derived when this is ``None``.
        budget: optional per-cell LOD policy with a
            ``target_depths(centers, max_depth) -> (M,) int`` method
            (:class:`repro.gaze.lod.GazeDepthBudget`); cells whose
            target is at or above the current depth stop refining
            there.  ``None`` refines every active cell to the deepest
            level.
        stats: optional :class:`~repro.geometry.marching.
            ExtractionStats` filled in place, including the pass's
            :class:`OctreeRefinement` record.

    Returns:
        The extracted :class:`TriangleMesh`.
    """
    lo, extent = _grid_frame(bounds, resolution)
    levels = level_schedule(resolution, base_resolution)
    scratch = _QueryScratch()
    refinement = _refine(
        sdf, lo, extent, resolution, iso, levels, budget, scratch
    )
    mesh = _polygonise_selection(
        refinement, refinement.selection, scratch, stats
    )
    if stats is not None:
        stats.field_evaluations = refinement.field_evaluations
        stats.refinement = refinement
    return mesh


#: The one extractor under its general name.
extract_surface = extract_surface_octree


def derive_surface(
    refinement: OctreeRefinement,
    bounds: Tuple[np.ndarray, np.ndarray],
    resolution: int,
    iso: float = 0.0,
    base_resolution: Optional[int] = None,
    budget=None,
    stats: Optional[ExtractionStats] = None,
) -> Optional[TriangleMesh]:
    """:func:`extract_surface_octree`'s mesh for ``budget``, taken from
    another extraction's refinement record without evaluating the field.

    The record must come from an extraction of the same field (the
    caller's guarantee); ``bounds``, ``resolution``, ``iso`` and
    ``base_resolution`` must name its grid.  Returns ``None`` when the
    record cannot serve the budget (see :func:`select_leaves`) or its
    grid differs; the caller then extracts from the field.  ``stats``
    is filled as the extraction would fill it, except that it reports
    no field evaluations and no refinement record.
    """
    lo, extent = _grid_frame(bounds, resolution)
    if (
        refinement.resolution != resolution
        or refinement.levels != level_schedule(resolution, base_resolution)
        or refinement.iso != iso
        or refinement.extent != extent
        or not np.array_equal(refinement.origin, lo)
    ):
        return None
    selection = select_leaves(refinement, budget)
    if selection is None:
        return None
    return _polygonise_selection(
        refinement, selection, _QueryScratch(), stats
    )


def select_leaves(
    refinement: OctreeRefinement, budget
) -> Optional[LeafSelection]:
    """The leaves ``budget`` stops at, selected from a record.

    Applies the stop rule the refinement pass applied, depth by depth,
    to the recorded cells: the dense root pass is the same for every
    budget, and each later depth's cells are the children of the
    cells refined above, so a budget that never refines a cell the
    record did not refine sees exactly the cells and corner values it
    would have evaluated itself.  Coverage is checked cell by cell:
    ``None`` when the budget would refine a cell deeper than the
    record did.
    """
    levels = refinement.levels
    max_depth = len(levels) - 1
    leaves: list = []
    cells_refined = 0
    cells_skipped_gaze = 0
    level_spans = []
    # The budget's cells among the depth's recorded ones (None: all).
    candidates: Optional[np.ndarray] = None
    for depth, recorded in enumerate(refinement.frontiers):
        if recorded is None:
            break
        t0 = perf_counter()
        refined = recorded[-1]
        leaf, refine, skipped, kept = _stop_rule(
            depth, recorded[:-1], candidates, refinement.origin,
            refinement.extent / levels[depth], max_depth, budget,
            bool(leaves),
        )
        if np.any(refine & ~refined):
            return None
        if leaf is not None:
            leaves.append(leaf)
        cells_refined += int(np.count_nonzero(refine))
        cells_skipped_gaze += skipped
        candidates = np.repeat(refine[refined], 8)
        level_spans.append(_level_span(t0, depth, kept, 0))
        if not candidates.any():
            break
    return LeafSelection(
        leaves, cells_refined, cells_skipped_gaze, level_spans
    )


def _level_span(
    start: float, depth: int, cells: int, evaluations: int
) -> dict:
    """The ``extract.level`` timing record of one depth, ending now."""
    return {
        "name": "extract.level",
        "start": start,
        "end": perf_counter(),
        "depth": depth,
        "cells": int(cells),
        "evaluations": int(evaluations),
    }


def _grid_frame(
    bounds: Tuple[np.ndarray, np.ndarray], resolution: int
) -> Tuple[np.ndarray, float]:
    """The grid origin and cubified extent of ``bounds``."""
    lo = np.asarray(bounds[0], dtype=np.float64)
    hi = np.asarray(bounds[1], dtype=np.float64)
    if np.any(hi <= lo):
        raise GeometryError("bounds max must exceed min on every axis")
    if resolution < 2:
        raise GeometryError("resolution must be at least 2")
    return lo, float((hi - lo).max())


def _stop_rule(
    depth: int,
    frontier: tuple,
    candidates: Optional[np.ndarray],
    lo: np.ndarray,
    spacing: float,
    max_depth: int,
    budget,
    mixed: bool,
) -> tuple:
    """One depth's stop/leaf decision, shared by every leaf selection.

    ``frontier`` is ``(cells, corner_values, straddling, active)`` of
    the cells evaluated at ``depth``; ``candidates`` masks the ones this
    selection reached (``None``: all of them), and ``mixed`` says whether leaves already stopped at a coarser depth.
    Returns ``(leaf, refine, skipped, kept)``: the group that stops
    here as a leaf (or ``None``), the mask of ``cells`` to subdivide,
    the straddling cells the budget stopped early, and how many cells
    the activity filter kept.
    """
    cells, corner_values, strad, active = frontier
    if depth < max_depth or not mixed:
        # Coarser depths refine the active cells; a pure finest-depth
        # extraction polygonises the straddling ones.
        candidates = active if candidates is None else active & candidates
    # else: depths mix.  Keep every *evaluated* finest cell as a
    # candidate — coarser neighbours' interpolants overwrite face
    # corner values during resolution, which can flip borderline
    # straddle decisions, so filtering on the raw values here would
    # punch pinholes along depth transitions.  The resolved-value
    # straddle test in _polygonise_mixed does the real filtering.
    kept = None if candidates is None else np.flatnonzero(candidates)

    # Per-cell stop decision.  Margin (non-straddling) cells that stop
    # are retained as leaves too: their interpolated values close the
    # resolved field around straddling neighbours, which the
    # watertightness of the mixed polygonisation relies on.
    refine = np.zeros(len(cells), dtype=bool)
    skipped = 0
    if depth == max_depth:
        stop = kept
    elif budget is None:
        stop = kept[:0]
        refine[kept] = True
    else:
        sub = cells[kept]
        centers = lo + (sub.astype(np.float64) + 0.5) * spacing
        targets = np.asarray(
            budget.target_depths(centers, max_depth), dtype=np.int64
        )
        stopping = targets <= depth
        stop = kept[stopping]
        refine[kept[~stopping]] = True
        skipped = int(np.count_nonzero(strad[stop]))
    if stop is None:
        leaf = (depth, cells, corner_values, strad)
    else:
        leaf = (depth, cells[stop], corner_values[stop], strad[stop])
    if not len(leaf[1]):
        leaf = None
    return leaf, refine, skipped, len(cells) if kept is None else len(kept)


def _refine(
    sdf: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    extent: float,
    resolution: int,
    iso: float,
    levels: tuple,
    budget,
    scratch: _QueryScratch,
) -> OctreeRefinement:
    """The refinement pass of :func:`extract_surface_octree`: evaluate
    each depth's cells, select its own budget's leaves as it goes, and
    record what it evaluated."""
    max_depth = len(levels) - 1
    counting = _CountingSDF(sdf)
    packed = _PackedField(counting)

    frontiers: list = [None] * len(levels)
    leaves: list = []
    cells_refined = 0
    cells_skipped_gaze = 0
    level_spans = []
    # The dense root pass over the whole grid.  Its corners go through
    # the same level pass as every other depth.
    cells = np.argwhere(np.ones((levels[0],) * 3, dtype=bool))

    for depth, level in enumerate(levels):
        spacing = extent / level
        t0 = perf_counter()
        evals_before = counting.count
        frontier = (
            cells,
            *_evaluate_level(
                packed, cells, lo, spacing, level + 1, iso, scratch
            ),
        )
        leaf, refine, skipped, kept = _stop_rule(
            depth, frontier, None, lo, spacing, max_depth, budget,
            bool(leaves),
        )
        frontiers[depth] = (*frontier, refine)
        if leaf is not None:
            leaves.append(leaf)
        cells_skipped_gaze += skipped
        refined = cells[refine]
        cells_refined += len(refined)
        # Children of distinct in-bounds parents are distinct and in
        # bounds: no filter or merge needed.
        cells = (refined[:, None, :] * 2 + _CUBE_CORNERS[None]).reshape(-1, 3)
        level_spans.append(
            _level_span(t0, depth, kept, counting.count - evals_before)
        )
        if not len(cells):
            break

    return OctreeRefinement(
        origin=lo,
        extent=extent,
        resolution=resolution,
        levels=levels,
        iso=iso,
        frontiers=frontiers,
        selection=LeafSelection(
            leaves, cells_refined, cells_skipped_gaze, level_spans
        ),
        field_evaluations=counting.count,
    )


def _polygonise_selection(
    refinement: OctreeRefinement,
    selection: LeafSelection,
    scratch: _QueryScratch,
    stats: Optional[ExtractionStats],
) -> TriangleMesh:
    """Polygonise one selection's leaves; fill ``stats`` with the
    selection and its spans."""
    leaves = selection.leaves
    levels = refinement.levels
    lo = refinement.origin
    resolution = refinement.resolution
    iso = refinement.iso
    spacing_fine = refinement.extent / resolution
    t0 = perf_counter()
    mixed = False
    if not leaves:
        mesh = TriangleMesh(
            vertices=np.zeros((0, 3)),
            faces=np.zeros((0, 3), dtype=np.int64),
        )
        surface = np.zeros((0, 3), dtype=np.int64)
    elif len(leaves) == 1 and leaves[0][0] == len(levels) - 1:
        # Uniform-depth leaf set: classic finest-lattice polygonisation
        # of the straddling cells, in linear-index order.
        _, cells, vals, strad = leaves[0]
        surface, vals = _sort_cells(cells[strad], vals[strad], resolution)
        grid_shape = np.array([resolution + 1] * 3)
        mesh = _polygonise(
            surface, vals, grid_shape, lo, spacing_fine, iso
        )
    else:
        mixed = True
        mesh, surface = _polygonise_mixed(
            leaves, levels, lo, refinement.extent, resolution, iso,
            scratch,
        )
    polygonise_span = {
        "name": "extract.polygonise",
        "start": t0,
        "end": perf_counter(),
        "cells": int(len(surface)),
        "mixed": mixed,
    }

    if stats is not None:
        stats.surface_cells = surface
        stats.selection = selection
        stats.cells_refined = selection.cells_refined
        stats.cells_skipped_gaze = selection.cells_skipped_gaze
        stats.level_spans = [*selection.level_spans, polygonise_span]
    return mesh


def _polygonise_mixed(
    leaves: list,
    levels: tuple,
    lo: np.ndarray,
    extent: float,
    resolution: int,
    iso: float,
    scratch: _QueryScratch,
) -> tuple:
    """Polygonise a mixed-depth leaf set on the finest lattice.

    Every leaf expands its 8 corner values trilinearly onto the fine-
    lattice corners it covers and marks the fine cells it covers as
    polygon candidates.  The values are scattered onto a dense volume
    over the leaves' fine-lattice bounding box one depth group at a
    time, finest first, so each coarser group overwrites the finer ones
    and every corner resolves to its coarsest covering leaf (to that
    group's first occurrence of the corner): hanging nodes are
    constrained to the coarsest covering leaf's interpolant, so the
    resolved field is single-valued and plain marching tetrahedra over
    it is watertight across depth transitions.  A candidate straddles
    when one of its 8 resolved corners lies at or below the iso level
    and one at or above it (a NaN corner never straddles); only those
    cells' corner values are gathered for polygonisation.  A box of
    more than ``_DENSE_DEDUP_LIMIT`` corners is resolved in x-slabs
    that each fit, through the same code.

    Returns the mesh and its straddling cells in linear-index order.
    """
    steps = [resolution // levels[leaf[0]] for leaf in leaves]
    # Reduced column by column: along axis 0 of an (n, 3) array the
    # reduction is several times slower.
    box_lo = np.array([
        min(int(leaf[1][:, axis].min()) * s
            for leaf, s in zip(leaves, steps))
        for axis in range(3)
    ])
    box_hi = np.array([
        max((int(leaf[1][:, axis].max()) + 1) * s
            for leaf, s in zip(leaves, steps))
        for axis in range(3)
    ])
    corners = box_hi - box_lo + 1  # corner-lattice shape of the box
    groups = [
        _expand_leaves(leaf[1] * s - box_lo, leaf[2], s, corners)
        for leaf, s in zip(leaves, steps)
    ]
    # Cells per slab, so that its corner planes fit the limit.
    cells_x = int(corners[0]) - 1
    width = max(
        1, _DENSE_DEDUP_LIMIT // int(corners[1] * corners[2]) - 1
    )
    cell_parts = []
    value_parts = []
    for x0 in range(0, cells_x, width):
        cells, values = _resolve_slab(
            groups, x0, min(x0 + width, cells_x), corners, iso,
            scratch, whole=width >= cells_x,
        )
        cells[:, 0] += x0
        cell_parts.append(cells + box_lo)
        value_parts.append(values)
    cells = np.concatenate(cell_parts)
    values = np.concatenate(value_parts)
    grid_shape = np.array([resolution + 1] * 3)
    mesh = _polygonise(
        cells, values, grid_shape, lo, extent / resolution, iso
    )
    return mesh, cells


def _expand_leaves(
    base: np.ndarray,
    corner_values: np.ndarray,
    s: int,
    corners: np.ndarray,
) -> tuple:
    """One depth group's fine-lattice corner values and covered cells.

    ``base`` holds each leaf's lowest fine-lattice corner relative to
    the box whose corner-lattice shape is ``corners``; every leaf spans
    ``s`` fine cells per axis.  Returns the flat box ids of the covered
    corners with their trilinearly interpolated values (leaf-major, in
    the leaf's corner order) and the flat box ids of the covered cells.
    """
    cy, cz = int(corners[1]), int(corners[2])
    corner_base = (base[:, 0] * cy + base[:, 1]) * cz + base[:, 2]
    cell_base = (
        base[:, 0] * (cy - 1) + base[:, 1]
    ) * (cz - 1) + base[:, 2]
    if s == 1:
        ids = corner_base[:, None] + _corner_offsets(cy, cz)[None]
        return ids.reshape(-1), corner_values.reshape(-1), cell_base
    # Trilinear expansion onto the (s+1)^3 covered fine corners.
    # Endpoint weights are exactly 0/1, so shared faces between
    # same-depth leaves reproduce the evaluated corner values (and each
    # other) bit for bit.  The 8 weighted corners are summed onto zero
    # in raster order, weights multiplied x*y*z first: the arithmetic
    # of np.einsum("xa,yb,zc,mabc->mxyz") without its generic loop.
    t = np.arange(s + 1, dtype=np.float64) / s
    w = np.stack([1.0 - t, t], axis=1)
    tensor = corner_values[:, _SUB_PERM].reshape(-1, 2, 2, 2)
    sub = np.zeros((len(base), s + 1, s + 1, s + 1))
    for a, b, c in _RASTER:
        weight = (w[:, a, None, None] * w[None, :, b, None]) * (
            w[None, None, :, c]
        )
        sub += weight[None] * tensor[:, a, b, c, None, None, None]
    off = np.arange(s + 1, dtype=np.int64)
    corner_off = (
        off[:, None, None] * cy + off[None, :, None]
    ) * cz + off[None, None, :]
    co = off[:s]
    cell_off = (
        co[:, None, None] * (cy - 1) + co[None, :, None]
    ) * (cz - 1) + co[None, None, :]
    ids = corner_base[:, None] + corner_off.reshape(1, -1)
    cell_ids = cell_base[:, None] + cell_off.reshape(1, -1)
    return ids.reshape(-1), sub.reshape(-1), cell_ids.reshape(-1)


def _resolve_slab(
    groups: list,
    x0: int,
    x1: int,
    corners: np.ndarray,
    iso: float,
    scratch: _QueryScratch,
    whole: bool,
) -> tuple:
    """Straddling cells (slab-local coords) and their corner values.

    Resolves the box cells ``x0 <= x < x1`` from ``groups`` (coarse-
    first :func:`_expand_leaves` output); ``whole`` marks a slab that
    covers the entire box, so nothing needs clipping.
    """
    cy, cz = int(corners[1]), int(corners[2])
    n_corners = (x1 - x0 + 1) * cy * cz
    n_cells = (x1 - x0) * (cy - 1) * (cz - 1)
    values = scratch.dense(n_corners)
    # Candidates have every corner written; the fill only keeps the
    # comparisons below off uninitialised memory elsewhere.
    values.fill(np.nan)
    candidate = scratch.flags(n_cells)
    candidate.fill(False)
    corner_lo = x0 * cy * cz
    cell_lo = x0 * (cy - 1) * (cz - 1)
    # Finest group first, so each coarser group overwrites it and every
    # corner ends with its coarsest covering leaf's value; reversed
    # within a group, so of a repeated id the group's first occurrence
    # is the one written last.
    for ids, vals, cell_ids in reversed(groups):
        if not whole:
            keep = (ids >= corner_lo) & (ids < corner_lo + n_corners)
            ids = ids[keep] - corner_lo
            vals = vals[keep]
            cell_ids = cell_ids[
                (cell_ids >= cell_lo) & (cell_ids < cell_lo + n_cells)
            ] - cell_lo
        values[ids[::-1]] = vals[::-1]
        candidate[cell_ids] = True

    grid = values.reshape(x1 - x0 + 1, cy, cz)
    strad = _any_corner(grid <= iso)
    strad &= _any_corner(grid >= iso)
    strad &= candidate.reshape(x1 - x0, cy - 1, cz - 1)
    # Flat ids in linear-index order, split back into coordinates.
    x, rest = np.divmod(np.flatnonzero(strad), (cy - 1) * (cz - 1))
    y, z = np.divmod(rest, cz - 1)
    cells = np.stack([x, y, z], axis=1)
    flat = (x * cy + y) * cz + z
    corner_values = values[flat[:, None] + _corner_offsets(cy, cz)[None]]
    # The min/max straddle rule never passes a cell with a NaN corner.
    keep = ~np.isnan(corner_values).any(axis=1)
    return cells[keep], corner_values[keep]


def _corner_offsets(cy: int, cz: int) -> np.ndarray:
    """Flat offsets of a cell's 8 corners, in ``_CUBE_CORNERS`` order,
    on a corner lattice of ``cy`` x ``cz`` corners per x plane."""
    return (
        _CUBE_CORNERS[:, 0] * cy + _CUBE_CORNERS[:, 1]
    ) * cz + _CUBE_CORNERS[:, 2]


def _any_corner(flags: np.ndarray) -> np.ndarray:
    """Per cell of a boolean corner volume: whether any of its 8
    corners is set."""
    flags = flags[:-1] | flags[1:]
    flags = flags[:, :-1] | flags[:, 1:]
    return flags[:, :, :-1] | flags[:, :, 1:]
