"""Octree-adaptive isosurface extraction — the one surface extractor.

:func:`extract_surface_octree` (also bound as :func:`extract_surface`)
refines a level schedule from a root grid to the target resolution,
halving while the level is even and above the root.  Refinement is a
per-cell decision: cells straddling (or within a cell diagonal of) the
iso level subdivide, everything else is pruned, and an optional depth
budget — :class:`repro.gaze.lod.GazeDepthBudget` — lets cells outside
the viewer's gaze cone stop one or two levels early, so peripheral
body regions cost a fraction of the foveal ones.

When the caller sets no root grid it is derived from the resolution:
the resolution itself up to 64 (one dense pass over the whole grid),
32 above it.  A warm start (``seed_leaves``) replaces the dense root
pass with the previous frame's leaves mapped into this frame's grids,
so a slowly moving body re-evaluates only a band around its surface.

Per refinement level all corner queries are gathered into a single
flush routed through :func:`repro.geometry.sdf.evaluate_packed`, so a
C-backed fused field sees one ragged-batch kernel call per level (not
one per cell), and a serving-pool batching proxy keeps coalescing
cross-stream work exactly as before.

Crack-free mixed-depth polygonisation ("constrained corner sampling"):
every retained leaf — straddling or margin — expands its 8 corner
values onto the *finest* lattice via trilinear interpolation, and each
fine-lattice corner keeps exactly one value, resolved coarsest-leaf
first.  Hanging nodes on a coarse face are thereby constrained to the
coarse leaf's interpolant, which makes the resolved scalar field
single-valued; running the existing marching-tetrahedra tables over
that field is then automatically watertight across depth transitions.
Same-depth neighbours agree bitwise on shared faces because the
interpolation weights at sub-lattice boundaries are exact 0/1.  When
every leaf lands at the maximum depth (no budget, or the whole surface
in-cone) the mixed path is skipped and the finest straddling cells are
polygonised directly.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.marching import (
    _CUBE_CORNERS,
    _CountingSDF,
    _QueryScratch,
    _evaluate_corners,
    _gather_corner_values,
    _polygonise,
    _sort_cells,
    ExtractionStats,
    remap_cells,
)
from repro.geometry.mesh import TriangleMesh
from repro.geometry.sdf import evaluate_packed
from repro.obs.clock import perf_counter

__all__ = [
    "extract_surface",
    "extract_surface_octree",
    "level_schedule",
    "warm_seeds",
]

# Up to this resolution the derived root grid is the resolution itself
# (a single dense pass); above it the schedule starts at _CASCADE_ROOT.
_DENSE_ROOT_LIMIT = 64
_CASCADE_ROOT = 32


def level_schedule(
    resolution: int, base_resolution: Optional[int] = None
) -> tuple:
    """Per-depth grid resolutions: ``(root, ..., resolution)``.

    Halve while even and above ``base_resolution``, so depth ``d`` has
    ``resolution >> (max_depth - d)`` cells per axis and every level
    nests exactly in the next.  ``None`` derives the base from the
    resolution: the resolution itself up to 64, otherwise 32.
    """
    if base_resolution is None:
        base_resolution = (
            resolution
            if resolution <= _DENSE_ROOT_LIMIT
            else _CASCADE_ROOT
        )
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


def extract_surface_octree(
    sdf: Callable[[np.ndarray], np.ndarray],
    bounds: Tuple[np.ndarray, np.ndarray],
    resolution: int,
    iso: float = 0.0,
    base_resolution: Optional[int] = None,
    budget=None,
    seed_leaves: Optional[Sequence] = None,
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
        seed_leaves: optional warm start — a sequence of
            ``(depth, cells)`` pairs naming candidate cells per depth
            (e.g. the previous frame's leaf set mapped and dilated by
            the motion bound).  When given, the dense root pass is
            skipped and refinement begins from the seeds; the caller
            must guarantee the seeds cover every cell the surface
            crosses, or parts of it are missed.
        stats: optional :class:`~repro.geometry.marching.
            ExtractionStats` filled in place.

    Returns:
        The extracted :class:`TriangleMesh`.
    """
    lo = np.asarray(bounds[0], dtype=np.float64)
    hi = np.asarray(bounds[1], dtype=np.float64)
    if np.any(hi <= lo):
        raise GeometryError("bounds max must exceed min on every axis")
    if resolution < 2:
        raise GeometryError("resolution must be at least 2")
    extent = float((hi - lo).max())

    levels = level_schedule(resolution, base_resolution)
    max_depth = len(levels) - 1
    counting = _CountingSDF(sdf)
    packed = _PackedField(counting)
    scratch = _QueryScratch()

    pending: dict = {}
    if seed_leaves is not None:
        for depth, cells in seed_leaves:
            cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
            if len(cells):
                pending.setdefault(
                    min(int(depth), max_depth), []
                ).append(cells)
    warm = bool(pending)

    # (depth, cells, corner_values, straddling, seedable), appended
    # coarse-first.
    leaves = []
    cells_refined = 0
    cells_skipped_gaze = 0
    level_spans = []
    carried: Optional[np.ndarray] = None  # children for the next depth

    for depth, level in enumerate(levels):
        spacing = extent / level
        t0 = perf_counter()
        evals_before = counting.count

        seeds = pending.pop(depth, None)
        if depth == 0 and not warm:
            # Dense root pass over the whole grid.
            axis = np.linspace(0.0, extent, level + 1)
            grid = np.stack(
                np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1
            ).reshape(-1, 3) + lo
            values = packed(grid).reshape(level + 1, level + 1, level + 1)
            cells = np.stack(
                np.meshgrid(
                    np.arange(level),
                    np.arange(level),
                    np.arange(level),
                    indexing="ij",
                ),
                axis=-1,
            ).reshape(-1, 3)
            corner_values = _gather_corner_values(values, cells)
        else:
            if seeds is None:
                if carried is None:
                    continue
                # Children of distinct in-bounds parents are distinct
                # and in bounds: no filter or merge needed.
                cells = carried
            else:
                cells = np.concatenate(
                    seeds if carried is None else [carried, *seeds]
                )
                cells = cells[
                    np.all((cells >= 0) & (cells < level), axis=1)
                ]
                if not len(cells):
                    carried = None
                    continue
                # Merge children and seeds through the linear index;
                # the cell *set* alone determines the output (corner
                # dedup and the final sort are both linear-index
                # driven), so the sort here changes no result bit.
                linear = (
                    cells[:, 0] * level + cells[:, 1]
                ) * level + cells[:, 2]
                if len(linear) > 1 and not np.all(
                    linear[1:] > linear[:-1]
                ):
                    linear = np.unique(linear)
                cells = np.stack(
                    [
                        linear // (level * level),
                        (linear // level) % level,
                        linear % level,
                    ],
                    axis=1,
                )
            corner_values = _evaluate_corners(
                packed, cells, lo, spacing, level + 1, scratch
            )

        # Every point of a cell lies within half a cell diagonal of one
        # of its corners, so a 1-Lipschitz field's surface can cross a
        # cell only if it straddles the iso level or a corner value
        # comes within that margin: such cells seed the next frame's
        # warm start.  Refinement keeps cells within a whole diagonal.
        vmin = corner_values.min(axis=1)
        vmax = corner_values.max(axis=1)
        strad = (vmin <= iso) & (vmax >= iso)
        gap = np.minimum(np.abs(vmin - iso), np.abs(vmax - iso))
        diagonal = spacing * np.sqrt(3.0)
        seedable = strad | (gap <= 0.5 * diagonal)
        if depth < max_depth or not leaves:
            # Coarser depths refine the active cells; a pure finest-
            # depth extraction polygonises the straddling ones.
            active = strad | (gap <= diagonal)
            cells = cells[active]
            corner_values = corner_values[active]
            strad = strad[active]
            seedable = seedable[active]
        # else: depths mix.  Keep every *evaluated* finest cell as a
        # candidate — coarser neighbours' interpolants overwrite face
        # corner values during resolution, which can flip borderline
        # straddle decisions, so filtering on the raw values here would
        # punch pinholes along depth transitions.  The resolved-value
        # straddle test in _polygonise_mixed does the real filtering.

        # Per-cell stop decision.  Margin (non-straddling) cells that
        # stop are retained as leaves too: their interpolated values
        # close the resolved field around straddling neighbours, which
        # the watertightness of the mixed polygonisation relies on.
        if depth == max_depth:
            if len(cells):
                leaves.append(
                    (depth, cells, corner_values, strad, seedable)
                )
            refine = cells[:0]
        elif budget is None:
            refine = cells
        else:
            centers = lo + (cells.astype(np.float64) + 0.5) * spacing
            targets = np.asarray(
                budget.target_depths(centers, max_depth), dtype=np.int64
            )
            stop = targets <= depth
            cells_skipped_gaze += int(np.count_nonzero(stop & strad))
            if np.any(stop):
                leaves.append(
                    (depth, cells[stop], corner_values[stop],
                     strad[stop], seedable[stop])
                )
            refine = cells[~stop]
        cells_refined += len(refine)
        carried = (
            (refine[:, None, :] * 2 + _CUBE_CORNERS[None]).reshape(-1, 3)
            if len(refine)
            else None
        )

        level_spans.append(
            {
                "name": "extract.level",
                "start": t0,
                "end": perf_counter(),
                "depth": depth,
                "cells": int(len(cells)),
                "evaluations": int(counting.count - evals_before),
            }
        )

    spacing_fine = extent / resolution
    if not leaves:
        mesh = TriangleMesh(
            vertices=np.zeros((0, 3)),
            faces=np.zeros((0, 3), dtype=np.int64),
        )
        surface = np.zeros((0, 3), dtype=np.int64)
    elif len(leaves) == 1 and leaves[0][0] == max_depth:
        # Uniform-depth leaf set: classic finest-lattice polygonisation
        # of the straddling cells, in linear-index order.
        _, cells, vals, strad, _ = leaves[0]
        surface, vals = _sort_cells(cells[strad], vals[strad], resolution)
        grid_shape = np.array([resolution + 1] * 3)
        mesh = _polygonise(
            surface, vals, grid_shape, lo, spacing_fine, iso
        )
    else:
        mesh, surface = _polygonise_mixed(
            leaves, levels, lo, extent, resolution, iso
        )

    if stats is not None:
        seed_cells = [cells[seed] for _, cells, _, _, seed in leaves]
        seed_depths = [
            np.full(len(group), leaf[0], dtype=np.int64)
            for leaf, group in zip(leaves, seed_cells)
        ]
        stats.field_evaluations = counting.count
        stats.warm_started = warm
        stats.surface_cells = surface
        stats.origin = lo
        stats.spacing = spacing_fine
        stats.resolution = resolution
        stats.leaf_cells = (
            np.concatenate(seed_cells, axis=0)
            if seed_cells
            else np.zeros((0, 3), dtype=np.int64)
        )
        stats.leaf_depths = (
            np.concatenate(seed_depths)
            if seed_depths
            else np.zeros(0, dtype=np.int64)
        )
        stats.leaf_levels = levels
        stats.cells_refined = cells_refined
        stats.cells_skipped_gaze = cells_skipped_gaze
        stats.level_spans = level_spans
    return mesh


#: The one extractor under its general name.
extract_surface = extract_surface_octree


def warm_seeds(
    prev: ExtractionStats,
    bounds: Tuple[np.ndarray, np.ndarray],
    resolution: int,
    base_resolution: Optional[int] = None,
    motion: float = 0.0,
    budget=None,
    max_dilation: int = 3,
) -> Optional[list]:
    """Per-depth warm-start seeds from a previous extraction's leaves.

    Maps ``prev``'s leaf set — every leaf that may hold surface (see
    :attr:`ExtractionStats.leaf_cells`) — into the per-depth grids of an
    extraction of ``bounds`` at ``resolution``, dilated by the motion
    bound, as ``seed_leaves`` for :func:`extract_surface_octree`.

    ``motion`` bounds how far any point that moves the field (bone
    endpoints, the cranium centre) travelled since ``prev``.  The field
    is a smooth union of 1-Lipschitz primitives whose value at any
    point shifts by at most that much, so the surface moves at most
    ~``motion``.  A cell the new surface crosses then lies within
    ``2 * motion`` (doubled for blend-zone slack) plus half a source
    cell (the surface's offset from its leaf's centre) of a mapped
    leaf centre.  Index distance after the floor() never exceeds
    ``ceil(|u - v|)``, so that ceil is the dilation.  Seeding from
    every leaf that may hold surface, not only the straddling ones,
    matters on coarse grids: a surface thinner than a cell can pass
    between a cell's corners in one frame and cross a corner in the
    next.

    With a gaze ``budget`` each leaf seeds at ``min(previous depth,
    target depth at its centre)`` — when the gaze moved onto a region
    the seed refines deeper from where it stopped; when it moved away,
    the leaf is coarsened to the new target.

    Returns ``None`` when a cold start is required: no leaves, a
    different grid or level schedule, or a dilation beyond
    ``max_dilation`` (dilating further would cost more than the root
    pass saves).
    """
    levels = level_schedule(resolution, base_resolution)
    if (
        prev.leaf_cells is None
        or prev.leaf_depths is None
        or not len(prev.leaf_cells)
        or prev.resolution != resolution
        or prev.leaf_levels != levels
    ):
        return None
    lo = np.asarray(bounds[0], dtype=np.float64)
    extent = float((np.asarray(bounds[1], dtype=np.float64) - lo).max())
    max_depth = len(levels) - 1
    prev_extent = prev.spacing * prev.resolution
    depths = prev.leaf_depths
    cells = prev.leaf_cells

    if budget is not None:
        per_depth_spacing = np.array(
            [prev_extent / level for level in levels]
        )
        centers = (
            prev.origin
            + (cells.astype(np.float64) + 0.5)
            * per_depth_spacing[depths][:, None]
        )
        targets = np.asarray(
            budget.target_depths(centers, max_depth), dtype=np.int64
        )
        seed_depths = np.minimum(depths, targets)
    else:
        seed_depths = np.minimum(depths, max_depth)

    seeds = []
    for src_depth in np.unique(depths):
        src_spacing = prev_extent / levels[src_depth]
        at_src = depths == src_depth
        for dst_depth in np.unique(seed_depths[at_src]):
            group = cells[at_src & (seed_depths == dst_depth)]
            dst_level = levels[dst_depth]
            dst_spacing = extent / dst_level
            dilation = int(
                np.ceil((2.0 * motion + 0.5 * src_spacing) / dst_spacing)
            )
            if dilation > max_dilation:
                return None
            mapped = remap_cells(
                group,
                prev.origin,
                src_spacing,
                lo,
                dst_spacing,
                dst_level,
                dilation=dilation,
            )
            if len(mapped):
                seeds.append((int(dst_depth), mapped))
    return seeds or None


def _polygonise_mixed(
    leaves: list,
    levels: tuple,
    lo: np.ndarray,
    extent: float,
    resolution: int,
    iso: float,
) -> tuple:
    """Polygonise a mixed-depth leaf set on the finest lattice.

    Every leaf contributes trilinearly interpolated values at all fine-
    lattice corners it covers, plus its covered fine cells as polygon
    candidates.  Contributions are concatenated coarse-first and each
    fine corner keeps its *first* value (``np.unique`` first-occurrence
    semantics), so hanging nodes are constrained to the coarsest
    covering leaf's interpolant and the resolved field is single-valued
    — plain marching tetrahedra over it is watertight across depth
    transitions.
    """
    gs = resolution + 1
    id_parts = []
    val_parts = []
    cand_parts = []
    for depth, cells, corner_values, _, _ in leaves:
        s = resolution // levels[depth]
        base = cells * s
        if s == 1:
            corner_coords = base[:, None, :] + _CUBE_CORNERS[None]
            ids = (
                corner_coords[..., 0] * gs + corner_coords[..., 1]
            ) * gs + corner_coords[..., 2]
            id_parts.append(ids.reshape(-1))
            val_parts.append(corner_values.reshape(-1))
            cand_parts.append(
                (base[:, 0] * resolution + base[:, 1]) * resolution
                + base[:, 2]
            )
            continue
        # Trilinear expansion onto the (s+1)^3 covered fine corners.
        # Endpoint weights are exactly 0/1, so shared faces between
        # same-depth leaves reproduce the evaluated corner values (and
        # each other) bit for bit.
        t = np.arange(s + 1, dtype=np.float64) / s
        w = np.stack([1.0 - t, t], axis=1)
        tensor = corner_values[:, _SUB_PERM].reshape(-1, 2, 2, 2)
        sub = np.einsum("xa,yb,zc,mabc->mxyz", w, w, w, tensor)
        off = np.arange(s + 1, dtype=np.int64)
        ix = base[:, 0, None, None, None] + off[None, :, None, None]
        iy = base[:, 1, None, None, None] + off[None, None, :, None]
        iz = base[:, 2, None, None, None] + off[None, None, None, :]
        ids = (ix * gs + iy) * gs + iz
        id_parts.append(ids.reshape(-1))
        val_parts.append(sub.reshape(-1))
        co = np.arange(s, dtype=np.int64)
        cx = base[:, 0, None, None, None] + co[None, :, None, None]
        cy = base[:, 1, None, None, None] + co[None, None, :, None]
        cz = base[:, 2, None, None, None] + co[None, None, None, :]
        cand_parts.append(
            ((cx * resolution + cy) * resolution + cz).reshape(-1)
        )

    all_ids = np.concatenate(id_parts)
    all_vals = np.concatenate(val_parts)
    # return_index yields the first occurrence of each id; with the
    # coarse-first concatenation above, that is the coarsest leaf.
    uids, first = np.unique(all_ids, return_index=True)
    uvals = all_vals[first]

    cand = np.unique(np.concatenate(cand_parts))
    cand_cells = np.stack(
        [
            cand // (resolution * resolution),
            (cand // resolution) % resolution,
            cand % resolution,
        ],
        axis=1,
    )
    corner_coords = cand_cells[:, None, :] + _CUBE_CORNERS[None]
    corner_ids = (
        corner_coords[..., 0] * gs + corner_coords[..., 1]
    ) * gs + corner_coords[..., 2]
    corner_vals = uvals[np.searchsorted(uids, corner_ids)]
    strad = (corner_vals.min(axis=1) <= iso) & (
        corner_vals.max(axis=1) >= iso
    )
    cells = cand_cells[strad]
    vals = corner_vals[strad]
    grid_shape = np.array([gs] * 3)
    mesh = _polygonise(
        cells, vals, grid_shape, lo, extent / resolution, iso
    )
    return mesh, cells
