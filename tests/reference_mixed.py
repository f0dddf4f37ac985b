"""The sort-based oracle for mixed-depth polygonisation.

:func:`repro.geometry.octree._polygonise_mixed` resolves a mixed-depth
leaf set on the finest lattice by scattering each depth group's
expanded corner values onto a dense volume, the finest group first so
that coarser groups overwrite it.  The oracle here does the same job
the way it was first written:
concatenate every leaf's expanded fine-corner ids and values
coarse-first, keep each id's first occurrence with ``np.unique``, and
look every candidate cell's corners up with ``searchsorted``.  Both
must return the same mesh and surface cells, bit for bit::

    mesh, cells = reference_polygonise_mixed(
        leaves, levels, lo, extent, resolution, iso
    )
"""

from __future__ import annotations

import numpy as np

from repro.geometry.marching import _CUBE_CORNERS, _polygonise
from repro.geometry.octree import _SUB_PERM


def reference_polygonise_mixed(
    leaves: list,
    levels: tuple,
    lo: np.ndarray,
    extent: float,
    resolution: int,
    iso: float,
) -> tuple:
    """The sort-based mixed-depth polygonisation (the oracle).

    Every leaf contributes trilinearly interpolated values at all fine-
    lattice corners it covers, plus its covered fine cells as polygon
    candidates.  Contributions are concatenated coarse-first and each
    fine corner keeps its *first* value (``np.unique`` first-occurrence
    semantics), so hanging nodes take the coarsest covering leaf's
    interpolant.  Returns ``(mesh, surface_cells)``.
    """
    gs = resolution + 1
    id_parts = []
    val_parts = []
    cand_parts = []
    for depth, cells, corner_values, _ in leaves:
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
