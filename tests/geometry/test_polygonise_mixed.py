"""The dense-lattice mixed-depth polygonisation against its oracle.

:func:`repro.geometry.octree._polygonise_mixed` must return exactly
what the sort-based resolution in :mod:`tests.reference_mixed` returns
— the same vertex and face bytes and the same surface cells — for any
coarse-first leaf set.  The synthetic leaf sets below mix depth groups
of 1, 2, 4 and 8 fine cells per leaf edge, with same-depth leaves
sharing faces, leaves of different depths overlapping (the coarsest
covering leaf must win), per-depth fields that disagree (so which depth wins a corner
matters), iso levels off zero and tied to sampled values, NaN corners,
empty straddle sets, and a dedup limit small enough to force at least
three x-slabs.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.geometry import octree
from repro.geometry.marching import _QueryScratch, _gather_corner_values
from tests.reference_mixed import reference_polygonise_mixed

LO = np.array([-0.5, 0.25, 0.0])
EXTENT = 2.0
DEPTHS = 4  # fine cells per leaf edge: 8, 4, 2, 1


def _leaf_set(seed, root, depths, surface, nan):
    """Coarse-first ``(depth, cells, corner_values, strad)`` leaves over the schedule ``root * 2**d``."""
    rng = np.random.default_rng(seed)
    levels = tuple(root << d for d in range(DEPTHS))
    center = rng.uniform(0.3, 0.7, size=3)
    radius = rng.uniform(0.15, 0.35)
    leaves = []
    for depth in sorted(depths):
        level = levels[depth]
        axis = np.arange(level + 1) / level
        points = np.stack(
            np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1
        )
        field = np.linalg.norm(points - center, axis=-1) - radius
        # Each depth disagrees with the others by its own noise.
        field += rng.normal(scale=0.3 / level, size=field.shape)
        if surface == "none":
            field = np.abs(field) + 1.0
        if nan:
            field[rng.random(field.shape) < 0.02] = np.nan
        # A random sub-box filled at a random density: dense fills make
        # same-depth leaves share faces, and sub-boxes of different
        # depths overlap one another.
        a = rng.integers(0, level, size=3)
        b = rng.integers(0, level, size=3)
        lo, hi = np.minimum(a, b), np.maximum(a, b) + 1
        cells = np.argwhere(np.ones(tuple(hi - lo), dtype=bool)) + lo
        cells = cells[rng.random(len(cells)) < rng.uniform(0.3, 1.0)]
        if not len(cells):
            cells = lo[None]
        values = _gather_corner_values(field, cells)
        flags = np.zeros(len(cells), dtype=bool)
        leaves.append((depth, cells, values, flags))
    return leaves, levels


def _iso(leaves, mode, seed):
    if mode == "zero":
        return 0.0
    rng = np.random.default_rng(seed + 1)
    if mode == "offset":
        return float(rng.uniform(-0.05, 0.05))
    # Tied to a sampled corner value, so some corners sit exactly on
    # the iso level.
    values = np.concatenate([leaf[2].ravel() for leaf in leaves])
    values = values[np.isfinite(values)]
    return float(rng.choice(values)) if len(values) else 0.0


def _slab_limit(leaves, levels, slabs_rng):
    """A dedup limit that splits the leaves' box into at least 3
    x-slabs, or None when the box is too thin to split that far."""
    resolution = levels[-1]
    lows, highs = [], []
    for depth, cells, _, _ in leaves:
        s = resolution // levels[depth]
        lows.append(cells.min(axis=0) * s)
        highs.append((cells.max(axis=0) + 1) * s)
    box = np.max(highs, axis=0) - np.min(lows, axis=0)
    cells_x = int(box[0])
    if cells_x < 3:
        return None
    plane = int((box[1] + 1) * (box[2] + 1))
    width = int(slabs_rng.integers(1, (cells_x - 1) // 2 + 1))
    assert -(-cells_x // width) >= 3
    return (width + 1) * plane


def _assert_same(leaves, levels, iso, limit=None):
    resolution = levels[-1]
    want_mesh, want_cells = reference_polygonise_mixed(
        leaves, levels, LO, EXTENT, resolution, iso
    )
    scratch = _QueryScratch()
    if limit is None:
        got_mesh, got_cells = octree._polygonise_mixed(
            leaves, levels, LO, EXTENT, resolution, iso, scratch
        )
    else:
        with mock.patch.object(octree, "_DENSE_DEDUP_LIMIT", limit):
            got_mesh, got_cells = octree._polygonise_mixed(
                leaves, levels, LO, EXTENT, resolution, iso, scratch
            )
        # The dense scratch never outgrows the limit.
        assert len(scratch._dense) <= limit
    assert got_cells.dtype == want_cells.dtype
    assert np.array_equal(got_cells, want_cells)
    assert got_mesh.vertices.tobytes() == want_mesh.vertices.tobytes()
    assert got_mesh.faces.tobytes() == want_mesh.faces.tobytes()
    return want_cells


class TestMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        root=st.sampled_from((2, 3, 4)),
        depths=st.sets(st.integers(0, DEPTHS - 1), min_size=1),
        iso=st.sampled_from(("zero", "offset", "tie")),
        surface=st.sampled_from(("sphere", "sphere", "none")),
        nan=st.booleans(),
        slabs=st.booleans(),
    )
    # Every depth group, one slab and many.
    @example(seed=1, root=4, depths={0, 1, 2, 3}, iso="zero",
             surface="sphere", nan=False, slabs=False)
    @example(seed=1, root=4, depths={0, 1, 2, 3}, iso="tie",
             surface="sphere", nan=False, slabs=True)
    # Nothing straddles: empty mesh, no surface cells.
    @example(seed=2, root=3, depths={0, 3}, iso="zero",
             surface="none", nan=False, slabs=True)
    def test_leaf_sets(self, seed, root, depths, iso, surface, nan,
                       slabs):
        leaves, levels = _leaf_set(seed, root, depths, surface, nan)
        level_iso = _iso(leaves, iso, seed)
        limit = None
        if slabs:
            limit = _slab_limit(
                leaves, levels, np.random.default_rng(seed + 2)
            )
        cells = _assert_same(leaves, levels, level_iso, limit)
        if surface == "none" and iso != "tie":
            assert len(cells) == 0

    def test_fixed_sets_straddle(self):
        """The explicit examples above do reach the surface."""
        leaves, levels = _leaf_set(1, 4, {0, 1, 2, 3}, "sphere", False)
        assert len(_assert_same(leaves, levels, 0.0)) > 0
        limit = _slab_limit(leaves, levels, np.random.default_rng(3))
        assert limit is not None
        assert len(_assert_same(leaves, levels, 0.0, limit)) > 0
