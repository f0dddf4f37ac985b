"""The compiled corner pass of a refinement level against the NumPy one.

:func:`repro.geometry.marching._evaluate_level` dedups a level's cell
corners into query points, calls the field once, and gathers each
cell's 8 corner values and its (straddling, active) flags.
With the compiled library it runs ``level_points`` / ``level_gather``
around that call; it must hand the field the same point bytes, in the
same order, and return the same values and flags as the reference
:func:`repro.geometry.marching._evaluate_corners` followed by
:func:`repro.geometry.marching._classify`.  The cell sets below are
random subsets of grids of every size, a single cell, cells on the
grid's faces and an empty level, with corner values that tie the iso
level, sit within a diagonal of it, are NaN or infinite, and cell boxes
past the dense dedup limit (the sort-based fallback).  With the kernel
disabled (``REPRO_DISABLE_C_KERNEL=1``) the same properties exercise
the NumPy fallback.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry import marching
from repro.geometry.marching import (
    _QueryScratch,
    _classify,
    _evaluate_corners,
    _evaluate_level,
)

ORIGIN = np.array([-0.75, 0.5, 1.25])


class _LatticeField:
    """Values looked up on a random corner lattice; records every call's
    points."""

    def __init__(self, lattice, spacing):
        self.lattice = lattice
        self.spacing = spacing
        self.calls = []

    def __call__(self, points):
        self.calls.append(points.copy())
        ijk = np.rint((points - ORIGIN) / self.spacing).astype(np.int64)
        return self.lattice[ijk[:, 0], ijk[:, 1], ijk[:, 2]]


def _cells(rng, level, layout, density):
    if layout == "empty":
        return np.zeros((0, 3), dtype=np.int64)
    if layout == "single":
        return rng.integers(0, level, size=(1, 3))
    grid = rng.random((level, level, level)) < density
    if layout == "faces":
        interior = np.zeros_like(grid)
        interior[1:-1, 1:-1, 1:-1] = True
        grid &= ~interior
    cells = np.argwhere(grid)
    if not len(cells):
        cells = np.array([[0, level - 1, 0]])
    # Refinement hands in children parent by parent, not sorted.
    return cells[rng.permutation(len(cells))]


def _lattice(rng, level, values, spacing):
    shape = (level + 1,) * 3
    if values == "ties":
        lattice = np.round(rng.normal(size=shape) * 2) / 2
    elif values == "near":
        # Within a few diagonals of the level: the active margin
        # decides.
        lattice = rng.uniform(-3, 3, size=shape) * spacing * np.sqrt(3.0)
    else:
        lattice = rng.normal(size=shape)
    if values == "non-finite":
        pick = rng.random(shape)
        lattice[pick < 0.05] = np.nan
        lattice[(pick >= 0.05) & (pick < 0.08)] = np.inf
        lattice[(pick >= 0.08) & (pick < 0.1)] = -np.inf
    return lattice


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


class TestMatchesNumPy:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        level=st.integers(1, 24),
        layout=st.sampled_from(("random", "single", "faces", "empty")),
        density=st.floats(0.02, 1.0),
        values=st.sampled_from(("normal", "ties", "near", "non-finite")),
        iso=st.sampled_from(("zero", "tie", "offset")),
        sort_fallback=st.booleans(),
    )
    def test_points_values_flags_and_counts(
        self, seed, level, layout, density, values, iso, sort_fallback
    ):
        rng = np.random.default_rng(seed)
        spacing = 1.7 / level
        lattice = _lattice(rng, level, values, spacing)
        cells = _cells(rng, level, layout, density)
        if iso == "tie":
            finite = lattice[np.isfinite(lattice)]
            level_iso = float(rng.choice(finite)) if finite.size else 0.0
        else:
            level_iso = 0.0 if iso == "zero" else float(rng.normal())

        want_field = _LatticeField(lattice, spacing)
        if len(cells):
            want_values = _evaluate_corners(
                want_field, cells, ORIGIN, spacing, level + 1,
                _QueryScratch(),
            )
            want_flags = _classify(want_values, level_iso, spacing)
        else:
            want_values = np.zeros((0, 8))
            want_flags = (np.zeros(0, dtype=bool),) * 2

        # A scratch that already served a larger level: stale ranks and
        # points must not leak into this one.
        scratch = _QueryScratch()
        _evaluate_level(
            _LatticeField(lattice, spacing),
            np.argwhere(np.ones((level,) * 3, dtype=bool)), ORIGIN,
            spacing, level + 1, level_iso, scratch,
        )
        got_field = _LatticeField(lattice, spacing)
        limit = marching._DENSE_DEDUP_LIMIT
        if sort_fallback:
            marching._DENSE_DEDUP_LIMIT = 0
        try:
            got = _evaluate_level(
                got_field, cells, ORIGIN, spacing, level + 1, level_iso,
                scratch,
            )
        finally:
            marching._DENSE_DEDUP_LIMIT = limit

        assert len(got_field.calls) == len(want_field.calls)
        for got_points, want_points in zip(
            got_field.calls, want_field.calls
        ):
            assert _same(got_points, want_points)
        assert _same(got[0], want_values)
        assert len(got) == 1 + len(want_flags) == 3
        for got_flag, want_flag in zip(got[1:], want_flags):
            assert _same(got_flag, want_flag)

    def test_empty_level_calls_no_field(self):
        field = _LatticeField(np.zeros((3, 3, 3)), 0.5)
        values, *flags = _evaluate_level(
            field, np.zeros((0, 3), dtype=np.int64), ORIGIN, 0.5, 3, 0.0,
            _QueryScratch(),
        )
        assert field.calls == []
        assert values.shape == (0, 8)
        assert [flag.shape for flag in flags] == [(0,)] * 2
