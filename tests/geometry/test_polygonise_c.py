"""The compiled marching-tetrahedra pass against the NumPy one.

:func:`repro.geometry.marching._polygonise` runs the compiled pass when
the kernel library provides it; it must return exactly the vertex and
face bytes of :func:`repro.geometry.marching._polygonise_numpy`, the
reference.  The cell sets below are random subsets of small grids of
every shape, with corner values that are shared between neighbouring
cells or drawn per cell (so which occurrence of an edge comes first
decides its vertex), values tied to the iso level, edges whose end
values differ by less than 1e-14, NaN corners, iso levels off zero,
and virtual corner grids large enough that edge keys need 64 bits, or
that keys and entry indices no longer share one 64-bit word (the
compiled pass then hands the cells to the NumPy pass).  With the
kernel disabled (``REPRO_DISABLE_C_KERNEL=1``) the same
properties exercise the NumPy fallback.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry import marching
from repro.geometry.capsule_kernel import compiled_capsule_kernel
from repro.geometry.marching import _gather_corner_values

ORIGIN = np.array([-0.5, 0.25, 1.0])
SPACING = 0.037
#: Virtual corner grids, cubic with this many corners per axis, and
#: the shift that moves the cells near their far end: "wide" keys
#: exceed 2**32 (2001**3 corners times 13 edge codes), "widest" keys
#: reach 2**60.
VIRTUAL = {"wide": (2001, [1990, 7, 1500]),
           "widest": (500_000, [499_990, 499_990, 499_990])}


def _inputs(seed, shape, density, values, iso, nan):
    """``(cells, corner_values, iso)`` over a grid of ``shape`` cells."""
    rng = np.random.default_rng(seed)
    cells = np.argwhere(rng.random(shape) < density)
    if values == "independent":
        # Every cell samples its own corners: shared edges disagree.
        corner = rng.normal(size=(len(cells), 8))
    else:
        field = rng.normal(size=tuple(s + 1 for s in shape))
        if values == "ties":
            field = np.round(field * 2) / 2
        corner = _gather_corner_values(field, cells)
    if iso == "offset":
        level = float(rng.uniform(-0.5, 0.5))
    elif iso == "tie":
        # A sampled value, so some corners sit exactly on the level.
        finite = corner[np.isfinite(corner)]
        level = float(rng.choice(finite)) if finite.size else 0.0
    else:
        level = 0.0
    if values == "flat":
        # Corners within 1e-15 of the level: every crossing edge has
        # |vb - va| < 1e-14 and interpolates at its midpoint.
        corner = level + rng.uniform(-1e-15, 1e-15, size=corner.shape)
    if nan:
        corner[rng.random(corner.shape) < 0.1] = np.nan
    return cells, corner, level


def _assert_same(cells, corner, grid_shape, iso):
    got = marching._polygonise(
        cells, corner, grid_shape, ORIGIN, SPACING, iso
    )
    want = marching._polygonise_numpy(
        cells, corner, grid_shape, ORIGIN, SPACING, iso
    )
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.faces.tobytes() == want.faces.tobytes()
    assert got.vertices.shape == want.vertices.shape
    assert got.faces.shape == want.faces.shape
    return got


class TestMatchesNumPy:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(*[st.integers(1, 7)] * 3),
        density=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
        values=st.sampled_from(("shared", "independent", "ties", "flat")),
        iso=st.sampled_from(("zero", "offset", "tie")),
        nan=st.booleans(),
        grid=st.sampled_from(("tight", "wide", "widest")),
    )
    # Non-cubic grids, each value mode, each virtual grid.
    @example(seed=3, shape=(7, 2, 5), density=1.0, values="shared",
             iso="zero", nan=False, grid="tight")
    @example(seed=4, shape=(5, 6, 3), density=0.7, values="independent",
             iso="offset", nan=False, grid="wide")
    @example(seed=5, shape=(6, 6, 6), density=1.0, values="ties",
             iso="tie", nan=True, grid="widest")
    @example(seed=6, shape=(4, 3, 5), density=1.0, values="flat",
             iso="offset", nan=False, grid="wide")
    def test_cell_sets(self, seed, shape, density, values, iso, nan,
                       grid):
        cells, corner, level = _inputs(
            seed, shape, density, values, iso, nan
        )
        grid_shape = np.array(shape) + 1
        if grid != "tight":
            size, offset = VIRTUAL[grid]
            cells = cells + offset
            grid_shape = np.array([size] * 3)
        _assert_same(cells, corner, grid_shape, level)

    def test_examples_reach_the_surface(self):
        """Every value mode produces faces on every virtual grid, whose
        keys are as wide as their names say."""
        assert 2001**3 * 13 >= 2**32
        assert 499_990**3 * 13 >= 2**60
        for size, offset in VIRTUAL.values():
            for values in ("shared", "independent", "ties", "flat"):
                cells, corner, level = _inputs(
                    4, (5, 6, 3), 1.0, values, "offset", False
                )
                mesh = _assert_same(
                    cells + offset, corner, np.array([size] * 3), level
                )
                assert mesh.num_faces > 0

    def test_empty_input(self):
        mesh = _assert_same(
            np.zeros((0, 3), dtype=np.int64), np.zeros((0, 8)),
            np.array([5, 5, 5]), 0.0,
        )
        assert mesh.num_vertices == 0 and mesh.num_faces == 0

    def test_single_cell(self):
        for case in range(1, 255):
            corner = np.where(
                (case >> np.arange(8)) & 1, -1.0, 1.0
            )[None] * np.linspace(0.5, 1.2, 8)
            mesh = _assert_same(
                np.array([[2, 0, 1]]), corner, np.array([4, 3, 5]), 0.0
            )
            assert mesh.num_faces > 0

    def test_no_crossing(self):
        cells = np.argwhere(np.ones((3, 3, 3), dtype=bool))
        mesh = _assert_same(
            cells, np.ones((len(cells), 8)), np.array([4, 4, 4]), 0.0
        )
        assert mesh.num_faces == 0


@pytest.mark.skipif(
    getattr(compiled_capsule_kernel(), "polygonise", None) is None,
    reason="compiled polygonisation unavailable",
)
def test_compiled_pass_refuses_malformed_shapes():
    """Shapes are checked before any pointer reaches the C pass."""
    cells = np.array([[0, 0, 0], [1, 0, 0]])
    for bad in (
        (cells, np.zeros((2, 7)), np.array([3, 2, 2])),
        (cells, np.zeros((3, 8)), np.array([3, 2, 2])),
        (cells[:, :2], np.zeros((2, 8)), np.array([3, 2, 2])),
        (cells, np.zeros((2, 8)), np.array([3, 2])),
    ):
        with pytest.raises(GeometryError, match="polygonise needs"):
            marching._polygonise(*bad, ORIGIN, SPACING, 0.0)
