"""The compiled kernel's per-bin primitive cull is exact, and no
backend's value for a point depends on its call.

The C evaluator bins the query points of a call on a coarse grid over
their bounding box and walks, per bin, only the primitives whose
smooth-min step is not provably an exact no-op for every point of the
bin.  Which primitives a point walks therefore depends on the other
points of its call, but its value must not: a point evaluated alone
(too few points to bin, the full walk), in the whole array, in a
shuffled array or in a random subset (other bins, other lists) gives
the same bytes.  These properties sweep random capsule unions and
posed bodies, bodies ~1 km from the origin, the hard min, zero-length
segments, one primitive, an ellipsoid alone, coincident points, and
points placed on the boundary of the no-op test, d_j == acc + k.
The two call-independence properties run on the NumPy evaluator too,
which computes the same per-point expression without binning; a large
NumPy call, which measures one primitive at a time at the points its
skip keeps, gives the bytes of small calls, which measure a block of
primitives at every point.

A batch mixing non-finite query points with finite ones returns the
finite points as they come alone, and the non-finite ones as the
kernel gave them before it culled (values recorded from the full walk).

The C kernel evaluates a group of points at a time in SIMD lanes, each
lane running the scalar expression; every property runs at each width
the host offers (2 lanes always, 4 with AVX2), and every width gives
the NumPy evaluator's bytes: short groups, calls either side of the
cull's 64-point floor, non-finite points sharing a group with finite
ones, every fold (smooth, blend 0, blend < 0), zero-length segments and
an ellipsoid alone.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.avatar.implicit import PosedBodyField
from repro.body.pose import BodyPose
from repro.geometry.capsule_kernel import (
    compiled_capsule_kernel,
    kernel_available,
)
from repro.geometry.sdf import FusedCapsuleUnion, evaluate_batch

# The C kernel at every width this host runs ("c2", "c4").
C_BACKENDS = tuple(
    f"c{lanes}"
    for lanes in sorted({2, compiled_capsule_kernel().lanes})
) if kernel_available() else ()
BACKENDS = C_BACKENDS + ("numpy",)


def _fused(backend, **fields):
    """A FusedCapsuleUnion on ``backend``: "numpy", or "c2" / "c4", the
    C kernel at that many lanes (its batch entry, which runs the host's
    width, kept at that width only)."""
    if backend == "numpy":
        return FusedCapsuleUnion(backend="numpy", **fields)
    fused = FusedCapsuleUnion(backend="c", **fields)
    kernel, lanes = fused._kernel, int(backend[1:])

    def solo(*args):
        assert kernel.solo_lanes(*args, lanes) == lanes

    fused._kernel = dataclasses.replace(
        kernel, solo=solo,
        batch=kernel.batch if lanes == kernel.lanes else None,
    )
    return fused


def _numpy_twin(fused):
    return FusedCapsuleUnion(
        heads=fused._a, tails=fused._b, radii_head=fused._ra,
        radii_tail=fused._rb, blend=fused.blend,
        ellipsoid_center=fused._ell_center,
        ellipsoid_radii=fused._ell_radii, backend="numpy",
    )


def _same_bits(got, want):
    got = np.ascontiguousarray(got, dtype=np.float64)
    want = np.ascontiguousarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64)
    )


def _same_values(got, want):
    """The same bits at every finite value, the same non-finite values
    (NaN of any payload) elsewhere."""
    finite = np.isfinite(want)
    return np.array_equal(got, want, equal_nan=True) and _same_bits(
        got[finite], want[finite]
    )


def _assert_call_independent(fused, points, rng):
    """Every point gives the same bytes alone, in the whole array,
    shuffled and in random subsets; on the C kernel, the NumPy
    evaluator's bytes."""
    whole = fused(points)
    if fused.backend == "c":
        assert _same_values(whole, _numpy_twin(fused)(points))
    alone = np.concatenate([fused(p[None]) for p in points])
    assert _same_bits(whole, alone)
    order = rng.permutation(len(points))
    assert _same_bits(fused(points[order]), whole[order])
    for _ in range(3):
        keep = rng.random(len(points)) < rng.uniform(0.2, 0.9)
        assert _same_bits(fused(points[keep]), whole[keep])
    (batched,) = evaluate_batch([(fused, points)])
    assert _same_bits(batched, whole)


def _capsule_union(rng, n_prims, blend, ellipsoid, offset, backend):
    heads = rng.uniform(-0.5, 0.5, size=(n_prims, 3))
    tails = heads + rng.uniform(-0.3, 0.3, size=(n_prims, 3))
    degenerate = rng.random(n_prims) < 0.2
    tails[degenerate] = heads[degenerate]  # zero-length segments
    radii = rng.uniform(0.02, 0.15, size=(2, n_prims))
    extra = {}
    if ellipsoid:
        extra = dict(
            ellipsoid_center=rng.uniform(-0.3, 0.3, size=3) + offset,
            ellipsoid_radii=rng.uniform(0.05, 0.2, size=3),
        )
    return _fused(
        backend, heads=heads + offset, tails=tails + offset,
        radii_head=radii[0], radii_tail=radii[1], blend=blend, **extra,
    )


def _posed_body(rng, offset, backend):
    pose = BodyPose.identity()
    pose.joint_rotations[:22] = rng.normal(scale=0.25, size=(22, 3))
    pose.translation = np.asarray(offset, dtype=np.float64)
    field = PosedBodyField(pose=pose)
    fused, _ = field.kernel_problem(np.zeros((1, 3)))
    return _fused(
        backend, heads=fused._a, tails=fused._b, radii_head=fused._ra,
        radii_tail=fused._rb, blend=fused.blend,
        ellipsoid_center=fused._ell_center,
        ellipsoid_radii=fused._ell_radii,
    )


def _query_points(rng, fused, count):
    """Uniform points around the field plus points near its capsule
    surfaces, with a few exact duplicates."""
    if fused.num_segments:
        anchors = np.vstack([fused._a, fused._b])
    else:
        anchors = fused._ell_center[None]
    lo = anchors.min(axis=0) - 0.3
    hi = anchors.max(axis=0) + 0.3
    uniform = rng.uniform(lo, hi, size=(count // 2, 3))
    near = []
    for _ in range(count - len(uniform)):
        if not fused.num_segments:
            near.append(rng.uniform(lo, hi))
            continue
        j = rng.integers(fused.num_segments)
        t = rng.uniform(0.0, 1.0)
        axis = fused._a[j] + t * fused._ab[j]
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        radius = fused._ra[j] + t * fused._dr[j]
        near.append(axis + direction * radius * rng.uniform(0.8, 1.3))
    points = np.vstack([uniform, np.array(near).reshape(-1, 3)])
    duplicates = rng.integers(0, len(points), size=count // 10)
    return np.vstack([points, points[duplicates]])


OFFSETS = st.sampled_from(("origin", "far"))


def _offset(rng, where):
    if where == "origin":
        return np.zeros(3)
    direction = rng.normal(size=3)
    return direction / np.linalg.norm(direction) * rng.uniform(900, 1100)


class TestCullIsExact:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_prims=st.integers(1, 16),
        hard_min=st.booleans(),
        ellipsoid=st.booleans(),
        where=OFFSETS,
    )
    def test_random_capsule_unions(
        self, backend, seed, n_prims, hard_min, ellipsoid, where
    ):
        rng = np.random.default_rng(seed)
        blend = 0.0 if hard_min else float(rng.uniform(0.01, 0.1))
        fused = _capsule_union(
            rng, n_prims, blend, ellipsoid, _offset(rng, where), backend
        )
        points = _query_points(rng, fused, int(rng.integers(70, 400)))
        _assert_call_independent(fused, points, rng)

    @pytest.mark.parametrize("backend", C_BACKENDS)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), where=OFFSETS)
    def test_posed_bodies(self, backend, seed, where):
        self._check_posed_body(seed, where, backend)

    # A solo NumPy call over the 70-capsule body costs ~1 ms of fold
    # steps, and each example makes ~660 of them.
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), where=OFFSETS)
    def test_posed_bodies_numpy(self, seed, where):
        self._check_posed_body(seed, where, "numpy")

    # Calls above 4096 points take the NumPy evaluator's one-primitive
    # path, the 500-point parts its block path.
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        body=st.booleans(),
        hard_min=st.booleans(),
        where=OFFSETS,
    )
    def test_large_numpy_calls(self, seed, body, hard_min, where):
        rng = np.random.default_rng(seed)
        offset = _offset(rng, where)
        if body:
            fused = _posed_body(rng, offset, "numpy")
        else:
            blend = 0.0 if hard_min else float(rng.uniform(0.01, 0.1))
            fused = _capsule_union(
                rng, int(rng.integers(1, 16)), blend, True, offset, "numpy"
            )
        points = np.vstack([
            _query_points(rng, fused, 5000),
            [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [-np.inf, 1.0, 1.0]],
        ])
        parts = [
            fused(points[start : start + 500])
            for start in range(0, len(points), 500)
        ]
        assert _same_bits(fused(points), np.concatenate(parts))

    @staticmethod
    def _check_posed_body(seed, where, backend):
        rng = np.random.default_rng(seed)
        fused = _posed_body(rng, _offset(rng, where), backend)
        points = _query_points(rng, fused, 600)
        _assert_call_independent(fused, points, rng)

    @pytest.mark.parametrize("backend", C_BACKENDS)
    def test_ellipsoid_only(self, backend):
        rng = np.random.default_rng(5)
        fused = _ellipsoid_only(backend)
        points = _query_points(rng, fused, 200)
        _assert_call_independent(fused, points, rng)

    @pytest.mark.parametrize("backend", C_BACKENDS)
    def test_coincident_points(self, backend):
        rng = np.random.default_rng(6)
        fused = _posed_body(rng, np.zeros(3), backend)
        point = fused._a[5] + np.array([0.0, fused._ra[5], 0.0])
        points = np.repeat(point[None], 100, axis=0)
        assert _same_bits(
            fused(points), np.repeat(fused(point[None]), 100)
        )

    # Groups shorter than every width, calls either side of the cull's
    # 64-point floor, the three folds, zero-length segments (primitive
    # 0 among them), and zero primitives plus an ellipsoid.
    @pytest.mark.parametrize("backend", C_BACKENDS)
    @pytest.mark.parametrize("blend", [0.05, 0.0, -0.02])
    @pytest.mark.parametrize("count", [*range(1, 10), 63, 64, 65])
    def test_group_edges(self, backend, blend, count):
        rng = np.random.default_rng(count)
        heads = rng.uniform(-0.5, 0.5, size=(6, 3))
        tails = heads + rng.uniform(-0.3, 0.3, size=(6, 3))
        tails[[0, 3]] = heads[[0, 3]]
        radii = rng.uniform(0.02, 0.15, size=(2, 6))
        fields = [_ellipsoid_only(backend, blend)]
        for extra in ({}, _ELLIPSOID):
            fields.append(_fused(
                backend, heads=heads, tails=tails, radii_head=radii[0],
                radii_tail=radii[1], blend=blend, **extra,
            ))
        for fused in fields:
            points = _query_points(rng, fused, count)[:count]
            _assert_call_independent(fused, points, rng)


_ELLIPSOID = dict(
    ellipsoid_center=[0.1, 0.2, 0.3], ellipsoid_radii=[0.2, 0.1, 0.15]
)


def _ellipsoid_only(backend, blend=0.05):
    return _fused(
        backend, heads=np.zeros((0, 3)), tails=np.zeros((0, 3)),
        radii_head=np.zeros(0), radii_tail=np.zeros(0), blend=blend,
        **_ELLIPSOID,
    )


@pytest.mark.parametrize("backend", C_BACKENDS)
class TestNoOpBoundary:
    """Points on capsule 0's surface (acc ~ 0) whose distance to
    capsule 1 is k within a few units of rounding, for blend k.  The
    step is an exact no-op on one side of that boundary only, and next
    to acc ~ 0 the other side moves the last bits; so a cull bound
    whose margin does not dominate rounding at the coordinates'
    magnitude drops a step that matters.  Repeated copies of one point
    make a bin of one position, so the bin adds no slack."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        magnitude=st.sampled_from((0.0, 1e3, 1e8)),
    )
    def test_second_capsule_at_blend_distance(
        self, backend, seed, magnitude
    ):
        rng = np.random.default_rng(seed)
        for _ in range(8):
            direction = rng.normal(size=3)
            offset = direction / np.linalg.norm(direction) * magnitude
            rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            r0, r1 = rng.uniform(0.03, 0.12, size=2)
            k = float(rng.uniform(0.01, 0.08))
            length = rng.uniform(0.1, 0.4)
            # Two parallel capsules; a point at -r0 on the line
            # through both axes has d_0 = 0 and d_1 = spacing + r0 - r1.
            ulp = 2.0 ** -52 * max(0.1, magnitude)
            gap = 0.0 if rng.random() < 0.2 else rng.uniform(-3, 3) * ulp
            spacing = k + r1 - r0 + gap
            heads = np.array([[0.0, 0.0, 0.0], [spacing, 0.0, 0.0]])
            tails = heads + [0.0, 0.0, length]
            fused = _fused(
                backend, heads=heads @ rotation.T + offset,
                tails=tails @ rotation.T + offset,
                radii_head=[r0, r1], radii_tail=[r0, r1], blend=k,
            )
            z = rng.uniform(0.0, length, size=4)
            line = np.stack([np.full(4, -r0), np.zeros(4), z], axis=1)
            for point in line @ rotation.T + offset:
                alone = fused(point[None])
                assert _same_bits(alone, _numpy_twin(fused)(point[None]))
                copies = np.repeat(point[None], 70, axis=0)
                assert _same_bits(fused(copies), np.repeat(alone, 70))


def _non_finite_field(blend, ellipsoid, backend):
    rng = np.random.default_rng(11)
    return _capsule_union(rng, 12, blend, ellipsoid, np.zeros(3), backend)


_INF = float("inf")
_NAN = float("nan")
NON_FINITE_ROWS = np.array([
    [_NAN, 0.0, 0.0],
    [0.1, _NAN, 0.2],
    [_NAN, _NAN, _NAN],
    [_INF, 0.0, 0.0],
    [0.0, -_INF, 0.0],
    [0.0, 0.0, _INF],
    [_INF, _INF, -_INF],
    [-_INF, _NAN, 0.3],
])

# What the kernel returned for NON_FINITE_ROWS before the cull existed
# (every primitive walked), per (blend, ellipsoid) field.
PARENT_VALUES = {
    (0.05, True): [_NAN] * 8,
    (0.0, False): [_NAN, _NAN, _NAN, _INF, _INF, _INF, _INF, _NAN],
}


@pytest.mark.parametrize("backend", C_BACKENDS)
class TestNonFinitePoints:
    @pytest.mark.parametrize("blend,ellipsoid", sorted(PARENT_VALUES))
    def test_mixed_batch(self, backend, blend, ellipsoid):
        fused = _non_finite_field(blend, ellipsoid, backend)
        rng = np.random.default_rng(12)
        finite = _query_points(rng, fused, 200)
        # Huge finite coordinates overflow the bounding box's extent.
        huge = np.array([[1e308, 0.0, 0.0], [-1e308, 0.1, 0.0]])
        for extra in (np.zeros((0, 3)), huge):
            points = np.vstack([finite, NON_FINITE_ROWS, extra])
            points = points[rng.permutation(len(points))]
            got = fused(points)
            alone = np.concatenate([fused(p[None]) for p in points])
            bad = ~np.isfinite(points).all(axis=1)
            assert _same_bits(got[~bad], alone[~bad])
            np.testing.assert_array_equal(got[bad], alone[bad])
            assert _same_values(got, _numpy_twin(fused)(points))
        got = fused(np.vstack([finite, NON_FINITE_ROWS]))[len(finite):]
        np.testing.assert_array_equal(
            got, PARENT_VALUES[(blend, ellipsoid)]
        )

    # Calls below the cull's 64-point floor walk every primitive in
    # groups of consecutive points, so non-finite points share groups
    # with finite ones.
    @pytest.mark.parametrize("blend,ellipsoid", sorted(PARENT_VALUES))
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 9, 40])
    def test_small_call(self, backend, blend, ellipsoid, count):
        fused = _non_finite_field(blend, ellipsoid, backend)
        rng = np.random.default_rng(count)
        finite = _query_points(rng, fused, count)[:count]
        points = np.vstack([finite, NON_FINITE_ROWS])
        points = points[rng.permutation(len(points))]
        got = fused(points)
        alone = np.concatenate([fused(p[None]) for p in points])
        bad = ~np.isfinite(points).all(axis=1)
        assert _same_bits(got[~bad], alone[~bad])
        np.testing.assert_array_equal(got[bad], alone[bad])
        assert _same_values(got, _numpy_twin(fused)(points))

    @pytest.mark.parametrize("end", ["tail", "radius"])
    @pytest.mark.parametrize("value", [_INF, -_INF, _NAN])
    def test_non_finite_primitive(self, backend, end, value):
        # A primitive with a non-finite end or radius makes its bounds
        # meaningless; no step may be culled on them.
        rng = np.random.default_rng(13)
        fused = _non_finite_field(0.05, True, backend)
        tails, radii = fused._b.copy(), fused._rb.copy()
        if end == "tail":
            tails[4, 0] = value
        else:
            radii[4] = abs(value)
        broken = _fused(
            backend, heads=fused._a, tails=tails, radii_head=fused._ra,
            radii_tail=radii, blend=0.05,
            ellipsoid_center=fused._ell_center,
            ellipsoid_radii=fused._ell_radii,
        )
        points = _query_points(rng, fused, 200)
        _assert_call_independent(broken, points, rng)
