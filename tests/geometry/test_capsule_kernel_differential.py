"""Differential test: C capsule kernel vs the NumPy closure chain.

The fused kernel promises bit-level-tight agreement (<= 1e-9) with the
reference ``smooth_union`` closure chain over randomized articulated
bodies, and its two backends (C and NumPy) give the same bytes.  We sweep randomized capsule sets and ellipsoids at grid
resolutions 64/128/256, sampling lattice points rather than walking
the full cube so the 256-resolution case stays fast.

Each test runs against whichever backends exist: the NumPy evaluator
always, and the compiled C kernel when a toolchain is available (CI
exercises both via ``REPRO_DISABLE_C_KERNEL``).
"""

import numpy as np
import pytest

from repro.avatar.implicit import PosedBodyField
from repro.body.expression import ExpressionParams
from repro.body.pose import BodyPose
from repro.errors import GeometryError
from repro.geometry.capsule_kernel import kernel_available
from repro.geometry.sdf import FusedCapsuleUnion, evaluate_batch
from tests.reference_field import reference_field

TOLERANCE = 1e-9
RESOLUTIONS = (64, 128, 256)

needs_kernel = pytest.mark.skipif(
    not kernel_available(),
    reason="C capsule kernel unavailable (no toolchain or disabled)",
)


def _random_body(rng, num_segments):
    """A randomized articulated body: capsules plus a head ellipsoid."""
    heads = rng.uniform(-0.8, 0.8, size=(num_segments, 3))
    tails = heads + rng.uniform(-0.4, 0.4, size=(num_segments, 3))
    if num_segments >= 2:
        tails[1] = heads[1]  # zero-length leaf bone: degenerate case
    radii_head = rng.uniform(0.02, 0.15, size=num_segments)
    radii_tail = rng.uniform(0.02, 0.15, size=num_segments)
    return dict(
        heads=heads,
        tails=tails,
        radii_head=radii_head,
        radii_tail=radii_tail,
        blend=float(rng.uniform(0.02, 0.10)),
        ellipsoid_center=rng.uniform(-0.5, 0.5, size=3),
        ellipsoid_radii=rng.uniform(0.05, 0.25, size=3),
    )


def _lattice_sample(rng, resolution, count=8192):
    """``count`` points drawn from the resolution^3 extraction lattice
    over [-1, 1]^3 — the exact coordinates marching cubes evaluates."""
    axis = np.linspace(-1.0, 1.0, resolution)
    ijk = rng.integers(0, resolution, size=(count, 3))
    return axis[ijk]


class TestNumpyBackendVsClosureChain:
    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_matches_reference_at_resolution(self, resolution):
        rng = np.random.default_rng(resolution)
        for trial in range(3):
            fused = FusedCapsuleUnion(
                **_random_body(rng, num_segments=int(
                    rng.integers(1, 24)
                )),
                backend="numpy",
            )
            assert fused.backend == "numpy"
            points = _lattice_sample(rng, resolution)
            gap = np.abs(fused(points) - fused.reference()(points))
            assert float(gap.max()) <= TOLERANCE


@needs_kernel
class TestCKernelVsClosureChain:
    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_matches_reference_at_resolution(self, resolution):
        rng = np.random.default_rng(1000 + resolution)
        for trial in range(3):
            fused = FusedCapsuleUnion(
                **_random_body(rng, num_segments=int(
                    rng.integers(1, 24)
                )),
                backend="c",
            )
            assert fused.backend == "c"
            points = _lattice_sample(rng, resolution)
            gap = np.abs(fused(points) - fused.reference()(points))
            assert float(gap.max()) <= TOLERANCE

    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_backends_agree_with_each_other(self, resolution):
        rng = np.random.default_rng(2000 + resolution)
        body = _random_body(rng, num_segments=20)
        with_kernel = FusedCapsuleUnion(**body, backend="c")
        pure = FusedCapsuleUnion(**body, backend="numpy")
        points = _lattice_sample(rng, resolution)
        assert with_kernel(points).tobytes() == pure(points).tobytes()


BATCH_SIZES = (1, 8, 64)


def _random_batch(rng, batch_size, backend):
    """A ragged batch: varying primitive counts (including degenerate
    segments), varying point counts (including a zero-point problem),
    mixed with/without ellipsoid."""
    problems = []
    for b in range(batch_size):
        body = _random_body(rng, num_segments=int(rng.integers(1, 24)))
        if b % 3 == 2:
            body.pop("ellipsoid_center")
            body.pop("ellipsoid_radii")
        n_points = int(rng.integers(1, 2048))
        if batch_size > 1 and b == 1:
            n_points = 0  # ragged extreme: an empty problem mid-batch
        points = rng.uniform(-1.0, 1.0, size=(n_points, 3))
        problems.append(
            (FusedCapsuleUnion(**body, backend=backend), points)
        )
    return problems


class TestBatchedEvaluation:
    """The ragged batch API: bit-identical to solo, 1e-9 to reference.

    The batched call promises it only changes *when* kernel work
    happens, never *what* is computed — so batched-vs-solo is asserted
    with array_equal (bitwise), while batched-vs-closure-chain keeps
    the backend tolerance.
    """

    @needs_kernel
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_c_batched_bit_identical_to_solo(self, batch_size):
        rng = np.random.default_rng(3000 + batch_size)
        problems = _random_batch(rng, batch_size, backend="c")
        batched = evaluate_batch(problems)
        for (fn, points), got in zip(problems, batched):
            assert np.array_equal(got, fn(points))

    @needs_kernel
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_c_batched_matches_reference(self, batch_size):
        rng = np.random.default_rng(4000 + batch_size)
        problems = _random_batch(rng, batch_size, backend="c")
        batched = evaluate_batch(problems)
        for (fn, points), got in zip(problems, batched):
            if not len(points):
                assert len(got) == 0
                continue
            gap = np.abs(got - fn.reference()(points))
            assert float(gap.max()) <= TOLERANCE

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_numpy_batched_bit_identical_to_solo(self, batch_size):
        rng = np.random.default_rng(5000 + batch_size)
        problems = _random_batch(rng, batch_size, backend="numpy")
        batched = evaluate_batch(problems)
        for (fn, points), got in zip(problems, batched):
            assert np.array_equal(got, fn(points))

    @needs_kernel
    def test_backends_agree_in_batch(self):
        """The same ragged bodies through a C batch and through NumPy
        solo calls give the same bytes."""
        rng = np.random.default_rng(6000)
        bodies = [
            _random_body(rng, num_segments=int(rng.integers(2, 24)))
            for _ in range(8)
        ]
        point_sets = [
            rng.uniform(-1.0, 1.0, size=(int(rng.integers(64, 1024)), 3))
            for _ in bodies
        ]
        c_problems = [
            (FusedCapsuleUnion(**body, backend="c"), points)
            for body, points in zip(bodies, point_sets)
        ]
        batched = evaluate_batch(c_problems)
        for body, points, got in zip(bodies, point_sets, batched):
            pure = FusedCapsuleUnion(**body, backend="numpy")
            assert got.tobytes() == pure(points).tobytes()

    @needs_kernel
    def test_mixed_backend_batch(self):
        """A batch mixing C-backed, NumPy-backed, and plain-callable
        problems evaluates each exactly as its solo path would."""
        rng = np.random.default_rng(7000)
        body = _random_body(rng, num_segments=6)
        c_fn = FusedCapsuleUnion(**body, backend="c")
        np_fn = FusedCapsuleUnion(**body, backend="numpy")

        def plain(points):
            return np.linalg.norm(points, axis=1) - 0.5

        points = rng.uniform(-1.0, 1.0, size=(512, 3))
        batched = evaluate_batch(
            [(c_fn, points), (np_fn, points), (plain, points)]
        )
        assert np.array_equal(batched[0], c_fn(points))
        assert np.array_equal(batched[1], np_fn(points))
        assert np.array_equal(batched[2], plain(points))

    def test_empty_batch(self):
        assert evaluate_batch([]) == []


class TestPosedBodyVsClosureChain:
    """The avatar's implicit field — posed bone capsules, cranium and
    expression warp — against the closure-chain oracle built from the
    same posed segments, on whichever backend is active."""

    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_posed_field_matches_reference(self, resolution):
        rng = np.random.default_rng(3000 + resolution)
        for trial in range(3):
            expression = (
                ExpressionParams.named(pout=1.0, jaw_open=0.5)
                if trial == 2
                else None
            )
            fld = PosedBodyField(
                pose=BodyPose.random(rng=rng, scale=0.6),
                expression=expression,
            )
            lo, hi = fld.bounds()
            axis = np.linspace(0.0, 1.0, resolution)
            points = lo + axis[
                rng.integers(0, resolution, size=(8192, 3))
            ] * (hi - lo)
            gap = np.abs(fld(points) - reference_field(fld)(points))
            assert float(gap.max()) <= TOLERANCE


class TestBackendSelection:
    def test_explicit_c_raises_when_unavailable(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_C_KERNEL", "1")
        rng = np.random.default_rng(0)
        with pytest.raises(GeometryError, match="unavailable"):
            FusedCapsuleUnion(
                **_random_body(rng, num_segments=4), backend="c"
            )

    def test_disable_env_forces_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_C_KERNEL", "1")
        rng = np.random.default_rng(0)
        fused = FusedCapsuleUnion(
            **_random_body(rng, num_segments=4), backend="auto"
        )
        assert fused.backend == "numpy"
