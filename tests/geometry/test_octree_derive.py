"""Deriving coarser gaze tiers from one octree refinement.

A budget that stops cells no deeper than another one sees, at every
depth, a subset of that budget's cells with identical corner values.
So the leaves of every tier of a gaze ladder can be selected from one
refinement at the finest tier, and only polygonisation runs per
tier.  These tests pin that the derived meshes are byte-identical to
each tier's own extraction — random capsule unions and body poses under
random ladders, and the frozen broadcast-tier tables — and that every
record that cannot serve a budget is refused, so the caller extracts
from the field instead.  Without a budget the same fields give the
same mesh from every root grid.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.avatar.implicit import PosedBodyField
from repro.avatar.reconstructor import KeypointMeshReconstructor
from repro.body.expression import ExpressionParams
from repro.body.motion import talking
from repro.body.pose import BodyPose
from repro.body.shape import ShapeParams
from repro.gaze.lod import GazeDepthBudget
from repro.geometry.marching import ExtractionStats
from repro.geometry.octree import (
    derive_surface,
    extract_surface_octree,
    select_leaves,
)
from repro.geometry.sdf import FusedCapsuleUnion
from repro.serve.broadcast import gaze_tiers
from tests.geometry.frozen import (
    MIXED_ROOT,
    MIXED_SEQUENCES,
    assert_frozen,
)

BOX = (np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))


def _capsule_union(rng):
    n = int(rng.integers(1, 7))
    heads = rng.uniform(-0.5, 0.5, size=(n, 3))
    tails = heads + rng.uniform(-0.3, 0.3, size=(n, 3))
    radii = rng.uniform(0.03, 0.15, size=(2, n))
    field = FusedCapsuleUnion(
        heads=heads, tails=tails, radii_head=radii[0],
        radii_tail=radii[1], blend=float(rng.uniform(0.02, 0.06)),
        ellipsoid_center=rng.uniform(-0.3, 0.3, size=3),
        ellipsoid_radii=rng.uniform(0.08, 0.2, size=3),
    )
    return field, BOX


def _two_lipschitz_union(rng):
    """A random union whose field has Lipschitz constant <= 2, the
    premise of root independence (see ``level_schedule``): each cone's
    radius changes by at most sqrt(3) per unit of length, so its
    gradient norm sqrt(1 + (dr / length)^2) is at most 2, and the
    "ellipsoid" is round, i.e. a sphere's exact distance."""
    n = int(rng.integers(1, 7))
    heads = rng.uniform(-0.5, 0.5, size=(n, 3))
    tails = heads + rng.uniform(-0.3, 0.3, size=(n, 3))
    lengths = np.linalg.norm(tails - heads, axis=1)
    radii_head = rng.uniform(0.03, 0.15, size=n)
    radii_tail = np.clip(
        radii_head + np.sqrt(3.0) * lengths * rng.uniform(-1, 1, size=n),
        0.03, 0.15,
    )
    field = FusedCapsuleUnion(
        heads=heads, tails=tails, radii_head=radii_head,
        radii_tail=radii_tail, blend=float(rng.uniform(0.02, 0.06)),
        ellipsoid_center=rng.uniform(-0.3, 0.3, size=3),
        ellipsoid_radii=np.full(3, rng.uniform(0.08, 0.2)),
    )
    return field, BOX


def _posed_body(rng):
    pose = BodyPose.identity()
    pose.joint_rotations[:22] = rng.normal(scale=0.25, size=(22, 3))
    field = PosedBodyField(pose=pose)
    return field, field.bounds()


def _ladder(rng, bounds, drops):
    """Budgets sharing one random gaze cone, one per drop."""
    lo, hi = bounds
    eye = lo + (hi - lo) * rng.uniform(-0.5, 1.5, size=3)
    direction = rng.normal(size=3)
    cone = float(rng.uniform(5.0, 60.0))
    return [
        GazeDepthBudget(
            eye=eye, direction=direction, cone_degrees=cone,
            peripheral_drop=drop,
        )
        for drop in drops
    ]


def _same_mesh(a, b):
    return (
        a.vertices.tobytes() == b.vertices.tobytes()
        and a.faces.tobytes() == b.faces.tobytes()
    )


def _assert_same_leaves(leaves, want):
    """The leaf groups themselves, not only what they polygonise to:
    depths, cells, corner values and flags, in order."""
    assert [leaf[0] for leaf in leaves] == [leaf[0] for leaf in want]
    for leaf, want_leaf in zip(leaves, want):
        for array, want_array in zip(leaf[1:], want_leaf[1:]):
            assert np.array_equal(array, want_array)


def _assert_same_stats(derived, solo):
    assert np.array_equal(derived.surface_cells, solo.surface_cells)
    _assert_same_leaves(derived.selection.leaves, solo.selection.leaves)
    assert derived.cells_refined == solo.cells_refined
    assert derived.cells_skipped_gaze == solo.cells_skipped_gaze
    assert derived.field_evaluations == 0
    assert derived.refinement is None


class TestDerivedTiersMatchSolo:
    """Every tier of a ladder, selected from one refinement at its
    finest tier, equals that tier's own extraction byte for byte."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        body=st.booleans(),
        drops=st.lists(
            st.integers(0, 3), min_size=1, max_size=3, unique=True
        ),
        root=st.sampled_from((8, 16, 32)),
        levels=st.integers(1, 2),
    )
    def test_random_fields_and_ladders(
        self, seed, body, drops, root, levels
    ):
        rng = np.random.default_rng(seed)
        field, bounds = (_posed_body if body else _capsule_union)(rng)
        resolution = min(root << levels, 64)
        ladder = _ladder(rng, bounds, sorted(drops))
        shared = ExtractionStats()
        extract_surface_octree(
            field, bounds, resolution, base_resolution=root,
            budget=ladder[0], stats=shared,
        )
        for budget in ladder:
            solo = ExtractionStats()
            want = extract_surface_octree(
                field, bounds, resolution, base_resolution=root,
                budget=budget, stats=solo,
            )
            derived = ExtractionStats()
            got = derive_surface(
                shared.refinement, bounds, resolution,
                base_resolution=root, budget=budget, stats=derived,
            )
            assert got is not None
            assert _same_mesh(got, want)
            _assert_same_stats(derived, solo)
            _assert_same_leaves(
                select_leaves(shared.refinement, budget).leaves,
                solo.refinement.selection.leaves,
            )

    @pytest.mark.parametrize(
        "sequence",
        [seq for seq in MIXED_SEQUENCES if seq[0].startswith("gaze-tier")],
        ids=lambda seq: seq[0],
    )
    def test_frozen_broadcast_tiers(self, sequence):
        """The broadcast's tiers 1 and 2, derived from tier 0's
        refinement, reproduce the frozen meshes."""
        prefix, budget, resolution, motion, n_frames = sequence
        tier0 = gaze_tiers(3)[0]
        for index, frame in enumerate(motion(n_frames=n_frames).frames):
            finest = KeypointMeshReconstructor(
                resolution=resolution, octree_base=MIXED_ROOT
            )
            finest.set_depth_budget(tier0)
            record = finest.reconstruct(
                pose=frame.pose, keep_refinement=True
            ).refinement
            rec = KeypointMeshReconstructor(
                resolution=resolution, octree_base=MIXED_ROOT
            )
            rec.set_depth_budget(budget)
            result = rec.reconstruct(pose=frame.pose, refinement=record)
            assert result.derived
            assert result.field_evaluations == 0
            assert_frozen(f"{prefix}-f{index}-cold", result.mesh)


def _premise_bodies():
    """Body fields at rest, posed, reshaped and with an expression."""
    yield PosedBodyField()
    for seed in range(3):
        yield _posed_body(np.random.default_rng(seed))[0]
    for seed in range(2):
        yield PosedBodyField(
            shape=ShapeParams.random(np.random.default_rng(seed))
        )
    yield PosedBodyField(
        pose=talking(n_frames=2).frames[1].pose,
        expression=ExpressionParams.named(jaw_open=0.8, pout=0.6),
    )


class TestRootPremise:
    """The body fields meet the premise of root independence: away from
    the surface the field moves at most twice as fast as the distance
    (see ``level_schedule``)."""

    def test_capsule_slopes(self):
        """Each rounded cone's gradient norm, sqrt(1 + (dr / length)^2),
        is at most 2 (zero-length bones are spheres, norm 1)."""
        for field in _premise_bodies():
            for _, head, tail, r_head, r_tail in field.segments:
                length = np.linalg.norm(tail - head)
                if length > 1e-9:
                    assert np.hypot(1.0, (r_tail - r_head) / length) <= 2

    def test_growth_from_the_surface(self):
        """From surface points, including rays through the head
        ellipsoid's centre (where its approximate distance is steep),
        the field changes by at most twice the distance, out to half
        the diagonal of a root-2 cell."""
        rng = np.random.default_rng(0)
        for field in _premise_bodies():
            lo, hi = field.bounds()
            surface = extract_surface_octree(field, (lo, hi), 64).vertices
            x = np.repeat(surface, 4, axis=0)
            directions = rng.normal(size=x.shape)
            directions[::2] = field._head_center - x[::2]
            directions /= np.linalg.norm(directions, axis=1)[:, None]
            reach = np.sqrt(3.0) / 4 * np.max(hi - lo)
            t = np.exp(rng.uniform(np.log(1e-3), np.log(reach), len(x)))
            change = np.abs(field(x + t[:, None] * directions) - field(x))
            assert np.all(change <= 2.0 * t)


class TestRootIndependence:
    """Without a budget the root changes the cost, never the mesh: every
    ancestor of a straddling finest cell holds a surface point, so it
    is active at any root (see ``level_schedule``).  The random unions
    are built to meet the premise, a Lipschitz constant of at most 2."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        body=st.booleans(),
        root=st.sampled_from((2, 3, 4, 8, 16, 32, None)),
        resolution=st.integers(24, 128),
    )
    # One level of 25 cells whose far-face cells straddle: a root pass
    # once placed its last corner plane at the box's far edge, an ulp
    # away from 25 * spacing.
    @example(seed=81, body=True, root=2, resolution=25)
    def test_random_fields_roots_and_resolutions(
        self, seed, body, root, resolution
    ):
        rng = np.random.default_rng(seed)
        field, bounds = (_posed_body if body else _two_lipschitz_union)(rng)
        want = extract_surface_octree(field, bounds, resolution)
        got = extract_surface_octree(
            field, bounds, resolution, base_resolution=root
        )
        assert _same_mesh(got, want)


def _budget(drop, eye=(0.0, 1.4, 2.6), cone=12.0):
    return GazeDepthBudget(
        eye=np.asarray(eye, dtype=np.float64),
        direction=np.array([0.0, -0.05, -1.0]),
        cone_degrees=cone,
        peripheral_drop=drop,
    )


class TestRefusals:
    """A record that cannot serve a budget is refused cell by cell,
    and the reconstructor then extracts from the field."""

    RESOLUTION = 64
    ROOT = 16

    @classmethod
    def _field(cls):
        pose = talking(n_frames=1).frames[0].pose
        return PosedBodyField(pose=pose), pose

    @classmethod
    def _record(cls, budget):
        field, _ = cls._field()
        stats = ExtractionStats()
        extract_surface_octree(
            field, field.bounds(), cls.RESOLUTION,
            base_resolution=cls.ROOT, budget=budget, stats=stats,
        )
        return stats

    @classmethod
    def _assert_falls_back(cls, record, budget):
        assert select_leaves(record, budget) is None
        _, pose = cls._field()
        rec = KeypointMeshReconstructor(
            resolution=cls.RESOLUTION, octree_base=cls.ROOT
        )
        rec.set_depth_budget(budget)
        result = rec.reconstruct(pose=pose, refinement=record)
        assert not result.derived
        assert result.field_evaluations > 0
        solo = KeypointMeshReconstructor(
            resolution=cls.RESOLUTION, octree_base=cls.ROOT
        )
        solo.set_depth_budget(budget)
        assert _same_mesh(result.mesh, solo.reconstruct(pose=pose).mesh)

    def test_record_from_a_coarser_budget(self):
        record = self._record(_budget(2)).refinement
        self._assert_falls_back(record, _budget(1))
        self._assert_falls_back(record, None)

    def test_different_eye_or_cone(self):
        record = self._record(_budget(1)).refinement
        self._assert_falls_back(record, _budget(1, eye=(0.0, -0.5, 2.6)))
        self._assert_falls_back(record, _budget(1, cone=40.0))

    def test_finer_record_serves_a_different_eye(self):
        """The check is coverage, not budget identity: a full-depth
        record serves any cone."""
        field, _ = self._field()
        record = self._record(_budget(0)).refinement
        budget = _budget(2, eye=(0.0, -0.5, 2.6), cone=30.0)
        want = extract_surface_octree(
            field, field.bounds(), self.RESOLUTION,
            base_resolution=self.ROOT, budget=budget,
        )
        got = derive_surface(
            record, field.bounds(), self.RESOLUTION,
            base_resolution=self.ROOT, budget=budget,
        )
        assert got is not None and _same_mesh(got, want)

    def test_other_grid_refused(self):
        field, _ = _capsule_union(np.random.default_rng(3))
        stats = ExtractionStats()
        extract_surface_octree(
            field, BOX, self.RESOLUTION, base_resolution=self.ROOT,
            stats=stats,
        )
        lo, hi = BOX
        # Shifts by exact binary fractions: only the named property of
        # the grid changes.
        for bounds, resolution, root in (
            ((lo - 0.25, hi - 0.25), self.RESOLUTION, self.ROOT),
            ((lo, hi + 0.25), self.RESOLUTION, self.ROOT),
            ((lo, hi), self.RESOLUTION * 2, self.ROOT),
            ((lo, hi), self.RESOLUTION, self.ROOT * 2),
        ):
            assert derive_surface(
                stats.refinement, bounds, resolution,
                base_resolution=root,
            ) is None
        assert derive_surface(
            stats.refinement, BOX, self.RESOLUTION,
            base_resolution=self.ROOT,
        ) is not None
