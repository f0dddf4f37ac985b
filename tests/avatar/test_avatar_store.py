"""AvatarStore coverage: identity keys (collision rules), publish /
lookup / eviction, pose gates, skinning-only repose accuracy on both
kernel backends, validation cadence, and the disk snapshot round-trip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from multiprocessing.shared_memory import SharedMemory

from repro.avatar import AvatarStore, KeypointMeshReconstructor
from repro.avatar.store import (
    arena_size,
    arena_views,
    pose_transforms,
    repose_vertices,
)
from repro.body.expression import ExpressionParams
from repro.body.pose import BodyPose
from repro.body.shape import ShapeParams
from repro.errors import PipelineError


def _shape(seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return ShapeParams(betas=rng.uniform(-1.5, 1.5, 10) * scale)


def _bent_pose(angle=0.35):
    pose = BodyPose.identity()
    pose.joint_rotations[16] = [0.0, 0.0, angle]
    pose.joint_rotations[17] = [0.0, 0.1, -angle / 2]
    return pose


@pytest.fixture(scope="module")
def canonical():
    """One full extraction at rest pose, shared by the module."""
    shape = _shape()
    pose = BodyPose.identity()
    result = KeypointMeshReconstructor(resolution=32).reconstruct(
        pose, shape
    )
    return shape, pose, result.mesh


class TestIdentityKey:
    def test_pose_never_participates(self):
        # The signature itself has no pose parameter: one canonical
        # mesh serves every pose.  The same identity inputs must give
        # one key.
        store = AvatarStore()
        a = store.key(_shape(1), None, 64, 0, 0.035)
        b = store.key(_shape(1), None, 64, 0, 0.035)
        assert a == b
        store.close()

    def test_configuration_participates(self):
        store = AvatarStore()
        base = store.key(_shape(1), None, 64, 0, 0.035)
        assert store.key(_shape(2), None, 64, 0, 0.035) != base
        assert store.key(_shape(1), None, 128, 0, 0.035) != base
        assert store.key(_shape(1), None, 64, 0, 0.05) != base
        assert store.key(_shape(1), None, 64, 0, 0.035,
                         octree_base=32) != base
        store.close()

    def test_keys_frozen_across_the_extractor_collapse(self):
        """Keys recorded before the dense extraction path was removed,
        so snapshots saved then still restore."""
        store = AvatarStore()
        shape = ShapeParams(betas=np.array([0.5, -0.25]))
        assert store.key(shape, None, 128, 0, 0.035).hex() == (
            "5c2a47214016c41a7b1135c6960dcda6"
        )
        assert store.key(
            shape, None, 128, 0, 0.035, octree_base=16
        ).hex() == "2a8e30fea49853a965d6731782d398f4"
        store.close()

    def test_expression_basis_participates_when_enabled(self):
        store = AvatarStore()
        expr = ExpressionParams(coefficients=np.full(10, 0.5))
        neutral = ExpressionParams.neutral()
        without = store.key(_shape(1), expr, 64, 0, 0.035)
        assert without == store.key(_shape(1), neutral, 64, 0, 0.035)
        with_channels = store.key(_shape(1), expr, 64, 4, 0.035)
        assert with_channels != store.key(
            _shape(1), neutral, 64, 4, 0.035
        )
        store.close()

    @settings(max_examples=50, deadline=None)
    @given(
        magnitude=st.floats(min_value=3.01, max_value=50.0),
        delta=st.floats(min_value=1e-6, max_value=10.0),
        index=st.integers(min_value=0, max_value=9),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_out_of_range_shapes_never_collide(
        self, magnitude, delta, index, sign
    ):
        """Betas beyond the calibrated ±3 clamp to the boundary
        bucket; the raw values must additionally mix into the key so
        two distinct clamped identities cannot share a canonical
        mesh (the MeshCache collision rule from PR 3's review)."""
        store = AvatarStore()
        try:
            betas_a = np.zeros(10)
            betas_a[index] = sign * magnitude
            betas_b = betas_a.copy()
            betas_b[index] = sign * (magnitude + delta)
            key_a = store.key(
                ShapeParams(betas=betas_a), None, 64, 0, 0.035
            )
            key_b = store.key(
                ShapeParams(betas=betas_b), None, 64, 0, 0.035
            )
            assert key_a != key_b
        finally:
            store.close()

    @settings(max_examples=50, deadline=None)
    @given(
        magnitude=st.floats(min_value=1.51, max_value=25.0),
        delta=st.floats(min_value=1e-6, max_value=5.0),
        index=st.integers(min_value=0, max_value=3),
    )
    def test_out_of_range_expressions_never_collide(
        self, magnitude, delta, index
    ):
        store = AvatarStore()
        try:
            coeff_a = np.zeros(10)
            coeff_a[index] = magnitude
            coeff_b = coeff_a.copy()
            coeff_b[index] = magnitude + delta
            key_a = store.key(
                None, ExpressionParams(coefficients=coeff_a),
                64, 4, 0.035,
            )
            key_b = store.key(
                None, ExpressionParams(coefficients=coeff_b),
                64, 4, 0.035,
            )
            assert key_a != key_b
        finally:
            store.close()


class TestPublishAndLookup:
    def test_miss_then_publish_then_hit(self, canonical):
        shape, pose, mesh = canonical
        with AvatarStore() as store:
            key = store.key(shape, None, 32, 0, 0.035)
            assert store.get(key) is None
            assert store.stats.misses == 1
            record = store.publish(key, mesh, pose, shape)
            assert record.nv == mesh.num_vertices
            assert record.nf == mesh.num_faces
            assert store.get(key) is record
            assert store.stats.hits == 1
            assert store.metrics.value("avatar.store.hits") == 1
            assert store.metrics.value("avatar.store.bytes") == \
                record.nbytes

    def test_pose_gates_refuse_distant_frames(self, canonical):
        shape, pose, mesh = canonical
        # The rotation gate averages over the 25 decision joints, so
        # a two-joint bend needs a tight threshold to trip it.
        with AvatarStore(max_pose_distance=0.05) as store:
            key = store.key(shape, None, 32, 0, 0.035)
            store.publish(key, mesh, pose, shape)
            assert store.get(key, pose=_bent_pose(0.1)) is not None
            far = _bent_pose(2.5)
            assert store.get(key, pose=far) is None
            assert store.stats.pose_rejections == 1
            # Translation gate fires independently of rotations.
            walked = BodyPose.identity()
            walked.translation = np.array([1.0, 0.0, 0.0])
            assert store.get(key, pose=walked) is None
            assert store.stats.pose_rejections == 2

    def test_lru_eviction_unlinks_arena(self, canonical):
        shape, pose, mesh = canonical
        with AvatarStore(capacity=2) as store:
            keys = [
                store.key(_shape(i), None, 32, 0, 0.035)
                for i in range(3)
            ]
            first = store.publish(keys[0], mesh, pose, shape)
            first_arena = first.arena
            store.publish(keys[1], mesh, pose, shape)
            store.publish(keys[2], mesh, pose, shape)
            assert store.stats.evictions == 1
            assert store.get(keys[0]) is None
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=first_arena)

    def test_republish_replaces_arena(self, canonical):
        shape, pose, mesh = canonical
        with AvatarStore() as store:
            key = store.key(shape, None, 32, 0, 0.035)
            old = store.publish(key, mesh, pose, shape)
            old_arena = old.arena
            new = store.publish(key, mesh, _bent_pose(), shape)
            assert store.stats.republishes == 1
            assert len(store) == 1
            if new.arena != old_arena:
                with pytest.raises(FileNotFoundError):
                    SharedMemory(name=old_arena)

    def test_publish_after_close_refused(self, canonical):
        shape, pose, mesh = canonical
        store = AvatarStore()
        store.close()
        with pytest.raises(PipelineError):
            store.publish(
                store.key(shape, None, 32, 0, 0.035),
                mesh, pose, shape,
            )


class TestRepose:
    @pytest.mark.parametrize("backend", ["c", "numpy"])
    def test_reposed_mesh_error_bounded(
        self, canonical, backend, monkeypatch
    ):
        """Skinning a canonical extraction to a new pose must stay
        within the sampled-SDF tolerance on both kernel backends —
        the acceptance bound on pose-delta-only reconstruction."""
        if backend == "numpy":
            monkeypatch.setenv("REPRO_DISABLE_C_KERNEL", "1")
        shape, pose, mesh = canonical
        target = _bent_pose()
        with AvatarStore(tolerance=0.05) as store:
            key = store.key(shape, None, 32, 0, 0.035)
            record = store.publish(key, mesh, pose, shape)
            reposed = store.repose(record, target, shape)
            assert reposed.num_vertices == mesh.num_vertices
            ok, evals, err = store.validate(reposed, target, shape)
            assert ok, f"reposed error {err} above tolerance"
            assert evals > 0
            # Skinning must not add materially to the extraction's own
            # surface error: compare against a fresh full extraction
            # at the target pose.
            full = KeypointMeshReconstructor(
                resolution=32
            ).reconstruct(target, shape)
            _, _, base_err = store.validate(full.mesh, target, shape)
            assert err <= base_err + 0.01

    def test_views_and_worker_side_repose_agree(self, canonical):
        """The parent-side repose and the worker-side arena math are
        the same function over the same bytes."""
        shape, pose, mesh = canonical
        target = _bent_pose()
        with AvatarStore() as store:
            key = store.key(shape, None, 32, 0, 0.035)
            record = store.publish(key, mesh, pose, shape)
            parent = store.repose(record, target, shape)
            shm = SharedMemory(name=record.arena)
            try:
                views = arena_views(
                    shm.buf, record.nv, record.nf, record.k
                )
                warped = repose_vertices(
                    views["vertices"], views["indices"],
                    views["weights"], views["inverse_transforms"],
                    target, shape,
                )
                np.testing.assert_array_equal(
                    parent.vertices, warped
                )
                np.testing.assert_array_equal(
                    parent.faces, np.array(views["faces"])
                )
            finally:
                del views, warped
                shm.close()

    def test_identity_pose_roundtrips_exactly(self, canonical):
        """Re-posing to the canonical pose itself is the identity
        transform up to floating point."""
        shape, pose, mesh = canonical
        with AvatarStore() as store:
            key = store.key(shape, None, 32, 0, 0.035)
            record = store.publish(key, mesh, pose, shape)
            reposed = store.repose(record, pose, shape)
            np.testing.assert_allclose(
                reposed.vertices, mesh.vertices, atol=1e-9
            )

    def test_validation_cadence(self, canonical):
        shape, pose, mesh = canonical
        with AvatarStore(check_every=2) as store:
            key = store.key(shape, None, 32, 0, 0.035)
            record = store.publish(key, mesh, pose, shape)
            due = []
            for _ in range(4):
                store.get(key)
                due.append(store.validation_due(record))
            assert due == [False, True, False, True]
        with AvatarStore(check_every=0) as store:
            key = store.key(shape, None, 32, 0, 0.035)
            record = store.publish(key, mesh, pose, shape)
            store.get(key)
            assert not store.validation_due(record)


class TestSnapshot:
    def test_roundtrip_is_bit_identical(self, canonical, tmp_path):
        shape, pose, mesh = canonical
        snapshot = tmp_path / "store.npz"
        with AvatarStore() as store:
            key = store.key(shape, None, 32, 0, 0.035)
            record = store.publish(key, mesh, pose, shape)
            before = {
                name: np.array(view)
                for name, view in store.views(record).items()
            }
            store.save(snapshot)
        # A brand-new process boot: nothing shared with the first
        # store except the file.
        with AvatarStore(path=snapshot) as restored:
            assert len(restored) == 1
            assert restored.stats.restored == 1
            rec = restored.get(key)
            assert rec is not None
            after = {
                name: np.array(view)
                for name, view in restored.views(rec).items()
            }
            for name, array in before.items():
                np.testing.assert_array_equal(array, after[name])
            # The restored record re-poses like the original.
            reposed = restored.repose(rec, _bent_pose(), shape)
            assert reposed.num_vertices == mesh.num_vertices

    def test_save_without_path_refused(self):
        with AvatarStore() as store:
            with pytest.raises(PipelineError):
                store.save()

    def test_missing_snapshot_is_cold_boot(self, tmp_path):
        with AvatarStore(path=tmp_path / "never-written.npz") as store:
            assert len(store) == 0
            assert store.stats.restored == 0


class TestLifecycle:
    def test_close_unlinks_every_arena(self, canonical):
        shape, pose, mesh = canonical
        store = AvatarStore()
        names = []
        for i in range(3):
            key = store.key(_shape(i), None, 32, 0, 0.035)
            names.append(store.publish(key, mesh, pose, shape).arena)
        store.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)
        store.close()  # idempotent

    def test_arena_layout_is_self_consistent(self):
        nv, nf, k = 17, 29, 4
        size = arena_size(nv, nf, k)
        shm = SharedMemory(create=True, size=size)
        try:
            views = arena_views(shm.buf, nv, nf, k)
            assert views["vertices"].shape == (nv, 3)
            assert views["faces"].shape == (nf, 3)
            assert views["indices"].shape == (nv, k)
            assert views["weights"].shape == (nv, k)
            assert views["inverse_transforms"].shape == (55, 4, 4)
            total = sum(v.nbytes for v in views.values())
            assert total == size
        finally:
            del views
            shm.close()
            shm.unlink()

    def test_pose_transforms_match_identity_at_rest(self):
        transforms = pose_transforms(BodyPose.identity(), None)
        assert transforms.shape == (55, 4, 4)
        np.testing.assert_allclose(
            transforms[:, :3, :3],
            np.broadcast_to(np.eye(3), (55, 3, 3)),
            atol=1e-12,
        )
