"""Tests for the pose-bucketed cross-session mesh cache."""

import numpy as np
import pytest

from repro.body.expression import ExpressionParams
from repro.body.pose import BodyPose
from repro.errors import PipelineError
from repro.geometry.mesh import TriangleMesh
from repro.serve.cache import MeshCache


def _mesh(value=0.0):
    return TriangleMesh(
        vertices=np.full((3, 3), value, dtype=np.float64),
        faces=np.array([[0, 1, 2]], dtype=np.int64),
    )


def _key(cache, pose=None, **overrides):
    kwargs = dict(
        shape=None,
        expression=None,
        resolution=64,
        expression_channels=0,
        blend=0.035,
    )
    kwargs.update(overrides)
    return cache.key(pose, **kwargs)


class TestKeying:
    @pytest.fixture()
    def cache(self):
        return MeshCache(capacity=8)

    def test_identical_parameters_share_a_bucket(self, cache):
        pose = BodyPose.random(rng=np.random.default_rng(0), scale=0.5)
        assert _key(cache, pose) == _key(cache, pose)

    def test_sub_bucket_noise_shares_a_bucket(self, cache):
        pose = BodyPose.identity()
        flat = pose.flatten()
        nudged = BodyPose.from_flat(flat + 1e-9)
        assert _key(cache, pose) == _key(cache, nudged)

    def test_bucket_crossing_changes_the_key(self, cache):
        rotation_width = cache.bucket_widths()[0]
        pose = BodyPose.identity()
        moved = BodyPose.from_flat(
            pose.flatten() + 10.0 * rotation_width
        )
        assert _key(cache, pose) != _key(cache, moved)

    def test_reconstructor_config_participates(self, cache):
        pose = BodyPose.identity()
        base = _key(cache, pose)
        assert _key(cache, pose, resolution=128) != base
        assert _key(cache, pose, blend=0.05) != base
        assert _key(cache, pose, expression_channels=4) != base

    def test_expression_ignored_without_channels(self, cache):
        pose = BodyPose.identity()
        smiling = ExpressionParams(coefficients=np.ones(8) * 0.5)
        assert _key(cache, pose) == _key(cache, pose,
                                         expression=smiling)
        assert _key(cache, pose, expression_channels=4) != _key(
            cache, pose, expression=smiling, expression_channels=4
        )

    def test_out_of_range_states_do_not_collide(self, cache):
        """Parameters beyond the assumed bucket ranges must not clamp
        into one boundary bucket and silently serve the wrong mesh:
        the raw values join the key, so distinct out-of-range states
        always get distinct keys."""
        from repro.body.shape import ShapeParams

        far = ShapeParams(betas=np.full(10, 6.0))      # beyond ±3
        farther = ShapeParams(betas=np.full(10, 7.0))
        assert _key(cache, shape=far) != _key(cache, shape=farther)
        # Exact recurrence still hits one bucket.
        assert _key(cache, shape=far) == _key(
            cache, shape=ShapeParams(betas=np.full(10, 6.0))
        )

        pose = BodyPose.identity()
        flat_a = pose.flatten().copy()
        flat_b = pose.flatten().copy()
        flat_a[:] = 6.0   # beyond ±π rotations and ±4 m translation
        flat_b[:] = 7.0
        assert _key(cache, BodyPose.from_flat(flat_a)) != \
            _key(cache, BodyPose.from_flat(flat_b))

        smile = ExpressionParams(coefficients=np.full(8, 5.0))
        grin = ExpressionParams(coefficients=np.full(8, 6.0))
        assert _key(cache, pose, expression=smile,
                    expression_channels=4) != \
            _key(cache, pose, expression=grin, expression_channels=4)

    def test_keys_frozen_across_the_extractor_collapse(self, cache):
        """Keys recorded before the dense extraction path was removed:
        the default configuration and an explicit root grid with a gaze
        cone still key byte for byte as they did then."""
        from repro.body.shape import ShapeParams

        pose = BodyPose.random(np.random.default_rng(4), scale=0.5)
        shape = ShapeParams(betas=np.array([0.5, -0.25]))
        default = cache.key(pose, shape, None, 128, 0, 0.035)
        assert default.hex() == "0d1ceee47e53d19d12d159050eac5fe4"
        gaze = (0.0, 1.5, 3.0, 0.0, 0.0, -1.0, 10.0, 2.0)
        rooted = cache.key(
            pose, shape, None, 128, 0, 0.035, octree_base=16, gaze=gaze
        )
        assert rooted.hex() == "ea1f5cd46941cc7beee6eb4c0a7e1c6b"

    def test_in_range_keys_unchanged_by_raw_mixing(self, cache):
        """In-range states keep pure bucket keys: sub-bucket noise
        still merges (the raw-value mix applies only out of range)."""
        from repro.body.shape import ShapeParams

        near = ShapeParams(betas=np.full(10, 1.0))
        nudged = ShapeParams(betas=np.full(10, 1.0 + 1e-9))
        assert _key(cache, shape=near) == _key(cache, shape=nudged)

    def test_bucket_widths_below_noise_floor(self, cache):
        rotation, translation, shape, expression = \
            cache.bucket_widths()
        # ~1.5 mrad rotation buckets at the default 12 bits: a hit is
        # a true recurrence, not a lossy merge.
        assert rotation < 2e-3
        assert translation < 3e-3
        assert shape < 2e-3
        assert expression < 1e-3


class TestLRU:
    def test_eviction_order_and_counters(self):
        cache = MeshCache(capacity=2)
        keys = [
            _key(cache, BodyPose.random(
                rng=np.random.default_rng(i), scale=0.5))
            for i in range(3)
        ]
        for i, key in enumerate(keys):
            cache.put(key, _mesh(float(i)))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.stats.inserts == 3
        assert cache.get(keys[0]) is None  # least recent, evicted
        assert cache.get(keys[2]) is not None

    def test_hit_refreshes_recency(self):
        cache = MeshCache(capacity=2)
        keys = [
            _key(cache, BodyPose.random(
                rng=np.random.default_rng(i), scale=0.5))
            for i in range(3)
        ]
        cache.put(keys[0], _mesh(0.0))
        cache.put(keys[1], _mesh(1.0))
        assert cache.get(keys[0]) is not None  # touch: now most recent
        cache.put(keys[2], _mesh(2.0))         # evicts keys[1]
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None

    def test_hits_cannot_poison_later_hits(self):
        cache = MeshCache(capacity=2)
        key = _key(cache, BodyPose.identity())
        mesh = _mesh(1.0)
        mesh.vertex_colors = np.full((3, 3), 0.5)
        cache.put(key, mesh)
        first = cache.get(key)
        # In-place writes are refused, not silently absorbed.
        for array in (first.vertices, first.faces, first.vertex_colors):
            with pytest.raises(ValueError):
                array[0, 0] = 0
        # An explicit copy is writable and private.
        edited = first.copy()
        edited.vertices[:] = -99.0
        edited.vertex_colors[:] = 0.0
        # Reassigning an attribute changes that one hit object only.
        first.vertex_colors = np.zeros((3, 3))
        first.vertices = np.zeros((3, 3))
        second = cache.get(key)
        assert float(second.vertices[0, 0]) == 1.0
        assert float(second.vertex_colors[0, 0]) == 0.5
        # Hits share the stored buffers: no per-hit copy.
        third = cache.get(key)
        assert second is not third
        for name in ("vertices", "faces", "vertex_colors"):
            assert np.shares_memory(
                getattr(second, name), getattr(third, name)
            )

    def test_put_returns_the_shared_read_only_mesh(self):
        cache = MeshCache(capacity=2)
        key = _key(cache, BodyPose.identity())
        mesh = _mesh(1.0)
        served = cache.put(key, mesh)
        # The cache keeps a private copy: the caller's mesh stays
        # writable and later edits to it do not reach the cache.
        assert not np.shares_memory(served.vertices, mesh.vertices)
        mesh.vertices[:] = -99.0
        assert not served.vertices.flags.writeable
        hit = cache.get(key)
        assert np.shares_memory(served.vertices, hit.vertices)
        assert float(hit.vertices[0, 0]) == 1.0

    def test_reinsert_updates_without_new_insert(self):
        cache = MeshCache(capacity=2)
        key = _key(cache, BodyPose.identity())
        cache.put(key, _mesh(1.0))
        cache.put(key, _mesh(2.0))
        assert cache.stats.inserts == 1
        assert float(cache.get(key).vertices[0, 0]) == 2.0

    def test_counters_and_hit_rate(self):
        cache = MeshCache(capacity=2)
        key = _key(cache, BodyPose.identity())
        assert cache.get(key) is None
        cache.put(key, _mesh())
        assert cache.get(key) is not None
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == 0.5

    def test_clear_keeps_counters(self):
        cache = MeshCache(capacity=2)
        key = _key(cache, BodyPose.identity())
        cache.put(key, _mesh())
        cache.get(key)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_validation(self):
        with pytest.raises(PipelineError):
            MeshCache(capacity=0)
        with pytest.raises(PipelineError):
            MeshCache(bits=0)
        with pytest.raises(PipelineError):
            MeshCache(bits=40)
