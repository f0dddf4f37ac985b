"""Cross-session mesh cache keyed by quantised avatar parameters.

An edge node serving N receivers of the same sender — or recurring
poses across meetings — should reconstruct each distinct avatar state
once.  The cache key is the transmitted parameter tuple (pose, shape,
expression) bucketed on a uniform :class:`repro.compression.quantize.
QuantizationGrid`, plus everything that changes the reconstructed
geometry (resolution, expression channels, capsule blend radius).
Using the same quantiser the codecs use means the bucket width is
expressed in the units that were actually transmitted, and two frames
land in one bucket only when their parameters agree to well below the
fitting/tracking noise floor.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.body.expression import ExpressionParams
from repro.body.pose import BodyPose
from repro.body.shape import ShapeParams
from repro.compression.quantize import QuantizationGrid
from repro.errors import PipelineError
from repro.geometry.mesh import TriangleMesh
from repro.obs.clock import monotonic
from repro.obs.registry import MetricsRegistry

__all__ = ["CacheStats", "MeshCache"]

# Bucket ranges per parameter family.  Rotations are axis-angle
# components (bounded by ±π per axis for any plausible fit), the root
# translation stays within a few metres of the rig origin, betas are
# calibrated to ±3, expression channels to roughly ±1.5.  A value
# outside its range would clamp to the boundary bucket, so the key
# additionally mixes in the raw values of any out-of-range family:
# two distinct states beyond the assumed range can never collide
# (exact recurrences still hit; they just stop bucketing).
_ROTATION_RANGE = (-np.pi, np.pi)
_TRANSLATION_RANGE = (-4.0, 4.0)
_SHAPE_RANGE = (-3.0, 3.0)
_EXPRESSION_RANGE = (-1.5, 1.5)


def _range_grid(low: float, high: float, bits: int) -> QuantizationGrid:
    """A 1-D grid spanning [low, high] at ``bits`` — the same fit the
    codecs perform, applied to the parameter family's full range."""
    return QuantizationGrid.fit(
        np.array([[low], [high]], dtype=np.float64), bits
    )


@dataclass
class CacheStats:
    """Hit/miss/eviction counters (monotonic over the cache lifetime)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class MeshCache:
    """LRU cache of reconstructed meshes, keyed by parameter buckets.

    Args:
        capacity: maximum entries before least-recently-used eviction.
        bits: quantisation bit depth of every bucket axis.  The default
            12 puts the rotation bucket width at ~1.5 mrad — far below
            detector noise, so hits are true recurrences, not lossy
            merges.
        registry: metrics registry mirroring the counters as
            ``serve.cache.*`` (a private one is created when omitted),
            so summaries and benchmarks query the registry instead of
            reaching into the cache object.
    """

    def __init__(
        self,
        capacity: int = 512,
        bits: int = 12,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise PipelineError("cache capacity must be >= 1")
        if not 1 <= bits <= 31:
            raise PipelineError("cache bits must be in [1, 31]")
        self.capacity = capacity
        self.bits = bits
        self.stats = CacheStats()
        self.metrics = (
            registry if registry is not None else MetricsRegistry()
        )
        self._entries: "OrderedDict[bytes, TriangleMesh]" = OrderedDict()
        #: insertion timestamp per entry, for the eviction-age
        #: histogram (how long entries survive before LRU pushes them
        #: out — a shrinking age under load means the capacity is too
        #: small for the working set).
        self._inserted: Dict[bytes, float] = {}
        self._rotation_grid = _range_grid(*_ROTATION_RANGE, bits)
        self._translation_grid = _range_grid(*_TRANSLATION_RANGE, bits)
        self._shape_grid = _range_grid(*_SHAPE_RANGE, bits)
        self._expression_grid = _range_grid(*_EXPRESSION_RANGE, bits)

    def __len__(self) -> int:
        return len(self._entries)

    def key(
        self,
        pose: Optional[BodyPose],
        shape: Optional[ShapeParams],
        expression: Optional[ExpressionParams],
        resolution: int,
        expression_channels: int,
        blend: float,
        octree_base: Optional[int] = None,
        gaze: Optional[tuple] = None,
    ) -> bytes:
        """The bucket key for one reconstruction request.

        Everything that influences the output mesh participates:
        quantised parameters plus the reconstructor configuration —
        including an explicitly set root grid and, for gaze-budgeted
        extraction, the wire-encoded gaze cone (a foveated mesh must
        never satisfy a request looking elsewhere).  A request with
        neither keys exactly as it always has, so keys of the default
        configuration never change.
        """
        pose = pose or BodyPose.identity()
        shape = shape or ShapeParams.neutral()
        expression = expression or ExpressionParams.neutral()
        digest = hashlib.blake2b(digest_size=16)
        digest.update(
            struct.pack(
                "<IIdB", resolution, expression_channels, blend, self.bits
            )
        )
        if octree_base is not None or gaze is not None:
            # 0 stands for the root derived from the resolution, which
            # the key already holds.
            digest.update(b"octree")
            digest.update(struct.pack("<I", octree_base or 0))
            if gaze is not None:
                digest.update(struct.pack("<8d", *gaze))
        self._update_family(
            digest, self._rotation_grid, _ROTATION_RANGE,
            pose.joint_rotations,
        )
        self._update_family(
            digest, self._translation_grid, _TRANSLATION_RANGE,
            pose.translation,
        )
        self._update_family(
            digest, self._shape_grid, _SHAPE_RANGE, shape.betas
        )
        if expression_channels > 0:
            self._update_family(
                digest, self._expression_grid, _EXPRESSION_RANGE,
                expression.coefficients[:expression_channels],
            )
        return digest.digest()

    @staticmethod
    def _update_family(
        digest,
        grid: QuantizationGrid,
        valid_range: Tuple[float, float],
        values: np.ndarray,
    ) -> None:
        """Mix one parameter family into the key.

        In range, the family contributes its bucket indices only.  Out
        of range the grid clamps to its boundary bucket, which would
        make distinct states collide and serve the wrong mesh; mixing
        in the raw values keeps such keys unique (identical raw state
        still hits the cache — it just loses sub-bucket merging).
        """
        column = values.reshape(-1, 1)
        digest.update(grid.encode(column).tobytes())
        low, high = valid_range
        if np.any(column < low) or np.any(column > high):
            digest.update(
                np.ascontiguousarray(column, dtype="<f8").tobytes()
            )

    def get(self, key: bytes) -> Optional[TriangleMesh]:
        """Look up a bucket; counts a hit or a miss.

        Returns a *copy* so callers can mutate their mesh without
        poisoning later hits.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            self.metrics.inc("serve.cache.misses")
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.metrics.inc("serve.cache.hits")
        return entry.copy()

    def put(self, key: bytes, mesh: TriangleMesh) -> None:
        """Insert a reconstruction result, evicting LRU beyond capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = mesh.copy()
            self._gauges()
            return
        self._entries[key] = mesh.copy()
        self._inserted[key] = monotonic()
        self.stats.inserts += 1
        self.metrics.inc("serve.cache.inserts")
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            born = self._inserted.pop(evicted, None)
            if born is not None:
                self.metrics.observe(
                    "serve.cache.eviction_age", monotonic() - born
                )
            self.stats.evictions += 1
            self.metrics.inc("serve.cache.evictions")
        self.metrics.set("serve.cache.size", len(self._entries))
        self._gauges()

    @property
    def bytes_held(self) -> int:
        """Bytes the cached meshes occupy (vertices + faces)."""
        return sum(
            mesh.vertices.nbytes + mesh.faces.nbytes
            for mesh in self._entries.values()
        )

    def _gauges(self) -> None:
        self.metrics.set("serve.cache.entries", len(self._entries))
        self.metrics.set(
            "serve.cache.capacity_bytes", self.bytes_held
        )

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()
        self._inserted.clear()
        self._gauges()

    def bucket_widths(self) -> Tuple[float, float, float, float]:
        """Bucket width per family (rotation, translation, shape,
        expression) — for documentation and tests."""
        return (
            float(self._rotation_grid.step[0]),
            float(self._translation_grid.step[0]),
            float(self._shape_grid.step[0]),
            float(self._expression_grid.step[0]),
        )
