"""Persistent cross-process avatar store (canonical mesh per user).

The semantic pipeline transmits keypoints precisely because the
receiver can amortize geometry: a user's body *shape* does not change
between frames or sessions, only the pose does.  The
:class:`repro.serve.cache.MeshCache` exploits exact recurrences (same
pose bucket -> same mesh) but is per-process and cold on every boot.
This module promotes the idea to its limit: one **canonical mesh per
user identity**, where identity is the shape + expression basis
bucketed on the same :class:`repro.compression.quantize.
QuantizationGrid` the codecs use, held

* in a **shared-memory arena** so every
  :class:`repro.serve.pool.ReconstructionPool` worker on the node reads
  the same canonical vertices zero-copy, and
* in a **disk snapshot** so a returning user is warm across process
  restarts.

On a store hit, reconstruction is **pose-delta only**: linear blend
skinning of the canonical mesh from its canonical pose to the frame's
pose (the same warp arithmetic as :class:`repro.avatar.temporal.
TemporalReconstructor`), with zero implicit-field evaluations.  On a
miss — or when the sampled-SDF validation error of a reposed mesh
exceeds the configured tolerance — the full extractor runs once and
the canonical mesh is published back to the store.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.body.expression import ExpressionParams
from repro.body.pose import BodyPose
from repro.body.shape import ShapeParams, shape_displacement
from repro.body.skeleton import NUM_JOINTS, Skeleton, rest_joint_positions
from repro.body.template import compute_skinning
from repro.compression.quantize import QuantizationGrid
from repro.errors import PipelineError
from repro.geometry.mesh import TriangleMesh
from repro.geometry.transforms import invert_rigid
from repro.obs.registry import MetricsRegistry

__all__ = [
    "AvatarRecord",
    "AvatarStore",
    "StoreStats",
    "arena_size",
    "arena_views",
    "pose_transforms",
    "repose_vertices",
]

# Identity-key bucket ranges, matching MeshCache's calibration: betas
# to ±3, expression channels to roughly ±1.5.  Values outside a range
# would clamp to the boundary bucket, so the key additionally mixes in
# the raw values of any out-of-range family — two distinct identities
# beyond the assumed range can never collide (exact recurrences still
# hit; they just stop bucketing).
_SHAPE_RANGE = (-3.0, 3.0)
_EXPRESSION_RANGE = (-1.5, 1.5)

_F8 = np.dtype("<f8")
_I8 = np.dtype("<i8")

# Arena layout (in order): vertices (V,3) f8, faces (F,3) i8, skin
# indices (V,K) i8, skin weights (V,K) f8, inverse canonical joint
# transforms (55,4,4) f8.  Offsets are a pure function of (V, F, K),
# so a worker can map the whole arena from three integers.
_TRANSFORMS_FLOATS = NUM_JOINTS * 16


def arena_size(nv: int, nf: int, k: int) -> int:
    """Byte size of one canonical-avatar arena."""
    return 8 * (
        nv * 3 + nf * 3 + nv * k + nv * k + _TRANSFORMS_FLOATS
    )


def arena_views(buf, nv: int, nf: int, k: int) -> Dict[str, np.ndarray]:
    """Zero-copy array views over one arena buffer.

    The returned arrays alias ``buf`` — writable only through the
    buffer's own writability.  Workers attach a
    :class:`multiprocessing.shared_memory.SharedMemory` and read the
    canonical vertices without ever copying them.
    """
    offset = 0

    def take(count, dtype, shape):
        nonlocal offset
        view = np.frombuffer(
            buf, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
        offset += count * 8
        return view

    return {
        "vertices": take(nv * 3, _F8, (nv, 3)),
        "faces": take(nf * 3, _I8, (nf, 3)),
        "indices": take(nv * k, _I8, (nv, k)),
        "weights": take(nv * k, _F8, (nv, k)),
        "inverse_transforms": take(
            _TRANSFORMS_FLOATS, _F8, (NUM_JOINTS, 4, 4)
        ),
    }


def pose_transforms(
    pose: BodyPose, shape: Optional[ShapeParams]
) -> np.ndarray:
    """World joint transforms of one pose — the skeleton math of
    :class:`repro.avatar.implicit.PosedBodyField` without building the
    SDF (a repose never queries the field)."""
    rest = rest_joint_positions()
    if shape is not None and np.any(shape.betas):
        rest = rest + shape_displacement(rest, shape.betas)
    skeleton = Skeleton(rest_positions=rest)
    _, transforms = skeleton.forward(
        pose.joint_rotations, pose.translation
    )
    return transforms


def repose_vertices(
    vertices: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    inverse_transforms: np.ndarray,
    pose: BodyPose,
    shape: Optional[ShapeParams],
) -> np.ndarray:
    """LBS re-posing of canonical vertices to a new pose.

    The exact warp arithmetic of :meth:`repro.avatar.temporal.
    TemporalReconstructor._warp`: per-joint motion from the canonical
    pose to the new one, blended by the canonical skinning weights.
    Zero field evaluations.
    """
    transforms = pose_transforms(pose, shape)
    motion = np.einsum("jab,jbc->jac", transforms, inverse_transforms)
    homogeneous = np.concatenate(
        [vertices, np.ones((len(vertices), 1))], axis=1
    )
    blended = np.einsum("vk,vkij->vij", weights, motion[indices])
    return np.einsum("vij,vj->vi", blended, homogeneous)[:, :3]


@dataclass
class StoreStats:
    """Monotonic counters over the store lifetime."""

    hits: int = 0
    misses: int = 0
    publishes: int = 0
    republishes: int = 0
    evictions: int = 0
    pose_rejections: int = 0
    validations: int = 0
    validation_failures: int = 0
    restored: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class AvatarRecord:
    """One canonical avatar: where its arena lives and how to repose.

    Attributes:
        key: identity key the record is filed under.
        arena: shared-memory segment name (``None`` after close).
        nv / nf / k: vertex, face and skin-weight counts mapping the
            arena layout.
        pose: canonical pose the mesh was extracted at.
        shape: shape the canonical skeleton was built with.
        config: the reconstructor configuration tuple ``(resolution,
            expression_channels, blend, octree_base)``.
        hits: times this record served a frame (for validation cadence).
    """

    key: bytes
    arena: Optional[str]
    nv: int
    nf: int
    k: int
    pose: BodyPose
    shape: Optional[ShapeParams]
    config: tuple
    hits: int = 0

    @property
    def nbytes(self) -> int:
        return arena_size(self.nv, self.nf, self.k)


class AvatarStore:
    """Canonical meshes per user identity, shared across processes.

    Args:
        capacity: maximum identities before LRU eviction (an evicted
            record's arena is unlinked).
        bits: quantisation bit depth of the identity-key buckets.
        tolerance: maximum sampled |SDF| (metres) a reposed mesh may
            show before the hit is refused and a fresh extraction is
            demanded (see :meth:`validate`).
        check_every: validate every Nth hit of a record (0 = never —
            the zero-field-evaluation steady state).
        max_pose_distance: mean geodesic pose distance (radians, body
            joints only) beyond which a hit is refused and the
            canonical mesh re-extracted at the new pose — a cheap
            error bound that never queries the field.
        max_translation: root-translation distance (metres) with the
            same role.
        skin_k: skinning neighbours per vertex when publishing.
        validation_samples: vertices sampled by one validation pass.
        path: optional disk snapshot; loaded at construction when it
            exists, written by :meth:`save`.
        registry: metrics registry mirroring counters as
            ``avatar.store.*`` (a private one is created when omitted).
    """

    _DECISION_JOINTS = np.arange(25)

    def __init__(
        self,
        capacity: int = 256,
        bits: int = 12,
        tolerance: float = 0.02,
        check_every: int = 0,
        max_pose_distance: float = 0.6,
        max_translation: float = 0.25,
        skin_k: int = 4,
        validation_samples: int = 256,
        path=None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise PipelineError("store capacity must be >= 1")
        if not 1 <= bits <= 31:
            raise PipelineError("store bits must be in [1, 31]")
        if tolerance <= 0:
            raise PipelineError("store tolerance must be positive")
        if check_every < 0:
            raise PipelineError("check_every must be >= 0")
        if max_pose_distance <= 0 or max_translation <= 0:
            raise PipelineError("pose gates must be positive")
        if skin_k < 1:
            raise PipelineError("skin_k must be >= 1")
        if validation_samples < 1:
            raise PipelineError("validation_samples must be >= 1")
        self.capacity = capacity
        self.bits = bits
        self.tolerance = tolerance
        self.check_every = check_every
        self.max_pose_distance = max_pose_distance
        self.max_translation = max_translation
        self.skin_k = skin_k
        self.validation_samples = validation_samples
        self.path = None if path is None else Path(path)
        self.stats = StoreStats()
        self.metrics = (
            registry if registry is not None else MetricsRegistry()
        )
        self._entries: "OrderedDict[bytes, AvatarRecord]" = OrderedDict()
        self._segments: Dict[bytes, SharedMemory] = {}
        self._shape_grid = QuantizationGrid.fit(
            np.array([[_SHAPE_RANGE[0]], [_SHAPE_RANGE[1]]]), bits
        )
        self._expression_grid = QuantizationGrid.fit(
            np.array(
                [[_EXPRESSION_RANGE[0]], [_EXPRESSION_RANGE[1]]]
            ),
            bits,
        )
        self._closed = False
        if self.path is not None and self.path.exists():
            self.load(self.path)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes_held(self) -> int:
        return sum(r.nbytes for r in self._entries.values())

    # -- identity keys ---------------------------------------------

    def key(
        self,
        shape: Optional[ShapeParams],
        expression: Optional[ExpressionParams],
        resolution: int,
        expression_channels: int,
        blend: float,
        octree_base: Optional[int] = None,
    ) -> bytes:
        """The identity key for one user's canonical mesh.

        Pose deliberately does **not** participate — that is the whole
        point: one canonical mesh serves every pose via skinning.  The
        shape betas and the expression basis (the channels the
        reconstructor can express) are bucketed on the codec
        quantiser; reconstructor configuration participates raw, since
        a different resolution or blend produces different canonical
        geometry.
        """
        shape = shape or ShapeParams.neutral()
        expression = expression or ExpressionParams.neutral()
        digest = hashlib.blake2b(digest_size=16)
        digest.update(b"avatar-store")
        digest.update(
            struct.pack(
                "<IIdB", resolution, expression_channels, blend,
                self.bits,
            )
        )
        if octree_base is not None:
            # An explicit root grid keys as it always has; the default
            # (derived) one adds nothing, so default keys — and store
            # snapshots filed under them — never change.
            digest.update(b"octree")
            digest.update(struct.pack("<I", octree_base))
        self._update_family(
            digest, self._shape_grid, _SHAPE_RANGE, shape.betas
        )
        if expression_channels > 0:
            self._update_family(
                digest,
                self._expression_grid,
                _EXPRESSION_RANGE,
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
        """Mix one parameter family into the key — bucket indices in
        range; raw values additionally mixed when out of range, so
        clamped states cannot collide (the rule PR 3's review added to
        :class:`repro.serve.cache.MeshCache`)."""
        column = values.reshape(-1, 1)
        digest.update(grid.encode(column).tobytes())
        low, high = valid_range
        if np.any(column < low) or np.any(column > high):
            digest.update(
                np.ascontiguousarray(column, dtype="<f8").tobytes()
            )

    # -- lookup ----------------------------------------------------

    def get(
        self,
        key: bytes,
        pose: Optional[BodyPose] = None,
    ) -> Optional[AvatarRecord]:
        """Look up one identity; counts a hit or a miss.

        With ``pose`` given, a record whose canonical pose is farther
        than the configured gates is refused (counted as
        ``pose_rejections`` *and* a miss) — the caller re-extracts at
        the new pose and republishes, keeping the skinning error
        bounded without ever querying the field.
        """
        record = self._entries.get(key)
        if record is None:
            self.stats.misses += 1
            self.metrics.inc("avatar.store.misses")
            return None
        if pose is not None and not self._pose_close(record, pose):
            self.stats.pose_rejections += 1
            self.stats.misses += 1
            self.metrics.inc("avatar.store.pose_rejections")
            self.metrics.inc("avatar.store.misses")
            return None
        self._entries.move_to_end(key)
        record.hits += 1
        self.stats.hits += 1
        self.metrics.inc("avatar.store.hits")
        return record

    def _pose_close(self, record: AvatarRecord, pose: BodyPose) -> bool:
        if (
            pose.distance(record.pose, joints=self._DECISION_JOINTS)
            > self.max_pose_distance
        ):
            return False
        return (
            float(
                np.linalg.norm(
                    pose.translation - record.pose.translation
                )
            )
            <= self.max_translation
        )

    def validation_due(self, record: AvatarRecord) -> bool:
        """Whether this hit should pay a sampled-SDF validation pass
        (every ``check_every`` hits; never when 0)."""
        return (
            self.check_every > 0
            and record.hits % self.check_every == 0
        )

    # -- publish ---------------------------------------------------

    def publish(
        self,
        key: bytes,
        mesh: TriangleMesh,
        pose: Optional[BodyPose],
        shape: Optional[ShapeParams],
        segments=None,
    ) -> AvatarRecord:
        """File one freshly extracted mesh as the identity's canonical
        avatar.

        Skinning weights are computed against the posed bone segments
        (built from the pose/shape when not supplied), the arena is
        written once, and any previous record of the identity is
        replaced (its arena unlinked) — a *republish*, the path the
        pose gates and validation failures take to keep error bounded.
        """
        if self._closed:
            raise PipelineError("avatar store is closed")
        pose = pose or BodyPose.identity()
        if segments is None:
            from repro.avatar.implicit import PosedBodyField

            segments = PosedBodyField(pose=pose, shape=shape).segments
        indices, weights = compute_skinning(
            mesh.vertices, segments, k=self.skin_k
        )
        inverse = invert_rigid(pose_transforms(pose, shape))
        republish = key in self._entries
        if republish:
            self._unlink(key)
        nv, nf = mesh.num_vertices, mesh.num_faces
        record = AvatarRecord(
            key=key,
            arena=None,
            nv=nv,
            nf=nf,
            k=self.skin_k,
            pose=pose.copy(),
            shape=None if shape is None else shape.copy(),
            config=(),
        )
        shm = SharedMemory(create=True, size=arena_size(nv, nf, self.skin_k))
        views = arena_views(shm.buf, nv, nf, self.skin_k)
        views["vertices"][:] = mesh.vertices
        views["faces"][:] = mesh.faces
        views["indices"][:] = indices
        views["weights"][:] = weights
        views["inverse_transforms"][:] = inverse
        record.arena = shm.name
        self._segments[key] = shm
        self._entries[key] = record
        self._entries.move_to_end(key)
        if republish:
            self.stats.republishes += 1
            self.metrics.inc("avatar.store.republishes")
        else:
            self.stats.publishes += 1
            self.metrics.inc("avatar.store.publishes")
        while len(self._entries) > self.capacity:
            evicted_key = next(iter(self._entries))
            self._unlink(evicted_key)
            del self._entries[evicted_key]
            self.stats.evictions += 1
            self.metrics.inc("avatar.store.evictions")
        self._gauges()
        return record

    def _unlink(self, key: bytes) -> None:
        shm = self._segments.pop(key, None)
        if shm is not None:
            try:
                shm.close()
            except BufferError:
                # A caller still holds zero-copy views over the
                # arena; the mapping lives until those are collected,
                # but the name must be unlinked regardless.
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        record = self._entries.get(key)
        if record is not None:
            record.arena = None

    def _gauges(self) -> None:
        self.metrics.set("avatar.store.entries", len(self._entries))
        self.metrics.set("avatar.store.bytes", self.bytes_held)

    # -- repose / validate -----------------------------------------

    def views(self, record: AvatarRecord) -> Dict[str, np.ndarray]:
        """Zero-copy views over a record's arena (parent-side)."""
        shm = self._segments.get(record.key)
        if shm is None:
            raise PipelineError(
                "avatar record has no live arena (evicted or closed)"
            )
        return arena_views(shm.buf, record.nv, record.nf, record.k)

    def repose(
        self,
        record: AvatarRecord,
        pose: Optional[BodyPose],
        shape: Optional[ShapeParams],
    ) -> TriangleMesh:
        """Skinning-only reconstruction of one frame from the canonical
        mesh — zero field evaluations."""
        pose = pose or BodyPose.identity()
        views = self.views(record)
        warped = repose_vertices(
            views["vertices"],
            views["indices"],
            views["weights"],
            views["inverse_transforms"],
            pose,
            shape,
        )
        self.metrics.inc("avatar.store.reposed")
        return TriangleMesh(
            vertices=warped, faces=views["faces"].copy()
        )

    def validate(
        self,
        mesh: TriangleMesh,
        pose: Optional[BodyPose],
        shape: Optional[ShapeParams],
        expression: Optional[ExpressionParams] = None,
        expression_channels: int = 0,
        blend: float = 0.035,
    ) -> Tuple[bool, int, float]:
        """Sampled-SDF check of a reposed mesh against the frame's true
        implicit field.

        Returns ``(ok, field_evaluations, max_abs_error)``.  Surface
        vertices of an exact extraction sit within a fraction of a
        voxel of the zero level set, so the sampled |SDF| of a reposed
        mesh *is* its pose-space error; past ``tolerance`` the hit
        must be refused and the canonical mesh re-extracted.
        """
        from repro.avatar.implicit import PosedBodyField

        usable = None
        if expression is not None and expression_channels > 0:
            usable = expression.truncated(expression_channels)
        fld = PosedBodyField(
            pose=pose, shape=shape, expression=usable, blend=blend
        )
        step = max(1, mesh.num_vertices // self.validation_samples)
        sampled = mesh.vertices[::step]
        values = fld(sampled)
        error = float(np.max(np.abs(values)))
        ok = error <= self.tolerance
        self.stats.validations += 1
        self.metrics.inc("avatar.store.validations")
        if not ok:
            self.stats.validation_failures += 1
            self.metrics.inc("avatar.store.validation_failures")
        return ok, len(sampled), error

    # -- disk snapshot ---------------------------------------------

    def save(self, path=None) -> Path:
        """Write every entry to one snapshot file (``.npz`` layout
        with a JSON manifest), so the store survives process restart."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise PipelineError("no snapshot path configured")
        manifest = []
        arrays: Dict[str, np.ndarray] = {}
        for index, (key, record) in enumerate(self._entries.items()):
            views = self.views(record)
            prefix = f"e{index}"
            manifest.append(
                {
                    "key": key.hex(),
                    "nv": record.nv,
                    "nf": record.nf,
                    "k": record.k,
                    "prefix": prefix,
                }
            )
            arrays[f"{prefix}_vertices"] = np.array(views["vertices"])
            arrays[f"{prefix}_faces"] = np.array(views["faces"])
            arrays[f"{prefix}_indices"] = np.array(views["indices"])
            arrays[f"{prefix}_weights"] = np.array(views["weights"])
            arrays[f"{prefix}_invtf"] = np.array(
                views["inverse_transforms"]
            )
            arrays[f"{prefix}_pose"] = record.pose.flatten()
            arrays[f"{prefix}_shape"] = (
                np.zeros(0)
                if record.shape is None
                else record.shape.betas
            )
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "wb") as handle:
            np.savez(handle, **arrays)
        return target

    def load(self, path=None) -> int:
        """Restore entries from a snapshot; returns how many loaded.

        Loaded entries get fresh shared-memory arenas owned by this
        process.  Existing entries with the same identity key are
        replaced.
        """
        source = Path(path) if path is not None else self.path
        if source is None:
            raise PipelineError("no snapshot path configured")
        with np.load(source) as data:
            manifest = json.loads(
                bytes(data["manifest"].tobytes()).decode("utf-8")
            )
            loaded = 0
            for entry in manifest:
                key = bytes.fromhex(entry["key"])
                prefix = entry["prefix"]
                nv, nf, k = entry["nv"], entry["nf"], entry["k"]
                if key in self._entries:
                    self._unlink(key)
                    del self._entries[key]
                shape_betas = data[f"{prefix}_shape"]
                record = AvatarRecord(
                    key=key,
                    arena=None,
                    nv=nv,
                    nf=nf,
                    k=k,
                    pose=BodyPose.from_flat(data[f"{prefix}_pose"]),
                    shape=(
                        None
                        if len(shape_betas) == 0
                        else ShapeParams(betas=shape_betas)
                    ),
                    config=(),
                )
                shm = SharedMemory(
                    create=True, size=arena_size(nv, nf, k)
                )
                views = arena_views(shm.buf, nv, nf, k)
                views["vertices"][:] = data[f"{prefix}_vertices"]
                views["faces"][:] = data[f"{prefix}_faces"]
                views["indices"][:] = data[f"{prefix}_indices"]
                views["weights"][:] = data[f"{prefix}_weights"]
                views["inverse_transforms"][:] = data[f"{prefix}_invtf"]
                record.arena = shm.name
                self._segments[key] = shm
                self._entries[key] = record
                loaded += 1
        self.stats.restored += loaded
        self.metrics.inc("avatar.store.restored", loaded)
        while len(self._entries) > self.capacity:
            evicted_key = next(iter(self._entries))
            self._unlink(evicted_key)
            del self._entries[evicted_key]
            self.stats.evictions += 1
            self.metrics.inc("avatar.store.evictions")
        self._gauges()
        return loaded

    # -- reporting / lifecycle -------------------------------------

    def summary(self) -> Dict[str, float]:
        """Flat counters for tests, CI and benchmarks."""
        return {
            "store_entries": len(self._entries),
            "store_bytes": self.bytes_held,
            "store_hits": self.stats.hits,
            "store_misses": self.stats.misses,
            "store_hit_rate": self.stats.hit_rate,
            "store_publishes": self.stats.publishes,
            "store_republishes": self.stats.republishes,
            "store_evictions": self.stats.evictions,
            "store_pose_rejections": self.stats.pose_rejections,
            "store_validations": self.stats.validations,
            "store_validation_failures": (
                self.stats.validation_failures
            ),
            "store_restored": self.stats.restored,
        }

    def arena_names(self) -> Tuple[str, ...]:
        """Live segment names (tests assert these are reclaimed)."""
        return tuple(
            shm.name for shm in self._segments.values()
        )

    def clear(self) -> None:
        """Drop every entry and unlink its arena (counters kept)."""
        for key in list(self._entries):
            self._unlink(key)
        self._entries.clear()
        self._gauges()

    def close(self) -> None:
        """Unlink every arena; idempotent.  The store owns its
        segments — workers only ever attach read-only — so closing
        here reclaims all ``/dev/shm`` space the store created."""
        if self._closed:
            return
        self._closed = True
        for key in list(self._entries):
            self._unlink(key)
        self._entries.clear()
        self._gauges()

    def __enter__(self) -> "AvatarStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
