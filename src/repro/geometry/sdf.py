"""Signed distance fields: primitives, smooth CSG, and evaluation.

The procedural body template (`repro.body.template`) and the pose-
conditioned implicit avatar field (`repro.avatar.implicit`) are both
built from these primitives, blended with smooth unions so the extracted
surfaces are organic rather than hard-edged.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import GeometryError

__all__ = [
    "SDF",
    "sphere",
    "capsule",
    "ellipsoid",
    "box",
    "rounded_cone",
    "union",
    "smooth_union",
    "intersection",
    "subtraction",
    "transform_sdf",
    "scale_sdf",
    "FusedCapsuleUnion",
    "evaluate_batch",
    "evaluate_packed",
]

# An SDF is any callable mapping (N, 3) points to (N,) signed distances
# (negative inside).
SDF = Callable[[np.ndarray], np.ndarray]

# Distance temporaries per block of the NumPy evaluator, primitives x
# points: 64 KB per float64 array (8192 was as fast as or faster than
# one primitive at a time and than 32768, at 1 to 50,000 points).
_NUMPY_BLOCK = 8192


def _as_points(points: np.ndarray) -> np.ndarray:
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if p.ndim != 2 or p.shape[1] != 3:
        raise GeometryError(f"SDF input must be (N, 3), got {p.shape}")
    return p


def sphere(center, radius: float) -> SDF:
    """Sphere of ``radius`` at ``center``."""
    center = np.asarray(center, dtype=np.float64)
    if radius <= 0:
        raise GeometryError("sphere radius must be positive")

    def _sdf(points: np.ndarray) -> np.ndarray:
        p = _as_points(points)
        return np.linalg.norm(p - center, axis=1) - radius

    return _sdf


def capsule(a, b, radius: float) -> SDF:
    """Capsule (line-swept sphere) between endpoints ``a`` and ``b``.

    Capsules along skeleton bones are the building block of the body
    template and of the keypoint-conditioned avatar field.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if radius <= 0:
        raise GeometryError("capsule radius must be positive")
    ab = b - a
    denom = float(np.dot(ab, ab))

    def _sdf(points: np.ndarray) -> np.ndarray:
        p = _as_points(points)
        if denom < 1e-18:
            return np.linalg.norm(p - a, axis=1) - radius
        t = np.clip((p - a) @ ab / denom, 0.0, 1.0)
        closest = a + t[:, None] * ab
        return np.linalg.norm(p - closest, axis=1) - radius

    return _sdf


def rounded_cone(a, b, radius_a: float, radius_b: float) -> SDF:
    """Capsule with linearly varying radius (limbs taper toward joints).

    This is an approximate (bounding) distance: exact outside along the
    axis, slightly conservative near the taper, which is fine for
    surface extraction via marching cubes.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if radius_a <= 0 or radius_b <= 0:
        raise GeometryError("cone radii must be positive")
    ab = b - a
    denom = float(np.dot(ab, ab))

    def _sdf(points: np.ndarray) -> np.ndarray:
        p = _as_points(points)
        if denom < 1e-18:
            return np.linalg.norm(p - a, axis=1) - max(radius_a, radius_b)
        t = np.clip((p - a) @ ab / denom, 0.0, 1.0)
        closest = a + t[:, None] * ab
        radius = radius_a + (radius_b - radius_a) * t
        return np.linalg.norm(p - closest, axis=1) - radius

    return _sdf


def ellipsoid(center, radii) -> SDF:
    """Axis-aligned ellipsoid (approximate SDF, exact at the surface)."""
    center = np.asarray(center, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    if np.any(radii <= 0):
        raise GeometryError("ellipsoid radii must be positive")

    def _sdf(points: np.ndarray) -> np.ndarray:
        p = (_as_points(points) - center) / radii
        k0 = np.linalg.norm(p, axis=1)
        k1 = np.linalg.norm(p / radii, axis=1)
        return np.where(k1 > 1e-12, k0 * (k0 - 1.0) / np.maximum(k1, 1e-12),
                        -radii.min())

    return _sdf


def box(center, half_extents) -> SDF:
    """Axis-aligned box."""
    center = np.asarray(center, dtype=np.float64)
    half = np.asarray(half_extents, dtype=np.float64)
    if np.any(half <= 0):
        raise GeometryError("box half extents must be positive")

    def _sdf(points: np.ndarray) -> np.ndarray:
        q = np.abs(_as_points(points) - center) - half
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = np.minimum(q.max(axis=1), 0.0)
        return outside + inside

    return _sdf


def union(sdfs: Sequence[SDF]) -> SDF:
    """Hard union (pointwise minimum)."""
    sdfs = list(sdfs)
    if not sdfs:
        raise GeometryError("union of zero SDFs")

    def _sdf(points: np.ndarray) -> np.ndarray:
        values = sdfs[0](points)
        for f in sdfs[1:]:
            values = np.minimum(values, f(points))
        return values

    return _sdf


def smooth_union(sdfs: Sequence[SDF], k: float = 0.05) -> SDF:
    """Smooth union using the polynomial smooth-min with blend radius ``k``.

    Applied pairwise left-to-right; produces the organic joints between
    body-part capsules.
    """
    sdfs = list(sdfs)
    if not sdfs:
        raise GeometryError("smooth_union of zero SDFs")
    if k <= 0:
        return union(sdfs)

    def _smin(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
        h = np.clip(0.5 + 0.5 * (d2 - d1) / k, 0.0, 1.0)
        return d2 + (d1 - d2) * h - k * h * (1.0 - h)

    def _sdf(points: np.ndarray) -> np.ndarray:
        values = sdfs[0](points)
        for f in sdfs[1:]:
            values = _smin(f(points), values)
        return values

    return _sdf


def intersection(sdfs: Sequence[SDF]) -> SDF:
    """Hard intersection (pointwise maximum)."""
    sdfs = list(sdfs)
    if not sdfs:
        raise GeometryError("intersection of zero SDFs")

    def _sdf(points: np.ndarray) -> np.ndarray:
        values = sdfs[0](points)
        for f in sdfs[1:]:
            values = np.maximum(values, f(points))
        return values

    return _sdf


def subtraction(base: SDF, cut: SDF) -> SDF:
    """Subtract ``cut`` from ``base``."""

    def _sdf(points: np.ndarray) -> np.ndarray:
        return np.maximum(base(points), -cut(points))

    return _sdf


def transform_sdf(sdf: SDF, transform: np.ndarray) -> SDF:
    """Rigidly transform an SDF by a 4x4 matrix (applied to the shape)."""
    from repro.geometry.transforms import apply_rigid, invert_rigid

    inverse = invert_rigid(np.asarray(transform, dtype=np.float64))

    def _sdf(points: np.ndarray) -> np.ndarray:
        return sdf(apply_rigid(inverse, _as_points(points)))

    return _sdf


def scale_sdf(sdf: SDF, factor: float) -> SDF:
    """Uniformly scale an SDF about the origin."""
    if factor <= 0:
        raise GeometryError("scale factor must be positive")

    def _sdf(points: np.ndarray) -> np.ndarray:
        return sdf(_as_points(points) / factor) * factor

    return _sdf


class FusedCapsuleUnion:
    """Fused smooth union of rounded-cone capsules plus one ellipsoid.

    Semantically identical to
    ``smooth_union([rounded_cone(...), ..., ellipsoid(...)], k=blend)``
    but evaluated as one batched kernel instead of a chain of Python
    closures: all K segment endpoints and radii are stacked into flat
    arrays at construction, every chunk of query points is tested
    against all primitives in a single ``(K, n)`` computation, and the
    non-associative polynomial smooth-min is folded sequentially in the
    exact order the closure chain uses (segments left to right, the
    ellipsoid last) so the two paths agree to ~1e-9.

    Two backends are available: a compiled C kernel (built lazily via
    :mod:`repro.geometry.capsule_kernel` when a toolchain exists) and a
    pure-NumPy evaluator of the same per-point arithmetic, so both give
    every point the same bytes, whichever other points share its call.
    ``chunk_size`` bounds peak memory of the NumPy path — at the
    default 8192 the working set is a few MB even when a 1024^3
    extraction hands in millions of points.
    """

    def __init__(
        self,
        heads,
        tails,
        radii_head,
        radii_tail,
        blend: float = 0.05,
        ellipsoid_center=None,
        ellipsoid_radii=None,
        chunk_size: int = 8192,
        backend: str = "auto",
    ):
        heads = np.atleast_2d(np.asarray(heads, dtype=np.float64))
        tails = np.atleast_2d(np.asarray(tails, dtype=np.float64))
        radii_head = np.atleast_1d(
            np.asarray(radii_head, dtype=np.float64)
        )
        radii_tail = np.atleast_1d(
            np.asarray(radii_tail, dtype=np.float64)
        )
        if heads.shape != tails.shape or heads.ndim != 2 or (
            heads.shape[0] and heads.shape[1] != 3
        ):
            raise GeometryError(
                "heads and tails must both be (K, 3) arrays"
            )
        k_prims = heads.shape[0]
        if radii_head.shape != (k_prims,) or radii_tail.shape != (
            k_prims,
        ):
            raise GeometryError("radii must be (K,) arrays")
        if np.any(radii_head <= 0) or np.any(radii_tail <= 0):
            raise GeometryError("cone radii must be positive")
        if (ellipsoid_center is None) != (ellipsoid_radii is None):
            raise GeometryError(
                "ellipsoid center and radii must be given together"
            )
        if k_prims == 0 and ellipsoid_center is None:
            raise GeometryError("fused union of zero primitives")
        if chunk_size < 1:
            raise GeometryError("chunk_size must be positive")
        if backend not in ("auto", "numpy", "c"):
            raise GeometryError(f"unknown backend {backend!r}")

        self.blend = float(blend)
        self.chunk_size = int(chunk_size)
        self.num_segments = k_prims

        # Raw per-primitive arrays (the C kernel resolves degenerate
        # segments itself from denom).
        self._a = np.ascontiguousarray(heads)
        self._b = np.ascontiguousarray(tails)
        self._ab = np.ascontiguousarray(tails - heads)
        self._denom = np.ascontiguousarray(
            np.einsum("ij,ij->i", self._ab, self._ab)
        )
        self._ra = np.ascontiguousarray(radii_head)
        self._rb = np.ascontiguousarray(radii_tail)
        self._dr = np.ascontiguousarray(radii_tail - radii_head)
        self._rmax = np.ascontiguousarray(
            np.maximum(radii_head, radii_tail)
        )

        # Degenerate segments (e.g. zero-length leaf bones) are spheres
        # of the larger radius on both backends; the NumPy path divides
        # by 1 on their rows and then overwrites them.
        self._degen = self._denom < 1e-18
        self._denom_safe = np.where(self._degen, 1.0, self._denom)

        if ellipsoid_center is not None:
            self._ell_center = np.ascontiguousarray(
                np.asarray(ellipsoid_center, dtype=np.float64)
            )
            self._ell_radii = np.ascontiguousarray(
                np.asarray(ellipsoid_radii, dtype=np.float64)
            )
            if self._ell_center.shape != (3,) or self._ell_radii.shape != (
                3,
            ):
                raise GeometryError("ellipsoid center/radii must be (3,)")
            if np.any(self._ell_radii <= 0):
                raise GeometryError("ellipsoid radii must be positive")
        else:
            self._ell_center = None
            self._ell_radii = None

        self._kernel = None
        if backend in ("auto", "c"):
            from repro.geometry.capsule_kernel import (
                compiled_capsule_kernel,
            )

            self._kernel = compiled_capsule_kernel()
            if backend == "c" and self._kernel is None:
                raise GeometryError(
                    "C capsule kernel unavailable on this machine"
                )
        self.backend = "c" if self._kernel is not None else "numpy"

    def __call__(self, points: np.ndarray) -> np.ndarray:
        p = _as_points(points)
        if self._kernel is not None:
            return self._eval_c(p)
        out = np.empty(len(p))
        # IEEE results as the C kernel gives them: inf and NaN
        # propagate (and the ellipsoid's guarded division is taken on
        # every point) without warnings.
        with np.errstate(all="ignore"):
            for start in range(0, len(p), self.chunk_size):
                chunk = p[start : start + self.chunk_size]
                out[start : start + len(chunk)] = self._eval_numpy(chunk)
        return out

    def _eval_c(self, p: np.ndarray) -> np.ndarray:
        p = np.ascontiguousarray(p)
        out = np.empty(len(p))
        dbl = ctypes.POINTER(ctypes.c_double)

        def _ptr(arr):
            return arr.ctypes.data_as(dbl)

        has_ell = self._ell_center is not None
        dummy = np.zeros(3)
        self._kernel.solo(
            _ptr(p),
            ctypes.c_int64(len(p)),
            _ptr(self._a),
            _ptr(self._ab),
            _ptr(self._denom),
            _ptr(self._ra),
            _ptr(self._dr),
            _ptr(self._rmax),
            ctypes.c_int64(self.num_segments),
            _ptr(self._ell_center if has_ell else dummy),
            _ptr(self._ell_radii if has_ell else dummy),
            ctypes.c_int(1 if has_ell else 0),
            ctypes.c_double(self.blend),
            _ptr(out),
        )
        return out

    def _eval_numpy(self, p: np.ndarray) -> np.ndarray:
        """The C kernel's per-point expression, elementwise over the points.

        Every value is the same expression tree of IEEE operations the
        compiled kernel evaluates for its point (no matmul, whose
        rounding would depend on the call's size), skips included, so
        a point's bytes depend neither on its call nor on the backend.
        A small call computes a block of primitives at a time for all
        its points (its cost is the number of NumPy calls); a large
        one takes one primitive at a time and, like the C kernel,
        measures and folds the distance only at the points the
        per-point skip keeps (its cost is the arithmetic).
        """
        kb = self.blend
        inv2k = 0.5 / kb if kb > 0.0 else 0.0
        px, py, pz = (np.ascontiguousarray(p[:, axis]) for axis in range(3))
        k_prims = self.num_segments
        # One primitive per block above _NUMPY_BLOCK / 2 points.
        block = max(1, _NUMPY_BLOCK // max(len(p), 1))
        acc = None
        for first in range(0, k_prims, block):
            rows = slice(first, min(first + block, k_prims))
            t, d2 = self._projections(px, py, pz, rows)
            d = self._distances(px, py, pz, t, rows) if block > 1 else None
            for r, j in enumerate(range(rows.start, rows.stop)):
                if acc is None:
                    acc = d[r] if d is not None else self._distances(
                        px, py, pz, t, rows
                    )[0]
                    continue
                keep = None
                if not self._degen[j]:
                    # The C kernel's per-point skip (an exact no-op).
                    thresh = acc + kb + self._rmax[j]
                    keep = ~(
                        (thresh <= 0.0) | (d2[r] > thresh * thresh + 1e-9)
                    )
                if d is not None:
                    step = self._fold(acc, d[r], kb, inv2k)
                    acc = step if keep is None else np.where(keep, step, acc)
                    continue
                at = slice(None) if keep is None else np.flatnonzero(keep)
                dj = self._distances(
                    px[at], py[at], pz[at], t[r : r + 1, at], slice(j, j + 1)
                )[0]
                acc[at] = self._fold(acc[at], dj, kb, inv2k)

        if self._ell_center is not None:
            (cx, cy, cz), (rx, ry, rz) = self._ell_center, self._ell_radii
            qx, qy, qz = (px - cx) / rx, (py - cy) / ry, (pz - cz) / rz
            k0 = np.sqrt((qx * qx + qy * qy) + qz * qz)
            qx, qy, qz = qx / rx, qy / ry, qz / rz
            k1 = np.sqrt((qx * qx + qy * qy) + qz * qz)
            e = np.where(
                k1 > 1e-12, k0 * (k0 - 1.0) / k1, -self._ell_radii.min()
            )
            acc = e if acc is None else self._fold(acc, e, kb, inv2k)
        return acc

    def _projections(self, px, py, pz, rows: slice) -> tuple:
        """``(t, d2)`` of primitives ``rows`` at the points, ``(B, n)``:
        the clamped axis parameter of the closest point and the C
        kernel's squared-distance skip bound (unused for degenerate
        segments)."""
        a, ab = self._a[rows], self._ab[rows]
        denom = self._denom_safe[rows, None]
        pax = px - a[:, 0, None]
        pay = py - a[:, 1, None]
        paz = pz - a[:, 2, None]
        pa2 = (pax * pax + pay * pay) + paz * paz
        s = (pax * ab[:, 0, None] + pay * ab[:, 1, None]) + (
            paz * ab[:, 2, None]
        )
        t = s / denom
        np.clip(t, 0.0, 1.0, out=t)
        return t, pa2 - t * (2.0 * s - t * denom)

    def _distances(self, px, py, pz, t, rows: slice) -> np.ndarray:
        """The C kernel's distance of primitives ``rows`` at the points,
        ``(B, n)``, from their clamped axis parameters ``t`` (degenerate
        segments: the distance to ``a`` minus the larger radius)."""
        a, ab = self._a[rows], self._ab[rows]
        dx = px - (a[:, 0, None] + t * ab[:, 0, None])
        dy = py - (a[:, 1, None] + t * ab[:, 1, None])
        dz = pz - (a[:, 2, None] + t * ab[:, 2, None])
        d = np.sqrt((dx * dx + dy * dy) + dz * dz) - (
            self._ra[rows, None] + self._dr[rows, None] * t
        )
        degen = self._degen[rows]
        if degen.any():
            pax = px - a[degen, 0, None]
            pay = py - a[degen, 1, None]
            paz = pz - a[degen, 2, None]
            d[degen] = np.sqrt((pax * pax + pay * pay) + paz * paz) - (
                self._rmax[rows][degen, None]
            )
        return d

    @staticmethod
    def _fold(acc, d, kb: float, inv2k: float) -> np.ndarray:
        """One step of the left-to-right fold: the hard minimum for a
        blend <= 0, the polynomial smooth minimum otherwise."""
        if kb <= 0.0:
            return np.where(d < acc, d, acc)
        h = 0.5 + (acc - d) * inv2k
        np.clip(h, 0.0, 1.0, out=h)
        return acc + (d - acc) * h - kb * h * (1.0 - h)

    def reference(self) -> SDF:
        """The equivalent closure-chain SDF (for validation/benchmarks)."""
        primitives = [
            rounded_cone(
                self._a[j], self._b[j], self._ra[j], self._rb[j]
            )
            for j in range(self.num_segments)
        ]
        if self._ell_center is not None:
            primitives.append(ellipsoid(self._ell_center, self._ell_radii))
        return smooth_union(primitives, k=self.blend)


def evaluate_batch(problems):
    """Evaluate a ragged batch of independent (sdf, points) problems.

    ``problems`` is a sequence of ``(sdf, points)`` pairs with
    per-problem point counts (and, for fused fields, per-problem
    primitive counts).  Problems whose SDF is a C-backed
    :class:`FusedCapsuleUnion` are packed into a single ragged kernel
    call — per-problem primitive and point extents travel as int64
    offset arrays, so one FFI crossing amortizes over the whole batch.
    Every other problem (NumPy-backed fused fields, arbitrary
    callables) is evaluated with a plain solo call.

    Each problem runs the identical per-problem arithmetic it would run
    solo, so results are bit-identical to ``[sdf(p) for sdf, p in
    problems]`` — the batch axis only changes *when* the work happens,
    never *what* is computed.  Returns the per-problem value arrays in
    input order.
    """
    from repro.geometry.capsule_kernel import batch_threads

    problems = [(fn, _as_points(p)) for fn, p in problems]
    results: list = [None] * len(problems)
    packable = [
        i
        for i, (fn, _) in enumerate(problems)
        if isinstance(fn, FusedCapsuleUnion)
        and fn._kernel is not None
        and fn._kernel.batch is not None
    ]
    for i, (fn, p) in enumerate(problems):
        if i not in packable:
            results[i] = fn(p)
    if not packable:
        return results

    fused = [problems[i] for i in packable]
    n_pts = np.array([len(p) for _, p in fused], dtype=np.int64)
    n_prims = np.array(
        [fn.num_segments for fn, _ in fused], dtype=np.int64
    )
    pts_off = np.zeros(len(fused) + 1, dtype=np.int64)
    np.cumsum(n_pts, out=pts_off[1:])
    prim_off = np.zeros(len(fused) + 1, dtype=np.int64)
    np.cumsum(n_prims, out=prim_off[1:])

    total_pts = int(pts_off[-1])
    total_prims = int(prim_off[-1])
    pts = np.empty((total_pts, 3))
    a = np.empty((total_prims, 3))
    ab = np.empty((total_prims, 3))
    denom = np.empty(total_prims)
    ra = np.empty(total_prims)
    dr = np.empty(total_prims)
    rmax = np.empty(total_prims)
    ell_center = np.zeros((len(fused), 3))
    ell_radii = np.ones((len(fused), 3))
    has_ell = np.zeros(len(fused), dtype=np.int32)
    kb = np.empty(len(fused))
    for b, (fn, p) in enumerate(fused):
        pts[pts_off[b]:pts_off[b + 1]] = p
        sl = slice(prim_off[b], prim_off[b + 1])
        a[sl] = fn._a
        ab[sl] = fn._ab
        denom[sl] = fn._denom
        ra[sl] = fn._ra
        dr[sl] = fn._dr
        rmax[sl] = fn._rmax
        if fn._ell_center is not None:
            ell_center[b] = fn._ell_center
            ell_radii[b] = fn._ell_radii
            has_ell[b] = 1
        kb[b] = fn.blend
    out = np.empty(total_pts)

    dbl = ctypes.POINTER(ctypes.c_double)
    i64 = ctypes.POINTER(ctypes.c_int64)
    i32 = ctypes.POINTER(ctypes.c_int32)
    fused[0][0]._kernel.batch(
        pts.ctypes.data_as(dbl),
        pts_off.ctypes.data_as(i64),
        a.ctypes.data_as(dbl),
        ab.ctypes.data_as(dbl),
        denom.ctypes.data_as(dbl),
        ra.ctypes.data_as(dbl),
        dr.ctypes.data_as(dbl),
        rmax.ctypes.data_as(dbl),
        prim_off.ctypes.data_as(i64),
        ell_center.ctypes.data_as(dbl),
        ell_radii.ctypes.data_as(dbl),
        has_ell.ctypes.data_as(i32),
        kb.ctypes.data_as(dbl),
        ctypes.c_int64(len(fused)),
        ctypes.c_int32(batch_threads()),
        out.ctypes.data_as(dbl),
    )
    for b, i in enumerate(packable):
        results[i] = out[pts_off[b]:pts_off[b + 1]].copy()
    return results


def evaluate_packed(sdf: SDF, points: np.ndarray) -> np.ndarray:
    """Evaluate one flush of points through the batch entry point.

    Fields exposing a ``kernel_problem(points)`` seam (e.g.
    :class:`repro.avatar.implicit.PosedBodyField`) are converted to a
    single-problem :func:`evaluate_batch` call, which the batch
    contract guarantees is bit-identical to the solo evaluation;
    everything else — plain callables, and batching proxies like the
    serving pool's cross-stream coalescer, which deliberately has no
    ``kernel_problem`` of its own — falls through to ``sdf(points)``.
    The octree extractor routes every per-level corner flush through
    here so refinement rides the ragged-batch kernel when one is
    available without losing pool-level coalescing when it is not.
    """
    kernel_problem = getattr(sdf, "kernel_problem", None)
    if kernel_problem is not None:
        problem = kernel_problem(points)
        if problem is not None:
            return evaluate_batch([problem])[0]
    return sdf(points)
