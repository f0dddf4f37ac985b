"""Optional compiled backend for the fused capsule-union SDF.

The fused kernel (:class:`repro.geometry.sdf.FusedCapsuleUnion`) has two
interchangeable backends: a pure-NumPy batched evaluator and, when a C
compiler is available, a small shared library compiled lazily at first
use.  The C kernel walks all primitives per point in the exact same
arithmetic order as the NumPy closure chain (compiled with FP
contraction off), so the two backends agree to machine precision and
either can stand in for the other — machines without a toolchain simply
fall back to NumPy.

The library exports three entry points.  The first two share one
per-problem evaluator:

* ``capsule_union_sdf`` — one (primitive set, query points) problem,
  the original single-problem call.
* ``capsule_union_sdf_batch`` — a ragged batch of independent problems
  in a single call.  Per-problem primitive counts and point counts are
  described by offset arrays (problem ``b`` owns points
  ``pts_off[b]:pts_off[b+1]`` and primitives
  ``prim_off[b]:prim_off[b+1]``), and problems are fanned across
  POSIX threads when more than one core is available.  Because every
  problem runs the identical per-problem evaluator and writes a
  disjoint output slice, batched results are bit-identical to the
  equivalent sequence of solo calls regardless of thread scheduling.

The third, ``polygonise_cells``, is the compiled marching-tetrahedra
pass behind :func:`repro.geometry.marching._polygonise`: it reproduces
the NumPy pass's vertices and faces bit for bit (see the comment above
it in the C source), so the mesh does not depend on which pass ran.

The compiled library is cached in a per-user temp directory (or under
``REPRO_KERNEL_CACHE``) in a subdirectory named by a hash of the
source, so the cost of compilation is paid once per source revision
and a library built from other source is never loaded.  A failed build
is cached (with a one-line warning) so no process retries the compiler
on every call; set ``REPRO_DISABLE_C_KERNEL=1`` to force the NumPy
backend — the variable is consulted on every lookup, so it is honored
even after a successful earlier load.
"""

from __future__ import annotations

import ctypes
import getpass
import hashlib
import os
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

__all__ = [
    "CapsuleKernel",
    "batch_threads",
    "compiled_capsule_kernel",
    "kernel_available",
    "reset_kernel_cache",
]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <pthread.h>

/* Fused rounded-cone capsule union with a polynomial smooth-min fold.

   Distances and the left-to-right smooth-min fold replicate the NumPy
   closure chain (repro.geometry.sdf.rounded_cone / smooth_union)
   operation for operation, so results match to ~1 ulp.  A cheap
   squared-distance bound skips the exact distance (and the fold step)
   for primitives that are provably further than the blend radius above
   the running minimum -- such steps are exact no-ops in the fold.

   eval_problem is the one evaluator both entry points share: the solo
   call wraps it directly and the ragged batch call loops (or threads)
   over per-problem slices, so batched output is bit-identical to the
   equivalent sequence of solo calls.  */
static void eval_problem(
    const double *pts, int64_t n,
    const double *a, const double *ab, const double *denom,
    const double *ra, const double *dr, const double *rmax,
    int64_t k_prims,
    const double *ell_center, const double *ell_radii, int has_ell,
    double kb, double *out)
{
    double inv2k = (kb > 0.0) ? 0.5 / kb : 0.0;
    for (int64_t i = 0; i < n; ++i) {
        double px = pts[3*i], py = pts[3*i+1], pz = pts[3*i+2];
        double acc = 0.0;
        for (int64_t j = 0; j < k_prims; ++j) {
            double pax = px - a[3*j], pay = py - a[3*j+1],
                   paz = pz - a[3*j+2];
            double d;
            if (denom[j] < 1e-18) {
                d = sqrt((pax*pax + pay*pay) + paz*paz) - rmax[j];
            } else {
                double s = (pax*ab[3*j] + pay*ab[3*j+1]) + paz*ab[3*j+2];
                double t = s / denom[j];
                if (t < 0.0) t = 0.0; else if (t > 1.0) t = 1.0;
                if (j > 0) {
                    double thresh = acc + kb + rmax[j];
                    if (thresh <= 0.0) continue;
                    double d2 = ((pax*pax + pay*pay) + paz*paz)
                                - t * (2.0*s - t*denom[j]);
                    if (d2 > thresh*thresh + 1e-9) continue;
                }
                double cx = a[3*j] + t*ab[3*j];
                double cy = a[3*j+1] + t*ab[3*j+1];
                double cz = a[3*j+2] + t*ab[3*j+2];
                double dx = px-cx, dy = py-cy, dz = pz-cz;
                d = sqrt((dx*dx + dy*dy) + dz*dz) - (ra[j] + dr[j]*t);
            }
            if (j == 0) { acc = d; continue; }
            if (kb <= 0.0) { if (d < acc) acc = d; continue; }
            double h = 0.5 + (acc - d) * inv2k;
            if (h < 0.0) h = 0.0; else if (h > 1.0) h = 1.0;
            acc = acc + (d - acc) * h - kb * h * (1.0 - h);
        }
        if (has_ell) {
            double qx = (px - ell_center[0]) / ell_radii[0];
            double qy = (py - ell_center[1]) / ell_radii[1];
            double qz = (pz - ell_center[2]) / ell_radii[2];
            double k0 = sqrt((qx*qx + qy*qy) + qz*qz);
            double rx = qx / ell_radii[0], ry = qy / ell_radii[1],
                   rz = qz / ell_radii[2];
            double k1 = sqrt((rx*rx + ry*ry) + rz*rz);
            double e;
            if (k1 > 1e-12) {
                e = k0 * (k0 - 1.0) / k1;
            } else {
                double rm = ell_radii[0];
                if (ell_radii[1] < rm) rm = ell_radii[1];
                if (ell_radii[2] < rm) rm = ell_radii[2];
                e = -rm;
            }
            if (k_prims == 0) {
                acc = e;
            } else if (kb <= 0.0) {
                if (e < acc) acc = e;
            } else {
                double h = 0.5 + (acc - e) * inv2k;
                if (h < 0.0) h = 0.0; else if (h > 1.0) h = 1.0;
                acc = acc + (e - acc) * h - kb * h * (1.0 - h);
            }
        }
        out[i] = acc;
    }
}

void capsule_union_sdf(
    const double *pts, int64_t n,
    const double *a, const double *ab, const double *denom,
    const double *ra, const double *dr, const double *rmax,
    int64_t k_prims,
    const double *ell_center, const double *ell_radii, int has_ell,
    double kb, double *out)
{
    eval_problem(pts, n, a, ab, denom, ra, dr, rmax, k_prims,
                 ell_center, ell_radii, has_ell, kb, out);
}

/* Ragged batch: problem b owns query points pts_off[b]:pts_off[b+1]
   (rows of pts / out) and primitives prim_off[b]:prim_off[b+1] (rows
   of a / ab / denom / ra / dr / rmax); ell_center / ell_radii /
   has_ell / kb are indexed per problem.  Output slices are disjoint,
   so the strided thread partition below is race-free and the result
   is independent of scheduling. */
typedef struct {
    const double *pts; const int64_t *pts_off;
    const double *a; const double *ab; const double *denom;
    const double *ra; const double *dr; const double *rmax;
    const int64_t *prim_off;
    const double *ell_center; const double *ell_radii;
    const int32_t *has_ell; const double *kb;
    int64_t n_problems; double *out;
    int64_t first; int64_t stride;
} batch_slice;

static void *run_batch_slice(void *arg)
{
    batch_slice *s = (batch_slice *)arg;
    for (int64_t b = s->first; b < s->n_problems; b += s->stride) {
        int64_t p0 = s->pts_off[b], p1 = s->pts_off[b + 1];
        int64_t k0 = s->prim_off[b], k1 = s->prim_off[b + 1];
        eval_problem(s->pts + 3 * p0, p1 - p0,
                     s->a + 3 * k0, s->ab + 3 * k0, s->denom + k0,
                     s->ra + k0, s->dr + k0, s->rmax + k0, k1 - k0,
                     s->ell_center + 3 * b, s->ell_radii + 3 * b,
                     (int)s->has_ell[b], s->kb[b], s->out + p0);
    }
    return 0;
}

void capsule_union_sdf_batch(
    const double *pts, const int64_t *pts_off,
    const double *a, const double *ab, const double *denom,
    const double *ra, const double *dr, const double *rmax,
    const int64_t *prim_off,
    const double *ell_center, const double *ell_radii,
    const int32_t *has_ell, const double *kb,
    int64_t n_problems, int32_t n_threads, double *out)
{
    if (n_problems <= 0) return;
    int64_t workers = n_threads;
    if (workers > n_problems) workers = n_problems;
    if (workers <= 1) {
        batch_slice s = {pts, pts_off, a, ab, denom, ra, dr, rmax,
                         prim_off, ell_center, ell_radii, has_ell, kb,
                         n_problems, out, 0, 1};
        run_batch_slice(&s);
        return;
    }
    enum { MAX_THREADS = 64 };
    if (workers > MAX_THREADS) workers = MAX_THREADS;
    pthread_t threads[MAX_THREADS];
    batch_slice slices[MAX_THREADS];
    int64_t spawned = 0;
    for (int64_t w = 0; w < workers; ++w) {
        slices[w] = (batch_slice){pts, pts_off, a, ab, denom, ra, dr,
                                  rmax, prim_off, ell_center, ell_radii,
                                  has_ell, kb, n_problems, out,
                                  w, workers};
        if (w == workers - 1 ||
            pthread_create(&threads[w], 0, run_batch_slice,
                           &slices[w]) != 0) {
            /* Last slice (and any failed spawn) runs inline. */
            run_batch_slice(&slices[w]);
            break;
        }
        spawned += 1;
    }
    for (int64_t w = 0; w < spawned; ++w)
        pthread_join(threads[w], 0);
}

/* Marching tetrahedra over a cell list: the compiled twin of the NumPy
   pass in repro.geometry.marching, reproducing its output bit for bit.

   Per (cell, tet) the sign code selects up to 2 triangles from the
   edge table (6 tets x 16 cases x 2 triangles x 3 edges x 2 cube
   corners, -1 where a case has fewer triangles).  A counting sort on
   the (tet, case, triangle) bucket, cells ascending within a bucket,
   emits faces in the NumPy order.  Each crossing edge is keyed by
   (smaller corner id) * n_codes + the code of its corner pair; a
   stable LSD radix sort of the keys makes the first entry of every
   run the occurrence np.unique(return_index=True) picks, so vertices
   come out in key order, interpolated along that occurrence's edge.
   Degenerate faces are dropped and the rest oriented along the mean
   inside-to-outside edge direction with NumPy's cross product and its
   einsum dot order, (x + z) + y.

   Outputs are caller-owned: verts holds up to 19 vertices and faces
   up to 12 faces per cell (the distinct edges and the triangles of one
   cube's 6 tets).  counts receives (vertices, faces).  Returns 0; -1
   when scratch allocation fails (nothing is leaked then); -2 when an
   edge key and its entry index do not fit one 64-bit word together,
   which leaves the cells to the NumPy pass.  */

#define POLY_BUCKETS 192 /* 6 tets x 16 cases x 2 triangles */
#define RADIX_BITS 11

/* Grid coordinates of a corner id, as NumPy's floor division and
   modulo give them: (id // (gs1*gs2), (id // gs2) % gs1, id % gs2). */
static void corner_coords(int64_t id, int64_t gs1, int64_t gs2,
                          double *out)
{
    const int64_t plane = gs1 * gs2;
    int64_t x = id / plane;
    if (id % plane != 0 && ((id < 0) != (plane < 0))) x -= 1;
    const int64_t rest = id - x * plane; /* in [0, plane) */
    out[0] = (double)x;
    out[1] = (double)(rest / gs2);
    out[2] = (double)(rest % gs2);
}

static double sign_of(double x)
{
    if (x > 0.0) return 1.0;
    if (x < 0.0) return -1.0;
    return x == 0.0 ? 0.0 : x; /* NaN stays NaN, as np.sign */
}

/* Stable LSD radix sort of n 64-bit records on their bits [lo, hi),
   through tmp.  Returns the buffer holding the result. */
static uint64_t *radix_sort(uint64_t *rec, uint64_t *tmp, int64_t n,
                            int lo, int hi)
{
    int64_t hist[1 << RADIX_BITS];
    /* The fewest passes of at most RADIX_BITS, evenly wide. */
    const int passes = (hi - lo + RADIX_BITS - 1) / RADIX_BITS;
    const int width = passes ? (hi - lo + passes - 1) / passes : 1;
    const uint64_t mask = ((uint64_t)1 << width) - 1;
    for (int shift = lo; shift < hi; shift += width) {
        for (int64_t d = 0; d <= (int64_t)mask; ++d) hist[d] = 0;
        for (int64_t i = 0; i < n; ++i) hist[(rec[i] >> shift) & mask]++;
        int64_t sum = 0;
        for (int64_t d = 0; d <= (int64_t)mask; ++d) {
            int64_t c = hist[d];
            hist[d] = sum;
            sum += c;
        }
        for (int64_t i = 0; i < n; ++i)
            tmp[hist[(rec[i] >> shift) & mask]++] = rec[i];
        uint64_t *t = rec; rec = tmp; tmp = t;
    }
    return rec;
}

static int bit_length(uint64_t x)
{
    int bits = 0;
    while (bits < 64 && (x >> bits) != 0) bits++;
    return bits;
}

int32_t polygonise_cells(
    const int64_t *cells, const double *vals, int64_t m,
    const int64_t *grid_shape, const int64_t *corner_off,
    const int8_t *tets, const int8_t *edges,
    const int32_t *pair_code, const double *pair_vecs, int64_t n_codes,
    const double *origin, double spacing, double iso,
    double *verts, int64_t *faces, int64_t *counts)
{
    const int64_t gs1 = grid_shape[1], gs2 = grid_shape[2];
    uint8_t *cases = 0, *face_bucket = 0;
    int64_t *base = 0, *face_cell = 0;
    uint64_t *rec = 0, *tmp = 0, *sorted, *inverse;
    int64_t next[POLY_BUCKETS] = {0};
    int64_t n_faces = 0, n_edges, n_verts = 0, n_good = 0;
    uint64_t key_max = 0;
    int32_t status = -1;
    counts[0] = counts[1] = 0;
    if (m <= 0) return 0;

    /* 1. Sign code of every (cell, tet); faces per bucket. */
    cases = malloc((size_t)m * 6);
    base = malloc((size_t)m * sizeof(int64_t));
    if (!cases || !base) goto done;
    for (int64_t i = 0; i < m; ++i) {
        const double *v = vals + 8 * i;
        base[i] = (cells[3*i] * gs1 + cells[3*i+1]) * gs2 + cells[3*i+2];
        for (int t = 0; t < 6; ++t) {
            const int8_t *tc = tets + 4 * t;
            int c = (v[tc[0]] < iso) | (v[tc[1]] < iso) << 1
                    | (v[tc[2]] < iso) << 2 | (v[tc[3]] < iso) << 3;
            cases[6*i + t] = (uint8_t)c;
            for (int k = 0; k < 2; ++k) {
                int b = (t * 16 + c) * 2 + k;
                if (edges[b * 6] >= 0) next[b]++;
            }
        }
    }
    for (int b = 0; b < POLY_BUCKETS; ++b) {
        int64_t c = next[b];
        next[b] = n_faces;
        n_faces += c;
    }
    if (n_faces == 0) { status = 0; goto done; }

    /* 2. Counting sort of the faces on their bucket. */
    n_edges = 3 * n_faces;
    face_cell = malloc((size_t)n_faces * sizeof(int64_t));
    face_bucket = malloc((size_t)n_faces);
    rec = malloc((size_t)n_edges * sizeof(uint64_t));
    tmp = malloc((size_t)n_edges * sizeof(uint64_t));
    if (!face_cell || !face_bucket || !rec || !tmp) goto done;
    for (int64_t i = 0; i < m; ++i) {
        for (int t = 0; t < 6; ++t) {
            int c = cases[6*i + t];
            for (int k = 0; k < 2; ++k) {
                int b = (t * 16 + c) * 2 + k;
                if (edges[b * 6] < 0) continue;
                int64_t slot = next[b]++;
                face_cell[slot] = i;
                face_bucket[slot] = (uint8_t)b;
            }
        }
    }

    /* 3. Edge keys, packed above their entry index and sorted stably:
       key order, ties in entry order. */
    for (int64_t f = 0; f < n_faces; ++f) {
        const int64_t at = base[face_cell[f]];
        const int8_t *e = edges + face_bucket[f] * 6;
        for (int j = 0; j < 3; ++j) {
            int64_t ia = at + corner_off[e[2*j]];
            int64_t ib = at + corner_off[e[2*j+1]];
            uint64_t key = (uint64_t)((ia < ib ? ia : ib) * n_codes
                                      + pair_code[e[2*j] * 8 + e[2*j+1]]);
            rec[3*f + j] = key;
            key_max |= key;
        }
    }
    const int idx_bits = bit_length((uint64_t)(n_edges - 1));
    const int key_bits = bit_length(key_max);
    if (idx_bits + key_bits > 64) { status = -2; goto done; }
    for (int64_t j = 0; j < n_edges; ++j)
        rec[j] = rec[j] << idx_bits | (uint64_t)j;
    sorted = radix_sort(rec, tmp, n_edges, idx_bits, idx_bits + key_bits);
    inverse = sorted == rec ? tmp : rec;

    /* 4. One vertex per run of equal keys, on its first entry's edge. */
    const uint64_t idx_mask = ((uint64_t)1 << idx_bits) - 1;
    for (int64_t s = 0; s < n_edges; ++s) {
        const int64_t j = (int64_t)(sorted[s] & idx_mask);
        if (s > 0 && (sorted[s] >> idx_bits) == (sorted[s-1] >> idx_bits)) {
            inverse[j] = (uint64_t)(n_verts - 1);
            continue;
        }
        inverse[j] = (uint64_t)n_verts;
        const int64_t i = face_cell[j / 3];
        const int8_t *e = edges + face_bucket[j / 3] * 6 + 2 * (j % 3);
        const int64_t ia = base[i] + corner_off[e[0]];
        const int64_t ib = base[i] + corner_off[e[1]];
        const double va = vals[8*i + e[0]], vb = vals[8*i + e[1]];
        const double denom = vb - va;
        double t = fabs(denom) < 1e-14 ? 0.5 : (iso - va) / denom;
        if (t < 0.0) t = 0.0; else if (t > 1.0) t = 1.0;
        double pa[3], pb[3];
        corner_coords(ia, gs1, gs2, pa);
        corner_coords(ib, gs1, gs2, pb);
        double *out = verts + 3 * n_verts++;
        for (int d = 0; d < 3; ++d)
            out[d] = origin[d] + (pa[d] + t * (pb[d] - pa[d])) * spacing;
    }

    /* 5. Drop degenerate faces, orient the rest outward. */
    for (int64_t f = 0; f < n_faces; ++f) {
        const int64_t v0 = (int64_t)inverse[3*f],
                      v1 = (int64_t)inverse[3*f+1],
                      v2 = (int64_t)inverse[3*f+2];
        if (v0 == v1 || v1 == v2 || v0 == v2) continue;
        const int64_t i = face_cell[f];
        const int8_t *e = edges + face_bucket[f] * 6;
        double dir[3][3];
        for (int j = 0; j < 3; ++j) {
            const int a = e[2*j], b = e[2*j+1];
            const int64_t diff = corner_off[b] - corner_off[a];
            const double sgn = (double)((diff > 0) - (diff < 0))
                               * sign_of(vals[8*i + b] - vals[8*i + a]);
            const double *vec = pair_vecs + 3 * pair_code[a * 8 + b];
            for (int d = 0; d < 3; ++d) dir[j][d] = sgn * vec[d];
        }
        double out[3];
        for (int d = 0; d < 3; ++d)
            out[d] = ((dir[0][d] + dir[1][d]) + dir[2][d]) / 3.0;
        const double *p0 = verts + 3*v0, *p1 = verts + 3*v1,
                     *p2 = verts + 3*v2;
        const double a0 = p1[0] - p0[0], a1 = p1[1] - p0[1],
                     a2 = p1[2] - p0[2];
        const double b0 = p2[0] - p0[0], b1 = p2[1] - p0[1],
                     b2 = p2[2] - p0[2];
        const double n0 = a1*b2 - a2*b1, n1 = a2*b0 - a0*b2,
                     n2 = a0*b1 - a1*b0;
        const double dot = (n0*out[0] + n2*out[2]) + n1*out[1];
        int64_t *face = faces + 3 * n_good++;
        face[0] = dot < 0 ? v2 : v0;
        face[1] = v1;
        face[2] = dot < 0 ? v0 : v2;
    }
    counts[0] = n_verts;
    counts[1] = n_good;
    status = 0;
done:
    free(cases); free(base); free(face_cell); free(face_bucket);
    free(rec); free(tmp);
    return status;
}
"""


@dataclass(frozen=True)
class CapsuleKernel:
    """The compiled entry points: ``solo`` (one problem per call),
    ``batch`` (ragged multi-problem call) and ``polygonise`` (marching
    tetrahedra over a cell list); ``batch`` and ``polygonise`` are None
    when the loaded library predates them."""

    solo: object
    batch: Optional[object] = None
    polygonise: Optional[object] = None


# Tri-state cache: None = not yet attempted, False-y = unavailable
# (negative result cached so a missing toolchain is probed only once
# per process), otherwise the loaded CapsuleKernel.
_KERNEL: Optional[CapsuleKernel] = None
_ATTEMPTED = False


def _cache_dir(digest: str) -> Path:
    base = os.environ.get("REPRO_KERNEL_CACHE")
    if base:
        return Path(base) / digest
    try:
        user = getpass.getuser()
    except Exception:
        user = str(os.getuid()) if hasattr(os, "getuid") else "user"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{user}" / digest


def _build() -> Optional[CapsuleKernel]:
    """Compile (or reuse) the shared library; None when impossible."""
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    directory = _cache_dir(digest)
    lib_path = directory / "capsule_union.so"
    if not lib_path.exists():
        compiler = os.environ.get("CC", "cc")
        try:
            directory.mkdir(parents=True, exist_ok=True)
            src = directory / "capsule_union.c"
            src.write_text(_SOURCE)
            tmp = directory / f"capsule_union.{os.getpid()}.so"
            subprocess.run(
                [
                    compiler, "-O2", "-shared", "-fPIC",
                    "-ffp-contract=off", "-o", str(tmp), str(src),
                    "-lm", "-lpthread",
                ],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, lib_path)
        except Exception:
            return None
    try:
        lib = ctypes.CDLL(str(lib_path))
        double_p = ctypes.POINTER(ctypes.c_double)
        int64_p = ctypes.POINTER(ctypes.c_int64)
        int32_p = ctypes.POINTER(ctypes.c_int32)
        int8_p = ctypes.POINTER(ctypes.c_int8)
        solo = lib.capsule_union_sdf
        solo.restype = None
        solo.argtypes = [
            double_p, ctypes.c_int64,  # points, n
            double_p, double_p, double_p,  # a, ab, denom
            double_p, double_p, double_p,  # ra, dr, rmax
            ctypes.c_int64,  # k_prims
            double_p, double_p, ctypes.c_int,  # ellipsoid
            ctypes.c_double, double_p,  # blend, out
        ]
        try:
            batch = lib.capsule_union_sdf_batch
            batch.restype = None
            batch.argtypes = [
                double_p, int64_p,  # points, point offsets
                double_p, double_p, double_p,  # a, ab, denom
                double_p, double_p, double_p,  # ra, dr, rmax
                int64_p,  # primitive offsets
                double_p, double_p, int32_p,  # ellipsoids, has_ell
                double_p,  # blend per problem
                ctypes.c_int64, ctypes.c_int32,  # n_problems, threads
                double_p,  # out
            ]
        except AttributeError:  # pragma: no cover - stale library
            batch = None
        try:
            polygonise = lib.polygonise_cells
            polygonise.restype = ctypes.c_int32
            polygonise.argtypes = [
                int64_p, double_p, ctypes.c_int64,  # cells, values, m
                int64_p, int64_p,  # grid shape, corner offsets
                int8_p, int8_p,  # tet corners, edge table
                int32_p, double_p, ctypes.c_int64,  # pair codes, vecs
                double_p, ctypes.c_double, ctypes.c_double,  # frame, iso
                double_p, int64_p, int64_p,  # vertices, faces, counts
            ]
        except AttributeError:  # stale library
            polygonise = None
        return CapsuleKernel(solo=solo, batch=batch, polygonise=polygonise)
    except Exception:
        return None


def compiled_capsule_kernel() -> Optional[CapsuleKernel]:
    """The compiled kernel entry points, or None when unavailable.

    The build (or the discovery that no toolchain exists) happens at
    most once per process; ``REPRO_DISABLE_C_KERNEL`` is re-read on
    every call, so flipping it mid-process takes effect immediately —
    including after a successful earlier load.
    """
    global _KERNEL, _ATTEMPTED
    if os.environ.get("REPRO_DISABLE_C_KERNEL"):
        return None
    if not _ATTEMPTED:
        _ATTEMPTED = True
        _KERNEL = _build()
        if _KERNEL is None:
            warnings.warn(
                "C capsule kernel build failed; using the NumPy "
                "backend for this process (negative result cached)",
                RuntimeWarning,
                stacklevel=2,
            )
    return _KERNEL


def kernel_available() -> bool:
    """Whether the compiled backend can be used on this machine."""
    return compiled_capsule_kernel() is not None


def batch_threads() -> int:
    """Worker threads for one batched kernel call.

    ``REPRO_BATCH_THREADS`` overrides; the default is the visible CPU
    count (1 on single-core boxes, where the batch call degrades to an
    in-thread loop with zero spawn cost).
    """
    override = os.environ.get("REPRO_BATCH_THREADS")
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def reset_kernel_cache() -> None:
    """Forget the cached build outcome (tests only — the whole point
    of the cache is that production processes probe the toolchain
    exactly once)."""
    global _KERNEL, _ATTEMPTED
    _KERNEL = None
    _ATTEMPTED = False
