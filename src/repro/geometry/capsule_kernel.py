"""Optional compiled backend for the fused capsule-union SDF.

The fused kernel (:class:`repro.geometry.sdf.FusedCapsuleUnion`) has two
interchangeable backends: a pure-NumPy batched evaluator and, when a C
compiler is available, a small shared library compiled lazily at first
use.  The C kernel folds the primitives per point in the exact same
arithmetic order as the NumPy closure chain (compiled with FP
contraction off), and the NumPy evaluator computes the C kernel's
per-point expression elementwise, so the two backends give the same
bytes and either can stand in for the other — machines without a
toolchain simply fall back to NumPy.

The C kernel skips only fold steps that are exact no-ops.  A step
whose distance is at least the running minimum plus the blend radius
leaves the running value unchanged (its blend weight clips to 0), and
every step returns at most the smaller of the running value and its
own distance.  So per call the kernel bins the query points on a coarse
grid over their bounding box and bounds, per bin, each primitive's
distance from below and every earlier one's from above; a primitive
whose lower bound clears the smallest earlier upper bound plus the
blend (and a rounding margin) is dropped from that bin's walk.  Every
point keeps the bits the full walk gives it, whichever other points
share its call (see the comment above ``cull_problem`` in the C
source).

Each bin's points walk its list together, several at once in SIMD
lanes.  The group evaluator is written once over a vector of ``W``
doubles (GCC/Clang vector extensions): every lane runs the scalar
per-point expression, the same IEEE operations in the same order, and
every branch on a point's value becomes a bitwise select of the value
the branch keeps; the no-op skip passes a primitive over only when
every lane skips it, and a skipping lane keeps its running value.  So
no bit depends on the width or on which points share a group, and the
width is chosen per call by the host alone: 4 lanes compiled for AVX2
on x86-64 hosts that have it, else 2 (one SSE2 or NEON register; 4
lanes without AVX2 split into register pairs and ran slower than one
point at a time).  :attr:`CapsuleKernel.lanes` names the host's width.

The library exports evaluator and extraction entry points.  The first
three share one per-problem evaluator:

* ``capsule_union_sdf`` — one (primitive set, query points) problem,
  the original single-problem call.
* ``capsule_union_sdf_lanes`` — the same at a width given by the
  caller, so tests hold every width the host offers to the NumPy
  evaluator; it returns the width that ran (0 when the host lacks it).
* ``capsule_union_sdf_batch`` — a ragged batch of independent problems
  in a single call.  Per-problem primitive counts and point counts are
  described by offset arrays (problem ``b`` owns points
  ``pts_off[b]:pts_off[b+1]`` and primitives
  ``prim_off[b]:prim_off[b+1]``), and problems are fanned across
  POSIX threads when more than one core is available.  Because every
  problem runs the identical per-problem evaluator and writes a
  disjoint output slice, batched results are bit-identical to the
  equivalent sequence of solo calls regardless of thread scheduling.

``polygonise_cells`` is the compiled marching-tetrahedra
pass behind :func:`repro.geometry.marching._polygonise`: it reproduces
the NumPy pass's vertices and faces bit for bit (see the comment above
it in the C source), so the mesh does not depend on which pass ran.
``level_box``, ``level_points`` and ``level_gather`` are the corner
pass of one octree refinement level behind
:func:`repro.geometry.marching._evaluate_level`: corner dedup into
query points before the field call, corner values and cell flags
after it, byte for byte as the NumPy pass computes them.

The compiled library is cached in a per-user temp directory (or under
``REPRO_KERNEL_CACHE``) in a subdirectory named by a hash of the
source and the compiler command, so the cost of compilation is paid
once per source revision and a library built from other source or with
other flags is never loaded.  A failed build is cached (with a one-line
warning) so no process retries the compiler on every call; set
``REPRO_DISABLE_C_KERNEL=1`` to force the NumPy backend — the variable
is consulted on every lookup, so it is honored even after a successful
earlier load.
"""

from __future__ import annotations

import ctypes
import getpass
import hashlib
import os
import string
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

_PROBLEM = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <pthread.h>

/* Fused rounded-cone capsule union with a polynomial smooth-min fold.

   Distances and the left-to-right smooth-min fold replicate the NumPy
   closure chain (repro.geometry.sdf.rounded_cone / smooth_union)
   operation for operation.  A cheap squared-distance bound skips the
   exact distance (and the fold step) for primitives that are provably
   further than the blend radius above the running minimum -- such
   steps are exact no-ops in the fold.

   A problem: k primitives (segment starts a, axes ab, squared lengths
   denom, radii ra + dr * t, rmax the larger end), an optional
   ellipsoid folded last, and the blend kb (inv2k = 0.5 / kb).  */
typedef struct {
    const double *a, *ab, *denom, *ra, *dr, *rmax;
    int64_t k;
    const double *ell_center, *ell_radii;
    int has_ell;
    double kb, inv2k;
} problem;

/* A group evaluator folds primitives list[0..n_list) in that order (all
   of them when list is NULL), then the ellipsoid, at the m points
   pts[idx[0..m)] (pts[0..m) when idx is NULL), writing out[idx[s]].  */
typedef void (*group_fn)(const double *pts, const int64_t *idx, int64_t m,
                         const int32_t *list, int64_t n_list,
                         const problem *P, double *out);
"""

# The group evaluator, written once over a vector of $W doubles and
# instantiated per width (see _lane_group).
_LANE_GROUP = r"""
/* The group evaluator at $W lanes: one point per lane, every lane
   running the scalar per-point expression.  Each lane operation is
   the IEEE operation the scalar code performs, in the same order (FP
   contraction off, no reassociation, IEEE division and sqrt), and
   every branch on a point's value becomes a bitwise select of the
   value the branch would have kept.  So a lane's bits are the scalar
   walk's, whatever its neighbours hold:
   - the clamps of t and h, and the hard min, are selects;
   - the per-point skip is a lane mask: a step is passed over only
     when every lane skips it, and a lane that skips keeps its acc;
   - the ellipsoid computes both of its cases and selects one.
   A group shorter than $W repeats its last point; only real lanes are
   written back.  */
typedef double vd$W __attribute__((vector_size(8 * $W)));
typedef int64_t vm$W __attribute__((vector_size(8 * $W)));

static inline $TARGET vd$W splat$W(double x)
{
    vd$W v;
    for (int l = 0; l < $W; ++l) v[l] = x;
    return v;
}

static inline $TARGET vd$W select$W(vm$W m, vd$W x, vd$W y)
{
    return (vd$W)((m & (vm$W)x) | (~m & (vm$W)y));
}

static inline $TARGET vd$W sqrt$W(vd$W x)
{
    for (int l = 0; l < $W; ++l) x[l] = sqrt(x[l]);
    return x;
}

static inline $TARGET int all$W(vm$W m)
{
    int64_t all = m[0];
    for (int l = 1; l < $W; ++l) all &= m[l];
    return all != 0;
}

/* One fold step: the hard min for kb <= 0, else the smooth min.  */
static inline $TARGET vd$W fold$W(vd$W acc, vd$W d, double kb,
                                  double inv2k)
{
    if (kb <= 0.0) return select$W(d < acc, d, acc);
    vd$W h = 0.5 + (acc - d) * inv2k;
    h = select$W(h < 0.0, splat$W(0.0), h);
    h = select$W(h > 1.0, splat$W(1.0), h);
    return acc + (d - acc) * h - kb * h * (1.0 - h);
}

static $TARGET void eval_group$W(
    const double *pts, const int64_t *idx, int64_t m,
    const int32_t *list, int64_t n_list, const problem *P, double *out)
{
    const double kb = P->kb, inv2k = P->inv2k;
    for (int64_t g = 0; g < m; g += $W) {
        int64_t row[$W];
        vd$W px, py, pz;
        for (int l = 0; l < $W; ++l) {
            const int64_t s = g + l < m ? g + l : m - 1;
            row[l] = idx ? idx[s] : s;
            px[l] = pts[3*row[l]];
            py[l] = pts[3*row[l]+1];
            pz[l] = pts[3*row[l]+2];
        }
        vd$W acc = splat$W(0.0);
        for (int64_t jj = 0; jj < n_list; ++jj) {
            const int64_t j = list ? list[jj] : jj;
            const double *aj = P->a + 3*j, *abj = P->ab + 3*j;
            const vd$W pax = px - aj[0], pay = py - aj[1], paz = pz - aj[2];
            vm$W skip = {0};
            vd$W d;
            if (P->denom[j] < 1e-18) {
                d = sqrt$W((pax*pax + pay*pay) + paz*paz) - P->rmax[j];
            } else {
                const vd$W s = (pax*abj[0] + pay*abj[1]) + paz*abj[2];
                vd$W t = s / P->denom[j];
                t = select$W(t < 0.0, splat$W(0.0), t);
                t = select$W(t > 1.0, splat$W(1.0), t);
                if (j > 0) {
                    const vd$W thresh = acc + kb + P->rmax[j];
                    const vd$W d2 = ((pax*pax + pay*pay) + paz*paz)
                                    - t * (2.0*s - t*P->denom[j]);
                    skip = (thresh <= 0.0) | (d2 > thresh*thresh + 1e-9);
                    if (all$W(skip)) continue;
                }
                const vd$W dx = px - (aj[0] + t*abj[0]);
                const vd$W dy = py - (aj[1] + t*abj[1]);
                const vd$W dz = pz - (aj[2] + t*abj[2]);
                d = sqrt$W((dx*dx + dy*dy) + dz*dz)
                    - (P->ra[j] + P->dr[j]*t);
            }
            acc = j == 0 ? d
                         : select$W(skip, acc, fold$W(acc, d, kb, inv2k));
        }
        if (P->has_ell) {
            const double *c = P->ell_center, *r = P->ell_radii;
            const vd$W qx = (px - c[0]) / r[0], qy = (py - c[1]) / r[1],
                       qz = (pz - c[2]) / r[2];
            const vd$W k0 = sqrt$W((qx*qx + qy*qy) + qz*qz);
            const vd$W rx = qx / r[0], ry = qy / r[1], rz = qz / r[2];
            const vd$W k1 = sqrt$W((rx*rx + ry*ry) + rz*rz);
            double rm = r[0];
            if (r[1] < rm) rm = r[1];
            if (r[2] < rm) rm = r[2];
            const vd$W e = select$W(k1 > 1e-12, k0 * (k0 - 1.0) / k1,
                                    splat$W(-rm));
            acc = P->k == 0 ? e : fold$W(acc, e, kb, inv2k);
        }
        for (int l = 0; l < $W && g + l < m; ++l) out[row[l]] = acc[l];
    }
}
"""

_DRIVER = r"""
/* Dispatch.  Every width computes every lane's scalar expression, so
   the width changes the speed only, never a bit.  x86-64 hosts with
   AVX2 run 4 lanes (the instantiation above is compiled for AVX2
   alone, picked per call); every other host runs 2, one SSE2 or NEON
   register.  On captured r128 flushes, against the scalar walk: 4
   lanes with AVX2 ran ~2x faster, 2 lanes ~1.2x, and 4 lanes without
   AVX2 (split into register pairs) at half its speed.  lanes_group
   returns the evaluator for lanes (0: the host's width), NULL when the
   host lacks it.  */
static group_fn lanes_group(int lanes)
{
#if defined(__x86_64__)
    const int avx2 = __builtin_cpu_supports("avx2");
    if (lanes == 4 || (lanes == 0 && avx2)) return avx2 ? eval_group4 : 0;
#endif
    return lanes == 0 || lanes == 2 ? eval_group2 : 0;
}

/* Per-bin primitive cull.

   A fold step j >= 1 is an exact no-op when d_j >= acc + k (k the
   blend, 0 for the hard min): h clips to 0 and
   acc + (d - acc)*0 - k*0*1 returns acc unchanged (the hard min keeps
   acc too).  Every step returns at most min(acc, d) (one the per-point
   bound skips has d > acc), so after the steps before j,
   acc <= min_{i<j} d_i.  For the points of a bin --
   a box with centre c and half-diagonal R -- with dist_i = |c - seg_i|:
     d_i <= U_i = dist_i + R - rmin_i     (rmin_i the smaller radius)
     d_j >= L_j = dist_j - R - rmax_j
   so step j is a no-op for every point of the bin when
     L_j >= min_{i<j} U_i + k + margin.
   Primitive 0 (it seeds acc) and the ellipsoid always run.  Dropping
   no-op steps leaves every point's bits as the full walk gives them,
   so the cull needs no tolerance and batched == solo still holds.

   The margin absorbs floating-point rounding of the bounds, the
   distances and the fold: all of those are a small multiple of
   K * 2^-52 times the largest magnitude involved (coordinates,
   lengths, radii, the blend), so margin = 1e-9 * (1 + that magnitude)
   dominates them at any scale; 1e-9 is also the slack of the
   per-point bound above.

   Points are counting-sorted by bin; each non-empty bin gets its own
   box (the bounding box of its points, tighter than the grid cell),
   its ordered list of surviving primitives, and its points evaluated
   over that list by the group evaluator, written back at their input
   positions.  Non-finite points never enter the grid (no non-finite
   coordinate is ever converted to an integer): they form one last
   group that walks every primitive.  cull_problem returns 0 when it
   evaluated the problem and -1 when it declined (too few points or
   primitives, non-finite primitives or extents, allocation failure);
   the caller then walks every primitive at every point.  Scratch
   memory is per call: batch threads run eval_problem concurrently.  */
#define CULL_POINTS_PER_BIN 32
#define CULL_MIN_POINTS (2 * CULL_POINTS_PER_BIN)

/* Distance from c to segment j, as the fold measures it: degenerate
   segments (denom < 1e-18) are the point a.  */
static double seg_dist(const double *c, const double *a, const double *ab,
                       double denom)
{
    double pax = c[0] - a[0], pay = c[1] - a[1], paz = c[2] - a[2];
    double t = 0.0;
    if (denom >= 1e-18) {
        t = ((pax*ab[0] + pay*ab[1]) + paz*ab[2]) / denom;
        if (t < 0.0) t = 0.0; else if (t > 1.0) t = 1.0;
    }
    double dx = pax - t*ab[0], dy = pay - t*ab[1], dz = paz - t*ab[2];
    return sqrt((dx*dx + dy*dy) + dz*dz);
}

/* Bin edge for n_fin points spanning extents ext: about one bin per
   CULL_POINTS_PER_BIN points over the bounding box, axes shorter than
   the edge getting a single bin.  0 when every point coincides.

   Building a bin's list costs one bound per primitive, about what one
   point's full walk costs, while a smaller box shortens the list (the
   bin adds 2R of slack to the test).  Sizing bins by point count keeps
   the list cost a fixed small share per point whatever the spacing of
   the query lattice: a root-grid flush fills its box, a refinement
   flush lies on the surface and packs more points into each occupied
   bin.  On captured r128 extraction flushes of the 70-capsule body,
   8 to 64 points per bin gave the same kernel time within 4% (~1.9x
   faster than the full walk), 128 was ~10% slower; 32 sits mid-range. */
static double bin_edge(const double *ext, int64_t n_fin)
{
    double e[3] = {ext[0], ext[1], ext[2]};
    for (int x = 0; x < 2; ++x)
        for (int y = 0; y < 2 - x; ++y)
            if (e[y] < e[y+1]) { double t = e[y]; e[y] = e[y+1]; e[y+1] = t; }
    double bins = (double)n_fin / CULL_POINTS_PER_BIN;
    if (bins < 1.0) bins = 1.0;
    double edge = cbrt(e[0] * e[1] * e[2] / bins);
    if (e[2] < edge) edge = sqrt(e[0] * e[1] / bins);
    if (e[1] < edge) edge = e[0] / bins;
    return edge;
}

/* The ordered primitives a bin of m points (rows idx of pts) walks:
   primitive 0, then every j whose lower bound does not clear the
   smallest earlier upper bound by the blend plus margin.  Returns the
   list's length.  */
static int64_t bin_list(
    const double *pts, const int64_t *idx, int64_t m, const problem *P,
    double kpos, double margin, int32_t *list)
{
    double lo[3], hi[3], c[3], half[3];
    for (int d = 0; d < 3; ++d) lo[d] = hi[d] = pts[3*idx[0] + d];
    for (int64_t s = 1; s < m; ++s) {
        const double *p = pts + 3*idx[s];
        for (int d = 0; d < 3; ++d) {
            if (p[d] < lo[d]) lo[d] = p[d];
            if (p[d] > hi[d]) hi[d] = p[d];
        }
    }
    for (int d = 0; d < 3; ++d) {
        c[d] = 0.5 * (lo[d] + hi[d]);
        half[d] = 0.5 * (hi[d] - lo[d]);
    }
    const double R = sqrt((half[0]*half[0] + half[1]*half[1])
                          + half[2]*half[2]);
    int64_t n_list = 0;
    double u_min = INFINITY;
    for (int64_t j = 0; j < P->k; ++j) {
        const double dist = seg_dist(c, P->a + 3*j, P->ab + 3*j,
                                     P->denom[j]);
        if (j > 0 && dist - R - P->rmax[j] >= u_min + kpos + margin)
            continue;
        list[n_list++] = (int32_t)j;
        double rmin = P->rmax[j];
        if (P->denom[j] >= 1e-18) {
            double rb = P->ra[j] + P->dr[j];
            rmin = P->ra[j] < rb ? P->ra[j] : rb;
        }
        const double u = dist + R - rmin;
        if (j == 0 || u < u_min) u_min = u;
    }
    return n_list;
}

static int cull_problem(const double *pts, int64_t n, const problem *P,
                        group_fn group, double *out)
{
    const int64_t k_prims = P->k;
    if (n < CULL_MIN_POINTS || k_prims < 2 || !isfinite(P->kb))
        return -1;
    const double kpos = P->kb > 0.0 ? P->kb : 0.0;
    double scale = kpos;
    for (int64_t j = 0; j < k_prims; ++j) {
        for (int d = 0; d < 3; ++d) {
            double m = fabs(P->a[3*j+d]) + fabs(P->ab[3*j+d]);
            if (!isfinite(m)) return -1;
            if (m > scale) scale = m;
        }
        double rb = P->ra[j] + P->dr[j];
        if (!isfinite(P->denom[j]) || !isfinite(rb)
            || !isfinite(P->rmax[j]))
            return -1;
        if (P->rmax[j] > scale) scale = P->rmax[j];
    }

    /* Bounding box of the finite points. */
    double lo[3] = {INFINITY, INFINITY, INFINITY};
    double hi[3] = {-INFINITY, -INFINITY, -INFINITY};
    int64_t n_fin = 0;
    for (int64_t i = 0; i < n; ++i) {
        const double *p = pts + 3*i;
        if (!isfinite(p[0]) || !isfinite(p[1]) || !isfinite(p[2]))
            continue;
        n_fin += 1;
        for (int d = 0; d < 3; ++d) {
            if (p[d] < lo[d]) lo[d] = p[d];
            if (p[d] > hi[d]) hi[d] = p[d];
        }
    }
    if (n_fin < CULL_MIN_POINTS) return -1;
    double ext[3];
    for (int d = 0; d < 3; ++d) {
        ext[d] = hi[d] - lo[d];
        if (!isfinite(ext[d])) return -1;
        if (fabs(lo[d]) > scale) scale = fabs(lo[d]);
        if (fabs(hi[d]) > scale) scale = fabs(hi[d]);
    }
    const double margin = 1e-9 * (1.0 + scale);

    /* Grid cells per axis: about n_fin / CULL_POINTS_PER_BIN bins in
       all, at most 8x that from rounding up; the check below only
       guards against degenerate extents. */
    double cells[3], total = 1.0;
    const double edge = bin_edge(ext, n_fin);
    for (int d = 0; d < 3; ++d) {
        cells[d] = edge > 0.0 ? ceil(ext[d] / edge) : 1.0;
        if (!(cells[d] >= 1.0)) cells[d] = 1.0;
        total *= cells[d];
    }
    if (!(total <= (double)n_fin)) return -1;
    int64_t g[3];
    double inv[3];
    for (int d = 0; d < 3; ++d) {
        g[d] = (int64_t)cells[d];
        inv[d] = g[d] > 1 ? (double)g[d] / ext[d] : 0.0;
    }
    const int64_t n_bins = g[0] * g[1] * g[2];

    /* Counting sort by bin; bin b holds order[start[b]:start[b+1]],
       the non-finite group b = n_bins last. */
    int status = -1;
    int64_t *bin = malloc((size_t)n * sizeof(int64_t));
    int64_t *start = calloc((size_t)n_bins + 3, sizeof(int64_t));
    int64_t *order = malloc((size_t)n * sizeof(int64_t));
    int32_t *list = malloc((size_t)k_prims * sizeof(int32_t));
    if (!bin || !start || !order || !list) goto done;
    for (int64_t i = 0; i < n; ++i) {
        const double *p = pts + 3*i;
        int64_t b = n_bins;
        if (isfinite(p[0]) && isfinite(p[1]) && isfinite(p[2])) {
            b = 0;
            for (int d = 0; d < 3; ++d) {
                double f = (p[d] - lo[d]) * inv[d];
                int64_t ix = 0;
                if (f >= (double)g[d]) ix = g[d] - 1;
                else if (f > 0.0) ix = (int64_t)f;
                b = b * g[d] + ix;
            }
        }
        bin[i] = b;
        start[b + 2] += 1;
    }
    for (int64_t b = 0; b <= n_bins; ++b) start[b + 2] += start[b + 1];
    for (int64_t i = 0; i < n; ++i) order[start[bin[i] + 1]++] = i;

    for (int64_t b = 0; b <= n_bins; ++b) {
        const int64_t s0 = start[b], s1 = start[b + 1];
        if (s0 == s1) continue;
        if (b == n_bins) { /* the non-finite group: every primitive */
            group(pts, order + s0, s1 - s0, 0, k_prims, P, out);
            continue;
        }
        const int64_t n_list = bin_list(pts, order + s0, s1 - s0, P, kpos,
                                        margin, list);
        group(pts, order + s0, s1 - s0, list, n_list, P, out);
    }
    status = 0;
done:
    free(bin); free(start); free(order); free(list);
    return status;
}

/* eval_problem is the one evaluator every entry point shares: the solo
   calls wrap it directly and the ragged batch call loops (or threads)
   over per-problem slices, so batched output is bit-identical to the
   equivalent sequence of solo calls.  */
static void eval_problem(
    const double *pts, int64_t n,
    const double *a, const double *ab, const double *denom,
    const double *ra, const double *dr, const double *rmax,
    int64_t k_prims,
    const double *ell_center, const double *ell_radii, int has_ell,
    double kb, group_fn group, double *out)
{
    const problem P = {a, ab, denom, ra, dr, rmax, k_prims, ell_center,
                       ell_radii, has_ell, kb, kb > 0.0 ? 0.5 / kb : 0.0};
    if (cull_problem(pts, n, &P, group, out) != 0)
        group(pts, 0, n, 0, k_prims, &P, out);
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
                 ell_center, ell_radii, has_ell, kb, lanes_group(0), out);
}

/* capsule_union_sdf at a chosen width, so tests can hold every width
   the host offers to the NumPy evaluator; 0 picks the host's width.
   Returns the width that ran, or 0 (out untouched) when the host lacks
   the width.  */
int32_t capsule_union_sdf_lanes(
    const double *pts, int64_t n,
    const double *a, const double *ab, const double *denom,
    const double *ra, const double *dr, const double *rmax,
    int64_t k_prims,
    const double *ell_center, const double *ell_radii, int has_ell,
    double kb, double *out, int32_t lanes)
{
    const group_fn group = lanes_group(lanes);
    if (!group) return 0;
    eval_problem(pts, n, a, ab, denom, ra, dr, rmax, k_prims,
                 ell_center, ell_radii, has_ell, kb, group, out);
    return group == eval_group2 ? 2 : 4;
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
    group_fn group;
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
                     (int)s->has_ell[b], s->kb[b], s->group,
                     s->out + p0);
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
    const group_fn group = lanes_group(0);
    int64_t workers = n_threads;
    if (workers > n_problems) workers = n_problems;
    if (workers <= 1) {
        batch_slice s = {pts, pts_off, a, ab, denom, ra, dr, rmax,
                         prim_off, ell_center, ell_radii, has_ell, kb,
                         n_problems, out, 0, 1, group};
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
                                  w, workers, group};
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

"""

_PASSES = r"""
/* The corner pass of one octree refinement level: the compiled twin of
   repro.geometry.marching._evaluate_corners' dense branch and of
   _classify, reproducing them byte for byte.  The field is evaluated
   between level_points and level_gather, by the caller.

   level_box writes the bounding box of m >= 1 cells: box[0..2] the
   lowest cell, box[3..5] the shape of the box's corner grid (extent +
   2 per axis).

   level_points marks every corner of every cell in rank (one int32 per
   corner of the box, box-linear order), numbers the marked corners in
   that order -- the order np.argwhere gives the dense branch -- and
   writes their positions, (double)(corner + box lo) * spacing + origin
   per axis (the dense branch's arithmetic), to points.  Returns how
   many; points holds room for min(8 m, box corners).

   level_gather reads each cell's 8 corner values (cube: the corner
   offsets in _CUBE_CORNERS order) and _classify's flags: straddling
   (min <= iso <= max) and active (or the nearer extreme within a cell
   diagonal of iso).  NaN propagates through np.minimum / np.maximum,
   so a NaN corner clears both.  flags holds the two (m,) masks one
   after the other.  */
static void corner_offsets(const int64_t *box, const int64_t *cube,
                           int64_t *off)
{
    for (int c = 0; c < 8; ++c)
        off[c] = (cube[3*c] * box[4] + cube[3*c+1]) * box[5]
                 + cube[3*c+2];
}

static int64_t box_base(const int64_t *cell, const int64_t *box)
{
    return ((cell[0] - box[0]) * box[4] + (cell[1] - box[1])) * box[5]
           + (cell[2] - box[2]);
}

void level_box(const int64_t *cells, int64_t m, int64_t *box)
{
    int64_t lo[3] = {cells[0], cells[1], cells[2]};
    int64_t hi[3] = {cells[0], cells[1], cells[2]};
    for (int64_t i = 1; i < m; ++i) {
        for (int d = 0; d < 3; ++d) {
            const int64_t v = cells[3*i + d];
            if (v < lo[d]) lo[d] = v;
            if (v > hi[d]) hi[d] = v;
        }
    }
    for (int d = 0; d < 3; ++d) {
        box[d] = lo[d];
        box[3 + d] = hi[d] - lo[d] + 2;
    }
}

int64_t level_points(
    const int64_t *cells, int64_t m, const int64_t *box,
    const int64_t *cube, int32_t *rank, const double *origin,
    double spacing, double *points)
{
    int64_t off[8];
    corner_offsets(box, cube, off);
    memset(rank, 0, (size_t)(box[3] * box[4] * box[5]) * sizeof(int32_t));
    for (int64_t i = 0; i < m; ++i) {
        const int64_t base = box_base(cells + 3*i, box);
        for (int c = 0; c < 8; ++c) rank[base + off[c]] = 1;
    }
    int64_t n = 0, id = 0;
    for (int64_t x = 0; x < box[3]; ++x) {
        const double px = (double)(x + box[0]) * spacing + origin[0];
        for (int64_t y = 0; y < box[4]; ++y) {
            const double py = (double)(y + box[1]) * spacing + origin[1];
            for (int64_t z = 0; z < box[5]; ++z, ++id) {
                if (!rank[id]) continue;
                rank[id] = (int32_t)n;
                double *p = points + 3 * n++;
                p[0] = px;
                p[1] = py;
                p[2] = (double)(z + box[2]) * spacing + origin[2];
            }
        }
    }
    return n;
}

void level_gather(
    const int64_t *cells, int64_t m, const int64_t *box,
    const int64_t *cube, const int32_t *rank, const double *values,
    double iso, double spacing, double *corner_values, uint8_t *flags)
{
    int64_t off[8];
    corner_offsets(box, cube, off);
    const double diagonal = spacing * sqrt(3.0);
    uint8_t *strad = flags, *active = flags + m;
    for (int64_t i = 0; i < m; ++i) {
        const int64_t base = box_base(cells + 3*i, box);
        double *v = corner_values + 8 * i;
        int nan = 0;
        for (int c = 0; c < 8; ++c) {
            v[c] = values[rank[base + off[c]]];
            nan |= v[c] != v[c];
        }
        strad[i] = active[i] = 0;
        if (nan) continue;
        double vmin = v[0], vmax = v[0];
        for (int c = 1; c < 8; ++c) {
            if (v[c] < vmin) vmin = v[c];
            if (v[c] > vmax) vmax = v[c];
        }
        const double g0 = fabs(vmin - iso), g1 = fabs(vmax - iso);
        /* np.minimum: NaN (inf - inf at an infinite iso) propagates. */
        const double gap = g0 != g0 ? g0 : (g1 != g1 ? g1
                           : (g1 < g0 ? g1 : g0));
        const int s = vmin <= iso && vmax >= iso;
        strad[i] = (uint8_t)s;
        active[i] = (uint8_t)(s || gap <= diagonal);
    }
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


def _lane_group(lanes: int, target: str = "") -> str:
    """The group evaluator's C source at ``lanes`` lanes, its functions
    compiled for ``target`` (a function attribute, or the build's
    baseline when empty)."""
    return string.Template(_LANE_GROUP).substitute(W=lanes, TARGET=target)


_SOURCE = (
    _PROBLEM
    + "#if defined(__x86_64__)\n"
    + _lane_group(4, '__attribute__((target("avx2")))')
    + "#endif\n"
    + _lane_group(2)
    + _DRIVER
    + _PASSES
)


@dataclass(frozen=True)
class CapsuleKernel:
    """The compiled entry points: ``solo`` (one problem per call),
    ``level`` (the octree level corner pass: ``(level_box,
    level_points, level_gather)``), ``solo_lanes`` (``solo`` at the
    width given as one more argument, for tests), ``batch`` (ragged
    multi-problem call) and ``polygonise`` (marching tetrahedra over a
    cell list); the last two are None when the loaded library predates
    them.  ``lanes`` is the width ``solo`` and ``batch`` run at on this
    host: 4 on x86-64 with AVX2, else 2."""

    solo: object
    level: tuple
    solo_lanes: object
    lanes: int
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


# The compiler's arguments besides the compiler and the paths.  FP
# contraction off keeps every product and sum rounded on its own, as
# NumPy rounds them; -fno-math-errno lets sqrt compile to the vector
# instruction (it only stops libm from setting errno, no result moves).
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")


def _build() -> Optional[CapsuleKernel]:
    """Compile (or reuse) the shared library; None when impossible."""
    command = [os.environ.get("CC", "cc"), *_CFLAGS]
    # A digest of the source and the command names the library, so one
    # built from other source or with other flags is never loaded.
    key = "\0".join([_SOURCE, *command])
    directory = _cache_dir(hashlib.sha256(key.encode()).hexdigest()[:16])
    lib_path = directory / "capsule_union.so"
    if not lib_path.exists():
        try:
            directory.mkdir(parents=True, exist_ok=True)
            src = directory / "capsule_union.c"
            src.write_text(_SOURCE)
            tmp = directory / f"capsule_union.{os.getpid()}.so"
            subprocess.run(
                [*command, "-o", str(tmp), str(src), "-lm", "-lpthread"],
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
        solo_lanes = lib.capsule_union_sdf_lanes
        solo_lanes.restype = ctypes.c_int32
        solo_lanes.argtypes = [*solo.argtypes, ctypes.c_int32]
        # An empty call at width 0 runs the host's width and names it.
        lanes = solo_lanes(None, 0, *[None] * 6, 0, None, None, 0, 0.0,
                           None, 0)
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
        box = lib.level_box
        box.restype = None
        box.argtypes = [int64_p, ctypes.c_int64, int64_p]
        points = lib.level_points
        points.restype = ctypes.c_int64
        points.argtypes = [
            int64_p, ctypes.c_int64, int64_p,  # cells, m, box
            int64_p, int32_p,  # cube corners, rank
            double_p, ctypes.c_double, double_p,  # frame, points
        ]
        gather = lib.level_gather
        gather.restype = None
        gather.argtypes = [
            int64_p, ctypes.c_int64, int64_p,  # cells, m, box
            int64_p, int32_p, double_p,  # cube, rank, values
            ctypes.c_double, ctypes.c_double,  # iso, spacing
            double_p, ctypes.POINTER(ctypes.c_uint8),  # outputs
        ]
        return CapsuleKernel(
            solo=solo, level=(box, points, gather), solo_lanes=solo_lanes,
            lanes=lanes, batch=batch, polygonise=polygonise,
        )
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

    ``REPRO_BATCH_THREADS`` overrides; the default is the number of
    CPUs this process may run on (its affinity mask where the platform
    has one, else the host's count; 1 on single-core boxes or a process
    pinned to one core, where the batch call degrades to an in-thread
    loop with zero spawn cost).
    """
    override = os.environ.get("REPRO_BATCH_THREADS")
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def reset_kernel_cache() -> None:
    """Forget the cached build outcome (tests only — the whole point
    of the cache is that production processes probe the toolchain
    exactly once)."""
    global _KERNEL, _ATTEMPTED
    _KERNEL = None
    _ATTEMPTED = False
