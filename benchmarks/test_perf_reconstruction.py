"""Perf: the fused capsule kernel and gaze-budgeted octree (the hot path).

Figure 4's bottleneck is implicit-field mesh reconstruction.  This
suite measures what attacks it — the fused batched capsule kernel (vs
the reference closure chain, installed through the reconstructor's
``field_hook``) and the gaze depth budget — and persists the numbers
to ``BENCH_reconstruction.json`` at the repo root so speedups are
diffable across commits.

The fused kernel is exact: fused-vs-reference agreement is asserted to
1e-9 on randomised poses.

Environment knobs:
    REPRO_BENCH_QUICK: cap the sweep at resolution 128 (CI smoke).
    REPRO_BENCH_FULL: extend the sweep to resolution 512.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from conftest import register
from repro.obs.clock import perf_counter
from repro.avatar.implicit import PosedBodyField
from repro.avatar.reconstructor import KeypointMeshReconstructor
from repro.bench.harness import ExperimentTable, safe_rate
from repro.bench.results import BenchRecord, current_commit, write_records
from repro.body.motion import talking
from repro.body.pose import BodyPose
from repro.gaze.lod import GazeDepthBudget
from repro.geometry.capsule_kernel import kernel_available
from repro.geometry.distance import hausdorff_distance
from repro.geometry.sdf import FusedCapsuleUnion, evaluate_batch
from tests.reference_field import reference_field

BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_reconstruction.json"
N_FRAMES = 6

if os.environ.get("REPRO_BENCH_QUICK"):
    RESOLUTIONS = (64, 128)
elif os.environ.get("REPRO_BENCH_FULL"):
    RESOLUTIONS = (64, 128, 256, 512)
else:
    RESOLUTIONS = (64, 128, 256)

# The acceptance bar: at production resolutions the fused kernel must
# beat the reference closure chain by at least this much end to end.
# At CI-smoke resolutions extraction overhead dominates the field
# evaluations, so the bar there is only "never slower".
SPEEDUP_FLOOR = {64: 1.0, 128: 1.0, 256: 5.0, 512: 5.0}


def _run_sequence(frames, resolution, reference=False,
                  octree_base=None, budget=None):
    """Total seconds / evaluations over a sequence.

    Meshes are dropped as they come so the module-scoped sweep never
    holds dozens of large meshes alive — the memory pressure measurably
    slows later timed runs.  Only the first frame's mesh is kept, for
    the octree surface-error comparison.
    """
    reconstructor = KeypointMeshReconstructor(
        resolution=resolution, octree_base=octree_base
    )
    if reference:
        reconstructor.field_hook = reference_field
    if budget is not None:
        reconstructor.set_depth_budget(budget)
    evaluations = skipped = 0
    first_mesh = None
    start = perf_counter()
    for frame in frames:
        result = reconstructor.reconstruct(pose=frame.pose)
        evaluations += result.field_evaluations
        skipped += result.cells_skipped_gaze
        if first_mesh is None:
            first_mesh = result.mesh
    seconds = perf_counter() - start
    return {
        "seconds": seconds,
        "evaluations": evaluations,
        "first_mesh": first_mesh,
        "cells_skipped_gaze": skipped,
    }


# Root grid of the gaze-budgeted rows.  A budget's leaf depths count
# from the root, so the foveated rows name theirs (the derived root is
# 16 as well, and without a budget the root never changes the mesh).
OCTREE_BASE = 16


def _gaze_budget():
    """A fixed viewer seated in front of the body, gazing at the
    head/chest region: the 12-degree cone keeps the face at full
    depth, everything else stops two levels early."""
    return GazeDepthBudget(
        eye=np.array([0.0, 1.4, 2.6]),
        direction=np.array([0.0, -0.05, -1.0]),
        cone_degrees=12.0,
        peripheral_drop=2,
    )


@pytest.fixture(scope="module")
def perf_sweep():
    frames = talking(n_frames=N_FRAMES)
    sweep = {}
    for resolution in RESOLUTIONS:
        sweep[resolution] = {
            "cold": _run_sequence(frames, resolution),
            "reference": _run_sequence(
                frames, resolution, reference=True
            ),
            "octree_fov": _run_sequence(
                frames, resolution, octree_base=OCTREE_BASE,
                budget=_gaze_budget(),
            ),
        }
    return sweep


def test_fused_matches_reference_randomized(benchmark):
    """The fused kernel is exact: <= 1e-9 against the closure chain on
    randomised poses and query points."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for seed in range(3):
        pose = BodyPose.random(rng=rng, scale=0.6)
        fused = PosedBodyField(pose=pose)
        reference = reference_field(fused)
        lo, hi = fused.bounds()
        points = rng.uniform(lo, hi, size=(20_000, 3))
        error = float(
            np.abs(fused(points) - reference(points)).max()
        )
        worst = max(worst, error)
    assert worst <= 1e-9, worst
    register(benchmark, lambda: worst)


def test_perf_reconstruction_sweep(perf_sweep, benchmark):
    """The headline numbers: per-resolution timings of the fused and
    reference fields over a talking sequence, persisted to
    BENCH_*.json."""
    commit = current_commit()
    table = ExperimentTable(
        title="Perf — fused kernel vs reference",
        columns=["resolution", "reference s", "fused s",
                 "speedup (ref/fused)", "fps (fused)"],
        paper_note="Figure 4's hot path; fused kernel, identical output",
    )
    records = []
    for resolution in RESOLUTIONS:
        runs = perf_sweep[resolution]
        for workload, run in (
            ("reconstruct-reference", runs["reference"]),
            ("reconstruct-cold", runs["cold"]),
        ):
            assert run["evaluations"] > 0, (workload, resolution)
            records.append(
                BenchRecord(
                    workload=workload,
                    resolution=resolution,
                    seconds=run["seconds"] / N_FRAMES,
                    evaluations=run["evaluations"],
                    commit=commit,
                )
            )
        speedup = runs["reference"]["seconds"] / runs["cold"]["seconds"]
        table.add_row(
            str(resolution),
            f"{runs['reference']['seconds'] / N_FRAMES:.3f}",
            f"{runs['cold']['seconds'] / N_FRAMES:.3f}",
            f"{speedup:.2f}x",
            f"{safe_rate(runs['cold']['seconds'] / N_FRAMES):.2f}",
        )
    table.show()
    write_records(BENCH_PATH, records)

    for resolution in RESOLUTIONS:
        runs = perf_sweep[resolution]
        speedup = runs["reference"]["seconds"] / runs["cold"]["seconds"]
        assert speedup >= SPEEDUP_FLOOR[resolution], (
            f"fused only {speedup:.2f}x faster than the reference "
            f"closure chain at resolution {resolution}"
        )
    register(benchmark, table.render)


# --- batched kernel throughput ------------------------------------

# Ragged per-problem point counts are kept small on purpose: with a
# handful of thousands of points per problem the per-call fixed cost
# (FFI crossing, argument marshalling, output allocation) is a visible
# fraction of the work, which is exactly what cross-stream batching
# amortizes.  The serving pool's coalesced dispatches look like this —
# many medium refinement-level queries, not one giant grid.
BATCH_SIZES = (1, 8, 64)
N_PROBLEMS = 64
BATCH_REPEATS = 3 if os.environ.get("REPRO_BENCH_QUICK") else 5
BATCH_LATTICE = 256  # resolution whose extraction lattice we sample


def _batch_problems(rng, backend):
    """N_PROBLEMS pose-derived fused fields with ragged query sets."""
    axis = np.linspace(-1.0, 1.0, BATCH_LATTICE)
    problems = []
    for _ in range(N_PROBLEMS):
        pose = BodyPose.random(rng=rng, scale=0.5)
        fld = PosedBodyField(pose=pose)
        base = fld._base_sdf
        fused = FusedCapsuleUnion(
            heads=base._a,
            tails=base._b,
            radii_head=base._ra,
            radii_tail=base._rb,
            blend=base.blend,
            ellipsoid_center=base._ell_center,
            ellipsoid_radii=base._ell_radii,
            backend=backend,
        )
        count = int(rng.integers(256, 1025))
        ijk = rng.integers(0, BATCH_LATTICE, size=(count, 3))
        problems.append((fused, axis[ijk]))
    return problems


def _time_batched(problems, batch_size):
    """Best-of-N seconds to evaluate every problem in ``batch_size``
    chunks through :func:`evaluate_batch`."""
    best = float("inf")
    for _ in range(BATCH_REPEATS):
        start = perf_counter()
        for i in range(0, len(problems), batch_size):
            evaluate_batch(problems[i:i + batch_size])
        best = min(best, perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def batch_sweep():
    rng = np.random.default_rng(21)
    backends = ["numpy"] + (["c"] if kernel_available() else [])
    sweep = {}
    for backend in backends:
        problems = _batch_problems(rng, backend)
        evaluations = sum(len(p) for _, p in problems)
        timings = {
            b: _time_batched(problems, b) for b in BATCH_SIZES
        }
        # Exactness first: a throughput number for a wrong answer is
        # worthless.  Batched output must be bit-identical to solo.
        solo = [fn(p) for fn, p in problems]
        batched = evaluate_batch(problems)
        for want, got in zip(solo, batched):
            assert np.array_equal(want, got)
        sweep[backend] = {
            "timings": timings,
            "evaluations": evaluations,
        }
    return sweep


def test_perf_batched_kernel_throughput(batch_sweep, benchmark):
    """Evaluations/sec through the ragged batch API at batch sizes
    1/8/64 on both backends, persisted to BENCH_reconstruction.json.
    On the C backend, batching must amortize per-call overhead:
    throughput at batch 8 and 64 must be >= the batch-1 (solo) rate."""
    commit = current_commit()
    table = ExperimentTable(
        title="Perf — batched capsule kernel (evaluations/sec)",
        columns=["backend"] + [f"batch {b}" for b in BATCH_SIZES],
        paper_note=(
            "ragged cross-stream batches; amortized FFI/dispatch cost"
        ),
    )
    records = []
    for backend, run in batch_sweep.items():
        evaluations = run["evaluations"]
        rates = {
            b: evaluations / run["timings"][b] for b in BATCH_SIZES
        }
        for b in BATCH_SIZES:
            records.append(
                BenchRecord(
                    workload=f"kernel-evals-{backend}-b{b}",
                    resolution=BATCH_LATTICE,
                    seconds=run["timings"][b],
                    evaluations=evaluations,
                    commit=commit,
                )
            )
        table.add_row(
            backend,
            *(f"{rates[b]:,.0f}" for b in BATCH_SIZES),
        )
    table.show()
    write_records(BENCH_PATH, records)

    if "c" in batch_sweep:
        run = batch_sweep["c"]
        for b in (8, 64):
            assert run["timings"][b] <= run["timings"][1], (
                f"C batched throughput at batch {b} fell below the "
                f"solo rate: {run['timings'][b]:.4f}s vs "
                f"{run['timings'][1]:.4f}s for the same work"
            )
    register(benchmark, table.render)


def test_perf_octree_extraction(perf_sweep, benchmark):
    """Gaze-budgeted rows (root 16): strictly fewer field evaluations
    than the unbudgeted cold rows at every resolution, within
    Hausdorff tolerance of their surface.

    Sampled Hausdorff has a nonzero noise floor even for identical
    meshes (independent sample draws), so the tolerance is that
    measured floor plus 1.5 peripheral-cell diagonals
    (2**drop * spacing * sqrt(3)) where the gaze budget coarsens the
    out-of-cone region — the extra half diagonal absorbs trilinear
    under-resolution of blended capsule junctions at very coarse
    peripheral grids.
    """
    commit = current_commit()
    drop = _gaze_budget().peripheral_drop
    table = ExperimentTable(
        title="Perf — octree + gaze (root 16) vs unbudgeted",
        columns=["resolution", "cold evals", "octree+gaze evals",
                 "hausdorff (gaze)"],
        paper_note=(
            "coarse-to-fine octree, base 16; gaze cone caps depth "
            f"outside fovea (drop {drop})"
        ),
    )
    records = []
    for resolution in RESOLUTIONS:
        runs = perf_sweep[resolution]
        cold, fov = runs["cold"], runs["octree_fov"]
        uniform_mesh = cold["first_mesh"]
        spacing = 2.0 / resolution
        floor = hausdorff_distance(uniform_mesh, uniform_mesh)
        hd_fov = hausdorff_distance(uniform_mesh, fov["first_mesh"])

        assert fov["evaluations"] < cold["evaluations"], (
            f"gaze budget did not save evaluations at resolution "
            f"{resolution}: {fov['evaluations']} vs "
            f"{cold['evaluations']} unbudgeted"
        )
        assert fov["cells_skipped_gaze"] > 0, (
            f"gaze budget never pruned a cell at resolution "
            f"{resolution}"
        )
        fov_tol = 1.5 * (2 ** drop) * spacing * np.sqrt(3)
        assert hd_fov <= floor + fov_tol, (
            f"foveated surface drifted {hd_fov:.4f} from uniform at "
            f"resolution {resolution} (floor {floor:.4f})"
        )

        records.append(
            BenchRecord(
                workload="reconstruct-octree-foveated",
                resolution=resolution,
                seconds=fov["seconds"] / N_FRAMES,
                evaluations=fov["evaluations"],
                commit=commit,
            )
        )
        table.add_row(
            str(resolution),
            f"{cold['evaluations']:,}",
            f"{fov['evaluations']:,}",
            f"{hd_fov:.4f}",
        )
    table.show()
    write_records(BENCH_PATH, records)
    register(benchmark, table.render)
