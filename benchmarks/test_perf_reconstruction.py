"""Perf: fused capsule kernel + temporal warm-start (the hot path).

Figure 4's bottleneck is implicit-field mesh reconstruction.  This
suite measures the two optimisations that attack it — the fused
batched capsule kernel (vs the reference closure chain, installed
through the reconstructor's ``field_hook``) and warm-starting
extraction from the previous frame's leaf set — and persists the
numbers to ``BENCH_reconstruction.json`` at the repo root so speedups
are diffable across commits.

Both optimisations are exact: fused-vs-reference agreement is asserted
to 1e-9 on randomised poses, and warm-started frames must produce
array-identical meshes to a cold start.

Environment knobs:
    REPRO_BENCH_QUICK: cap the sweep at resolution 128 (CI smoke).
    REPRO_BENCH_FULL: extend the sweep to resolution 512.
"""

from __future__ import annotations

import hashlib
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


def _mesh_digest(mesh) -> str:
    """A bitwise fingerprint — equal digests mean identical meshes."""
    blob = hashlib.sha256()
    blob.update(np.ascontiguousarray(mesh.vertices).tobytes())
    blob.update(np.ascontiguousarray(mesh.faces).tobytes())
    return blob.hexdigest()


def _run_sequence(frames, resolution, warm_start, reference=False,
                  octree_base=None, budget=None):
    """Total seconds / evaluations / mesh digests over a sequence.

    Meshes are reduced to digests immediately so the module-scoped
    sweep never holds dozens of large meshes alive — the memory
    pressure measurably slows later timed runs.  Only the first
    frame's mesh is kept, for the octree surface-error comparison.
    """
    reconstructor = KeypointMeshReconstructor(
        resolution=resolution, warm_start=warm_start,
        octree_base=octree_base,
    )
    if reference:
        reconstructor.field_hook = reference_field
    if budget is not None:
        reconstructor.set_depth_budget(budget)
    results = []
    start = perf_counter()
    for frame in frames:
        results.append(reconstructor.reconstruct(pose=frame.pose))
    seconds = perf_counter() - start
    return {
        "seconds": seconds,
        "evaluations": sum(r.field_evaluations for r in results),
        "digests": [_mesh_digest(r.mesh) for r in results],
        "warm_flags": [r.warm_started for r in results],
        "first_mesh": results[0].mesh,
        "cells_skipped_gaze": sum(
            r.cells_skipped_gaze for r in results
        ),
    }


# Root grid of the "octree" rows.  Coarser than the root derived from
# the resolution (32 above 64, the resolution itself at 64 and below):
# the extra pruning level is where cold frames save evaluations — warm
# frames already skip the root pass in both.
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
            "warm": _run_sequence(frames, resolution, True),
            "cold": _run_sequence(frames, resolution, False),
            "reference": _run_sequence(
                frames, resolution, False, reference=True
            ),
            "octree": _run_sequence(
                frames, resolution, True, octree_base=OCTREE_BASE
            ),
            "octree_fov": _run_sequence(
                frames, resolution, True, octree_base=OCTREE_BASE,
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
    """The headline numbers: per-resolution timings of warm / cold /
    reference over a talking sequence, persisted to BENCH_*.json."""
    commit = current_commit()
    table = ExperimentTable(
        title="Perf — fused kernel + warm start vs reference",
        columns=["resolution", "reference s", "fused cold s",
                 "fused warm s", "speedup (ref/warm)", "fps (warm)"],
        paper_note=(
            "Figure 4's hot path; fused + warm start, identical output"
        ),
    )
    records = []
    for resolution in RESOLUTIONS:
        runs = perf_sweep[resolution]
        for workload, run in (
            ("reconstruct-reference", runs["reference"]),
            ("reconstruct-cold", runs["cold"]),
            ("reconstruct-warm", runs["warm"]),
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
        speedup = runs["reference"]["seconds"] / runs["warm"]["seconds"]
        table.add_row(
            str(resolution),
            f"{runs['reference']['seconds'] / N_FRAMES:.3f}",
            f"{runs['cold']['seconds'] / N_FRAMES:.3f}",
            f"{runs['warm']['seconds'] / N_FRAMES:.3f}",
            f"{speedup:.2f}x",
            f"{safe_rate(runs['warm']['seconds'] / N_FRAMES):.2f}",
        )
    table.show()
    write_records(BENCH_PATH, records)

    for resolution in RESOLUTIONS:
        runs = perf_sweep[resolution]
        speedup = runs["reference"]["seconds"] / runs["warm"]["seconds"]
        assert speedup >= SPEEDUP_FLOOR[resolution], (
            f"fused+warm only {speedup:.2f}x faster than the reference "
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
    """Root-16 octree rows: strictly fewer field evaluations than the
    warm rows on the derived root at every resolution, fewer still
    with a gaze budget, all within Hausdorff tolerance of the derived-
    root surface.

    Sampled Hausdorff has a nonzero noise floor even for identical
    meshes (independent sample draws), so tolerances are expressed as
    that measured floor plus a geometric bound: one fine-cell spacing
    for the full-depth octree, 1.5 peripheral-cell diagonals
    (2**drop * spacing * sqrt(3)) when the gaze budget coarsens the
    out-of-cone region — the extra half diagonal absorbs trilinear
    under-resolution of blended capsule junctions at very coarse
    peripheral grids.
    """
    commit = current_commit()
    drop = _gaze_budget().peripheral_drop
    table = ExperimentTable(
        title="Perf — octree root 16 (+ gaze) vs derived root",
        columns=["resolution", "warm evals", "octree evals",
                 "octree+gaze evals", "hausdorff (octree)",
                 "hausdorff (gaze)"],
        paper_note=(
            "coarse-to-fine octree, base 16; gaze cone caps depth "
            f"outside fovea (drop {drop})"
        ),
    )
    records = []
    for resolution in RESOLUTIONS:
        runs = perf_sweep[resolution]
        warm, octree, fov = (
            runs["warm"], runs["octree"], runs["octree_fov"]
        )
        uniform_mesh = warm["first_mesh"]
        spacing = 2.0 / resolution
        floor = hausdorff_distance(uniform_mesh, uniform_mesh)
        hd_octree = hausdorff_distance(
            uniform_mesh, octree["first_mesh"]
        )
        hd_fov = hausdorff_distance(uniform_mesh, fov["first_mesh"])

        assert octree["evaluations"] < warm["evaluations"], (
            f"root {OCTREE_BASE} did not save field evaluations at "
            f"resolution {resolution}: {octree['evaluations']} vs "
            f"{warm['evaluations']} on the derived root"
        )
        assert fov["evaluations"] < octree["evaluations"], (
            f"gaze budget did not save further evaluations at "
            f"resolution {resolution}: {fov['evaluations']} vs "
            f"{octree['evaluations']} unbudgeted octree"
        )
        assert fov["cells_skipped_gaze"] > 0, (
            f"gaze budget never pruned a cell at resolution "
            f"{resolution}"
        )
        assert hd_octree <= floor + spacing, (
            f"octree surface drifted {hd_octree:.4f} from uniform at "
            f"resolution {resolution} (floor {floor:.4f}, "
            f"spacing {spacing:.4f})"
        )
        fov_tol = 1.5 * (2 ** drop) * spacing * np.sqrt(3)
        assert hd_fov <= floor + fov_tol, (
            f"foveated surface drifted {hd_fov:.4f} from uniform at "
            f"resolution {resolution} (floor {floor:.4f})"
        )

        for workload, run in (
            ("reconstruct-octree", octree),
            ("reconstruct-octree-foveated", fov),
        ):
            records.append(
                BenchRecord(
                    workload=workload,
                    resolution=resolution,
                    seconds=run["seconds"] / N_FRAMES,
                    evaluations=run["evaluations"],
                    commit=commit,
                )
            )
        table.add_row(
            str(resolution),
            f"{warm['evaluations']:,}",
            f"{octree['evaluations']:,}",
            f"{fov['evaluations']:,}",
            f"{hd_octree:.4f}",
            f"{hd_fov:.4f}",
        )
    table.show()
    write_records(BENCH_PATH, records)
    register(benchmark, table.render)


def test_warm_start_is_exact(perf_sweep, benchmark):
    """Warm-started frames reproduce the cold-start meshes bit for bit
    while evaluating the field strictly less."""
    for resolution in RESOLUTIONS:
        runs = perf_sweep[resolution]
        warm, cold = runs["warm"], runs["cold"]
        assert warm["digests"] == cold["digests"], (
            f"warm-started meshes differ from cold start at "
            f"resolution {resolution}"
        )
        assert any(warm["warm_flags"][1:]), (
            f"warm start never engaged at resolution {resolution}"
        )
        assert warm["evaluations"] < cold["evaluations"]
    register(benchmark, lambda: RESOLUTIONS)
