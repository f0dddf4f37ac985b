"""Perf: the persistent avatar store (canonical mesh + pose-delta
skinning for returning users).

A returning user's identity already has a canonical mesh in the
:class:`repro.avatar.AvatarStore`, so steady-state frames skip field
extraction entirely: the serving engine re-poses the canonical
vertices by linear blend skinning — zero field evaluations — and the
per-frame cost drops from O(field evaluations) to O(vertices).  This
suite measures that cliff at the serving-engine level (decompress +
store lookup + repose, the real returning-user path) and persists the
numbers to ``BENCH_avatar_store.json``:

* **Cold boot** — the first frame of an identity: full octree
  extraction plus the one-time canonical publish.
* **Returning user** — every later frame: store hit, skinning-only
  re-pose, ``field_evaluations == 0``.

Acceptance: the returning-user frame must cost at least
``SPEEDUP_FLOOR`` times less than the cold frame at the benchmark
resolution.

Environment knobs:
    REPRO_BENCH_QUICK: shrink the workload (CI smoke).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from conftest import register
from repro.bench.harness import ExperimentTable
from repro.bench.results import BenchRecord, current_commit, write_records
from repro.body.pose import BodyPose
from repro.body.shape import ShapeParams
from repro.compression.lzma_codec import SemanticKeypointPayload
from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.pipeline import EncodedFrame
from repro.obs.clock import perf_counter
from repro.serve import ServingConfig, ServingEngine

BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_avatar_store.json"

if os.environ.get("REPRO_BENCH_QUICK"):
    RESOLUTION, WARM_FRAMES = 128, 4
else:
    RESOLUTION, WARM_FRAMES = 256, 8

# Acceptance bar: returning-user (skinning-only) frame cost must sit
# at least this far below the cold-boot full extraction.
SPEEDUP_FLOOR = 5.0


def _identity_frames():
    """One user identity across a session: fixed shape, drifting
    pose — the returning-user workload."""
    rng = __import__("numpy").random.default_rng(11)
    shape = ShapeParams(betas=rng.uniform(-1.5, 1.5, 10))
    frames = []
    for index in range(WARM_FRAMES + 1):
        pose = BodyPose.identity()
        angle = 0.04 * index
        pose.joint_rotations[16] = [0.0, 0.0, angle]
        pose.joint_rotations[17] = [0.0, angle / 2, -angle / 2]
        frames.append((index, pose))
    return shape, frames


def _run_returning_user() -> dict:
    """Cold frame then WARM_FRAMES returning-user frames through one
    serving engine with the store on; returns per-frame timings."""
    shape, frames = _identity_frames()
    pipe = KeypointSemanticPipeline(resolution=RESOLUTION, seed=0)
    timings = {"cold": None, "warm": [], "warm_evals": []}
    with ServingEngine(ServingConfig(workers=0, store=True)) as engine:
        for index, pose in frames:
            payload = SemanticKeypointPayload(
                pose=pose, shape=shape, frame_index=index
            )
            encoded = EncodedFrame(
                frame_index=index,
                payload=pipe.codec.compress(payload),
            )
            start = perf_counter()
            decoded = engine.decode(pipe, encoded)
            seconds = perf_counter() - start
            assert decoded.surface.num_vertices > 0
            if index == 0:
                assert decoded.metadata["field_evaluations"] > 0
                timings["cold"] = seconds
                timings["cold_evals"] = \
                    decoded.metadata["field_evaluations"]
                timings["vertices"] = \
                    decoded.surface.num_vertices
            else:
                timings["warm"].append(seconds)
                timings["warm_evals"].append(
                    decoded.metadata["field_evaluations"]
                )
        timings["summary"] = engine.serving_summary()
    return timings


@pytest.fixture(scope="module")
def returning_user_run():
    return _run_returning_user()


def test_perf_avatar_store_returning_user(returning_user_run,
                                          benchmark):
    """Cold-boot vs returning-user frame cost, persisted to
    BENCH_avatar_store.json; the skinning-only frame must be at least
    SPEEDUP_FLOOR times cheaper and spend zero field evaluations."""
    run = returning_user_run
    commit = current_commit()
    warm_mean = sum(run["warm"]) / len(run["warm"])
    speedup = run["cold"] / warm_mean if warm_mean > 0 else 0.0
    summary = run["summary"]

    # Steady state is skinning-only: zero field evaluations on every
    # returning-user frame.
    assert run["warm_evals"] == [0] * WARM_FRAMES
    assert summary["store_hits"] == WARM_FRAMES
    assert summary["store_misses"] == 1
    assert summary["store_hit_rate"] == pytest.approx(
        WARM_FRAMES / (WARM_FRAMES + 1)
    )

    table = ExperimentTable(
        title="Perf — avatar store: cold boot vs returning user",
        columns=["path", "frames", "mean s/frame", "evals/frame",
                 "speedup"],
        paper_note=(
            "one identity through the serving engine (store on, "
            f"octree extraction, res {RESOLUTION}); cold = extract + "
            "publish canonical mesh, returning = store hit + LBS "
            "re-pose of "
            f"{run['vertices']} canonical vertices"
        ),
    )
    table.add_row(
        "cold boot", "1", f"{run['cold']:.4f}",
        str(run["cold_evals"]), "1.0x",
    )
    table.add_row(
        "returning user", str(WARM_FRAMES), f"{warm_mean:.4f}",
        "0", f"{speedup:.1f}x",
    )
    table.show()

    write_records(BENCH_PATH, [
        BenchRecord(
            workload="avatar-store-cold",
            resolution=RESOLUTION,
            seconds=run["cold"],
            evaluations=run["cold_evals"],
            commit=commit,
        ),
        BenchRecord(
            workload="avatar-store-returning",
            resolution=RESOLUTION,
            seconds=warm_mean,
            evaluations=0,
            commit=commit,
        ),
    ])

    assert speedup >= SPEEDUP_FLOOR, (
        f"returning-user frame is only {speedup:.1f}x cheaper than "
        f"cold boot (floor {SPEEDUP_FLOOR}x at res {RESOLUTION})"
    )
    register(benchmark, table.render)
