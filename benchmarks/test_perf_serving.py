"""Perf: the multi-core serving engine (pool + mesh cache).

An edge node serves many concurrent sessions; this suite measures the
two serving optimisations and persists the numbers to
``BENCH_serving.json``:

* **Worker scaling.**  The many-stream workload
  (:func:`repro.bench.workloads.serving_pose_streams`) is pushed
  through a real :class:`repro.serve.pool.ReconstructionPool` at 1, 2,
  4 and 8 workers.  Since CI containers typically pin a single core,
  the headline rows report *modeled* aggregate throughput: each worker
  measures its own per-job CPU service time, and the makespan is the
  busiest worker's total under the pool's actual sticky routing — the
  wall-clock an N-core edge node would see.  Real single-core
  wall-clock rows are persisted alongside for honesty.
* **Cache fan-out.**  N receivers of one sender decode through a
  shared :class:`repro.serve.engine.ServingEngine`; with the mesh
  cache on, each sender frame must cost exactly one reconstruction.

Environment knobs:
    REPRO_BENCH_QUICK: shrink the workload (CI smoke).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from conftest import register
from repro.obs.clock import perf_counter
from repro.bench.harness import ExperimentTable, safe_rate
from repro.bench.results import BenchRecord, current_commit, write_records
from repro.bench.workloads import serving_pose_streams, talking_dataset
from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.serve import ReconstructionPool, ServingConfig, ServingEngine

BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_serving.json"

if os.environ.get("REPRO_BENCH_QUICK"):
    N_STREAMS, N_FRAMES, RESOLUTION = 8, 3, 64
    WORKER_COUNTS = (1, 2, 4)
else:
    N_STREAMS, N_FRAMES, RESOLUTION = 16, 4, 128
    WORKER_COUNTS = (1, 2, 4, 8)

# Acceptance bar: modeled aggregate throughput at 4 workers over the
# many-stream workload must reach this multiple of the 1-worker run.
SCALING_FLOOR_4W = 2.5

FANOUT_RECEIVERS = 3
FANOUT_FRAMES = 4 if os.environ.get("REPRO_BENCH_QUICK") else 6
FANOUT_RESOLUTION = 64


def _run_pool(streams, workers: int) -> dict:
    """Push every stream frame through a ``workers``-wide pool.

    Frames are submitted tick by tick (all streams' frame i before any
    frame i+1) — the serving engine's schedule — and results are
    collected per tick.
    """
    busy = [0.0] * workers
    evaluations = 0
    jobs = 0
    start = perf_counter()
    with ReconstructionPool(workers=workers) as pool:
        for index in range(N_FRAMES):
            job_ids = [
                pool.submit(
                    stream,
                    index,
                    poses[index],
                    resolution=RESOLUTION,
                )
                for stream, poses in streams.items()
            ]
            for job_id in job_ids:
                result = pool.result(job_id)
                busy[result.worker] += result.cpu_seconds
                evaluations += result.field_evaluations
                jobs += 1
        coalesced = pool.metrics.value("serve.pool.batch.coalesced")
        solo = pool.metrics.value("serve.pool.batch.solo")
        batch_hist = pool.metrics.histogram("serve.pool.batch.size")
        mean_batch = batch_hist.mean if batch_hist.count else 0.0
    wall = perf_counter() - start
    makespan = max(busy)
    return {
        "jobs": jobs,
        "wall": wall,
        "makespan": makespan,
        "busy": busy,
        "evaluations": evaluations,
        "modeled_fps": jobs / makespan if makespan > 0 else 0.0,
        "coalesced": coalesced,
        "solo": solo,
        "mean_batch": mean_batch,
    }


@pytest.fixture(scope="module")
def scaling_sweep():
    streams = serving_pose_streams(
        n_streams=N_STREAMS, n_frames=N_FRAMES
    )
    return {w: _run_pool(streams, w) for w in WORKER_COUNTS}


def test_perf_serving_worker_scaling(scaling_sweep, benchmark):
    """Aggregate reconstruction throughput vs worker count, persisted
    to BENCH_serving.json; modeled 4-worker throughput must reach the
    acceptance floor over 1 worker."""
    commit = current_commit()
    base = scaling_sweep[WORKER_COUNTS[0]]
    table = ExperimentTable(
        title="Perf — serving pool throughput vs worker count",
        columns=["workers", "jobs", "makespan s", "modeled fps",
                 "modeled speedup", "wall s (1 core)", "coalesced",
                 "mean batch"],
        paper_note=(
            "edge node serving many sessions; modeled = busiest "
            "worker's measured service time under sticky routing; "
            "coalesced = jobs served via cross-stream batched "
            "dispatches (serve.pool.batch.* metrics)"
        ),
    )
    records = []
    for workers in WORKER_COUNTS:
        run = scaling_sweep[workers]
        assert run["jobs"] == N_STREAMS * N_FRAMES
        assert run["evaluations"] > 0
        records.append(
            BenchRecord(
                workload=f"serve-throughput-w{workers}",
                resolution=RESOLUTION,
                # Modeled per-job seconds: makespan / jobs, the
                # inverse of aggregate throughput on a machine with
                # `workers` cores.
                seconds=run["makespan"] / run["jobs"],
                evaluations=run["evaluations"],
                commit=commit,
            )
        )
        records.append(
            BenchRecord(
                workload=f"serve-wall-w{workers}",
                resolution=RESOLUTION,
                seconds=run["wall"] / run["jobs"],
                evaluations=run["evaluations"],
                commit=commit,
            )
        )
        table.add_row(
            str(workers),
            str(run["jobs"]),
            f"{run['makespan']:.3f}",
            f"{run['modeled_fps']:.2f}",
            f"{run['modeled_fps'] / base['modeled_fps']:.2f}x",
            f"{run['wall']:.3f}",
            str(int(run["coalesced"])),
            f"{run['mean_batch']:.1f}",
        )
    table.show()
    write_records(BENCH_PATH, records)

    speedup_4w = (
        scaling_sweep[4]["modeled_fps"] / base["modeled_fps"]
    )
    assert speedup_4w >= SCALING_FLOOR_4W, (
        f"modeled aggregate throughput at 4 workers is only "
        f"{speedup_4w:.2f}x the 1-worker run (floor "
        f"{SCALING_FLOOR_4W}x)"
    )
    # Real coalescing must occur where the backlog guarantees it: at
    # 1 worker every tick queues all N_STREAMS jobs on one worker, so
    # cross-stream batches are inevitable.  (Wider pools split the
    # backlog; 2 streams per worker may or may not overlap in time.)
    assert scaling_sweep[1]["coalesced"] > 0, (
        "serve.pool.batch.* metrics recorded no coalescing in the "
        "many-stream 1-worker run"
    )
    register(benchmark, table.render)


def _run_fanout(dataset, cache: bool) -> dict:
    """One sender, N receivers, one shared engine; returns counters."""
    sender = KeypointSemanticPipeline(resolution=FANOUT_RESOLUTION)
    receivers = [
        KeypointSemanticPipeline(resolution=FANOUT_RESOLUTION)
        for _ in range(FANOUT_RECEIVERS)
    ]
    config = ServingConfig(workers=2, cache=cache)
    start = perf_counter()
    with ServingEngine(config) as engine:
        for index in range(FANOUT_FRAMES):
            encoded = sender.encode(dataset.frame(index))
            for receiver in receivers:
                decoded = engine.decode(
                    receiver,
                    encoded,
                    session="fanout",
                    sender="alice",
                )
                assert decoded.surface.num_vertices > 0
        summary = engine.serving_summary()
    summary["wall"] = perf_counter() - start
    return summary


@pytest.fixture(scope="module")
def fanout_runs():
    dataset = talking_dataset(n_frames=FANOUT_FRAMES)
    return {
        "on": _run_fanout(dataset, cache=True),
        "off": _run_fanout(dataset, cache=False),
    }


def test_perf_serving_fanout_cache(fanout_runs, benchmark):
    """With the cache on, fanning one sender out to N receivers costs
    exactly one reconstruction per sender frame; off, every receiver
    pays its own."""
    decodes = FANOUT_FRAMES * FANOUT_RECEIVERS
    on, off = fanout_runs["on"], fanout_runs["off"]

    assert on["offloaded"] == decodes
    assert on["reconstructions"] == FANOUT_FRAMES, (
        "cache-on fan-out must reconstruct exactly once per sender "
        f"frame, got {on['reconstructions']} for {FANOUT_FRAMES} frames"
    )
    assert on["cache_hits"] == FANOUT_FRAMES * (FANOUT_RECEIVERS - 1)
    assert off["reconstructions"] == decodes

    commit = current_commit()
    table = ExperimentTable(
        title="Perf — mesh-cache fan-out (1 sender, "
              f"{FANOUT_RECEIVERS} receivers)",
        columns=["cache", "decodes", "reconstructions", "cache hits",
                 "s / decode"],
        paper_note="edge node serving N receivers of one sender",
    )
    records = []
    for label, run in (("on", on), ("off", off)):
        table.add_row(
            label,
            str(decodes),
            str(int(run["reconstructions"])),
            str(int(run["cache_hits"])),
            f"{run['wall'] / decodes:.3f}",
        )
        records.append(
            BenchRecord(
                workload=f"serve-fanout-cache-{label}",
                resolution=FANOUT_RESOLUTION,
                seconds=run["wall"] / decodes,
                evaluations=int(run["reconstructions"]),
                commit=commit,
            )
        )
    table.show()
    write_records(BENCH_PATH, records)
    assert safe_rate(on["wall"] / decodes) > 0
    register(benchmark, table.render)
