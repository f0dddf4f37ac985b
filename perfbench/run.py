"""SemHolo frame benchmark: one closed-loop workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload edge-4x-r128 --seed 1 --seconds 25 \
        --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation installed.  With ``--trace 1`` the first half of the
window is untraced and the second half times every layer from outside
(see ``layers.py``); it reports the per-layer metrics, host
diagnostics and the tracing overhead.  Either way the run checks its
outputs and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; it exits non-zero when a
check fails.

Inputs are rendered once per (sender, seed) into ``.perfbench_cache``
(see ``inputs.py``), outside every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("edge-4x-r128", "webinar-100x-r128")
SETUP_REPEATS = 7
# Receiver-frames a window must hold so ten lie beyond p75.
P75 = 75.0


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _window(workload, seconds: float, min_frames: int,
            keep_rounds: int) -> Dict[str, object]:
    """Closed-loop rounds until ``seconds`` passed and ``min_frames``
    receiver-frames were delivered."""
    import measure as ms

    latencies: List[float] = []
    fresh: List[bool] = []
    samples = []
    sender_frames = wire = rounds = evaluations = 0
    cpu0 = ms.cpu_seconds()
    start = ms.wall()
    while True:
        out = workload.round(keep=rounds < keep_rounds,
                             budget=seconds - (ms.wall() - start))
        rounds += 1
        latencies.extend(out.latencies)
        fresh.extend(out.fresh)
        samples.extend(out.samples)
        sender_frames += out.sender_frames
        wire += out.wire_bytes
        evaluations += out.field_evaluations
        elapsed = ms.wall() - start
        if elapsed >= seconds and len(latencies) >= min_frames:
            break
    cpu = ms.cpu_delta(cpu0, ms.cpu_seconds())
    return {
        "latencies": latencies, "fresh": fresh, "samples": samples,
        "sender_frames": sender_frames, "wire": wire, "elapsed": elapsed,
        "cpu": cpu, "field_evaluations": evaluations,
    }


def surface_error_mm(sample):
    """Mean |field| (mm) of the transmitted-parameter field at a seeded
    sample of the decoded mesh's vertices, and its bound (mm)."""
    import numpy as np

    from repro.avatar.implicit import PosedBodyField
    from repro.compression.lzma_codec import KeypointPayloadCodec

    payload = KeypointPayloadCodec().decompress(sample.payload)
    rec = sample.reconstructor
    expression = (
        payload.expression.truncated(rec.expression_channels)
        if rec.expression_channels > 0 else None
    )
    fld = PosedBodyField(pose=payload.pose, shape=payload.shape,
                         expression=expression, blend=rec.blend)
    error = float(np.abs(fld(sample.points)).mean()) * 1000.0
    lo, hi = fld.bounds()
    voxel_mm = float((hi - lo).max()) / rec.resolution * 1000.0
    # Marching cubes places vertices within a cell of the surface; a
    # gaze tier that stops k levels early has 2**k times larger cells.
    return error, voxel_mm * 2 ** sample.tier


def end_to_end_metrics(timed, errors: List[float],
                       setup_times: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced window."""
    import measure as ms

    latencies_ms = [1000.0 * s for s in timed["latencies"]]
    attempted = len(timed["fresh"])
    fresh = sum(1 for f in timed["fresh"] if f)
    return {
        "frame_p50_ms": ms.percentile(latencies_ms, 50),
        "frame_p75_ms": ms.percentile(latencies_ms, P75),
        "frames_per_s": fresh / timed["elapsed"],
        "cpu_ms_per_frame": 1000.0 * timed["cpu"] / attempted,
        "wire_bytes_per_frame": timed["wire"] / timed["sender_frames"],
        "surface_error_mm": statistics.fmean(errors) if errors else 0.0,
        "setup_s": statistics.median(setup_times),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        arrays, units: Dict[str, Dict[str, str]]) -> Dict[str, object]:
    import measure as ms
    from layers import (
        LayerProbe, counter_delta, engine_counters, layer_metrics,
    )
    from repro.geometry.capsule_kernel import reset_kernel_cache
    from workloads import WEBINAR_RECEIVERS, WEBINAR_TIERS, WORKLOADS

    violations: List[str] = []
    calibration = ms.calibration_ms()
    ticks0 = ms.cpu_ticks()
    shm_before = ms.shm_segments()
    procs_before = set(ms.descendant_pids())

    setup_times = []
    workload = None
    try:
        for rep in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            workload = WORKLOADS[workload_name](arrays, seed)
            # Each set-up pays the kernel load, as a fresh process
            # would, and starts from a collected heap.  It ends when
            # every receiver has displayed its first frame, so the
            # pool's and the reconstructors' lazy start is in it.
            reset_kernel_cache()
            gc.collect()
            start = ms.wall()
            workload.setup()
            first = workload.round()
            setup_times.append(ms.wall() - start)
            if not all(first.fresh):
                violations.append("first frame not fresh")
        for _ in range(workload.warmup_rounds):
            warm = workload.round()
            if not all(warm.fresh):
                violations.append("warm-up frame not fresh")
        min_frames = ms.samples_needed(P75)
        counters0 = engine_counters(workload.engines)
        if trace:
            plain = _window(workload, seconds / 2, 1, 0)
            traced_counters0 = engine_counters(workload.engines)
            with LayerProbe() as probe:
                timed = _window(workload, seconds / 2, 1,
                                workload.surface_rounds)
        else:
            timed = _window(workload, seconds, min_frames,
                            workload.surface_rounds)
        counters1 = engine_counters(workload.engines)
        rss = ms.peak_rss_mb()
        summaries = [e.serving_summary() for e in workload.engines]
    finally:
        if workload is not None:
            workload.close()

    # -- correctness -------------------------------------------------
    fresh = timed["fresh"]
    stale = sum(1 for f in fresh if not f)
    if stale:
        violations.append(f"{stale} timed frames not fresh")
    for summary in summaries:
        served = summary["cache_hits"] + summary["reconstructions"]
        if served != summary["offloaded"]:
            violations.append(
                f"cache hits + reconstructions {served} != offloaded "
                f"{summary['offloaded']}"
            )
    window = counter_delta(counters0, counters1)
    if workload_name == "webinar-100x-r128":
        frames = timed["sender_frames"] + (
            plain["sender_frames"] if trace else 0
        )
        if window["reconstructions"] != WEBINAR_TIERS * frames:
            violations.append(
                f"{window['reconstructions']} reconstructions for "
                f"{frames} frames x {WEBINAR_TIERS} tiers"
            )
        hits = (WEBINAR_RECEIVERS - WEBINAR_TIERS) * frames
        if window["cache_hits"] != hits:
            violations.append(
                f"{window['cache_hits']} cache hits, expected {hits}"
            )
    errors = []
    surface_failed = 0
    for sample in timed["samples"]:
        error, bound = surface_error_mm(sample)
        errors.append(error)
        if error > bound:
            surface_failed += 1
            violations.append(
                f"surface error {error:.2f} mm over bound {bound:.2f} mm"
            )
    if not errors:
        violations.append("no frame reached the surface check")
    leaked = ms.shm_segments() - shm_before
    if leaked:
        violations.append(f"shared-memory segments left: {sorted(leaked)}")
    procs = set(ms.descendant_pids()) - procs_before - _tracker_pids()
    if procs:
        violations.append(f"processes left: {sorted(procs)}")

    # -- metrics -----------------------------------------------------
    latencies_ms = [1000.0 * s for s in timed["latencies"]]
    count = len(latencies_ms)
    attempted = len(fresh)
    failed = stale + surface_failed
    if trace:
        p50_plain = ms.percentile([1000.0 * s for s in plain["latencies"]],
                                  50)
        p50_traced = ms.percentile(latencies_ms, 50)
        metrics = layer_metrics(
            probe,
            sender_frames=timed["sender_frames"],
            window_s=timed["elapsed"],
            counters=counter_delta(traced_counters0, counters1),
            workers=getattr(workload.engines[0].config, "workers", 0)
            if workload.engines else 0,
        )
        metrics["host.calibration_ms"] = calibration
        metrics["host.steal_share"] = ms.steal_share(ticks0, ms.cpu_ticks())
        metrics["trace.overhead_pct"] = (
            100.0 * (p50_traced - p50_plain) / p50_plain
        )
        units = units["per_layer"]
        attempted += len(plain["fresh"])
        failed += sum(1 for f in plain["fresh"] if not f)
    else:
        if not ms.has_tail(count, P75):
            violations.append(f"only {count} receiver-frames for p75")
        metrics = end_to_end_metrics(timed, errors, setup_times)
        units = units["end_to_end"]
        print(json.dumps({"diagnostics": {
            "host.calibration_ms": calibration,
            "host.steal_share": ms.steal_share(ticks0, ms.cpu_ticks()),
            "receiver_frames": count,
            "sender_frames": timed["sender_frames"],
            "field_evals_per_frame":
                timed["field_evaluations"] / timed["sender_frames"],
            "setup_s_all": setup_times,
            # Not an end-to-end metric: one pose with a far-flung limb
            # enlarges the extraction grid and doubles the peak.
            "peak_rss_mb": rss,
        }}))
    for problem in violations:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def _tracker_pids() -> set:
    """The multiprocessing resource tracker: shared infrastructure that
    lives until :func:`_stop_tracker`."""
    from multiprocessing import resource_tracker

    pid = getattr(resource_tracker._resource_tracker, "_pid", None)
    return {pid} if pid else set()


def _stop_tracker() -> None:
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None):
        tracker._stop()


def _load_spec() -> Dict[str, Dict[str, str]]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {
        key: {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("run from the root of a SemHolo checkout (src/repro "
              "not found)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    cache = root / ".perfbench_cache"
    os.environ["REPRO_KERNEL_CACHE"] = str(cache / "kernels")
    paths = [str(root / "src"), str(HERE)]
    sys.path[:0] = paths
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    import inputs

    arrays = inputs.ensure_inputs(root, args.workload, args.seed, env)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), arrays, _load_spec())
    finally:
        _stop_tracker()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
