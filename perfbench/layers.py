"""Outside-in layer timing for the traced run.

The program's own spans do not yet cover every layer, so the traced
run times calls into each layer's public functions from outside: the
probe swaps each function for a timing pass-through for the length of
the traced window and restores it afterwards.  Calls nest on one
stack, so each layer's self time is its duration minus its direct
children's, and a layer re-entered below itself (the kernel entry
points call one another) is counted once.  The probe also reads what
the program already returns: reconstruction results, decoded-frame
metadata (pool worker spans) and the metrics registry.

Layer names are the program's module names.  ``*_ms`` metrics are
mean wall milliseconds per call of the named functions, except
``core.session_self_ms`` (per sender frame) and ``geometry.kernel_ms``
(kernel time per extraction, so that ``extract_ms - kernel_ms`` is an
extraction's time outside the kernel).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import repro.avatar.reconstructor as reconstructor_module
import repro.geometry.octree as octree_module
import repro.geometry.sdf as sdf_module
from repro.avatar.reconstructor import KeypointMeshReconstructor
from repro.compression.lzma_codec import KeypointPayloadCodec
from repro.core.session import SessionStepper
from repro.gaze.lod import GazeDepthBudget
from repro.keypoints.detector3d import Keypoint3DDetector
from repro.keypoints.fitting import PoseFitter
from repro.keypoints.tracking import KeypointTracker
from repro.serve.broadcast import BroadcastSession
from repro.serve.cache import MeshCache
from repro.serve.engine import ServingEngine

from measure import self_time, wall

# (layer, owner, attribute): every function the probe times.
TARGETS: Tuple[Tuple[str, object, str], ...] = (
    ("core.session", SessionStepper, "begin_frame"),
    ("core.session", SessionStepper, "complete_frame"),
    ("core.session", BroadcastSession, "run"),
    ("keypoints.detect", Keypoint3DDetector, "detect"),
    ("keypoints.detect", KeypointTracker, "update"),
    ("keypoints.fit", PoseFitter, "fit"),
    ("compression.compress", KeypointPayloadCodec, "compress"),
    ("compression.decompress", KeypointPayloadCodec, "decompress"),
    ("serve.submit", ServingEngine, "submit"),
    ("serve.collect", ServingEngine, "collect"),
    ("serve.cache_get", MeshCache, "get"),
    ("avatar.reconstruct", KeypointMeshReconstructor, "reconstruct"),
    ("geometry.extract", reconstructor_module, "extract_surface"),
    ("geometry.extract", reconstructor_module, "extract_surface_octree"),
    ("geometry.kernel", sdf_module.FusedCapsuleUnion, "__call__"),
    ("geometry.kernel", sdf_module, "evaluate_batch"),
    ("geometry.kernel", octree_module, "evaluate_packed"),
    ("gaze.target_depths", GazeDepthBudget, "target_depths"),
)

OCTREE_DEPTHS = 4
TIERS = 3


class _Call:
    __slots__ = ("layer", "start", "children")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.children = 0.0


class LayerProbe:
    """Times every target function while installed."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.payload_bytes: List[int] = []
        self.results: List[Tuple[object, float, Optional[int]]] = []
        # (decoded frame, seconds from its submit to its collect)
        self.collected: List[Tuple[object, float]] = []
        self._submitted: Dict[int, float] = {}
        self._stack: List[_Call] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------

    def install(self) -> None:
        for layer, owner, attr in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, attr, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerProbe":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    def _wrap(self, layer: str, attr: str, original) -> Callable:
        probe = self

        def timed(*args, **kwargs):
            call = _Call(layer, wall())
            probe._stack.append(call)
            try:
                result = original(*args, **kwargs)
            finally:
                end = wall()
                probe._stack.pop()
                probe._record(call, end - call.start)
            probe._observe(layer, args, result, call.start, end)
            return result

        timed.__wrapped__ = original
        return timed

    def _record(self, call: _Call, seconds: float) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children += seconds
        if any(c.layer == call.layer for c in self._stack):
            return  # re-entered below itself: the outer call counts
        self.seconds[call.layer] += seconds
        self.self_seconds[call.layer] += self_time(
            seconds, [call.children]
        )
        self.calls[call.layer] += 1

    def _observe(self, layer, args, result, start, end) -> None:
        if layer == "compression.compress":
            self.payload_bytes.append(len(result))
        elif layer == "avatar.reconstruct":
            budget = getattr(args[0], "depth_budget", None)
            tier = None if budget is None else budget.peripheral_drop
            self.results.append((result, end - start, tier))
        elif layer == "serve.submit":
            self._submitted[id(result)] = start
        elif layer == "serve.collect":
            # A pooled job runs between submit and collect, so its time
            # in the pool spans both calls.
            submitted = self._submitted.pop(id(args[1]), None)
            if submitted is not None:
                self.collected.append((result, end - submitted))


def _mean_ms(seconds: float, count: int) -> float:
    return 1000.0 * seconds / count if count else 0.0


COUNTERS = ("offloaded", "reconstructions", "cache_hits", "cache_misses")


def engine_counters(engines) -> Dict[str, float]:
    """Summed serving counters of ``engines`` (subtract two readings
    to get a window's counts)."""
    totals = dict.fromkeys(COUNTERS + ("batch_count", "batch_sum"), 0.0)
    for engine in engines:
        summary = engine.serving_summary()
        for name in COUNTERS:
            totals[name] += summary.get(name, 0)
        # Read the histogram only if the pool made it: creating it here
        # would fix its buckets for the program.
        if "serve.pool.batch.size" in engine.metrics:
            hist = engine.metrics.histogram("serve.pool.batch.size")
            totals["batch_count"] += hist.count
            totals["batch_sum"] += hist.sum
    return totals


def counter_delta(before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before[name] for name in after}


def layer_metrics(probe: LayerProbe, *, sender_frames: int,
                  window_s: float, counters: Dict[str, float],
                  workers: int) -> Dict[str, float]:
    """Per-layer metrics from one traced window; ``counters`` holds the
    engines' counts over the same window (see :func:`counter_delta`)."""
    s, n = probe.seconds, probe.calls
    m: Dict[str, float] = {}

    def per_call(name: str, layer: str) -> None:
        m[name] = _mean_ms(s[layer], n[layer])

    # detect + tracker.update are one layer; report per detection.
    m["keypoints.detect_ms"] = _mean_ms(
        s["keypoints.detect"], n["keypoints.detect"] // 2
    )
    per_call("keypoints.fit_ms", "keypoints.fit")
    per_call("compression.compress_ms", "compression.compress")
    per_call("compression.decompress_ms", "compression.decompress")
    m["compression.payload_bytes"] = (
        sum(probe.payload_bytes) / len(probe.payload_bytes)
        if probe.payload_bytes else 0.0
    )
    frames = max(sender_frames, 1)
    m["core.session_self_ms"] = (
        1000.0 * probe.self_seconds["core.session"] / frames
    )
    m["core.session_self_share"] = (
        probe.self_seconds["core.session"] / s["core.session"]
        if s["core.session"] else 0.0
    )
    per_call("serve.submit_ms", "serve.submit")
    per_call("serve.collect_ms", "serve.collect")
    per_call("serve.cache_get_ms", "serve.cache_get")

    # Pool work seen from the parent: worker spans ride the result.
    worker_busy, overhead, pooled = 0.0, 0.0, 0
    pool_results = []
    for decoded, seconds in probe.collected:
        spans = decoded.metadata.get("worker_spans") or ()
        busy = sum(
            span["end"] - span["start"] for span in spans
            if span.get("name") == "worker_reconstruct"
        )
        if busy:
            pooled += 1
            worker_busy += busy
            overhead += seconds - busy
            pool_results.append((decoded, busy, spans))
    m["serve.pool_overhead_ms"] = _mean_ms(overhead, pooled)
    m["serve.worker_busy_share"] = (
        worker_busy / (workers * window_s) if workers and window_s else 0.0
    )
    c = counters
    m["serve.pool_batch_size"] = (
        c["batch_sum"] / c["batch_count"] if c["batch_count"] else 0.0
    )
    lookups = c["cache_hits"] + c["cache_misses"]
    m["serve.cache_hit_ratio"] = (
        c["cache_hits"] / lookups if lookups else 0.0
    )
    m["serve.reconstructions_per_frame"] = c["reconstructions"] / frames

    # Reconstructions: in-process results, else pool worker spans.
    recon_seconds = [sec for _, sec, _ in probe.results]
    evaluations = [r.field_evaluations for r, _, _ in probe.results]
    warm = [r.warm_started for r, _, _ in probe.results]
    refined = [r.cells_refined for r, _, _ in probe.results]
    skipped = [r.cells_skipped_gaze for r, _, _ in probe.results]
    level_spans = [span for r, _, _ in probe.results
                   for span in r.extract_spans]
    if not probe.results:
        for decoded, busy, spans in pool_results:
            recon_seconds.append(busy)
            evaluations.append(decoded.metadata.get("field_evaluations", 0))
            warm.append(bool(decoded.metadata.get("warm_started")))
            level_spans.extend(
                span for span in spans if span.get("name") == "extract.level"
            )
    count = len(recon_seconds)
    m["avatar.reconstruct_ms"] = _mean_ms(sum(recon_seconds), count)
    for tier in range(TIERS):
        tiered = [sec for _, sec, t in probe.results if t == tier]
        m[f"avatar.reconstruct_ms.tier{tier}"] = _mean_ms(
            sum(tiered), len(tiered)
        )
    m["avatar.warm_start_share"] = sum(warm) / count if count else 0.0
    per_call("geometry.extract_ms", "geometry.extract")
    kernel_ms = _mean_ms(s["geometry.kernel"], n["geometry.extract"])
    m["geometry.kernel_ms"] = kernel_ms
    m["geometry.outside_kernel_ms"] = m["geometry.extract_ms"] - kernel_ms
    m["geometry.field_evals_per_frame"] = sum(evaluations) / frames
    in_process_evals = sum(r.field_evaluations for r, _, _ in probe.results)
    m["geometry.kernel_evals_per_s"] = (
        in_process_evals / s["geometry.kernel"]
        if s["geometry.kernel"] else 0.0
    )
    m["geometry.cells_refined"] = sum(refined) / count if count else 0.0
    m["geometry.cells_skipped_gaze"] = sum(skipped) / count if count else 0.0
    for depth in range(OCTREE_DEPTHS):
        spent = sum(
            span["end"] - span["start"] for span in level_spans
            if span.get("depth") == depth
        )
        m[f"geometry.octree_level_ms.d{depth}"] = _mean_ms(spent, count)
    per_call("gaze.target_depths_ms", "gaze.target_depths")
    return m
