"""The two closed-loop workloads, one small class per workload.

Each workload builds its topology through the program's public API in
``setup`` and advances it one closed-loop round in ``round``: every
client sends its next frame only after its previous frame was
displayed.  A round returns the receiver-frames it delivered, each
timed from the moment the sender was handed its capture frame to the
moment the decoded mesh came back to the caller.  Only these classes
touch the program's API, so an API change rewrites one function here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.compression.framing import seal_frame
from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.session import TelepresenceSession
from repro.geometry.capsule_kernel import kernel_available
from repro.net import BandwidthTrace, NetworkLink
from repro.serve import ServingConfig, ServingEngine
from repro.serve.broadcast import BroadcastReceiver, BroadcastSession

from inputs import CapturedSequence
from measure import wall

RESOLUTION = {"edge-4x-r128": 128, "webinar-100x-r128": 128}
WEBINAR_RECEIVERS = 100
WEBINAR_TIERS = 3
WEBINAR_OCTREE_BASE = 16
EDGE_WORKERS = 2
# Keypoint jitter (metres) of the webinar sender's replayed frames:
# ``BroadcastSession.run`` resets the sender's detection noise on every
# call, so without it a frame replayed at the same point of a later
# ``run`` would be detected identically and served from the mesh cache.
WEBINAR_JITTER = 0.002


SURFACE_POINTS = 2000


@dataclass
class Sample:
    """Decoded-mesh vertices kept for the surface check, with the
    payload and the reconstructor that produced them."""

    payload: bytes
    points: np.ndarray
    reconstructor: object
    tier: int = 0


def sample(payload, surface, reconstructor, key, tier: int = 0) -> Sample:
    """A seeded sample of ``surface``'s vertices (``key`` seeds it)."""
    pick = np.random.default_rng(key).integers(
        0, surface.num_vertices, SURFACE_POINTS
    )
    return Sample(bytes(payload), surface.vertices[pick], reconstructor,
                  tier)


@dataclass
class Round:
    """What one closed-loop round delivered."""

    latencies: List[float] = field(default_factory=list)
    fresh: List[bool] = field(default_factory=list)
    sender_frames: int = 0
    wire_bytes: int = 0
    field_evaluations: int = 0
    samples: List[Sample] = field(default_factory=list)


class Workload:
    """Interface: ``setup`` -> ``round``* -> ``close``."""

    name = ""
    warmup_rounds = 2
    # Rounds at the start of the timed window whose meshes go to the
    # surface check (16 frames: a fixed set per seed).
    surface_rounds = 1

    def __init__(self, arrays, seed: int) -> None:
        self.arrays = arrays
        self.seed = seed
        self.engines: List[ServingEngine] = []

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, keep: bool = False,
              budget: Optional[float] = None) -> Round:
        """One closed-loop round; ``keep`` asks for surface-check
        samples, ``budget`` is the window's remaining seconds."""
        raise NotImplementedError

    def close(self) -> None:
        for engine in self.engines:
            engine.close()


class Edge(Workload):
    """Four distinct senders sharing one two-worker edge engine.

    A round begins all four senders' frames (capture, encode, submit to
    the pool), then completes them in the same order; each sender's
    next frame waits for the round, so every frame is displayed before
    its sender captures again.
    """

    name = "edge-4x-r128"
    senders = 4
    warmup_rounds = 2
    surface_rounds = 4

    def setup(self) -> None:
        kernel_available()
        engine = ServingEngine(ServingConfig(workers=EDGE_WORKERS))
        self.engines = [engine]
        self.streams = []
        for slot in range(self.senders):
            seed = self.seed * 10 + slot
            sequence = CapturedSequence(self.arrays, slot, self.seed)
            pipeline = KeypointSemanticPipeline(
                resolution=RESOLUTION[self.name], seed=seed
            )
            link = NetworkLink(trace=BandwidthTrace.constant(25.0),
                               propagation_delay=0.025, seed=seed)
            session = TelepresenceSession(sequence, pipeline, link=link,
                                          session_id=f"sender{slot}")
            stepper = session.stepper(engine=engine, pipelined=True)
            self.streams.append((sequence, pipeline, stepper))

    def round(self, keep: bool = False,
              budget: Optional[float] = None) -> Round:
        begun = []
        for sequence, _, stepper in self.streams:
            pending = stepper.begin_frame()
            begun.append((sequence.handed_at, pending))
        out = Round()
        for (handed, pending), (_, pipeline, stepper) in zip(
                begun, self.streams):
            report = stepper.complete_frame(pending)
            out.latencies.append(wall() - handed)
            out.fresh.append(report.displayed_fresh)
            out.sender_frames += 1
            out.wire_bytes += len(pending.wire_payload)
            if report.displayed_fresh:
                out.field_evaluations += report.decoded.metadata.get(
                    "field_evaluations", 0)
                if keep:
                    out.samples.append(sample(
                        pending.received_payload, report.decoded.surface,
                        pipeline.reconstructor, (self.seed, pending.index),
                    ))
            # Sessions keep every report (and its mesh) for their
            # summary; the benchmark reads each report once, so drop
            # them to keep memory independent of run length.
            stepper.session.reports.clear()
        return out

    def close(self) -> None:
        for _, _, stepper in getattr(self, "streams", ()):
            stepper.close()
        super().close()


class _DecodeClock:
    """Pass-through around ``engine.decode`` that times each decoded
    mesh returning to the broadcast loop from its frame's hand-off."""

    def __init__(self, decode, sequence, seed: int) -> None:
        self._decode = decode
        self._sequence = sequence
        self._seed = seed
        self.start(keep_frames=0)

    def start(self, keep_frames: int) -> None:
        self.latencies: List[float] = []
        self.payload_bytes: dict = {}
        self.evaluations = 0
        self.samples: List[Sample] = []
        self._keep_frames = keep_frames
        self._kept: set = set()

    def __call__(self, pipeline, encoded, **kwargs):
        decoded = self._decode(pipeline, encoded, **kwargs)
        self.latencies.append(wall() - self._sequence.handed_at)
        self.payload_bytes.setdefault(encoded.frame_index,
                                      len(encoded.payload))
        self.evaluations += decoded.metadata.get("field_evaluations", 0)
        if len(self.payload_bytes) <= self._keep_frames:
            budget = pipeline.reconstructor.depth_budget
            tier = budget.peripheral_drop if budget is not None else 0
            key = (self._seed, encoded.frame_index, tier)
            if key not in self._kept:
                self._kept.add(key)
                self.samples.append(
                    sample(encoded.payload, decoded.surface,
                           pipeline.reconstructor, key, tier)
                )
        return decoded


class Webinar(Workload):
    """One talking sender fanned out to 100 viewers in 3 gaze tiers.

    The broadcast loop runs inside :meth:`BroadcastSession.run`, so a
    round is one ``run`` over as many frames as fit the time budget
    (estimated from the previous round); the session state (tracker,
    warm start, detection noise) carries across the frames of a round.
    """

    name = "webinar-100x-r128"
    # Frames per round whose tier meshes go to the surface check.
    surface_frames = 16

    def setup(self) -> None:
        kernel_available()
        engine = ServingEngine(ServingConfig(workers=0))
        self.engines = [engine]
        self.sequence = CapturedSequence(self.arrays, 0, self.seed,
                                         jitter=WEBINAR_JITTER)
        self.decode_clock = _DecodeClock(engine.decode, self.sequence,
                                         self.seed)
        engine.decode = self.decode_clock
        receivers = [
            BroadcastReceiver(f"viewer{i:03d}", tier=i % WEBINAR_TIERS)
            for i in range(WEBINAR_RECEIVERS)
        ]
        self.session = BroadcastSession(
            self.sequence, receivers, tiers=WEBINAR_TIERS,
            resolution=RESOLUTION[self.name],
            octree_base=WEBINAR_OCTREE_BASE, serving=engine,
            seed=self.seed,
        )
        self.seal_overhead = len(seal_frame(b"", frame_index=0, level=0))
        self.next_index = 0
        self.frame_seconds = None

    def round(self, keep: bool = False,
              budget: Optional[float] = None) -> Round:
        if budget is None or self.frame_seconds is None:
            frames = 1
        else:
            frames = max(1, math.ceil(budget / self.frame_seconds))
        clock = self.decode_clock
        clock.start(self.surface_frames if keep else 0)
        start = wall()
        self.session.run(frames=frames, start=self.next_index)
        self.frame_seconds = (wall() - start) / frames
        self.next_index += frames
        out = Round(sender_frames=frames)
        out.latencies = clock.latencies
        # The loop decodes for every receiver of every delivered frame
        # and conceals the rest: a missing decode is a stale frame.
        missing = frames * WEBINAR_RECEIVERS - len(clock.latencies)
        out.fresh = [True] * len(clock.latencies) + [False] * missing
        out.wire_bytes = (
            sum(clock.payload_bytes.values())
            + self.seal_overhead * len(clock.payload_bytes)
        )
        out.field_evaluations = clock.evaluations
        out.samples = clock.samples
        return out

    def close(self) -> None:
        if hasattr(self, "session"):
            self.session.close()
        super().close()


WORKLOADS = {cls.name: cls for cls in (Edge, Webinar)}
