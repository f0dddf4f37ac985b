"""Session orchestration: capture -> encode -> network -> decode.

A :class:`TelepresenceSession` wires a dataset (the sender's capture),
a pipeline, the Internet link, and the two edge servers of Figure 1
into a frame loop, producing per-frame reports with the full latency
breakdown and a session summary (bandwidth, end-to-end latency,
interactivity violations, sustainable FPS).

With a :class:`repro.core.concealment.ResilienceConfig` the loop also
survives hostile paths: payloads are sealed with a checksummed header
(corruption becomes a typed ``CodecError``, never a garbage mesh), the
receiver decodes the *received* bytes, lost or corrupt frames are
concealed from receiver-side temporal state, and a sustained outage
steps the sender down the semantic ladder (keypoints -> text) until
deliveries resume.
"""

from __future__ import annotations

import itertools
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.capture.dataset import RGBDSequenceDataset
from repro.compression.framing import open_frame, seal_frame
from repro.core.concealment import (
    DegradationController,
    ResilienceConfig,
    recovery_stats,
)
from repro.core.pipeline import (
    DecodedFrame,
    EncodedFrame,
    HolographicPipeline,
)
from repro.core.timing import (
    INTERACTIVE_BUDGET,
    LatencyBreakdown,
    mean_breakdown,
)
from repro.errors import CodecError, PipelineError, ServingError
from repro.net.edge import EdgeServer
from repro.net.link import NetworkLink
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "FrameReport",
    "SessionStepper",
    "SessionSummary",
    "TelepresenceSession",
]

_session_ids = itertools.count()


@dataclass
class FrameReport:
    """Everything measured for one frame.

    Attributes:
        frame_index: source frame number.
        payload_bytes: bytes that crossed the Internet (including the
            resilience header when the session seals frames).
        breakdown: end-to-end latency breakdown (sender compute,
            network, receiver compute).
        delivered: False when the network dropped the frame.
        decoded: the receiver output (None if undelivered, decoding
            was skipped, or decoding failed and nothing concealed it).
        decode_failed: True when the payload arrived but the receiver
            could not decode it (corrupt bytes, or a delta referencing
            a lost frame) — the streaming equivalent of a corrupted
            GOP.
        corrupted: True when the frame arrived but failed the wire
            checksum (bit corruption in flight).
        concealed: True when ``decoded`` is a concealment frame
            (extrapolated or frozen), not fresh content.
        stale_age: frames since the receiver last displayed fresh
            content (0 for a fresh frame).
        semantic_level: name of the pipeline that encoded this frame
            (differs from the primary during ladder degradation;
            ``"shed"`` for frames a gateway dropped before encoding).
        infrastructure_failed: True when a contained serving-
            infrastructure failure (worker death, job timeout) cost
            this frame its decode — only ever set under a gateway,
            which conceals the failure instead of propagating it.
    """

    frame_index: int
    payload_bytes: int
    breakdown: LatencyBreakdown
    delivered: bool
    decoded: Optional[DecodedFrame] = None
    decode_failed: bool = False
    corrupted: bool = False
    concealed: bool = False
    stale_age: int = 0
    semantic_level: str = ""
    infrastructure_failed: bool = False

    @property
    def end_to_end(self) -> float:
        return self.breakdown.total

    @property
    def displayed_fresh(self) -> bool:
        """Fresh content on screen: delivered, decoded, not concealed."""
        return self.decoded is not None and not self.concealed


@dataclass
class SessionSummary:
    """Aggregate session statistics.

    Attributes:
        pipeline: pipeline name.
        frames: frame count.
        mean_payload_bytes: average wire payload.
        bandwidth_mbps: required bandwidth at the capture frame rate.
        mean_end_to_end: mean e2e latency (seconds), delivered frames.
        p95_end_to_end: 95th-percentile e2e latency.
        interactive_fraction: fraction of frames under the 100 ms bound.
        sustainable_fps: 1 / (mean receiver compute time) — the display
            rate the receiver can actually sustain.
        delivery_rate: fraction of frames delivered.
        decode_failure_rate: fraction of delivered frames the receiver
            could not decode (corrupt payload, delta reference lost).
        mean_stage_breakdown: stage-wise mean latency.
        display_rate: fraction of frames with *something* on screen
            (fresh or concealed); equals delivery_rate when
            concealment is off.
        concealed_rate: fraction of frames covered by concealment.
        corrupted_rate: fraction of frames that failed the wire
            checksum.
        mean_stale_age / max_stale_age: staleness of the display in
            frames (0 = always fresh).
        outages: count of sustained delivery gaps (see
            ``ResilienceConfig.min_outage_frames``).
        mean_recovery_frames / max_recovery_frames: frames from the
            end of an outage until fresh content returned.
        fallback_fraction: fraction of frames the sender encoded at
            the fallback semantic level.
    """

    pipeline: str
    frames: int
    mean_payload_bytes: float
    bandwidth_mbps: float
    mean_end_to_end: float
    p95_end_to_end: float
    interactive_fraction: float
    sustainable_fps: float
    delivery_rate: float
    decode_failure_rate: float
    mean_stage_breakdown: LatencyBreakdown
    display_rate: float = 0.0
    concealed_rate: float = 0.0
    corrupted_rate: float = 0.0
    mean_stale_age: float = 0.0
    max_stale_age: int = 0
    outages: int = 0
    mean_recovery_frames: float = 0.0
    max_recovery_frames: int = 0
    fallback_fraction: float = 0.0


class TelepresenceSession:
    """One sender -> one receiver over a simulated Internet path.

    Args:
        dataset: the sender's capture sequence.
        pipeline: the communication scheme under test.
        link: the Internet path (None = ideal network, zero latency).
        sender_edge / receiver_edge: compute models scaling the
            measured stage times onto target hardware (None = charge
            wall-clock as measured).
        decode: run the receiver (disable for bandwidth-only studies).
        resilience: loss-resilient transport behaviour (None = plain
            best-effort loop: no framing, no concealment, no ladder).
        serving: how the receiver decodes.  Every frame goes through a
            :class:`repro.serve.ServingEngine`: ``None`` gives each
            ``run`` a private in-process engine without a cache, a
            :class:`repro.serve.ServingConfig` a private engine of that
            shape, and a shared engine lets many sessions on one edge
            node share its pool and mesh cache.
        session_id: label keying this session's reconstruction stream
            inside a shared engine (auto-generated when omitted).
        tracer: opt-in span tracer; every frame of :meth:`run` opens a
            trace with wall spans around the phases, exact stage spans
            mirroring the frame's breakdown, and worker spans forwarded
            from the serving pool.  ``None`` disables tracing with zero
            overhead.
        metrics: registry receiving the session's counters and the
            end-to-end latency histogram (``session.*``); a private
            registry is created when omitted, available as
            ``self.metrics``.
    """

    def __init__(
        self,
        dataset: RGBDSequenceDataset,
        pipeline: HolographicPipeline,
        link: Optional[NetworkLink] = None,
        sender_edge: Optional[EdgeServer] = None,
        receiver_edge: Optional[EdgeServer] = None,
        decode: bool = True,
        resilience: Optional[ResilienceConfig] = None,
        serving: Optional[object] = None,
        session_id: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.dataset = dataset
        self.pipeline = pipeline
        self.link = link
        self.sender_edge = sender_edge
        self.receiver_edge = receiver_edge
        self.decode = decode
        self.resilience = resilience
        self.serving = serving
        self.session_id = (
            session_id
            if session_id is not None
            else f"session{next(_session_ids)}"
        )
        self._controller = (
            DegradationController(
                degrade_after=resilience.degrade_after,
                recover_after=resilience.recover_after,
            )
            if resilience is not None and resilience.fallback is not None
            else None
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.reports: List[FrameReport] = []
        self._ran = False

    def _receiver_factor(self) -> float:
        return (
            self.receiver_edge.device.speed_factor
            if self.receiver_edge is not None
            else 1.0
        )

    def _add_receiver_stages(
        self, breakdown: LatencyBreakdown, decoded: DecodedFrame
    ) -> None:
        factor = self._receiver_factor()
        for stage, seconds in decoded.timing.stages.items():
            breakdown.add(stage, seconds / factor)

    def run(
        self,
        frames: Optional[int] = None,
        start: int = 0,
    ) -> SessionSummary:
        """Run the frame loop and return the summary.

        ``frames=0`` (or an empty dataset) is a valid degenerate run:
        the loop body never executes and :meth:`summary` reports a
        zero-frame session instead of dividing by nothing.
        """
        stepper = SessionStepper(self, frames=frames, start=start)
        try:
            while stepper.remaining:
                stepper.step()
        finally:
            stepper.close()
        self._ran = True
        return self.summary()

    def stepper(
        self,
        frames: Optional[int] = None,
        start: int = 0,
        engine=None,
        pipelined: bool = False,
    ) -> "SessionStepper":
        """Gateway-driveable stepping: set the run up (exactly as
        :meth:`run` would) and hand control of the frame loop to the
        caller.

        Args:
            frames / start: frame range, as for :meth:`run`.
            engine: a shared :class:`repro.serve.ServingEngine` that
                overrides the session's own ``serving`` opt-in — the
                gateway passes its edge-node engine here so every
                multiplexed session shares one pool and cache.
            pipelined: split the decode into submit (at
                :meth:`SessionStepper.begin_frame`) and collect (at
                :meth:`SessionStepper.complete_frame`), so a driver
                can overlap many streams' reconstructions on the pool
                before collecting any of them.
        """
        return SessionStepper(
            self, frames=frames, start=start, engine=engine,
            pipelined=pipelined,
        )

    def summary(self) -> SessionSummary:
        """Aggregate the reports collected by :meth:`run`.

        A zero-frame run (empty dataset, ``frames=0``) yields a valid
        summary with zero rates and ``inf`` latencies rather than a
        division error; calling before any :meth:`run` still raises.
        """
        if not self._ran and not self.reports:
            raise PipelineError("run() first")
        reports = self.reports
        frames = len(reports)
        delivered = [r for r in reports if r.delivered]
        payloads = [r.payload_bytes for r in reports]
        fps = self.dataset.fps
        latencies = sorted(r.end_to_end for r in delivered)
        receiver_times = [
            r.decoded.timing.total
            for r in delivered
            if r.decoded is not None and not r.concealed
        ]
        sustainable = (
            1.0 / float(np.mean(receiver_times))
            if receiver_times and np.mean(receiver_times) > 0
            else float("inf")
        )
        fallback_name = (
            self.resilience.fallback.name
            if self.resilience is not None
            and self.resilience.fallback is not None
            else None
        )
        # Counters live in the registry; reading them back (instead of
        # re-deriving from report objects) keeps the registry the one
        # source of truth.  The report-derived path stays as the
        # fallback for hand-built report lists in tests.
        metrics = self.metrics
        if frames > 0 and metrics.value("session.frames") == frames:
            failures = int(metrics.value("session.decode_failures"))
            corrupted_count = int(metrics.value("session.corrupted"))
            concealed_count = int(metrics.value("session.concealed"))
            fallback_count = int(
                metrics.value("session.fallback_frames")
            )
        else:
            failures = sum(1 for r in delivered if r.decode_failed)
            corrupted_count = sum(1 for r in reports if r.corrupted)
            concealed_count = sum(1 for r in reports if r.concealed)
            fallback_count = sum(
                1
                for r in reports
                if fallback_name is not None
                and r.semantic_level == fallback_name
            )
        displayed = sum(
            1
            for r in reports
            if r.decoded is not None or (not self.decode and r.delivered)
        )
        min_outage = (
            self.resilience.min_outage_frames
            if self.resilience is not None
            else 3
        )
        outages, mean_recovery, max_recovery = recovery_stats(
            [r.delivered for r in reports],
            [
                r.displayed_fresh or (not self.decode and r.delivered)
                for r in reports
            ],
            min_outage_frames=min_outage,
        )
        mean_payload = float(np.mean(payloads)) if payloads else 0.0
        return SessionSummary(
            pipeline=self.pipeline.name,
            frames=frames,
            mean_payload_bytes=mean_payload,
            bandwidth_mbps=mean_payload * fps * 8.0 / 1e6,
            decode_failure_rate=(
                failures / len(delivered) if delivered else 0.0
            ),
            mean_end_to_end=(
                float(np.mean(latencies)) if latencies else float("inf")
            ),
            p95_end_to_end=(
                latencies[int(0.95 * (len(latencies) - 1))]
                if latencies
                else float("inf")
            ),
            interactive_fraction=(
                float(
                    np.mean(
                        [l <= INTERACTIVE_BUDGET for l in latencies]
                    )
                )
                if latencies
                else 0.0
            ),
            sustainable_fps=sustainable,
            delivery_rate=len(delivered) / frames if frames else 0.0,
            mean_stage_breakdown=mean_breakdown(
                [r.breakdown for r in delivered]
            )
            if delivered
            else LatencyBreakdown(),
            display_rate=displayed / frames if frames else 0.0,
            concealed_rate=(
                concealed_count / frames if frames else 0.0
            ),
            corrupted_rate=(
                corrupted_count / frames if frames else 0.0
            ),
            mean_stale_age=(
                float(np.mean([r.stale_age for r in reports]))
                if reports
                else 0.0
            ),
            max_stale_age=(
                int(max(r.stale_age for r in reports)) if reports else 0
            ),
            outages=outages,
            mean_recovery_frames=mean_recovery,
            max_recovery_frames=max_recovery,
            fallback_fraction=(
                fallback_count / frames if frames else 0.0
            ),
        )


@dataclass
class _PendingFrame:
    """A frame begun by :meth:`SessionStepper.begin_frame`, awaiting
    :meth:`SessionStepper.complete_frame`.

    Holds the open tracer-frame scope (an :class:`ExitStack`), so the
    frame's trace stays open across the submit/collect gap and closes
    exactly when the frame completes — or when an exception unwinds
    the completion.
    """

    index: int
    scope: ExitStack
    level_pipeline: HolographicPipeline
    degraded: bool
    encoded: EncodedFrame
    breakdown: LatencyBreakdown
    wire_payload: bytes
    delivered: bool
    received_payload: Optional[bytes]
    corrupted: bool
    ticket: object = None
    submit_failed: bool = False
    infrastructure_error: Optional[ServingError] = None


class SessionStepper:
    """Externally driven frame loop for one
    :class:`TelepresenceSession`.

    :meth:`TelepresenceSession.run` is ``while remaining: step()`` over
    one of these.  A gateway instead drives :meth:`begin_frame` /
    :meth:`complete_frame` directly, which splits each frame at the
    sender/receiver boundary: ``begin`` covers capture, encode and
    transport (and, in pipelined mode, the engine submit), ``complete``
    covers decode, concealment and reporting.  Between the two calls
    the frame's reconstruction can overlap with every other stream on
    the shared pool.  Every decode is an engine submit followed by a
    collect; the modes differ only in where the ticket is created.

    Args:
        session: the session to drive.  Setup (pipeline resets, report
            clearing, metric reset) happens here, exactly as
            :meth:`TelepresenceSession.run` would do it.
        frames / start: frame range, as for ``run``.
        engine: optional shared serving engine overriding the
            session's own ``serving`` opt-in; the stepper never closes
            an engine it was handed.
        pipelined: submit reconstruction at ``begin`` and collect at
            ``complete``; off, both happen inside ``complete``.
    """

    def __init__(
        self,
        session: TelepresenceSession,
        frames: Optional[int] = None,
        start: int = 0,
        engine=None,
        pipelined: bool = False,
    ) -> None:
        self.session = session
        total = len(session.dataset)
        count = total - start if frames is None else frames
        if count < 0 or start < 0 or start + count > total:
            raise PipelineError("frame range out of bounds")
        session.pipeline.reset()
        resilience = session.resilience
        self._fallback = resilience.fallback if resilience else None
        self._use_checksum = (
            resilience is not None
            and resilience.checksum
            and session.link is not None
        )
        self._conceal = (
            resilience is not None
            and resilience.conceal
            and session.decode
        )
        if self._fallback is not None:
            self._fallback.reset()
        if session._controller is not None:
            session._controller.reset()
        if session.link is not None:
            session.link.reset()
        if engine is not None:
            self._engine, self._owns_engine = engine, False
        else:
            from repro.serve.config import IN_PROCESS
            from repro.serve.engine import resolve_engine

            self._engine, self._owns_engine = resolve_engine(
                session.serving, IN_PROCESS, registry=session.metrics
            )
        self._engine.reset_session(session.session_id)
        self._pipelined = pipelined
        session.reports = []
        session.metrics.reset("session.")
        self._fps = session.dataset.fps
        self._stale_age = 0
        self._start = start
        self._count = count
        self._offset = 0
        self._closed = False

    # -- introspection ---------------------------------------------

    @property
    def remaining(self) -> int:
        """Frames not yet begun (or shed)."""
        return self._count - self._offset

    @property
    def next_index(self) -> int:
        return self._start + self._offset

    @property
    def engine(self):
        return self._engine

    # -- the frame, split at the sender/receiver boundary ----------

    def begin_frame(
        self,
        pipeline: Optional[HolographicPipeline] = None,
        contain_infrastructure: bool = False,
    ) -> _PendingFrame:
        """Capture, encode and transport the next frame.

        Args:
            pipeline: force this frame's encoding pipeline (the
                gateway's QoS ladder passes the fallback here to drop
                a stream to keypoints->text without waiting for the
                session's own hysteresis controller).  ``None`` keeps
                the session's controller-driven choice.
            contain_infrastructure: treat a :class:`ServingError` from
                the pool submit as this frame's failure (concealed at
                ``complete``) instead of propagating — the gateway's
                containment boundary.  Off by default: direct use
                sees the error.
        """
        if self._closed:
            raise PipelineError("stepper is closed")
        if self.remaining <= 0:
            raise PipelineError("no frames remaining")
        session = self.session
        tracer = session.tracer
        index = self._start + self._offset
        self._offset += 1
        capture_time = index / self._fps
        scope = ExitStack()
        scope.enter_context(
            tracer.frame(index, session=session.session_id)
        )
        try:
            with tracer.span("capture"):
                frame = session.dataset.frame(index)
            if pipeline is not None:
                level_pipeline = pipeline
                degraded = (
                    self._fallback is not None
                    and pipeline is self._fallback
                )
            else:
                degraded = (
                    session._controller is not None
                    and session._controller.degraded
                )
                level_pipeline = (
                    self._fallback if degraded else session.pipeline
                )
            with tracer.span("encode", level=level_pipeline.name):
                encoded = level_pipeline.encode(frame)
                level_pipeline.validate_payload(encoded)
                sender_factor = (
                    session.sender_edge.device.speed_factor
                    if session.sender_edge is not None
                    else 1.0
                )
                breakdown = LatencyBreakdown(
                    stages={
                        stage: seconds / sender_factor
                        for stage, seconds
                        in encoded.timing.stages.items()
                    }
                )
                wire_payload = (
                    seal_frame(
                        encoded.payload,
                        frame_index=index,
                        level=1 if degraded else 0,
                    )
                    if self._use_checksum
                    else encoded.payload
                )

            delivered = True
            received_payload: Optional[bytes] = wire_payload
            corrupted = False
            with tracer.span(
                "transport", payload_bytes=len(wire_payload)
            ):
                if session.link is not None:
                    report = session.link.send_frame(
                        index, wire_payload, now=capture_time
                    )
                    delivered = report.delivered
                    received_payload = report.payload
                    if delivered:
                        breakdown.add("network", report.latency)
                if delivered and self._use_checksum:
                    try:
                        _, received_payload = open_frame(
                            received_payload
                        )
                    except CodecError:
                        # Bit corruption in flight: the checksum
                        # turns it into a typed, concealable event
                        # instead of a garbage reconstruction.
                        corrupted = True

            pending = _PendingFrame(
                index=index,
                scope=scope,
                level_pipeline=level_pipeline,
                degraded=degraded,
                encoded=encoded,
                breakdown=breakdown,
                wire_payload=wire_payload,
                delivered=delivered,
                received_payload=received_payload,
                corrupted=corrupted,
            )
            if (
                self._pipelined
                and delivered
                and not corrupted
                and session.decode
            ):
                with tracer.span("submit"):
                    try:
                        pending.ticket = self._submit(pending)
                    except ServingError as exc:
                        if not contain_infrastructure:
                            raise
                        pending.infrastructure_error = exc
                    except PipelineError:
                        pending.submit_failed = True
            return pending
        except BaseException:
            scope.close()
            raise

    def _submit(self, pending: _PendingFrame):
        """Hand the received payload of ``pending`` to the engine."""
        received = EncodedFrame(
            frame_index=pending.index,
            payload=bytes(pending.received_payload),
            timing=pending.encoded.timing,
            metadata=pending.encoded.metadata,
        )
        return self._engine.submit(
            pending.level_pipeline,
            received,
            session=self.session.session_id,
            sender="sender",
        )

    def complete_frame(
        self,
        pending: _PendingFrame,
        queue_wait: float = 0.0,
        contain_infrastructure: bool = False,
    ) -> FrameReport:
        """Decode (or collect), conceal, record and report one frame.

        Args:
            pending: the frame returned by :meth:`begin_frame`.
            queue_wait: seconds the frame spent parked in a gateway
                queue between begin and complete; charged to the
                frame's latency breakdown as a ``gateway_queue`` stage
                when positive.
            contain_infrastructure: conceal a :class:`ServingError`
                from the decode/collect (worker death, job timeout)
                instead of propagating it — the report carries
                ``infrastructure_failed=True``.
        """
        session = self.session
        tracer = session.tracer
        metrics = session.metrics
        index = pending.index
        level_pipeline = pending.level_pipeline
        breakdown = pending.breakdown
        delivered = pending.delivered
        corrupted = pending.corrupted
        with pending.scope:
            decoded = None
            decode_failed = corrupted or pending.submit_failed
            infra_failed = pending.infrastructure_error is not None
            if (
                delivered
                and not corrupted
                and session.decode
                and not pending.submit_failed
                and not infra_failed
            ):
                with tracer.span("decode"):
                    # A ServingError is the infrastructure's (worker
                    # death, job timeout, closed engine): it leaves the
                    # session unless the caller contains it.  Any other
                    # PipelineError is the content's — a delta whose
                    # reference was lost — and freezes the display
                    # instead of crashing the run; the sender's
                    # periodic keyframes bound the outage.
                    try:
                        ticket = pending.ticket
                        if ticket is None:
                            ticket = self._submit(pending)
                        decoded = self._engine.collect(ticket)
                    except ServingError as exc:
                        if not contain_infrastructure:
                            raise
                        infra_failed = True
                        pending.infrastructure_error = exc
                    except PipelineError:
                        decode_failed = True
                    if decoded is not None:
                        tracer.attach_worker_spans(
                            decoded.metadata.get("worker_spans", ())
                        )
                if decoded is not None:
                    session._add_receiver_stages(breakdown, decoded)

            concealed = False
            if decoded is None and self._conceal:
                concealment = level_pipeline.conceal(index)
                if concealment is None and level_pipeline is not \
                        session.pipeline:
                    concealment = session.pipeline.conceal(index)
                if concealment is not None:
                    concealed = True
                    decoded = concealment
                    session._add_receiver_stages(
                        breakdown, concealment
                    )

            if queue_wait > 0.0:
                breakdown.add("gateway_queue", queue_wait)
            fresh = decoded is not None and not concealed
            if session.decode:
                self._stale_age = 0 if fresh else self._stale_age + 1
            else:
                self._stale_age = (
                    0 if delivered else self._stale_age + 1
                )
            if session._controller is not None:
                session._controller.record(
                    fresh if session.decode else delivered
                )
            # Exact stage spans, mirroring the frame's final
            # breakdown: per-stage span sums reconcile with
            # ``SessionSummary.mean_stage_breakdown`` to the bit.
            for stage, seconds in breakdown.stages.items():
                tracer.record(stage, seconds)
            report = FrameReport(
                frame_index=index,
                payload_bytes=len(pending.wire_payload),
                breakdown=breakdown,
                delivered=delivered,
                decoded=decoded,
                decode_failed=decode_failed,
                corrupted=corrupted,
                concealed=concealed,
                stale_age=self._stale_age,
                semantic_level=level_pipeline.name,
                infrastructure_failed=infra_failed,
            )
            session.reports.append(report)
            metrics.inc("session.frames")
            if delivered:
                metrics.inc("session.delivered")
                metrics.observe(
                    "session.end_to_end_seconds", breakdown.total
                )
                if decode_failed:
                    metrics.inc("session.decode_failures")
            if corrupted:
                metrics.inc("session.corrupted")
            if concealed:
                metrics.inc("session.concealed")
            if infra_failed:
                metrics.inc("session.infrastructure_failures")
            if self._fallback is not None \
                    and level_pipeline is self._fallback:
                metrics.inc("session.fallback_frames")
            return report

    def step(self) -> FrameReport:
        """Begin and complete the next frame back to back — the body
        of :meth:`TelepresenceSession.run`."""
        return self.complete_frame(self.begin_frame())

    def shed_frame(self) -> FrameReport:
        """Drop the next frame before encoding it — gateway load
        shedding.

        The frame is charged to the report stream as undelivered with
        zero payload and semantic level ``"shed"``; receiver-side
        concealment still covers the display (the freeze the viewer
        actually sees), but the degradation controller is *not* fed —
        sheds are the gateway's decision, and feeding them back into
        the session's own hysteresis would double-degrade the stream.
        """
        if self._closed:
            raise PipelineError("stepper is closed")
        if self.remaining <= 0:
            raise PipelineError("no frames remaining")
        session = self.session
        tracer = session.tracer
        metrics = session.metrics
        index = self._start + self._offset
        self._offset += 1
        with tracer.frame(index, session=session.session_id,
                          shed=True):
            decoded = None
            concealed = False
            if self._conceal:
                concealment = session.pipeline.conceal(index)
                if concealment is not None:
                    concealed = True
                    decoded = concealment
            self._stale_age += 1
            report = FrameReport(
                frame_index=index,
                payload_bytes=0,
                breakdown=LatencyBreakdown(),
                delivered=False,
                decoded=decoded,
                concealed=concealed,
                stale_age=self._stale_age,
                semantic_level="shed",
            )
            session.reports.append(report)
            metrics.inc("session.frames")
            metrics.inc("session.shed")
            if concealed:
                metrics.inc("session.concealed")
            return report

    # -- lifecycle -------------------------------------------------

    def close(self) -> None:
        """Release the engine if this stepper owns it; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._owns_engine:
            self._engine.close()

    def finish(self) -> SessionSummary:
        """Close and summarise — the tail of
        :meth:`TelepresenceSession.run`."""
        self.close()
        self.session._ran = True
        return self.session.summary()
