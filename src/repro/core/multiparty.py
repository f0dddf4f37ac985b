"""Multi-party telepresence sessions.

Figure 1 shows two sites for simplicity; a real meeting has N.  Every
participant captures themselves, encodes once, and fans the payload out
to N-1 receivers over independent network paths.  Uplink bandwidth
therefore scales with the fan-out for traditional streams — one more
reason semantics matter as meetings grow — while per-receiver decode
cost lands on every receiving edge.

The receiving edge decodes through a :class:`repro.serve.ServingEngine`,
one frame tick at a time: every sender's reconstruction for the tick is
submitted before any is collected.  Without a serving opt-in the engine
is private and in-process (no workers, no cache); with a
:class:`repro.serve.ServingConfig` (or a shared engine) the tick's
reconstructions fan across the worker pool and repeated avatar states
are served from the cross-session mesh cache.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.capture.dataset import RGBDSequenceDataset
from repro.core.pipeline import HolographicPipeline
from repro.core.timing import INTERACTIVE_BUDGET
from repro.errors import PipelineError
from repro.net.link import NetworkLink
from repro.net.trace import BandwidthTrace
from repro.obs.registry import MetricsRegistry

__all__ = ["Participant", "PairReport", "MultiPartySummary",
           "MultiPartySession", "MultiPartyStepper"]

_session_ids = itertools.count()


@dataclass
class Participant:
    """One meeting participant.

    Attributes:
        name: label.
        dataset: their capture sequence.
        pipeline: their sender/receiver pipeline instance.
    """

    name: str
    dataset: RGBDSequenceDataset
    pipeline: HolographicPipeline


@dataclass
class PairReport:
    """Aggregate statistics for one sender -> receiver pair."""

    sender: str
    receiver: str
    frames: int
    delivered: int
    mean_end_to_end: float
    mean_payload_bytes: float


@dataclass
class MultiPartySummary:
    """Whole-meeting statistics.

    Attributes:
        pairs: per-pair reports.
        uplink_mbps: sender name -> uplink bandwidth (payload x
            fan-out x fps).
        interactive_fraction: share of pair-frames under 100 ms.
        serving: serving-engine counters for the run.
    """

    pairs: List[PairReport]
    uplink_mbps: Dict[str, float]
    interactive_fraction: float
    serving: Dict[str, float] = field(default_factory=dict)

    def pair(self, sender: str, receiver: str) -> PairReport:
        for report in self.pairs:
            if report.sender == sender and report.receiver == receiver:
                return report
        raise PipelineError(f"no pair {sender}->{receiver}")


class MultiPartySession:
    """N participants, full-mesh distribution.

    Args:
        participants: the meeting roster (>= 2).
        link_factory: builds the network path used for each ordered
            pair; defaults to a fresh 25 Mbps broadband path per pair.
        decode: run receiver-side decoding (the payload is identical
            for every receiver, so it is decoded once per sender and
            the receiver compute time is charged to each pair).
        serving: how receivers decode.  ``None`` (the default) gives
            each ``run`` a private in-process engine without a cache;
            a :class:`repro.serve.ServingConfig` a private engine of
            that shape; an existing :class:`repro.serve.ServingEngine`
            shares one edge node's pool and cache across meetings.
        session_id: label keying this meeting's reconstruction streams
            inside a shared engine (auto-generated when omitted).
        metrics: registry receiving the meeting's counters and
            per-pair latency histogram (``meeting.*``); a private one
            is created when omitted, available as ``self.metrics``.
    """

    def __init__(
        self,
        participants: List[Participant],
        link_factory: Optional[Callable[[str, str], NetworkLink]] = None,
        decode: bool = True,
        serving: Optional[object] = None,
        session_id: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if len(participants) < 2:
            raise PipelineError("a meeting needs at least 2 participants")
        names = [p.name for p in participants]
        if len(set(names)) != len(names):
            raise PipelineError("participant names must be unique")
        self.participants = participants
        self.decode = decode
        self.serving = serving
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.session_id = (
            session_id
            if session_id is not None
            else f"meeting{next(_session_ids)}"
        )
        self._link_factory = link_factory or self._default_link
        self._links: Dict[tuple, NetworkLink] = {}
        for sender in participants:
            for receiver in participants:
                if sender.name == receiver.name:
                    continue
                self._links[(sender.name, receiver.name)] = \
                    self._link_factory(sender.name, receiver.name)

    @staticmethod
    def _default_link(sender: str, receiver: str) -> NetworkLink:
        # CRC32 of the pair names, not hash(): str hashing is salted
        # per process (PYTHONHASHSEED), which made default meetings
        # unreproducible across runs.
        seed = zlib.crc32(f"{sender}->{receiver}".encode()) % (2**31)
        return NetworkLink(
            trace=BandwidthTrace.constant(25.0),
            propagation_delay=0.025,
            jitter=0.002,
            seed=seed,
        )

    def _check_run(self, frames: int) -> None:
        if frames < 1:
            raise PipelineError("frames must be positive")
        for participant in self.participants:
            if frames > len(participant.dataset):
                raise PipelineError(
                    f"{participant.name}'s dataset has only "
                    f"{len(participant.dataset)} frames"
                )
            participant.pipeline.reset()
        for link in self._links.values():
            link.reset()
        self.metrics.reset("meeting.")

    def run(self, frames: int) -> MultiPartySummary:
        """Run the meeting for ``frames`` frame ticks."""
        stepper = MultiPartyStepper(self, frames)
        try:
            while stepper.remaining:
                stepper.tick()
            return stepper.summary()
        finally:
            stepper.close()

    def stepper(
        self, frames: int, engine=None
    ) -> "MultiPartyStepper":
        """Gateway-driveable stepping: one :meth:`MultiPartyStepper.
        tick` per frame tick, under external control.

        Args:
            frames: total frame ticks, as for :meth:`run`.
            engine: a shared :class:`repro.serve.ServingEngine`
                overriding the meeting's own ``serving`` opt-in (the
                gateway passes its edge-node engine).
        """
        return MultiPartyStepper(self, frames, engine=engine)

    @staticmethod
    def _drain_tickets(engine, tickets: Dict[str, object]) -> None:
        """Best-effort collect of tickets abandoned by a failure, so
        their in-flight pool jobs and shared-memory results are
        reaped before the error propagates."""
        for ticket in tickets.values():
            try:
                engine.collect(ticket)
            except Exception:
                pass
        tickets.clear()

    def _fan_out(
        self,
        index: int,
        now: float,
        sender: Participant,
        encoded,
        decode_time: float,
        stats: Dict[tuple, dict],
        uplink_bytes: Dict[str, float],
    ) -> None:
        """Ship one sender frame to every receiver and record stats."""
        for receiver in self.participants:
            if receiver.name == sender.name:
                continue
            key = (sender.name, receiver.name)
            report = self._links[key].send_frame(
                index, encoded.payload, now=now
            )
            record = stats[key]
            record["payload"].append(encoded.payload_bytes)
            uplink_bytes[sender.name] += report.wire_bytes
            self.metrics.inc("meeting.pair_frames")
            if report.delivered:
                record["delivered"] += 1
                end_to_end = (
                    encoded.timing.total
                    + report.latency
                    + decode_time
                )
                record["latencies"].append(end_to_end)
                self.metrics.inc("meeting.delivered")
                self.metrics.observe(
                    "meeting.end_to_end_seconds", end_to_end
                )

    def _summarize(
        self,
        frames: int,
        stats: Dict[tuple, dict],
        uplink_bytes: Dict[str, float],
        serving: Optional[Dict[str, float]] = None,
    ) -> MultiPartySummary:
        pairs = []
        interactive = []
        for (sender_name, receiver_name), record in stats.items():
            latencies = record["latencies"]
            pairs.append(
                PairReport(
                    sender=sender_name,
                    receiver=receiver_name,
                    frames=frames,
                    delivered=record["delivered"],
                    mean_end_to_end=(
                        float(np.mean(latencies))
                        if latencies
                        else float("inf")
                    ),
                    mean_payload_bytes=float(
                        np.mean(record["payload"])
                    ),
                )
            )
            interactive.extend(
                [lat <= INTERACTIVE_BUDGET for lat in latencies]
            )

        duration = frames / self.participants[0].dataset.fps
        uplink_mbps = {
            name: total * 8.0 / duration / 1e6
            for name, total in uplink_bytes.items()
        }
        return MultiPartySummary(
            pairs=pairs,
            uplink_mbps=uplink_mbps,
            interactive_fraction=(
                float(np.mean(interactive)) if interactive else 0.0
            ),
            serving=dict(serving or {}),
        )


class MultiPartyStepper:
    """Externally driven tick loop for one :class:`MultiPartySession`.

    Each :meth:`tick` runs one frame tick of the serving loop: every
    sender encodes and submits before any result is collected, so the
    tick's reconstructions overlap on the engine's pool.  A gateway
    interleaves many meetings' ticks on one shared engine; the
    meeting's own :meth:`MultiPartySession.run` is ``while remaining:
    tick()`` over one of these.

    Args:
        meeting: the meeting to drive (setup — pipeline and link
            resets, metric reset — happens here, exactly as ``run``
            would do it).
        frames: total frame ticks.
        engine: shared engine overriding the meeting's ``serving``
            opt-in; the stepper never closes an engine it was handed.
    """

    def __init__(
        self,
        meeting: MultiPartySession,
        frames: int,
        engine=None,
    ) -> None:
        from repro.serve.config import IN_PROCESS
        from repro.serve.engine import resolve_engine

        meeting._check_run(frames)
        self.meeting = meeting
        if engine is not None:
            self._engine, self._owns_engine = engine, False
        else:
            self._engine, self._owns_engine = resolve_engine(
                meeting.serving, IN_PROCESS, registry=meeting.metrics
            )
        self._engine.reset_session(meeting.session_id)
        self._stats: Dict[tuple, dict] = {
            key: {"latencies": [], "delivered": 0, "payload": []}
            for key in meeting._links
        }
        self._uplink_bytes: Dict[str, float] = {
            p.name: 0.0 for p in meeting.participants
        }
        self._frames = frames
        self._index = 0
        self._closed = False

    @property
    def remaining(self) -> int:
        return self._frames - self._index

    @property
    def engine(self):
        return self._engine

    def tick(self) -> None:
        """Run one frame tick: encode + submit every sender, then
        collect + fan out.

        A failed submit/collect does not abandon the tick's other
        tickets: their pool jobs would keep running and their
        shared-memory results would never be reaped (especially on a
        shared engine that outlives this meeting), so they are drained
        before the error propagates.
        """
        if self._closed:
            raise PipelineError("stepper is closed")
        if self.remaining <= 0:
            raise PipelineError("no ticks remaining")
        meeting = self.meeting
        engine = self._engine
        index = self._index
        self._index += 1
        tickets: Dict[str, object] = {}
        try:
            encoded_frames = {}
            for sender in meeting.participants:
                frame = sender.dataset.frame(index)
                encoded = sender.pipeline.encode(frame)
                sender.pipeline.validate_payload(encoded)
                encoded_frames[sender.name] = encoded
                if meeting.decode:
                    tickets[sender.name] = engine.submit(
                        sender.pipeline,
                        encoded,
                        session=meeting.session_id,
                        sender=sender.name,
                    )
            for sender in meeting.participants:
                fps = sender.dataset.fps
                now = index / fps
                encoded = encoded_frames[sender.name]
                decode_time = 0.0
                if meeting.decode:
                    decoded = engine.collect(
                        tickets.pop(sender.name)
                    )
                    decode_time = decoded.timing.total
                meeting._fan_out(
                    index, now, sender, encoded, decode_time,
                    self._stats, self._uplink_bytes,
                )
        except BaseException:
            meeting._drain_tickets(engine, tickets)
            raise

    def summary(self) -> MultiPartySummary:
        """Summarise the ticks run so far (serving counters read from
        the engine unless the stepper was already closed and owned
        it)."""
        serving = (
            self._engine.serving_summary()
            if not (self._closed and self._owns_engine)
            else {}
        )
        return self.meeting._summarize(
            self._index, self._stats, self._uplink_bytes,
            serving=serving,
        )

    def close(self) -> None:
        """Release the engine if this stepper owns it; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._owns_engine:
            self._engine.close()
