"""Broadcast (1→N) fan-out through a caching reconstruction tier.

One sender uplinks its semantic payload once per frame; an edge-side
caching tier decodes it **once per gaze-LOD tier** and every receiver
of that tier is served the same mesh from the shared
:class:`repro.serve.cache.MeshCache`.  This extends the fan-out result
(one reconstruction per sender frame) to "one per (sender frame, LOD
tier)": receivers are grouped by a canonical
:class:`repro.gaze.lod.GazeDepthBudget` per tier, the budget rides the
cache key of the extraction, so the first receiver of a tier pays the
reconstruction and the remaining N-1 hit.

The tiers share the field work too: an in-process engine runs **one
octree refinement per frame**, at the first tier to miss (tier 0, full
detail), and every coarser tier selects its leaves from that
refinement's record and runs **one polygonisation** (see
:class:`repro.serve.engine.ServingEngine`).  Each tier's mesh still
counts as one reconstruction.

Receivers keep *individual* concealment state: a receiver whose last
hop dropped a frame extrapolates/freezes from its own pipeline while
the rest of its tier displays fresh content.  Everything is timed
through :mod:`repro.obs.clock`, so a run under a ``FakeClock`` is a
pure function of (dataset, links, seed) — the decision log and summary
are byte-reproducible, which the chaos-x-broadcast suite asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.compression.framing import open_frame, seal_frame
from repro.core.concealment import recovery_stats
from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.pipeline import EncodedFrame
from repro.core.timing import INTERACTIVE_BUDGET
from repro.errors import CodecError, PipelineError
from repro.gaze.lod import GazeDepthBudget
from repro.net.edge import EdgeServer
from repro.net.link import NetworkLink
from repro.serve.config import ServingConfig
from repro.serve.engine import ServingEngine, resolve_engine

__all__ = [
    "BroadcastReceiver",
    "BroadcastSession",
    "BroadcastSummary",
    "ReceiverSummary",
    "gaze_tiers",
]


def gaze_tiers(
    count: int,
    eye: Sequence[float] = (0.0, 0.0, 2.5),
    direction: Sequence[float] = (0.0, 0.0, -1.0),
    cone_degrees: float = 20.0,
) -> Tuple[GazeDepthBudget, ...]:
    """The canonical gaze-LOD ladder for a broadcast.

    Tier 0 is full detail everywhere (``peripheral_drop=0``); tier k
    stops peripheral cells k refinement levels early.  All tiers share
    the same eye/direction, so the *only* thing distinguishing their
    cache keys is the LOD drop — receivers binned to the same tier are
    served one reconstruction no matter where they actually sit.
    """
    if count < 1:
        raise PipelineError("a broadcast needs at least one tier")
    return tuple(
        GazeDepthBudget(
            eye=np.asarray(eye, dtype=np.float64),
            direction=np.asarray(direction, dtype=np.float64),
            cone_degrees=cone_degrees,
            peripheral_drop=drop,
        )
        for drop in range(count)
    )


@dataclass
class BroadcastReceiver:
    """One viewer of a broadcast.

    Attributes:
        name: receiver label (keys its stream in the engine).
        tier: index into the session's gaze-tier ladder.
        downlink: optional last-hop link from the caching tier to this
            receiver (None = colocated / ideal).
        edge: optional compute model scaling this receiver's decode
            stage times (None = charge as measured).
    """

    name: str
    tier: int
    downlink: Optional[NetworkLink] = None
    edge: Optional[EdgeServer] = None


@dataclass(frozen=True)
class ReceiverSummary:
    """Aggregate per-receiver statistics for one broadcast run."""

    receiver: str
    tier: int
    frames: int
    delivered_rate: float
    concealed_rate: float
    interactive_fraction: float
    mean_end_to_end: float
    goodput_mbps: float
    outages: int
    mean_recovery_frames: float
    max_recovery_frames: int


@dataclass(frozen=True)
class BroadcastSummary:
    """Aggregate statistics for one broadcast run.

    Attributes:
        frames: sender frames in the run.
        delivered_frames: frames that crossed the uplink intact.
        tiers: gaze-LOD tier count.
        receivers: receiver count.
        reconstructions: reconstructions the engine actually performed
            during the run (cache hits excluded) — the exact-counting
            invariant is ``reconstructions == unique_pairs``.  A tier
            polygonised from another tier's refinement of the same
            frame counts as one: an in-process engine refines once per
            frame (``serve.engine.refinements``) and polygonises once
            per tier.
        unique_pairs: distinct (frame, tier) pairs that paid a
            reconstruction.
        cache_hits: engine cache hits during the run.
        per_receiver: one :class:`ReceiverSummary` per receiver, in
            registration order.
    """

    frames: int
    delivered_frames: int
    tiers: int
    receivers: int
    reconstructions: int
    unique_pairs: int
    cache_hits: int
    per_receiver: Tuple[ReceiverSummary, ...]

    def as_dict(self) -> Dict:
        """Plain nested dict (canonical field order via sort_keys at
        serialisation time)."""
        return {
            "frames": self.frames,
            "delivered_frames": self.delivered_frames,
            "tiers": self.tiers,
            "receivers": self.receivers,
            "reconstructions": self.reconstructions,
            "unique_pairs": self.unique_pairs,
            "cache_hits": self.cache_hits,
            "per_receiver": [
                {
                    "receiver": r.receiver,
                    "tier": r.tier,
                    "frames": r.frames,
                    "delivered_rate": r.delivered_rate,
                    "concealed_rate": r.concealed_rate,
                    "interactive_fraction": r.interactive_fraction,
                    "mean_end_to_end": r.mean_end_to_end,
                    "goodput_mbps": r.goodput_mbps,
                    "outages": r.outages,
                    "mean_recovery_frames": r.mean_recovery_frames,
                    "max_recovery_frames": r.max_recovery_frames,
                }
                for r in self.per_receiver
            ],
        }

    def summary_json(self) -> str:
        """Canonical JSON — byte-identical for identical runs."""
        return json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        )


class _ReceiverRecord:
    """Mutable per-receiver frame accounting during a run."""

    __slots__ = (
        "delivered", "fresh", "concealed", "latencies",
        "goodput_bytes",
    )

    def __init__(self) -> None:
        self.delivered: List[bool] = []
        self.fresh: List[bool] = []
        self.concealed: List[bool] = []
        self.latencies: List[float] = []
        self.goodput_bytes = 0


class BroadcastSession:
    """One sender fanned out to N receivers through a caching tier.

    Args:
        dataset: the sender's capture sequence.
        receivers: the audience; each names a tier of the ladder.
        tiers: the gaze-LOD ladder — a tier count (canonical ladder
            via :func:`gaze_tiers`) or explicit budgets.
        uplink: sender → caching tier link (None = ideal).
        resolution: receiver voxel resolution (shared by all tiers:
            tiers differ in gaze LOD, not grid size).
        octree_base: root grid of the tiered extraction (the gaze
            tiers stop refinement between it and the resolution).
        serving: shared :class:`~repro.serve.engine.ServingEngine`, a
            :class:`~repro.serve.config.ServingConfig` for a private
            engine, or None for a private deterministic in-process
            engine (``workers=0``).
        sender_edge: compute model scaling sender stage times.
        seal: CRC-frame the payload so in-flight corruption surfaces
            as a typed, concealable event.
        max_extrapolation_frames / conceal_damping: receiver
            concealment knobs (see
            :class:`~repro.core.keypoint_pipeline.
            KeypointSemanticPipeline`); the broadcast default keeps
            extrapolation short because N receivers extrapolating a
            long outage would each pay a full reconstruction per
            frame.
        seed: sender detection-noise seed.
        sender_id: stream label on the engine.
    """

    def __init__(
        self,
        dataset,
        receivers: Sequence[BroadcastReceiver],
        tiers=3,
        uplink: Optional[NetworkLink] = None,
        resolution: int = 16,
        octree_base: int = 8,
        serving=None,
        sender_edge: Optional[EdgeServer] = None,
        seal: bool = True,
        max_extrapolation_frames: int = 2,
        conceal_damping: float = 0.85,
        seed: int = 0,
        sender_id: str = "sender",
    ) -> None:
        if isinstance(tiers, int):
            tiers = gaze_tiers(tiers)
        self.tiers: Tuple[GazeDepthBudget, ...] = tuple(tiers)
        if not self.tiers:
            raise PipelineError("a broadcast needs at least one tier")
        if not receivers:
            raise PipelineError(
                "a broadcast needs at least one receiver"
            )
        names = [r.name for r in receivers]
        if len(set(names)) != len(names):
            raise PipelineError("receiver names must be unique")
        for receiver in receivers:
            if not 0 <= receiver.tier < len(self.tiers):
                raise PipelineError(
                    f"receiver {receiver.name!r} names tier "
                    f"{receiver.tier}, ladder has {len(self.tiers)}"
                )
        self.dataset = dataset
        self.receivers = list(receivers)
        self.uplink = uplink
        self.resolution = resolution
        self.octree_base = octree_base
        self.sender_edge = sender_edge
        self.seal = seal
        self.seed = seed
        self.sender_id = sender_id
        self._serving = serving
        self._engine: Optional[ServingEngine] = None
        self._owns_engine = False
        self._sender = KeypointSemanticPipeline(
            resolution=resolution, seed=seed
        )
        self._pipelines: Dict[str, KeypointSemanticPipeline] = {
            r.name: KeypointSemanticPipeline(
                resolution=resolution,
                octree_base=octree_base,
                max_extrapolation_frames=max_extrapolation_frames,
                conceal_damping=conceal_damping,
                seed=seed,
            )
            for r in self.receivers
        }
        self._by_tier: List[List[BroadcastReceiver]] = [
            [r for r in self.receivers if r.tier == index]
            for index in range(len(self.tiers))
        ]
        self._decisions: List[Dict] = []
        self.summary: Optional[BroadcastSummary] = None

    # -- engine plumbing -------------------------------------------

    @property
    def engine(self) -> Optional[ServingEngine]:
        return self._engine

    def close(self) -> None:
        """Release a privately owned engine; idempotent."""
        if self._owns_engine and self._engine is not None:
            self._engine.close()
        self._engine = None
        self._owns_engine = False

    def __enter__(self) -> "BroadcastSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- decision log ----------------------------------------------

    def _log(self, **entry) -> None:
        self._decisions.append(entry)

    def decision_jsonl(self) -> str:
        """The run's decision log, one canonical JSON object per line
        — byte-reproducible under a fake clock.  Tier-level entries
        (uplink fate, which tier paid a reconstruction) carry no
        ``receiver`` field; receiver-level entries are identical
        across a tier's members except for that field, which is what
        the cross-receiver-divergence assertion leans on.
        """
        return "\n".join(
            json.dumps(entry, sort_keys=True)
            for entry in self._decisions
        )

    def export_decisions(self, path) -> int:
        """Write the decision log as JSONL; returns the entry count."""
        text = self.decision_jsonl()
        with open(path, "w") as handle:
            if text:
                handle.write(text + "\n")
        return len(self._decisions)

    # -- the run ---------------------------------------------------

    def _conceal(self, receiver: BroadcastReceiver,
                 record: _ReceiverRecord, index: int,
                 reason: str) -> None:
        pipeline = self._pipelines[receiver.name]
        concealment = pipeline.conceal(index)
        record.delivered.append(False)
        record.fresh.append(False)
        record.concealed.append(concealment is not None)
        if concealment is not None:
            method = concealment.metadata.get("conceal_method", "")
            self._log(
                frame=index, tier=receiver.tier,
                receiver=receiver.name, action="conceal",
                method=method, reason=reason,
            )
        else:
            self._log(
                frame=index, tier=receiver.tier,
                receiver=receiver.name, action="blank",
                reason=reason,
            )

    def run(
        self,
        frames: Optional[int] = None,
        start: int = 0,
    ) -> BroadcastSummary:
        """Run the broadcast frame loop and return the summary."""
        total = len(self.dataset)
        count = total - start if frames is None else frames
        if count < 0 or start < 0 or start + count > total:
            raise PipelineError("frame range out of bounds")
        if self._engine is None:
            # The one-reconstruction-per-tier invariant needs the
            # cache, so the private default keeps it on.
            self._engine, self._owns_engine = resolve_engine(
                self._serving, ServingConfig(workers=0)
            )
        engine = self._engine
        self._decisions = []
        self._sender.reset()
        for receiver in self.receivers:
            pipeline = self._pipelines[receiver.name]
            pipeline.reset()
            # The tier budget is frame state on the reconstructor,
            # installed for every run.
            pipeline.reconstructor.set_depth_budget(
                self.tiers[receiver.tier]
            )
            if receiver.downlink is not None:
                receiver.downlink.reset()
            engine.reset_session(receiver.name)
        if self.uplink is not None:
            self.uplink.reset()

        metrics = engine.metrics
        base_reconstructions = metrics.value(
            "serve.engine.reconstructions"
        )
        base_hits = metrics.value("serve.cache.hits")
        fps = self.dataset.fps
        records = {
            r.name: _ReceiverRecord() for r in self.receivers
        }
        pairs: Set[Tuple[int, int]] = set()
        delivered_frames = 0
        sender_factor = (
            self.sender_edge.device.speed_factor
            if self.sender_edge is not None
            else 1.0
        )

        for offset in range(count):
            index = start + offset
            now = index / fps
            frame = self.dataset.frame(index)
            encoded = self._sender.encode(frame)
            sender_seconds = encoded.timing.total / sender_factor
            wire = (
                seal_frame(encoded.payload, frame_index=index, level=0)
                if self.seal
                else encoded.payload
            )
            delivered = True
            received = wire
            corrupted = False
            uplink_latency = 0.0
            if self.uplink is not None:
                report = self.uplink.send_frame(index, wire, now=now)
                delivered = report.delivered
                received = report.payload
                if delivered:
                    uplink_latency = report.latency
            if delivered and self.seal:
                try:
                    _, received = open_frame(received)
                except CodecError:
                    corrupted = True
            if not delivered:
                self._log(frame=index, action="uplink_loss")
            elif corrupted:
                self._log(frame=index, action="uplink_corrupt")
            else:
                delivered_frames += 1
                self._log(
                    frame=index, action="uplink_deliver",
                    payload_bytes=len(wire),
                )

            for tier_index, members in enumerate(self._by_tier):
                if not members:
                    continue
                for receiver in members:
                    record = records[receiver.name]
                    if not delivered or corrupted:
                        self._conceal(
                            receiver, record, index,
                            reason=(
                                "uplink_corrupt"
                                if corrupted
                                else "uplink_loss"
                            ),
                        )
                        continue
                    rx_payload = received
                    rx_ok = True
                    down_latency = 0.0
                    if receiver.downlink is not None:
                        down = receiver.downlink.send_frame(
                            index,
                            bytes(received),
                            now=now + uplink_latency,
                        )
                        rx_ok = down.delivered
                        if rx_ok:
                            rx_payload = down.payload
                            down_latency = down.latency
                    if not rx_ok:
                        self._conceal(
                            receiver, record, index,
                            reason="downlink_loss",
                        )
                        continue
                    enc = EncodedFrame(
                        frame_index=index,
                        payload=bytes(rx_payload),
                        timing=encoded.timing,
                        metadata=dict(encoded.metadata),
                    )
                    decoded = engine.decode(
                        self._pipelines[receiver.name],
                        enc,
                        session=receiver.name,
                        sender=self.sender_id,
                    )
                    if not decoded.metadata.get("cache_hit", False):
                        pairs.add((index, tier_index))
                        # Tier-level entry: exactly one per
                        # (frame, tier); deliberately receiver-free.
                        self._log(
                            frame=index, tier=tier_index,
                            action="reconstruct",
                        )
                    receiver_factor = (
                        receiver.edge.device.speed_factor
                        if receiver.edge is not None
                        else 1.0
                    )
                    latency = (
                        sender_seconds
                        + uplink_latency
                        + down_latency
                        + decoded.timing.total / receiver_factor
                    )
                    record.delivered.append(True)
                    record.fresh.append(True)
                    record.concealed.append(False)
                    record.latencies.append(latency)
                    record.goodput_bytes += len(rx_payload)
                    self._log(
                        frame=index, tier=tier_index,
                        receiver=receiver.name, action="serve",
                    )

        duration = max(count / fps, 1e-9)
        per_receiver = []
        for receiver in self.receivers:
            record = records[receiver.name]
            outages, mean_rec, max_rec = recovery_stats(
                record.delivered, record.fresh
            )
            latencies = record.latencies
            per_receiver.append(
                ReceiverSummary(
                    receiver=receiver.name,
                    tier=receiver.tier,
                    frames=count,
                    delivered_rate=(
                        sum(record.delivered) / count if count else 0.0
                    ),
                    concealed_rate=(
                        sum(record.concealed) / count if count else 0.0
                    ),
                    interactive_fraction=(
                        sum(
                            1
                            for l in latencies
                            if l <= INTERACTIVE_BUDGET
                        )
                        / len(latencies)
                        if latencies
                        else 0.0
                    ),
                    mean_end_to_end=(
                        sum(latencies) / len(latencies)
                        if latencies
                        else float("inf")
                    ),
                    goodput_mbps=(
                        record.goodput_bytes * 8.0 / duration / 1e6
                    ),
                    outages=outages,
                    mean_recovery_frames=mean_rec,
                    max_recovery_frames=max_rec,
                )
            )
        self.summary = BroadcastSummary(
            frames=count,
            delivered_frames=delivered_frames,
            tiers=len(self.tiers),
            receivers=len(self.receivers),
            reconstructions=int(
                metrics.value("serve.engine.reconstructions")
                - base_reconstructions
            ),
            unique_pairs=len(pairs),
            cache_hits=int(
                metrics.value("serve.cache.hits") - base_hits
            ),
            per_receiver=tuple(per_receiver),
        )
        return self.summary
