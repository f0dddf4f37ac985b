"""The serving engine: cache-first, pool-backed receiver decode.

One :class:`ServingEngine` models one edge node.  Every session routed
through it shares the same :class:`repro.serve.cache.MeshCache` (so N
receivers of one sender, or recurring poses across meetings, cost one
reconstruction) and the same :class:`repro.serve.pool.
ReconstructionPool` (so independent streams reconstruct concurrently).

Only pipelines that declare themselves offloadable (currently the
plain keypoint pipeline: parameters in, mesh out, no receiver-side
texture work) go through cache and pool; everything else falls back to
the pipeline's own ``decode`` — correctness first, acceleration where
the decode really is a pure function of the transmitted parameters.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Set

from repro.avatar.store import AvatarStore
from repro.obs.clock import perf_counter
from repro.obs.registry import MetricsRegistry
from repro.core.pipeline import DecodedFrame, EncodedFrame, \
    HolographicPipeline
from repro.core.timing import LatencyBreakdown
from repro.errors import PipelineError
from repro.serve.cache import MeshCache
from repro.serve.config import ServingConfig
from repro.serve.pool import ReconstructionPool

__all__ = ["DecodeTicket", "ServingStats", "ServingEngine"]

_ticket_ids = itertools.count()


@dataclass
class ServingStats:
    """Engine-level counters (cache counters live on the cache).

    Attributes:
        offloaded: frames decoded through cache/pool.
        inline_decodes: frames decoded by the pipeline itself
            (non-offloadable pipeline or no serving benefit).
        reconstructions: reconstructions actually performed (pool or
            local) — cache hits do not count.
    """

    offloaded: int = 0
    inline_decodes: int = 0
    reconstructions: int = 0


@dataclass
class DecodeTicket:
    """A submitted decode awaiting :meth:`ServingEngine.collect`."""

    ticket_id: int
    pipeline: HolographicPipeline
    encoded: EncodedFrame
    stream: str
    # "inline" | "hit" | "pool" | "local" | "store_pool" | "store_local"
    mode: str
    payload: object = None
    key: Optional[bytes] = None
    job_id: Optional[int] = None
    cached_mesh: object = None
    decompress_seconds: float = 0.0
    lookup_seconds: float = 0.0
    store_key: Optional[bytes] = None
    store_record: object = None
    store_lookup_seconds: float = 0.0


class ServingEngine:
    """Cache-first, pool-backed decoding for one edge node.

    Args:
        config: the serving knobs.  ``workers == 0`` keeps
            reconstruction in-process (per-stream warm-start state held
            by the engine) while the cache still applies.
        registry: metrics registry shared with the cache
            (``serve.cache.*``) and the pool (``serve.pool.*``); the
            engine's own counters land under ``serve.engine.*``.  A
            private registry is created when omitted, available as
            ``self.metrics``.
    """

    def __init__(
        self,
        config: ServingConfig,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.metrics = (
            registry if registry is not None else MetricsRegistry()
        )
        self.cache = (
            MeshCache(capacity=config.cache_capacity,
                      bits=config.cache_bits,
                      registry=self.metrics)
            if config.cache
            else None
        )
        self.pool = (
            ReconstructionPool(
                workers=config.workers,
                job_timeout=config.job_timeout,
                start_method=config.start_method,
                registry=self.metrics,
                coalesce=config.coalesce,
                coalesce_window=config.coalesce_window,
                max_batch=config.max_batch,
                max_inflight_per_stream=config.max_inflight_per_stream,
            )
            if config.workers >= 1
            else None
        )
        self.store = (
            AvatarStore(
                capacity=config.store_capacity,
                bits=config.store_bits,
                tolerance=config.store_tolerance,
                check_every=config.store_check_every,
                max_pose_distance=config.store_max_pose_distance,
                path=config.store_path,
                registry=self.metrics,
            )
            if config.store
            else None
        )
        self.stats = ServingStats()
        self._local: Dict[str, tuple] = {}
        self._session_streams: Dict[str, Set[str]] = {}
        # Sliding window of store-hit outcomes per session, feeding
        # the gateway's service-rate model (a skinning-only stream is
        # far cheaper than field extraction).
        self._store_recent: Dict[str, Deque[float]] = {}
        self._closed = False

    # -- stream bookkeeping ----------------------------------------

    @staticmethod
    def _stream_key(session: str, sender: str) -> str:
        return f"{session}|{sender}"

    def reset_session(self, session: str) -> None:
        """Drop warm-start state for every stream of one session.

        The cross-session cache is deliberately *not* cleared — serving
        recurring avatar states across sessions is its purpose.
        """
        for stream in self._session_streams.pop(session, set()):
            if self.pool is not None:
                self.pool.reset_stream(stream)
            self._local.pop(stream, None)
        self._store_recent.pop(session, None)

    # -- decode ----------------------------------------------------

    @staticmethod
    def _offloadable(pipeline: HolographicPipeline) -> bool:
        return bool(getattr(pipeline, "serving_offloadable", False))

    def submit(
        self,
        pipeline: HolographicPipeline,
        encoded: EncodedFrame,
        session: str = "session",
        sender: str = "sender",
    ) -> DecodeTicket:
        """Start decoding one frame; cheap for hits, asynchronous for
        pooled reconstructions, deferred for inline fallbacks."""
        if self._closed:
            raise PipelineError("serving engine is closed")
        stream = self._stream_key(session, sender)
        ticket_id = next(_ticket_ids)
        if not self._offloadable(pipeline):
            return DecodeTicket(
                ticket_id=ticket_id,
                pipeline=pipeline,
                encoded=encoded,
                stream=stream,
                mode="inline",
            )
        self._session_streams.setdefault(session, set()).add(stream)
        start = perf_counter()
        codec = pipeline.codec
        payload = (
            codec.decompress(encoded.payload)
            if pipeline.compressed
            else codec.decode(encoded.payload)
        )
        decompress_seconds = perf_counter() - start
        reconstructor = pipeline.reconstructor
        key = None
        if self.cache is not None:
            start = perf_counter()
            budget = getattr(reconstructor, "depth_budget", None)
            key = self.cache.key(
                pose=payload.pose,
                shape=payload.shape,
                expression=payload.expression,
                resolution=reconstructor.resolution,
                expression_channels=reconstructor.expression_channels,
                blend=reconstructor.blend,
                octree_base=getattr(reconstructor, "octree_base", None),
                gaze=None if budget is None else budget.to_wire(),
            )
            mesh = self.cache.get(key)
            lookup_seconds = perf_counter() - start
            if mesh is not None:
                return DecodeTicket(
                    ticket_id=ticket_id,
                    pipeline=pipeline,
                    encoded=encoded,
                    stream=stream,
                    mode="hit",
                    payload=payload,
                    key=key,
                    cached_mesh=mesh,
                    decompress_seconds=decompress_seconds,
                    lookup_seconds=lookup_seconds,
                )
        store_key = None
        store_record = None
        store_lookup_seconds = 0.0
        if self.store is not None:
            # A gaze depth budget shapes the *extraction* (foveated
            # octree detail); the canonical mesh is budget-free, so
            # gaze-driven frames keep the legacy path rather than
            # serve full-detail geometry the budget asked to avoid.
            if getattr(reconstructor, "depth_budget", None) is None:
                start = perf_counter()
                store_key = self.store.key(
                    payload.shape,
                    payload.expression,
                    reconstructor.resolution,
                    reconstructor.expression_channels,
                    reconstructor.blend,
                    octree_base=getattr(reconstructor, "octree_base", None),
                )
                store_record = self.store.get(
                    store_key, pose=payload.pose
                )
                store_lookup_seconds = perf_counter() - start
        if store_record is not None:
            if self.pool is not None:
                job_id = self.pool.submit_repose(
                    stream=stream,
                    frame_index=encoded.frame_index,
                    pose=payload.pose,
                    shape=payload.shape,
                    arena=store_record.arena,
                    nv=store_record.nv,
                    nf=store_record.nf,
                    k=store_record.k,
                )
                return DecodeTicket(
                    ticket_id=ticket_id,
                    pipeline=pipeline,
                    encoded=encoded,
                    stream=stream,
                    mode="store_pool",
                    payload=payload,
                    key=key,
                    job_id=job_id,
                    decompress_seconds=decompress_seconds,
                    store_key=store_key,
                    store_record=store_record,
                    store_lookup_seconds=store_lookup_seconds,
                )
            return DecodeTicket(
                ticket_id=ticket_id,
                pipeline=pipeline,
                encoded=encoded,
                stream=stream,
                mode="store_local",
                payload=payload,
                key=key,
                decompress_seconds=decompress_seconds,
                store_key=store_key,
                store_record=store_record,
                store_lookup_seconds=store_lookup_seconds,
            )
        if self.pool is not None:
            budget = getattr(reconstructor, "depth_budget", None)
            job_id = self.pool.submit(
                stream=stream,
                frame_index=encoded.frame_index,
                pose=payload.pose,
                shape=payload.shape,
                expression=payload.expression,
                resolution=reconstructor.resolution,
                expression_channels=reconstructor.expression_channels,
                blend=reconstructor.blend,
                octree_base=getattr(reconstructor, "octree_base", None),
                gaze=None if budget is None else budget.to_wire(),
            )
            return DecodeTicket(
                ticket_id=ticket_id,
                pipeline=pipeline,
                encoded=encoded,
                stream=stream,
                mode="pool",
                payload=payload,
                key=key,
                job_id=job_id,
                decompress_seconds=decompress_seconds,
                store_key=store_key,
                store_lookup_seconds=store_lookup_seconds,
            )
        return DecodeTicket(
            ticket_id=ticket_id,
            pipeline=pipeline,
            encoded=encoded,
            stream=stream,
            mode="local",
            payload=payload,
            key=key,
            decompress_seconds=decompress_seconds,
            store_key=store_key,
            store_lookup_seconds=store_lookup_seconds,
        )

    def collect(self, ticket: DecodeTicket) -> DecodedFrame:
        """Finish a submitted decode and return the receiver output."""
        pipeline = ticket.pipeline
        if ticket.mode == "inline":
            self.stats.inline_decodes += 1
            self.metrics.inc("serve.engine.inline_decodes")
            return pipeline.decode(ticket.encoded)

        self.stats.offloaded += 1
        self.metrics.inc("serve.engine.offloaded")
        timing = LatencyBreakdown()
        timing.add("decompress", ticket.decompress_seconds)
        metadata = {
            "resolution": pipeline.reconstructor.resolution,
            "served": True,
        }
        if ticket.mode == "hit":
            timing.add("cache_lookup", ticket.lookup_seconds)
            mesh = ticket.cached_mesh
            metadata.update(
                field_evaluations=0,
                warm_started=False,
                cache_hit=True,
            )
        elif ticket.mode in ("store_pool", "store_local"):
            mesh = self._collect_store(ticket, timing, metadata)
        elif ticket.mode == "pool":
            result = self.pool.result(ticket.job_id)
            mesh = result.mesh
            self.stats.reconstructions += 1
            self.metrics.inc("serve.engine.reconstructions")
            timing.add("mesh_reconstruction", result.seconds)
            metadata.update(
                field_evaluations=result.field_evaluations,
                warm_started=result.warm_started,
                cache_hit=False,
                worker=result.worker,
                worker_spans=result.spans,
            )
            if self.cache is not None and ticket.key is not None:
                self.cache.put(ticket.key, mesh)
        else:  # "local": in-process, per-stream warm-start state
            reconstructor = self._local_reconstructor(
                ticket.stream, pipeline
            )
            result = reconstructor.reconstruct(
                pose=ticket.payload.pose,
                shape=ticket.payload.shape,
                expression=ticket.payload.expression,
            )
            mesh = result.mesh
            self.stats.reconstructions += 1
            self.metrics.inc("serve.engine.reconstructions")
            timing.add("mesh_reconstruction", result.seconds)
            metadata.update(
                field_evaluations=result.field_evaluations,
                warm_started=result.warm_started,
                cache_hit=False,
            )
            if self.cache is not None and ticket.key is not None:
                self.cache.put(ticket.key, mesh)
        if (
            self.store is not None
            and ticket.store_key is not None
            and ticket.mode in ("pool", "local")
        ):
            # Store miss: the full extraction just paid for this
            # identity's canonical mesh — publish it so every later
            # frame (any worker, any session) is skinning-only.
            start = perf_counter()
            self.store.publish(
                ticket.store_key,
                mesh,
                ticket.payload.pose,
                ticket.payload.shape,
            )
            timing.add("store_publish", perf_counter() - start)
            metadata["store_published"] = True
        if self.store is not None and ticket.mode != "hit":
            # Cache hits stay out of the ratio: they are already free
            # and say nothing about how often this session's frames
            # can be served by skinning alone.
            self._note_store_outcome(
                ticket.stream,
                ticket.mode in ("store_pool", "store_local"),
            )
        pipeline._record_decode_state(ticket.payload, mesh)
        return DecodedFrame(
            frame_index=ticket.encoded.frame_index,
            surface=mesh,
            timing=timing,
            metadata=metadata,
        )

    def _collect_store(self, ticket, timing, metadata):
        """Finish a store-hit decode: skinning-only re-pose (pool
        worker via the shared arena, or in-process), an optional
        sampled-SDF validation pass, and — when validation refuses the
        hit — a full re-extraction republished as the identity's new
        canonical mesh."""
        pipeline = ticket.pipeline
        payload = ticket.payload
        record = ticket.store_record
        timing.add("store_lookup", ticket.store_lookup_seconds)
        if ticket.mode == "store_pool":
            result = self.pool.result(ticket.job_id)
            mesh = result.mesh
            timing.add("store_repose", result.seconds)
            metadata.update(
                worker=result.worker, worker_spans=result.spans
            )
        else:
            start = perf_counter()
            mesh = self.store.repose(
                record, payload.pose, payload.shape
            )
            timing.add("store_repose", perf_counter() - start)
        evaluations = 0
        if self.store.validation_due(record):
            reconstructor = pipeline.reconstructor
            start = perf_counter()
            ok, spent, error = self.store.validate(
                mesh,
                payload.pose,
                payload.shape,
                expression=payload.expression,
                expression_channels=reconstructor.expression_channels,
                blend=reconstructor.blend,
            )
            timing.add("store_validate", perf_counter() - start)
            evaluations += spent
            metadata["store_validation_error"] = error
            if not ok:
                # The skinning drifted past tolerance: re-extract at
                # this frame's pose and republish, so the canonical
                # mesh tracks the user instead of compounding error.
                local = self._local_reconstructor(
                    ticket.stream, pipeline
                )
                result = local.reconstruct(
                    pose=payload.pose,
                    shape=payload.shape,
                    expression=payload.expression,
                )
                mesh = result.mesh
                evaluations += result.field_evaluations
                self.stats.reconstructions += 1
                self.metrics.inc("serve.engine.reconstructions")
                timing.add("mesh_reconstruction", result.seconds)
                start = perf_counter()
                self.store.publish(
                    ticket.store_key,
                    mesh,
                    payload.pose,
                    payload.shape,
                )
                timing.add("store_publish", perf_counter() - start)
                metadata["store_republished"] = True
        metadata.update(
            field_evaluations=evaluations,
            warm_started=False,
            cache_hit=False,
            store_hit=True,
        )
        if self.cache is not None and ticket.key is not None:
            self.cache.put(ticket.key, mesh)
        return mesh

    def _note_store_outcome(self, stream: str, hit: bool) -> None:
        session = stream.split("|", 1)[0]
        recent = self._store_recent.setdefault(
            session, deque(maxlen=32)
        )
        recent.append(1.0 if hit else 0.0)

    def store_hit_ratio(self, session: str) -> float:
        """Recent store-hit fraction of one session's offloaded
        decodes, in [0, 1] — the gateway scales its modeled service
        cost by this (skinning-only frames are far cheaper than field
        extraction).  0.0 until the session has history."""
        recent = self._store_recent.get(session)
        if not recent:
            return 0.0
        return sum(recent) / len(recent)

    def save_store(self, path=None):
        """Write the avatar store's disk snapshot (see
        :meth:`repro.avatar.AvatarStore.save`); returns the path."""
        if self.store is None:
            raise PipelineError(
                "serving engine has no avatar store (store=False)"
            )
        return self.store.save(path)

    def decode(
        self,
        pipeline: HolographicPipeline,
        encoded: EncodedFrame,
        session: str = "session",
        sender: str = "sender",
    ) -> DecodedFrame:
        """Synchronous submit + collect."""
        return self.collect(
            self.submit(pipeline, encoded, session=session, sender=sender)
        )

    def _local_reconstructor(self, stream: str, pipeline):
        from repro.avatar.reconstructor import KeypointMeshReconstructor

        base = pipeline.reconstructor
        octree_base = getattr(base, "octree_base", None)
        config = (base.resolution, base.expression_channels, base.blend,
                  octree_base)
        held = self._local.get(stream)
        if held is None or held[0] != config:
            held = (
                config,
                KeypointMeshReconstructor(
                    resolution=base.resolution,
                    expression_channels=base.expression_channels,
                    blend=base.blend,
                    octree_base=octree_base,
                ),
            )
            self._local[stream] = held
        # The gaze budget is per frame, not config: track the source
        # reconstructor's current budget without rebuilding (which
        # would discard warm-start state).
        held[1].set_depth_budget(getattr(base, "depth_budget", None))
        return held[1]

    # -- reporting / lifecycle -------------------------------------

    def serving_summary(self) -> Dict[str, float]:
        """Flat counters for tests, CI assertions and benchmarks.

        Reads the metrics registry — where every engine, cache and
        pool event is recorded — rather than reaching into the
        component objects.
        """
        metrics = self.metrics
        summary = {
            "workers": self.config.workers,
            "offloaded": int(
                metrics.value("serve.engine.offloaded")
            ),
            "inline_decodes": int(
                metrics.value("serve.engine.inline_decodes")
            ),
            "reconstructions": int(
                metrics.value("serve.engine.reconstructions")
            ),
            "cache_enabled": self.cache is not None,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_evictions": 0,
            "cache_size": 0,
        }
        if self.cache is not None:
            summary.update(
                cache_hits=int(metrics.value("serve.cache.hits")),
                cache_misses=int(metrics.value("serve.cache.misses")),
                cache_evictions=int(
                    metrics.value("serve.cache.evictions")
                ),
                cache_size=len(self.cache),
                cache_capacity_bytes=int(
                    metrics.value("serve.cache.capacity_bytes")
                ),
            )
        summary["store_enabled"] = self.store is not None
        if self.store is not None:
            summary.update(self.store.summary())
        return summary

    def close(self) -> None:
        """Shut the pool down; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.pool is not None:
            self.pool.close()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
