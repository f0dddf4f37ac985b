"""Multi-core serving engine for receiver-side reconstruction.

Turns the session layer from a single-threaded loop into a
throughput-oriented executor: a process pool with sticky per-stream
routing and shared-memory mesh transfer
(:mod:`repro.serve.pool`), a cross-session pose-bucketed mesh cache
(:mod:`repro.serve.cache`), the engine every session decodes through,
gluing both behind a :class:`ServingConfig` (:mod:`repro.serve.engine`),
and the gateway
multiplexing many sessions over one engine with admission control,
QoS-ladder backpressure and failure containment
(:mod:`repro.serve.gateway`, :mod:`repro.serve.admission`), and the
broadcast session fanning one sender out to N receivers through the
caching tier, one reconstruction per (frame, gaze-LOD tier)
(:mod:`repro.serve.broadcast`).
"""

from repro.serve.admission import AdmissionController
from repro.serve.broadcast import (
    BroadcastReceiver,
    BroadcastSession,
    BroadcastSummary,
    ReceiverSummary,
    gaze_tiers,
)
from repro.serve.cache import CacheStats, MeshCache
from repro.serve.config import ServingConfig
from repro.serve.engine import DecodeTicket, ServingEngine, ServingStats
from repro.serve.gateway import (
    GatewayConfig,
    GatewayStream,
    GatewaySummary,
    HoloGateway,
)
from repro.serve.pool import PoolResult, ReconstructionPool

__all__ = [
    "AdmissionController",
    "BroadcastReceiver",
    "BroadcastSession",
    "BroadcastSummary",
    "ReceiverSummary",
    "gaze_tiers",
    "CacheStats",
    "MeshCache",
    "ServingConfig",
    "DecodeTicket",
    "ServingEngine",
    "ServingStats",
    "GatewayConfig",
    "GatewayStream",
    "GatewaySummary",
    "HoloGateway",
    "PoolResult",
    "ReconstructionPool",
]
