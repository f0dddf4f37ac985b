"""Serving-engine configuration.

A :class:`ServingConfig` describes one edge node's serving layer.
Every session decodes through a :class:`repro.serve.engine.
ServingEngine`: sessions and meetings built without a config get a
private in-process engine (``workers=0``, no cache).  With one,
receiver-side mesh reconstruction is fanned across a
:class:`repro.serve.pool.ReconstructionPool` and served through a
:class:`repro.serve.cache.MeshCache` shared by every session on the
edge node.  Pool, cache and store tuning beyond these knobs (batching,
quantisation bits, start method, per-stream backpressure) keeps the
component defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import PipelineError

__all__ = ["IN_PROCESS", "ServingConfig"]


@dataclass(frozen=True)
class ServingConfig:
    """How an edge node serves reconstruction work.

    Attributes:
        workers: reconstruction worker processes.  0 keeps every
            reconstruction in-process (deterministic single-core mode;
            the cache still applies) — the default for sessions and
            meetings built without a config, and for machines where
            process startup outweighs the win.
        cache: serve repeated pose/shape/expression buckets from the
            edge-wide mesh cache instead of reconstructing again.
        cache_capacity: maximum cached meshes before LRU eviction.
        job_timeout: seconds to wait for one pooled reconstruction
            before declaring the worker wedged (typed failure, never a
            hang).
        store: serve returning users from the persistent
            :class:`repro.avatar.AvatarStore` — one canonical mesh per
            identity, re-posed per frame by linear blend skinning with
            zero field evaluations.  Off by default.
        store_capacity: maximum identities before the store evicts
            (LRU; the evicted arena is unlinked).
        store_tolerance: maximum sampled |SDF| (metres) a reposed
            mesh may show before the hit is refused and the frame is
            re-extracted (then republished).
        store_check_every: validate every Nth hit of an identity
            against the sampled SDF (0 = never: the steady state
            spends exactly zero field evaluations and accuracy rests
            on the pose gates alone).
        store_max_pose_distance: mean per-joint geodesic distance (rad)
            between a frame's pose and the canonical pose beyond which
            the store refuses the hit and re-extracts.
        store_path: load the store's disk snapshot from this path at
            boot when it exists (cross-restart persistence; saving is
            explicit via ``ServingEngine.save_store``).

    Values are validated at construction; a store path without the
    store is refused rather than silently ignored.
    """

    workers: int = 2
    cache: bool = True
    cache_capacity: int = 512
    job_timeout: float = 300.0
    store: bool = False
    store_capacity: int = 256
    store_tolerance: float = 0.02
    store_check_every: int = 0
    store_max_pose_distance: float = 0.6
    store_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise PipelineError("workers must be >= 0")
        if self.cache_capacity < 1:
            raise PipelineError("cache_capacity must be >= 1")
        if self.job_timeout <= 0:
            raise PipelineError("job_timeout must be positive")
        if self.store_capacity < 1:
            raise PipelineError("store_capacity must be >= 1")
        if self.store_tolerance <= 0:
            raise PipelineError("store_tolerance must be positive")
        if self.store_check_every < 0:
            raise PipelineError(
                "store_check_every must be >= 0 (0 = never validate)"
            )
        if self.store_max_pose_distance <= 0:
            raise PipelineError(
                "store_max_pose_distance must be positive"
            )
        if self.store_path is not None and not self.store:
            raise PipelineError(
                "store_path has no effect with store=False; enable "
                "the avatar store or drop the path"
            )


#: The private engine of a session or meeting built without a serving
#: opt-in: in-process reconstruction, no cache.
IN_PROCESS = ServingConfig(workers=0, cache=False)
