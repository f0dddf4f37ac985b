"""Mesh reconstruction from transmitted keypoint semantics.

The receiver-side decoder of the keypoint pipeline: parameters in,
mesh out, at a configurable voxel resolution (the paper's 128 / 256 /
512 / 1024 knob).  Reconstruction cost grows steeply with resolution —
this is the code whose FPS Figure 4 plots.

Two optimisations keep the hot path fast without changing its output:
the implicit field is evaluated through the fused capsule kernel
(:class:`repro.geometry.sdf.FusedCapsuleUnion`), and consecutive frames
of a motion sequence warm-start surface extraction from the previous
frame's leaf set dilated by the inter-frame motion bound, so static
body regions skip the coarse-to-fine refinement entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.obs.clock import perf_counter
from repro.obs.registry import get_registry
from repro.obs.tracer import KIND_EXTRACT
from repro.avatar.implicit import PosedBodyField
from repro.body.expression import ExpressionParams
from repro.body.pose import BodyPose
from repro.body.shape import ShapeParams
from repro.errors import PipelineError
from repro.geometry.marching import ExtractionStats
from repro.geometry.mesh import TriangleMesh

# Both names of the one extractor stay bound here: perfbench's layer
# probe times extraction by patching them on this module.
from repro.geometry.octree import (  # noqa: F401
    extract_surface,
    extract_surface_octree,
    warm_seeds,
)

__all__ = ["ReconstructionResult", "KeypointMeshReconstructor",
           "SUPPORTED_RESOLUTIONS"]

# The resolutions evaluated in the paper (§4.1).
SUPPORTED_RESOLUTIONS = (128, 256, 512, 1024)

# Exact-bucket boundaries for the octree leaf-depth histogram: one
# bucket per depth, deep enough for 1024 = 32 << 5.
_DEPTH_BUCKETS = tuple(float(d) for d in range(9))


@dataclass
class ReconstructionResult:
    """One reconstructed frame.

    Attributes:
        mesh: the reconstructed surface.
        resolution: voxel resolution used.
        seconds: wall-clock reconstruction time.
        field_evaluations: number of implicit-field (SDF) point
            evaluations the reconstruction performed (0 for frames that
            never query the field, e.g. temporal warps).
        warm_started: whether extraction was seeded from the previous
            frame's leaf set instead of the dense root pass.
        cells_refined: cells subdivided across all refinement levels.
        cells_skipped_gaze: straddling cells the gaze LOD budget
            stopped early (0 without a budget).
        extract_spans: per-refinement-level timing records
            (``extract_octree`` span kind) for trace attachment; pool
            workers forward these with the result.
    """

    mesh: TriangleMesh
    resolution: int
    seconds: float
    field_evaluations: int = 0
    warm_started: bool = False
    cells_refined: int = 0
    cells_skipped_gaze: int = 0
    extract_spans: tuple = ()

    @property
    def fps(self) -> float:
        """Frames per second this reconstruction rate sustains."""
        return 1.0 / self.seconds if self.seconds > 0 else float("inf")


@dataclass
class KeypointMeshReconstructor:
    """Rebuild a body mesh from pose/shape parameters.

    Attributes:
        resolution: voxel grid resolution per axis.
        expression_channels: how many transmitted expression channels
            the reconstructor's geometry can express.  The default 0
            reproduces X-Avatar's behaviour in Figure 3 (mouth opening
            comes through the jaw *joint*; pout and other fine
            expression channels are lost).  Raise it to study the
            quality/overhead trade-off (§3.1).
        blend: capsule smooth-union radius of the implicit field.
        warm_start: seed each frame's surface extraction from the
            previous frame's leaf set — every leaf that may hold
            surface — dilated by the inter-frame motion bound.  The
            seed covers every cell the new surface can cross, so the
            output mesh is identical to a cold start; frames whose
            motion is too large (or whose expression changed) fall
            back to a cold start automatically.
        max_seed_dilation: motion bound (in cells) beyond which
            warm-starting is abandoned for the frame — dilating
            further would cost more than the root pass saves.
        octree_base: root-grid resolution of the extraction (depth 0);
            ``None`` derives it from the resolution (see
            :func:`repro.geometry.octree.level_schedule`).
    """

    resolution: int = 128
    expression_channels: int = 0
    blend: float = 0.035
    warm_start: bool = True
    max_seed_dilation: int = 3
    octree_base: Optional[int] = None

    #: per-frame gaze LOD policy; install with
    #: :meth:`set_depth_budget`, cleared with None.  Deliberately not a
    #: dataclass field: it is frame state, not configuration, so pool
    #: config tuples and equality stay budget-agnostic.
    depth_budget = None

    # Serving seam: when set, each frame's PosedBodyField is passed
    # through this callable and the *returned* SDF is what extraction
    # evaluates.  The reconstruction pool uses it to route field
    # queries through a cross-stream batching proxy; the proxy must be
    # arithmetic-transparent (same values as the raw field) or the
    # output mesh changes.
    field_hook: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    _prev_stats: Optional[ExtractionStats] = field(
        default=None, init=False, repr=False, compare=False
    )
    _prev_anchors: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _prev_expression: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.resolution < 8:
            raise PipelineError("resolution must be at least 8")
        if self.expression_channels < 0:
            raise PipelineError("expression_channels must be >= 0")
        if self.max_seed_dilation < 0:
            raise PipelineError("max_seed_dilation must be >= 0")
        if self.octree_base is not None:
            if self.octree_base < 2:
                raise PipelineError("octree_base must be at least 2")
            if self.octree_base > self.resolution:
                raise PipelineError(
                    "octree_base cannot exceed the resolution"
                )

    def set_depth_budget(self, budget) -> None:
        """Install this frame's gaze LOD policy.

        ``budget`` is any object with a ``target_depths(centers,
        max_depth)`` method — typically a :class:`repro.gaze.lod.
        GazeDepthBudget` — or ``None`` to refine everything to full
        depth again.  The budget is per-frame viewer state, so it
        deliberately lives outside the dataclass config (two
        reconstructors with different budgets still compare equal and
        share pool job configs).
        """
        self.depth_budget = budget

    def reset(self) -> None:
        """Drop warm-start state (e.g. at a scene cut or new speaker)."""
        self._prev_stats = None
        self._prev_anchors = None
        self._prev_expression = None

    def reconstruct(
        self,
        pose: Optional[BodyPose] = None,
        shape: Optional[ShapeParams] = None,
        expression: Optional[ExpressionParams] = None,
    ) -> ReconstructionResult:
        """Reconstruct one frame from transmitted parameters.

        Args:
            pose: transmitted pose (identity if omitted).
            shape: transmitted shape (neutral if omitted).
            expression: transmitted expression coefficients; only the
                first ``expression_channels`` are used.
        """
        start = perf_counter()
        usable_expression = None
        if expression is not None and self.expression_channels > 0:
            usable_expression = expression.truncated(
                self.expression_channels
            )
        fld = PosedBodyField(
            pose=pose,
            shape=shape,
            expression=usable_expression,
            blend=self.blend,
        )
        lo, hi = fld.bounds()
        anchors = self._field_anchors(fld)
        expr_key = (
            None
            if usable_expression is None
            else np.asarray(
                usable_expression.coefficients, dtype=np.float64
            ).copy()
        )

        fld_eval = (
            fld if self.field_hook is None else self.field_hook(fld)
        )
        stats = ExtractionStats()
        seed_leaves = (
            self._seed_leaves(lo, hi, anchors, expr_key)
            if self.warm_start
            else None
        )
        mesh = extract_surface_octree(
            fld_eval,
            (lo, hi),
            self.resolution,
            base_resolution=self.octree_base,
            budget=self.depth_budget,
            seed_leaves=seed_leaves,
            stats=stats,
        )
        evaluations = stats.field_evaluations
        warm = stats.warm_started
        if warm and mesh.num_faces == 0:
            # The seed missed the surface (should not happen within the
            # dilation bound, but never trade a frame for the shortcut).
            stats = ExtractionStats()
            mesh = extract_surface_octree(
                fld_eval,
                (lo, hi),
                self.resolution,
                base_resolution=self.octree_base,
                budget=self.depth_budget,
                stats=stats,
            )
            evaluations += stats.field_evaluations
            warm = False
        seconds = perf_counter() - start
        if mesh.num_faces == 0:
            raise PipelineError(
                "reconstruction produced an empty mesh "
                f"(resolution {self.resolution})"
            )
        self._prev_stats = stats
        self._prev_anchors = anchors
        self._prev_expression = expr_key
        registry = get_registry()
        registry.inc("avatar.reconstructions")
        registry.inc("avatar.field_evaluations", evaluations)
        registry.inc("session.extract.cells_refined", stats.cells_refined)
        registry.inc(
            "session.extract.cells_skipped_gaze", stats.cells_skipped_gaze
        )
        if stats.leaf_depths is not None and len(stats.leaf_depths):
            histogram = registry.histogram(
                "session.extract.depth", buckets=_DEPTH_BUCKETS
            )
            depths, counts = np.unique(
                stats.leaf_depths, return_counts=True
            )
            for depth, count in zip(depths, counts):
                histogram.observe(float(depth), int(count))
        extract_spans = tuple(
            {**span, "kind": KIND_EXTRACT} for span in stats.level_spans
        )
        return ReconstructionResult(
            mesh=mesh,
            resolution=self.resolution,
            seconds=seconds,
            field_evaluations=evaluations,
            warm_started=warm,
            cells_refined=stats.cells_refined,
            cells_skipped_gaze=stats.cells_skipped_gaze,
            extract_spans=extract_spans,
        )

    @staticmethod
    def _field_anchors(fld: PosedBodyField) -> np.ndarray:
        """Every point whose motion moves the field: segment endpoints
        plus the cranium centre."""
        heads = np.array([seg[1] for seg in fld.segments])
        tails = np.array([seg[2] for seg in fld.segments])
        return np.vstack([heads, tails, fld._head_center[None]])

    def _seed_leaves(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        anchors: np.ndarray,
        expr_key: Optional[np.ndarray],
    ) -> Optional[list]:
        """Warm seeds from the previous frame, or ``None`` for a cold
        start (first frame, expression change, grid mismatch, or
        too-large motion; see :func:`repro.geometry.octree.
        warm_seeds`)."""
        prev = self._prev_stats
        if (
            prev is None
            or self._prev_anchors is None
            or self._prev_anchors.shape != anchors.shape
        ):
            return None
        if (expr_key is None) != (self._prev_expression is None):
            return None
        if expr_key is not None and not np.array_equal(
            expr_key, self._prev_expression
        ):
            return None
        return warm_seeds(
            prev,
            (lo, hi),
            self.resolution,
            self.octree_base,
            motion=float(
                np.linalg.norm(anchors - self._prev_anchors, axis=1).max()
            ),
            budget=self.depth_budget,
            max_dilation=self.max_seed_dilation,
        )
