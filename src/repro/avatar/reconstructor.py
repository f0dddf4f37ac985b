"""Mesh reconstruction from transmitted keypoint semantics.

The receiver-side decoder of the keypoint pipeline: parameters in,
mesh out, at a configurable voxel resolution (the paper's 128 / 256 /
512 / 1024 knob).  Reconstruction cost grows steeply with resolution —
this is the code whose FPS Figure 4 plots.

Reconstruction is a pure function of the transmitted parameters, the
configuration and the gaze budget: no state carries from one frame to
the next.  Two optimisations keep it fast without changing its output:
the implicit field is evaluated through the fused capsule kernel
(:class:`repro.geometry.sdf.FusedCapsuleUnion`), and a frame already
refined under a finer gaze budget is polygonised from that
refinement's record without evaluating the field again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    OctreeRefinement,
    derive_surface,
    extract_surface,
    extract_surface_octree,
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
        warm_started: always False (there is no warm start).
        cells_refined: cells subdivided across all refinement levels.
        cells_skipped_gaze: straddling cells the gaze LOD budget
            stopped early (0 without a budget).
        extract_spans: per-refinement-level timing records and one
            polygonisation record (``extract_octree`` span kind) for
            trace attachment; pool workers forward these with the
            result.
        derived: whether the mesh was polygonised from a given
            refinement record instead of refining the field.
        refinement: the frame's refinement record when the caller asked
            to keep it (``keep_refinement``); None otherwise and for a
            derived frame.  It holds every evaluated cell's corner
            values, so callers should not keep results that carry it.
    """

    mesh: TriangleMesh
    resolution: int
    seconds: float
    field_evaluations: int = 0
    # Always False: perfbench/layers.py reads it under --trace 1.
    warm_started: bool = False
    cells_refined: int = 0
    cells_skipped_gaze: int = 0
    extract_spans: tuple = ()
    derived: bool = False
    refinement: Optional[OctreeRefinement] = None

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
        octree_base: root-grid resolution of the extraction (depth 0);
            ``None`` halves the resolution down to 16 cells per axis
            (see :func:`repro.geometry.octree.level_schedule`).  Without
            a gaze budget the root changes only the cost, never the
            mesh; a budget's leaf depths count from the root, so gaze
            tiers keep an explicit one.
    """

    resolution: int = 128
    expression_channels: int = 0
    blend: float = 0.035
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

    def __post_init__(self) -> None:
        if self.resolution < 8:
            raise PipelineError("resolution must be at least 8")
        if self.expression_channels < 0:
            raise PipelineError("expression_channels must be >= 0")
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

    def reconstruct(
        self,
        pose: Optional[BodyPose] = None,
        shape: Optional[ShapeParams] = None,
        expression: Optional[ExpressionParams] = None,
        refinement: Optional[OctreeRefinement] = None,
        keep_refinement: bool = False,
    ) -> ReconstructionResult:
        """Reconstruct one frame from transmitted parameters.

        Args:
            pose: transmitted pose (identity if omitted).
            shape: transmitted shape (neutral if omitted).
            expression: transmitted expression coefficients; only the
                first ``expression_channels`` are used.
            refinement: another reconstruction's refinement record
                of this very frame — the same transmitted parameters
                and configuration, the caller's guarantee.  The frame's
                leaves are selected from it and polygonised, with no
                field evaluation; a record that cannot serve this
                reconstructor's budget (see :func:`repro.geometry.
                octree.select_leaves`) falls back to a normal
                extraction.
            keep_refinement: attach the refinement record this frame
                ran to the result, for later frames to derive from.
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
        stats = ExtractionStats()
        mesh = None
        if refinement is not None:
            mesh = derive_surface(
                refinement,
                (lo, hi),
                self.resolution,
                base_resolution=self.octree_base,
                budget=self.depth_budget,
                stats=stats,
            )
        derived = mesh is not None
        if not derived:
            mesh = extract_surface_octree(
                fld if self.field_hook is None else self.field_hook(fld),
                (lo, hi),
                self.resolution,
                base_resolution=self.octree_base,
                budget=self.depth_budget,
                stats=stats,
            )
        evaluations = stats.field_evaluations
        seconds = perf_counter() - start
        if mesh.num_faces == 0:
            raise PipelineError(
                "reconstruction produced an empty mesh "
                f"(resolution {self.resolution})"
            )
        registry = get_registry()
        registry.inc("avatar.reconstructions")
        registry.inc("avatar.field_evaluations", evaluations)
        registry.inc("session.extract.cells_refined", stats.cells_refined)
        registry.inc(
            "session.extract.cells_skipped_gaze", stats.cells_skipped_gaze
        )
        if stats.selection.leaves:
            histogram = registry.histogram(
                "session.extract.depth", buckets=_DEPTH_BUCKETS
            )
            for depth, cells, _, _ in stats.selection.leaves:
                histogram.observe(float(depth), len(cells))
        extract_spans = tuple(
            {**span, "kind": KIND_EXTRACT} for span in stats.level_spans
        )
        return ReconstructionResult(
            mesh=mesh,
            resolution=self.resolution,
            seconds=seconds,
            field_evaluations=evaluations,
            cells_refined=stats.cells_refined,
            cells_skipped_gaze=stats.cells_skipped_gaze,
            extract_spans=extract_spans,
            derived=derived,
            refinement=stats.refinement if keep_refinement else None,
        )
