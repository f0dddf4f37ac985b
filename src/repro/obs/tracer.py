"""Hierarchical per-frame span tracing.

Every frame of a session opens a *trace*; within it, spans nest:
wall-clock spans around the real phases (capture, encode, transport,
decode, display), exact *stage* spans mirroring the frame's
:class:`repro.core.timing.LatencyBreakdown` (so per-stage span sums
reconcile with session summaries to the last bit), and *worker* spans
forwarded across the process boundary from
:class:`repro.serve.pool.ReconstructionPool` workers, re-parented
under the frame that consumed them.

Spans are recorded against the injectable clock
(:mod:`repro.obs.clock`), so a :class:`repro.obs.clock.FakeClock`
yields deterministic traces.  Completed spans export as JSONL — one
span per line — for offline aggregation (:mod:`repro.obs.report`).
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import PipelineError
from repro.obs.clock import Clock, get_clock

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]

#: span kinds
KIND_FRAME = "frame"    # one per trace: the frame's root
KIND_WALL = "wall"      # measured wall-clock phase
KIND_STAGE = "stage"    # exact stage cost from a LatencyBreakdown
KIND_WORKER = "worker"  # forwarded from a pool worker process
KIND_EXTRACT = "extract_octree"  # an octree level or the polygonisation


@dataclass
class Span:
    """One completed (or in-flight) span.

    Attributes:
        trace_id: the frame trace this span belongs to.
        span_id / parent_id: hierarchy (parent None = trace root).
        name: stage or phase name.
        start / end: clock readings (``end`` set when the span closes).
        kind: one of ``frame|wall|stage|worker``.
        attributes: extra context (frame index, worker id, ...).
        seconds: authoritative duration for synthetic (stage) spans.
            Stage spans are laid out at synthetic timestamps whose
            difference can lose low bits against a large clock base;
            the exact breakdown value is kept here so span sums
            reconcile with ``LatencyBreakdown`` bit-for-bit.
    """

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    kind: str = KIND_WALL
    attributes: Dict[str, object] = field(default_factory=dict)
    seconds: Optional[float] = None

    @property
    def duration(self) -> float:
        if self.seconds is not None:
            return self.seconds
        if self.end is None:
            raise PipelineError(f"span {self.name!r} is still open")
        return self.end - self.start

    def to_json(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": None if self.end is None else self.duration,
            "attributes": self.attributes,
        }


class Tracer:
    """Collects frame traces against an injectable clock.

    Args:
        clock: time source for span boundaries; defaults to the
            process-wide active clock at each reading (so installing a
            :class:`FakeClock` via ``use_clock`` is enough).
    """

    enabled = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock = clock
        self.spans: List[Span] = []
        self._trace_ids = itertools.count()
        self._span_ids = itertools.count()
        self._stack: List[Span] = []
        # Synthetic-timestamp cursor per open span: where the next
        # recorded (fixed-duration) child is laid out.
        self._cursors: Dict[int, float] = {}

    # -- clock -----------------------------------------------------

    def _now(self) -> float:
        clock = self._clock if self._clock is not None else get_clock()
        return clock.perf_counter()

    # -- span lifecycle --------------------------------------------

    def _open(self, name: str, kind: str, attributes) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            trace_id=(
                parent.trace_id
                if parent is not None
                else next(self._trace_ids)
            ),
            span_id=next(self._span_ids),
            parent_id=None if parent is None else parent.span_id,
            name=name,
            start=self._now(),
            kind=kind,
            attributes=dict(attributes),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise PipelineError(
                f"span {span.name!r} closed out of order"
            )
        self._stack.pop()
        span.end = self._now()
        self._cursors.pop(span.span_id, None)

    @contextmanager
    def frame(self, frame_index: int, **attributes) -> Iterator[Span]:
        """Open one frame's trace (the root span)."""
        if self._stack:
            raise PipelineError(
                "frame traces do not nest; close the previous frame"
            )
        span = self._open(
            "frame", KIND_FRAME,
            {"frame_index": frame_index, **attributes},
        )
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def span(self, name: str, kind: str = KIND_WALL,
             **attributes) -> Iterator[Span]:
        """Open a nested span under the innermost open span."""
        if not self._stack:
            raise PipelineError(
                f"span {name!r} needs an open frame trace"
            )
        span = self._open(name, kind, attributes)
        try:
            yield span
        finally:
            self._close(span)

    def record(self, name: str, seconds: float,
               kind: str = KIND_STAGE, **attributes) -> Span:
        """Add a closed fixed-duration span under the current span.

        Stage costs are *measured inside* the pipelines (against the
        same clock) and surfaced through ``LatencyBreakdown``; this
        lays them out as spans with synthetic sequential timestamps so
        per-stage sums reconcile with the breakdown exactly.
        """
        if not self._stack:
            raise PipelineError(
                f"record({name!r}) needs an open frame trace"
            )
        if seconds < 0:
            raise PipelineError(f"negative duration for {name!r}")
        parent = self._stack[-1]
        start = self._cursors.get(parent.span_id, parent.start)
        span = Span(
            trace_id=parent.trace_id,
            span_id=next(self._span_ids),
            parent_id=parent.span_id,
            name=name,
            start=start,
            end=start + seconds,
            kind=kind,
            attributes=dict(attributes),
            seconds=seconds,
        )
        self._cursors[parent.span_id] = span.end
        self.spans.append(span)
        return span

    def attach_worker_spans(
        self, records: Sequence[Dict[str, object]], **attributes
    ) -> List[Span]:
        """Re-parent spans recorded in a worker process.

        ``records`` carry ``name``/``start``/``end`` readings from the
        worker's own clock domain (plus identity like ``worker`` and
        ``pid``).  They are rebased so the earliest worker reading
        aligns with the current span's start, keeping the trace's
        timeline consistent while the raw readings survive in
        ``attributes`` as ``foreign_start`` / ``foreign_end``.

        A record may carry a ``kind`` key to override the default
        ``worker`` kind — octree refinement-level records ship as
        ``extract_octree`` so critical-path reports attribute time to
        individual refinement levels; the key is consumed, not copied
        into attributes.
        """
        if not self._stack:
            raise PipelineError(
                "attach_worker_spans needs an open frame trace"
            )
        if not records:
            return []
        parent = self._stack[-1]
        offset = parent.start - min(
            float(r["start"]) for r in records
        )
        attached = []
        for record in records:
            extra = {
                k: v
                for k, v in record.items()
                if k not in ("name", "start", "end", "kind")
            }
            span = Span(
                trace_id=parent.trace_id,
                span_id=next(self._span_ids),
                parent_id=parent.span_id,
                name=str(record["name"]),
                start=float(record["start"]) + offset,
                end=float(record["end"]) + offset,
                kind=str(record.get("kind", KIND_WORKER)),
                attributes={
                    **extra,
                    **attributes,
                    "foreign_start": float(record["start"]),
                    "foreign_end": float(record["end"]),
                },
            )
            self.spans.append(span)
            attached.append(span)
        return attached

    # -- queries ---------------------------------------------------

    def trace_ids(self) -> List[int]:
        """Every trace with a closed root, in creation order."""
        return [
            s.trace_id
            for s in self.spans
            if s.kind == KIND_FRAME and s.end is not None
        ]

    def trace(self, trace_id: int) -> List[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def stage_totals(self, trace_id: int) -> Dict[str, float]:
        """Per-stage sums of one trace's stage spans (the quantity
        that reconciles with the frame's ``LatencyBreakdown``)."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.trace_id == trace_id and span.kind == KIND_STAGE:
                totals[span.name] = totals.get(span.name, 0.0) \
                    + span.duration
        return totals

    # -- export ----------------------------------------------------

    def to_jsonl(self) -> str:
        """Every completed span, one JSON object per line."""
        return "\n".join(
            json.dumps(span.to_json(), sort_keys=True)
            for span in self.spans
            if span.end is not None
        )

    def export_jsonl(self, path) -> int:
        """Write the JSONL trace to ``path``; returns the span count."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            if text:
                handle.write(text + "\n")
        return 0 if not text else text.count("\n") + 1


class NullTracer:
    """The do-nothing tracer installed when tracing is off.

    Mirrors the :class:`Tracer` surface so call sites stay branch-free
    (``tracer = self.tracer or NULL_TRACER``).
    """

    enabled = False

    @contextmanager
    def frame(self, frame_index: int, **attributes):
        yield None

    @contextmanager
    def span(self, name: str, kind: str = KIND_WALL, **attributes):
        yield None

    def record(self, name: str, seconds: float,
               kind: str = KIND_STAGE, **attributes) -> None:
        return None

    def attach_worker_spans(self, records, **attributes) -> list:
        return []


NULL_TRACER = NullTracer()
