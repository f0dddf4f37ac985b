"""Acceptance test: a served 60-frame session traces every stage.

A 60-frame keypoint session with the serving engine enabled must
produce one frame trace per frame, each covering every stage of that
frame's latency breakdown (worker-side spans re-parented under the
frame), and the per-stage span sums must reconcile *exactly* — not
approximately — with ``SessionSummary.mean_stage_breakdown``.  The
trace must survive a JSONL export/load round trip and aggregate into
the same per-stage totals.
"""

import numpy as np
import pytest

from repro.body.model import BodyModel
from repro.body.motion import talking
from repro.capture.dataset import RGBDSequenceDataset
from repro.capture.noise import DepthNoiseModel
from repro.capture.rig import CaptureRig
from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.session import TelepresenceSession
from repro.geometry.camera import Intrinsics
from repro.net.link import NetworkLink
from repro.net.trace import BandwidthTrace
from repro.obs.registry import MetricsRegistry
from repro.obs.report import aggregate, load_jsonl
from repro.obs.tracer import (
    KIND_EXTRACT,
    KIND_FRAME,
    KIND_STAGE,
    KIND_WORKER,
    Tracer,
)
from repro.serve import ServingConfig

FRAMES = 60


@pytest.fixture(scope="module")
def sixty_frame_ds():
    model = BodyModel(template_resolution=48, template_vertices=2000)
    rig = CaptureRig.ring(
        num_cameras=2,
        intrinsics=Intrinsics.from_fov(96, 72, 70.0),
        noise=DepthNoiseModel.ideal(),
    )
    return RGBDSequenceDataset(
        model=model,
        motion=talking(n_frames=FRAMES),
        rig=rig,
        samples_per_pixel=1.0,
    )


@pytest.fixture(scope="module")
def traced_run(sixty_frame_ds):
    tracer = Tracer()
    registry = MetricsRegistry()
    session = TelepresenceSession(
        sixty_frame_ds,
        KeypointSemanticPipeline(resolution=24),
        link=NetworkLink(trace=BandwidthTrace.constant(1000.0)),
        serving=ServingConfig(workers=2),
        tracer=tracer,
        metrics=registry,
    )
    summary = session.run()
    return session, summary, tracer, registry


class TestFrameCoverage:
    def test_one_trace_per_frame(self, traced_run):
        session, summary, tracer, _ = traced_run
        assert summary.frames == FRAMES
        trace_ids = tracer.trace_ids()
        assert len(trace_ids) == FRAMES
        roots = [
            s
            for trace_id in trace_ids
            for s in tracer.trace(trace_id)
            if s.kind == KIND_FRAME
        ]
        assert [r.attributes["frame_index"] for r in roots] == \
            list(range(FRAMES))

    def test_every_stage_of_every_frame_is_spanned(self, traced_run):
        session, _, tracer, _ = traced_run
        for trace_id, report in zip(tracer.trace_ids(),
                                    session.reports):
            totals = tracer.stage_totals(trace_id)
            assert set(totals) == set(report.breakdown.stages)
            # Exact equality, stage by stage.
            assert totals == report.breakdown.stages

    def test_worker_spans_reparented_under_their_frames(
        self, traced_run
    ):
        session, _, tracer, _ = traced_run
        offloaded = 0
        for trace_id, report in zip(tracer.trace_ids(),
                                    session.reports):
            spans = tracer.trace(trace_id)
            expected = len(
                report.decoded.metadata.get("worker_spans", ())
                if report.decoded is not None
                else ()
            )
            # Worker reconstructions ship their refinement-level
            # spans (kind extract_octree) alongside.
            workers = [
                s for s in spans if s.kind in (KIND_WORKER, KIND_EXTRACT)
            ]
            assert len(workers) == expected
            offloaded += len(workers)
            by_id = {s.span_id: s for s in spans}
            for span in workers:
                # Re-parented under this frame's decode wall span and
                # rebased into its timeline; the worker's raw clock
                # survives in the attributes.
                parent = by_id[span.parent_id]
                assert parent.name == "decode"
                assert span.start >= parent.start
                assert span.attributes["foreign_start"] > 0
                assert "pid" in span.attributes
        # The pool actually offloaded work (cache hits aside, a
        # 60-frame talking sequence cannot be all-hits).
        assert offloaded > 0


class TestExactReconciliation:
    def test_span_sums_match_mean_stage_breakdown(self, traced_run):
        session, summary, tracer, _ = traced_run
        per_frame = [
            tracer.stage_totals(trace_id)
            for trace_id in tracer.trace_ids()
        ]
        stages = sorted({k for frame in per_frame for k in frame})
        reconstructed = {
            stage: sum(frame.get(stage, 0.0) for frame in per_frame)
            / len(per_frame)
            for stage in stages
        }
        # Bit-exact: both sides sum the same floats in frame order.
        assert reconstructed == summary.mean_stage_breakdown.stages

    def test_registry_agrees_with_summary(self, traced_run):
        _, summary, _, registry = traced_run
        assert registry.value("session.frames") == FRAMES
        assert registry.value("session.delivered") == round(
            summary.delivery_rate * FRAMES
        )
        assert registry.histogram(
            "session.end_to_end_seconds"
        ).count == registry.value("session.delivered")
        assert registry.value("serve.engine.offloaded", default=0) + \
            registry.value("serve.cache.hits", default=0) >= FRAMES


class TestExportRoundTrip:
    def test_jsonl_round_trip_and_aggregate(self, traced_run,
                                            tmp_path):
        session, summary, tracer, _ = traced_run
        path = tmp_path / "session_trace.jsonl"
        count = tracer.export_jsonl(path)
        rows = load_jsonl(path)
        assert len(rows) == count == len(tracer.spans)

        report = aggregate(rows)
        assert report.frames == FRAMES
        exported_totals = {s.name: s.total for s in report.stages}
        live_totals = {}
        for span in tracer.spans:
            if span.kind == KIND_STAGE:
                live_totals[span.name] = live_totals.get(
                    span.name, 0.0
                ) + span.duration
        assert set(exported_totals) == set(live_totals)
        for name, total in live_totals.items():
            assert exported_totals[name] == pytest.approx(
                total, abs=1e-12
            )
        # Every breakdown stage the session reported shows up in the
        # aggregated report.
        assert set(summary.mean_stage_breakdown.stages) <= set(
            exported_totals
        )
