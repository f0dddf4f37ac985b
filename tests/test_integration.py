"""Cross-module integration tests: the full Figure 1 loop.

Each test runs capture -> semantic encode -> network -> decode ->
quality measurement end to end and checks the paper's qualitative
claims hold in this implementation.
"""

import numpy as np
import pytest

from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.metrics import visual_quality
from repro.core.session import TelepresenceSession
from repro.core.text_pipeline import TextSemanticPipeline
from repro.core.traditional import TraditionalMeshPipeline
from repro.core.foveated import FoveatedHybridPipeline
from repro.net.link import NetworkLink
from repro.net.trace import BandwidthTrace


def us_broadband():
    """The 25 Mbps access link the paper cites as US standard."""
    return NetworkLink(
        trace=BandwidthTrace.constant(25.0),
        propagation_delay=0.025,
        jitter=0.002,
    )


class TestPaperClaims:
    def test_keypoints_fit_broadband_traditional_raw_does_not(
        self, talking_ds
    ):
        keypoint_session = TelepresenceSession(
            talking_ds,
            KeypointSemanticPipeline(resolution=32),
            link=us_broadband(),
            decode=False,
        )
        keypoint = keypoint_session.run(frames=8)
        traditional_session = TelepresenceSession(
            talking_ds,
            TraditionalMeshPipeline(compressed=False),
            link=us_broadband(),
            decode=False,
        )
        traditional = traditional_session.run(frames=8)
        assert keypoint.bandwidth_mbps < 1.0
        assert traditional.bandwidth_mbps > 25.0
        # Raw traditional saturates the link: queueing delay grows
        # frame over frame, while keypoints stay flat.
        trad_net = [
            r.breakdown.stages["network"]
            for r in traditional_session.reports
        ]
        kp_net = [
            r.breakdown.stages["network"]
            for r in keypoint_session.reports
        ]
        assert trad_net[-1] > trad_net[0] * 2
        assert kp_net[-1] < kp_net[0] * 2

    def test_keypoint_quality_below_traditional(self, talking_ds):
        """Keypoint reconstruction loses clothing detail (Figure 2)."""
        frame = talking_ds.frame(4)
        truth = frame.ground_truth_mesh

        keypoint = KeypointSemanticPipeline(resolution=48)
        keypoint.reset()
        for i in range(3):
            keypoint.encode(talking_ds.frame(i))
        kp_mesh = keypoint.decode(keypoint.encode(frame)).surface

        traditional = TraditionalMeshPipeline(compressed=True,
                                              textured=True)
        trad_mesh = traditional.decode(
            traditional.encode(frame)
        ).surface

        q_keypoint = visual_quality(kp_mesh, truth, samples=3000)
        q_traditional = visual_quality(trad_mesh, truth, samples=3000)
        # Traditional ships the actual geometry; its error is bounded
        # by clothing folds only.  Keypoints lose folds and detail.
        assert q_traditional.chamfer < q_keypoint.chamfer
        assert q_traditional.f_score_1cm > q_keypoint.f_score_1cm

    def test_text_stream_compact(self, talking_ds, body_model):
        from repro.compression.lzma_codec import KeypointPayloadCodec

        text = TextSemanticPipeline(model=body_model, points=2000)
        text.reset()
        text_sizes = [
            text.encode(talking_ds.frame(i)).payload_bytes
            for i in range(4)
        ]
        # Deltas shrink the stream after the keyframe and keep it well
        # under the raw keypoint payload (both are "L" in Table 1).
        raw_keypoint = KeypointPayloadCodec().raw_size()
        assert np.mean(text_sizes[1:]) < text_sizes[0]
        assert np.mean(text_sizes) < raw_keypoint

    def test_foveated_sits_between(self, talking_ds):
        foveated = FoveatedHybridPipeline(
            foveal_radius_degrees=12.0, peripheral_resolution=32
        )
        session = TelepresenceSession(
            talking_ds, foveated, link=us_broadband()
        )
        summary = session.run(frames=3)
        assert 0.1 < summary.bandwidth_mbps < 25.0
        assert summary.delivery_rate == 1.0

    def test_full_loop_all_pipelines_deliver_geometry(
        self, talking_ds, body_model
    ):
        pipelines = [
            KeypointSemanticPipeline(resolution=32),
            TraditionalMeshPipeline(compressed=True),
            TextSemanticPipeline(model=body_model, points=1500),
            FoveatedHybridPipeline(peripheral_resolution=32),
        ]
        for pipeline in pipelines:
            session = TelepresenceSession(
                talking_ds, pipeline, link=us_broadband()
            )
            summary = session.run(frames=2)
            assert summary.delivery_rate == 1.0, pipeline.name
            decoded = session.reports[-1].decoded
            assert decoded is not None
            surface = decoded.surface
            lo, hi = surface.bounds() if hasattr(surface, "bounds") \
                else (None, None)
            assert hi[1] - lo[1] > 1.2, pipeline.name

    def test_reconstruction_dominates_keypoint_latency(
        self, talking_ds
    ):
        """§4's punchline: reconstruction, not bandwidth, is the
        keypoint bottleneck, at the lowest resolution the paper
        evaluates (``SUPPORTED_RESOLUTIONS``, §4.1)."""
        session = TelepresenceSession(
            talking_ds,
            KeypointSemanticPipeline(resolution=128),
            link=us_broadband(),
        )
        summary = session.run(frames=2)
        stages = summary.mean_stage_breakdown.stages
        assert stages["mesh_reconstruction"] > stages["network"]
        assert summary.mean_stage_breakdown.dominant_stage() == \
            "mesh_reconstruction"


class TestDeterminism:
    def test_sessions_reproducible(self, talking_ds):
        def run():
            session = TelepresenceSession(
                talking_ds,
                KeypointSemanticPipeline(resolution=32, seed=3),
                link=NetworkLink(
                    trace=BandwidthTrace.constant(50.0), seed=3
                ),
                decode=False,
            )
            summary = session.run(frames=3)
            return [r.payload_bytes for r in session.reports]

        assert run() == run()
