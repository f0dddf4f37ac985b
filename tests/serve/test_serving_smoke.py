"""Serving smoke: pooled meetings reproduce the in-process engine.

Every meeting and session decodes through a serving engine; without a
serving opt-in it is a private in-process one.  A 3-participant
meeting through a 2-worker engine must produce the same deterministic
summary fields as that default, and a shared engine must start hitting
its mesh cache when avatar states recur.
"""

import numpy as np
import pytest

from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.multiparty import MultiPartySession, Participant
from repro.core.session import TelepresenceSession
from repro.errors import PipelineError, ServingError
from repro.net.link import NetworkLink
from repro.net.trace import BandwidthTrace
from repro.serve import ServingConfig, ServingEngine


def _roster(talking_ds, waving_ds, count=3):
    datasets = [talking_ds, waving_ds, talking_ds]
    return [
        Participant(
            name=f"user{i}",
            dataset=datasets[i % len(datasets)],
            pipeline=KeypointSemanticPipeline(resolution=32, seed=i),
        )
        for i in range(count)
    ]


def _deterministic_fields(summary):
    """The summary fields that must be identical between a pooled and
    an in-process engine (wall-clock latencies are not)."""
    return {
        "pairs": [
            (p.sender, p.receiver, p.frames, p.delivered,
             p.mean_payload_bytes)
            for p in summary.pairs
        ],
        "uplink_mbps": summary.uplink_mbps,
    }


class TestMeetingThroughPool:
    def test_three_party_meeting_matches_sequential(self, talking_ds,
                                                    waving_ds):
        in_process = MultiPartySession(
            _roster(talking_ds, waving_ds)
        ).run(frames=3)
        served = MultiPartySession(
            _roster(talking_ds, waving_ds),
            serving=ServingConfig(workers=2),
        ).run(frames=3)

        assert _deterministic_fields(served) == \
            _deterministic_fields(in_process)
        assert in_process.serving["workers"] == 0
        assert not in_process.serving["cache_enabled"]
        assert in_process.serving["offloaded"] == 9
        assert in_process.serving["reconstructions"] == 9
        assert served.serving["workers"] == 2
        assert served.serving["offloaded"] == 9  # 3 senders x 3 frames
        assert served.serving["reconstructions"] >= 1
        assert served.serving["reconstructions"] + \
            served.serving["cache_hits"] == 9

    def test_shared_engine_caches_across_runs(self, talking_ds,
                                              waving_ds):
        in_process = MultiPartySession(
            _roster(talking_ds, waving_ds)
        ).run(frames=2)
        with ServingEngine(ServingConfig(workers=2)) as engine:
            roster = _roster(talking_ds, waving_ds)
            first = MultiPartySession(
                roster, serving=engine, session_id="meetingA"
            ).run(frames=2)
            second = MultiPartySession(
                roster, serving=engine, session_id="meetingB"
            ).run(frames=2)
            summary = engine.serving_summary()

        for served in (first, second):
            assert _deterministic_fields(served) == \
                _deterministic_fields(in_process)
        # The second meeting replays the same avatar states: the
        # cross-session cache must serve them without reconstructing.
        assert second.serving["cache_hits"] > \
            first.serving["cache_hits"]
        assert summary["cache_hits"] > 0
        assert summary["reconstructions"] + summary["cache_hits"] == \
            summary["offloaded"]

    def test_workers_zero_runs_in_process(self, talking_ds, waving_ds):
        in_process = MultiPartySession(
            _roster(talking_ds, waving_ds, 2)
        ).run(frames=2)
        served = MultiPartySession(
            _roster(talking_ds, waving_ds, 2),
            serving=ServingConfig(workers=0),
        ).run(frames=2)
        assert _deterministic_fields(served) == \
            _deterministic_fields(in_process)
        assert served.serving["workers"] == 0
        assert served.serving["reconstructions"] >= 1

    def test_rejects_bogus_serving_argument(self, talking_ds,
                                            waving_ds):
        session = MultiPartySession(
            _roster(talking_ds, waving_ds, 2), serving="turbo"
        )
        with pytest.raises(PipelineError, match="ServingConfig"):
            session.run(frames=1)

    def test_failed_collect_drains_outstanding_tickets(
            self, talking_ds, waving_ds, monkeypatch):
        """A mid-tick failure must not abandon the other senders'
        tickets: their pool jobs are collected best-effort before the
        error propagates, so nothing stays pending on a shared engine
        that outlives the run."""
        engine = ServingEngine(ServingConfig(workers=2))
        real_collect = ServingEngine.collect

        def failing_collect(self, ticket):
            result = real_collect(self, ticket)
            if ticket.stream.endswith("|user1"):
                raise PipelineError("synthetic collect failure")
            return result

        monkeypatch.setattr(ServingEngine, "collect", failing_collect)
        try:
            session = MultiPartySession(
                _roster(talking_ds, waving_ds), serving=engine
            )
            with pytest.raises(PipelineError, match="synthetic"):
                session.run(frames=1)
            # Every submitted job was consumed: user2's ticket was
            # drained on the failure path, not left in flight.
            assert engine.pool._pending == {}
            assert engine.pool._done == {}
        finally:
            engine.close()


class TestEngineDecode:
    def test_engine_decode_matches_pipeline_decode(self, talking_ds):
        encoded_by = KeypointSemanticPipeline(resolution=48)
        encoded = encoded_by.encode(talking_ds.frame(0))

        plain = KeypointSemanticPipeline(resolution=48)
        expected = plain.decode(encoded)

        served_pipe = KeypointSemanticPipeline(resolution=48)
        with ServingEngine(ServingConfig(workers=1)) as engine:
            got = engine.decode(served_pipe, encoded)
            again = engine.decode(served_pipe, encoded)
        assert np.array_equal(got.surface.vertices,
                              expected.surface.vertices)
        assert np.array_equal(got.surface.faces,
                              expected.surface.faces)
        assert got.metadata["served"] is True
        assert not got.metadata["cache_hit"]
        # Identical payload: second decode is a cache hit with the
        # same geometry.
        assert again.metadata["cache_hit"]
        assert np.array_equal(again.surface.vertices,
                              expected.surface.vertices)

    def test_temporal_pipeline_stays_inline(self, talking_ds):
        pipe = KeypointSemanticPipeline(resolution=32, temporal=True)
        assert not pipe.serving_offloadable
        encoded = pipe.encode(talking_ds.frame(0))
        with ServingEngine(ServingConfig(workers=0)) as engine:
            ticket = engine.submit(pipe, encoded)
            assert ticket.mode == "inline"
            decoded = engine.collect(ticket)
            summary = engine.serving_summary()
        assert decoded.surface is not None
        assert summary["inline_decodes"] == 1
        assert summary["offloaded"] == 0


class TestTelepresenceSession:
    def test_session_summary_matches_sequential(self, talking_ds):
        def fields(summary):
            return (summary.frames, summary.mean_payload_bytes,
                    summary.delivery_rate,
                    summary.decode_failure_rate)

        in_process = TelepresenceSession(
            talking_ds, KeypointSemanticPipeline(resolution=32)
        ).run(frames=3)
        served = TelepresenceSession(
            talking_ds,
            KeypointSemanticPipeline(resolution=32),
            serving=ServingConfig(workers=2),
        ).run(frames=3)
        assert fields(served) == fields(in_process)

    def test_worker_death_is_not_masked_as_decode_failure(
            self, talking_ds):
        engine = ServingEngine(ServingConfig(workers=1, cache=False))
        try:
            engine.pool.crash_worker(0)
            engine.pool._processes[0].join(timeout=10)
            session = TelepresenceSession(
                talking_ds,
                KeypointSemanticPipeline(resolution=32),
                serving=engine,
            )
            with pytest.raises(ServingError, match="dead"):
                session.run(frames=2)
        finally:
            engine.close()

    def test_rejects_bogus_serving_argument(self, talking_ds):
        session = TelepresenceSession(
            talking_ds,
            KeypointSemanticPipeline(resolution=32),
            serving=42,
        )
        with pytest.raises(PipelineError, match="ServingConfig"):
            session.run(frames=1)

    def test_inline_decode_failure_is_concealed_not_fatal(
            self, talking_ds, body_model):
        """A content-level decode failure on a non-offloadable
        pipeline — a delta whose reference frame was lost — freezes
        the display instead of crashing the run (only ServingError
        propagates), identically with or without the engine's cache."""
        from repro.core.text_pipeline import TextSemanticPipeline

        def build(serving):
            return TelepresenceSession(
                talking_ds,
                TextSemanticPipeline(
                    model=body_model, points=300, keyframe_interval=3
                ),
                link=NetworkLink(
                    trace=BandwidthTrace.constant(50.0),
                    loss_rate=0.3,
                    retransmit=False,
                    seed=0,  # drops deltas; some references are lost
                ),
                serving=serving,
            )

        default = build(None)
        default_summary = default.run(frames=10)
        served = build(ServingConfig(workers=0))
        served_summary = served.run(frames=10)

        # The scenario really exercises the failure path.
        assert default_summary.decode_failure_rate > 0.0
        assert any(r.decode_failed and r.delivered
                   for r in default.reports)
        # Identical accounting: same failures, same deliveries.
        assert served_summary.decode_failure_rate == \
            default_summary.decode_failure_rate
        assert served_summary.delivery_rate == \
            default_summary.delivery_rate
        assert [r.decode_failed for r in served.reports] == \
            [r.decode_failed for r in default.reports]


class TestServingConfig:
    def test_validation(self):
        with pytest.raises(PipelineError):
            ServingConfig(workers=-1)
        with pytest.raises(PipelineError):
            ServingConfig(cache_capacity=0)
        with pytest.raises(PipelineError):
            ServingConfig(job_timeout=0.0)

    def test_closed_engine_refuses_decodes(self, talking_ds):
        pipe = KeypointSemanticPipeline(resolution=32)
        encoded = pipe.encode(talking_ds.frame(0))
        engine = ServingEngine(ServingConfig(workers=0))
        engine.close()
        with pytest.raises(ServingError, match="closed"):
            engine.submit(pipe, encoded)


class TestClosedEngine:
    """A closed engine is an infrastructure failure: it raises a
    :class:`ServingError` out of every run, never a decode failure the
    session would conceal as corrupt content."""

    @pytest.fixture()
    def closed_engine(self):
        engine = ServingEngine(ServingConfig(workers=0))
        engine.close()
        return engine

    def test_session_run_raises(self, talking_ds, closed_engine):
        session = TelepresenceSession(
            talking_ds,
            KeypointSemanticPipeline(resolution=32),
            serving=closed_engine,
        )
        with pytest.raises(ServingError, match="closed"):
            session.run(frames=4)
        assert session.metrics.value("session.decode_failures") == 0

    def test_pipelined_stepper_raises(self, talking_ds, closed_engine):
        session = TelepresenceSession(
            talking_ds, KeypointSemanticPipeline(resolution=32)
        )
        stepper = session.stepper(frames=4, engine=closed_engine,
                                  pipelined=True)
        with pytest.raises(ServingError, match="closed"):
            stepper.begin_frame()
        stepper.close()

    def test_meeting_run_raises(self, talking_ds, waving_ds,
                                closed_engine):
        meeting = MultiPartySession(
            _roster(talking_ds, waving_ds, 2), serving=closed_engine
        )
        with pytest.raises(ServingError, match="closed"):
            meeting.run(frames=2)
