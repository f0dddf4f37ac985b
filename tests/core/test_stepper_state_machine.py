"""Stateful interleavings of the one frame loop.

Every session decodes through a serving engine, in either stepping
mode, so :class:`SessionStepper` is the loop a gateway, a benchmark and
``TelepresenceSession.run`` all drive.  A hypothesis state machine
interleaves ``begin_frame`` (at most two frames in flight),
``complete_frame`` of the oldest, ``shed_frame`` and ``close`` on a
seeded lossy link with resilience on, and checks after every step that
the reports, the session counters and the engine's decode counters
reconcile.
"""

from collections import deque

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
import pytest

from repro.core.concealment import ResilienceConfig
from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.session import TelepresenceSession
from repro.core.text_pipeline import TextSemanticPipeline
from repro.errors import PipelineError
from repro.net.link import NetworkLink
from repro.net.trace import BandwidthTrace

FRAMES = 8
MAX_IN_FLIGHT = 2

_data = {}


@pytest.fixture(scope="module", autouse=True)
def _dataset(talking_ds, body_model):
    """Share the session fixtures with the machine (hypothesis state
    machines cannot take fixtures); frames are rendered once."""
    _data["dataset"] = _CachedFrames(talking_ds)
    _data["model"] = body_model
    yield
    _data.clear()


class _CachedFrames:
    """A dataset view that renders each frame once."""

    def __init__(self, dataset):
        self._dataset = dataset
        self.fps = dataset.fps

    def __len__(self):
        return FRAMES

    def frame(self, index):
        return self._dataset.frame(index, cache=True)


class SessionStepperMachine(RuleBasedStateMachine):
    @initialize(pipelined=st.booleans(), seed=st.integers(0, 2**16))
    def start(self, pipelined, seed):
        self.session = TelepresenceSession(
            _data["dataset"],
            KeypointSemanticPipeline(resolution=16, seed=seed),
            link=NetworkLink(
                trace=BandwidthTrace.constant(50.0),
                loss_rate=0.3,
                retransmit=False,
                seed=seed,
            ),
            resilience=ResilienceConfig(
                fallback=TextSemanticPipeline(
                    model=_data["model"], points=100, seed=seed
                ),
                degrade_after=2,
                recover_after=2,
            ),
        )
        self.stepper = self.session.stepper(pipelined=pipelined)
        self.engine = self.stepper.engine
        self.in_flight = deque()
        self.decodes_issued = 0
        self.closed = False

    @precondition(lambda self: not self.closed
                  and self.stepper.remaining > 0
                  and len(self.in_flight) < MAX_IN_FLIGHT)
    @rule()
    def begin(self):
        self.in_flight.append(self.stepper.begin_frame())

    @precondition(lambda self: not self.closed and self.in_flight)
    @rule()
    def complete_oldest(self):
        report = self.stepper.complete_frame(self.in_flight.popleft())
        if report.delivered and not report.corrupted:
            self.decodes_issued += 1
        assert not report.infrastructure_failed

    @precondition(lambda self: not self.closed
                  and self.stepper.remaining > 0
                  and not self.in_flight)
    @rule()
    def shed(self):
        report = self.stepper.shed_frame()
        assert report.semantic_level == "shed"
        assert not report.delivered

    @precondition(lambda self: not self.closed and not self.in_flight)
    @rule()
    def close(self):
        self.stepper.close()
        self.closed = True

    @precondition(lambda self: self.closed)
    @rule()
    def use_after_close(self):
        with pytest.raises(PipelineError, match="closed"):
            self.stepper.begin_frame()
        with pytest.raises(PipelineError, match="closed"):
            self.stepper.shed_frame()
        self.stepper.close()  # idempotent

    @invariant()
    def reports_match_counters(self):
        if not hasattr(self, "session"):
            return
        reports = self.session.reports
        metrics = self.session.metrics
        assert len(reports) == metrics.value("session.frames")
        delivered = sum(r.delivered for r in reports)
        assert delivered == metrics.value("session.delivered")
        assert delivered + sum(not r.delivered for r in reports) == \
            metrics.value("session.frames")

    @invariant()
    def every_decode_went_through_the_engine(self):
        if not hasattr(self, "engine"):
            return
        stats = self.engine.stats
        assert stats.offloaded + stats.inline_decodes == \
            self.decodes_issued

    def teardown(self):
        if hasattr(self, "stepper"):
            for pending in self.in_flight:
                pending.scope.close()
            self.stepper.close()


SessionStepperMachine.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSessionStepperMachine = SessionStepperMachine.TestCase
