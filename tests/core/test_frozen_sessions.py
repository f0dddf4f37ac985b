"""Every session and meeting decodes through one serving engine.

The tables in :mod:`tests.core.frozen_sessions` were recorded from the
old inline ``serving=None`` decode and the sequential meeting loop.
The engine path that replaced both must reproduce them bit for bit:
report fields, stage breakdowns, mesh digests and meeting summaries,
on whichever kernel backend is active.
"""

import pytest

from repro.core.multiparty import MultiPartySession
from repro.obs.clock import FakeClock, use_clock

from tests.core import frozen_sessions as frozen


@pytest.fixture(scope="module")
def frozen_datasets(body_model):
    return frozen.datasets(body_model)


def _assert_frozen(case, rows, digests):
    want = frozen.FROZEN_SESSIONS[case]
    assert rows == [tuple(row) for row in want["rows"]]
    assert digests == want["digests"][frozen.backend()]


@pytest.mark.parametrize("case", frozen.SESSION_CASES)
def test_default_session_reproduces_frozen_table(case, frozen_datasets):
    model, talking_ds, _ = frozen_datasets
    session = frozen.build_session(case, model, talking_ds)
    _assert_frozen(case, *frozen.session_table(session))
    summary = session.summary()
    if case == "text-kf3":
        # The run really exercises the content-failure path.
        assert sum(r.decode_failed for r in session.reports) == 9
        assert summary.decode_failure_rate > 0.0


def test_pipelined_stepper_reproduces_frozen_table(frozen_datasets):
    """Submitting at ``begin_frame`` and collecting at
    ``complete_frame`` changes only where the ticket is created."""
    model, talking_ds, _ = frozen_datasets
    case = "keypoint-r32-fallback"
    session = frozen.build_session(case, model, talking_ds)
    with use_clock(FakeClock()):
        stepper = session.stepper(frames=frozen.FRAMES, pipelined=True)
        while stepper.remaining:
            stepper.complete_frame(stepper.begin_frame())
        stepper.finish()
    _assert_frozen(case, *frozen.report_table(session))


def test_meeting_reproduces_frozen_summary(frozen_datasets):
    _, talking_ds, waving_ds = frozen_datasets
    table = frozen.meeting_table(
        MultiPartySession(frozen.roster(talking_ds, waving_ds))
    )
    assert table == frozen.FROZEN_MEETING[frozen.backend()]

