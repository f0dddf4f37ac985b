"""Exact accounting tests for multi-party sessions.

Real pipelines and links hide the arithmetic behind noise; these tests
drive :class:`MultiPartySession` with fixed-cost fakes so delivered
counts, latency sums and fan-out uplink math can be asserted exactly,
and pin down that the default links and the default in-process
engine are deterministic.
"""

import zlib
from dataclasses import dataclass

import pytest

from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.multiparty import MultiPartySession, Participant
from repro.core.pipeline import (
    DecodedFrame,
    EncodedFrame,
    HolographicPipeline,
)
from repro.core.timing import LatencyBreakdown

ENCODE_S = 0.004
DECODE_S = 0.006
LATENCY_S = 0.010
PAYLOAD = 100
OVERHEAD = 40


class FakeDataset:
    fps = 30.0

    def __len__(self):
        return 1000

    def frame(self, index):
        return index


class FakePipeline(HolographicPipeline):
    name = "fake"

    def encode(self, frame):
        return EncodedFrame(
            frame_index=frame,
            payload=b"x" * PAYLOAD,
            timing=LatencyBreakdown(stages={"encode": ENCODE_S}),
        )

    def decode(self, encoded):
        return DecodedFrame(
            frame_index=encoded.frame_index,
            surface=None,
            timing=LatencyBreakdown(stages={"decode": DECODE_S}),
        )


@dataclass
class FakeReport:
    wire_bytes: int
    delivered: bool
    latency: float


class FakeLink:
    def __init__(self, drop=()):
        self.drop = set(drop)

    def reset(self):
        pass

    def send_frame(self, index, payload, now=0.0):
        delivered = index not in self.drop
        return FakeReport(
            wire_bytes=len(payload) + OVERHEAD,
            delivered=delivered,
            latency=LATENCY_S,
        )


def _fake_session(count=3, drops=None):
    drops = drops or {}
    roster = [
        Participant(name=f"u{i}", dataset=FakeDataset(),
                    pipeline=FakePipeline())
        for i in range(count)
    ]
    return MultiPartySession(
        roster,
        link_factory=lambda s, r: FakeLink(drop=drops.get((s, r), ())),
    )


class TestExactAccounting:
    def test_latency_sum_is_encode_network_decode(self):
        summary = _fake_session(count=2).run(frames=3)
        report = summary.pair("u0", "u1")
        assert report.delivered == 3
        assert report.mean_payload_bytes == PAYLOAD
        assert report.mean_end_to_end == pytest.approx(
            ENCODE_S + LATENCY_S + DECODE_S
        )
        assert summary.interactive_fraction == 1.0
        # The default engine is private and in-process; the fake
        # pipeline is not offloadable, so it decodes inline.
        assert summary.serving["workers"] == 0
        assert summary.serving["inline_decodes"] == 6

    def test_uplink_scales_with_fanout(self):
        """Uplink = wire bytes x (N-1) receivers x fps / duration."""
        frames = 3
        summary = _fake_session(count=3).run(frames=frames)
        duration = frames / FakeDataset.fps
        expected = (PAYLOAD + OVERHEAD) * 2 * frames * 8.0 \
            / duration / 1e6
        for name in ("u0", "u1", "u2"):
            assert summary.uplink_mbps[name] == pytest.approx(expected)

    def test_dropped_frames_only_hit_their_pair(self):
        summary = _fake_session(
            count=3, drops={("u0", "u1"): {1}}
        ).run(frames=3)
        assert summary.pair("u0", "u1").delivered == 2
        assert summary.pair("u0", "u2").delivered == 3
        assert summary.pair("u1", "u0").delivered == 3
        # Lost frames still cost uplink bytes (they crossed the wire).
        assert summary.uplink_mbps["u0"] == \
            pytest.approx(summary.uplink_mbps["u1"])

    def test_undelivered_pair_reports_infinite_latency(self):
        summary = _fake_session(
            count=2, drops={("u0", "u1"): {0, 1}}
        ).run(frames=2)
        assert summary.pair("u0", "u1").mean_end_to_end == \
            float("inf")
        assert summary.pair("u1", "u0").delivered == 2


class TestDefaultLinkSeeds:
    def test_seed_is_crc32_of_pair_names(self):
        link = MultiPartySession._default_link("alice", "bob")
        assert link.seed == zlib.crc32(b"alice->bob") % (2 ** 31)

    def test_seed_is_direction_sensitive(self):
        forward = MultiPartySession._default_link("alice", "bob")
        backward = MultiPartySession._default_link("bob", "alice")
        assert forward.seed != backward.seed

    def test_rebuilt_links_are_identical(self):
        first = MultiPartySession._default_link("a", "b")
        second = MultiPartySession._default_link("a", "b")
        assert first.seed == second.seed
        assert first.propagation_delay == second.propagation_delay


class TestServingOffDeterminism:
    def _summary(self, talking_ds, waving_ds):
        roster = [
            Participant(
                name=f"user{i}",
                dataset=[talking_ds, waving_ds][i % 2],
                pipeline=KeypointSemanticPipeline(resolution=32,
                                                  seed=i),
            )
            for i in range(2)
        ]
        return MultiPartySession(roster).run(frames=2)

    def test_two_fresh_rosters_agree_bit_for_bit(self, talking_ds,
                                                 waving_ds):
        """On the default in-process engine the meeting is
        reproducible: every deterministic summary field matches across
        two independently built rosters (wall-clock latency fields are
        excluded)."""
        first = self._summary(talking_ds, waving_ds)
        second = self._summary(talking_ds, waving_ds)
        assert first.uplink_mbps == second.uplink_mbps
        assert first.serving == second.serving
        assert first.serving["workers"] == 0
        for a, b in zip(first.pairs, second.pairs):
            assert (a.sender, a.receiver) == (b.sender, b.receiver)
            assert a.delivered == b.delivered
            assert a.mean_payload_bytes == b.mean_payload_bytes
