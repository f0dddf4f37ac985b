"""Broadcast (1→N) caching-tier tests.

The acceptance criterion of the fleet-scenario issue: a webinar at
N>=100 receivers across >=3 gaze-LOD tiers performs *exactly* one
reconstruction per (sender frame, tier) — counted by the engine's own
reconstruction metric, cold and warm, on both kernel backends — and
the run is byte-reproducible under a fake clock.
"""

import json

import numpy as np
import pytest

from repro.body.model import BodyModel
from repro.body.motion import talking
from repro.capture.dataset import RGBDSequenceDataset
from repro.capture.noise import DepthNoiseModel
from repro.capture.rig import CaptureRig
from repro.errors import PipelineError
from repro.geometry.camera import Intrinsics
from repro.net.link import NetworkLink
from repro.net.trace import BandwidthTrace
from repro.obs.clock import FakeClock, use_clock
from repro.serve import (
    BroadcastReceiver,
    BroadcastSession,
    ServingConfig,
    ServingEngine,
    gaze_tiers,
)


@pytest.fixture(scope="module")
def dataset():
    model = BodyModel(template_resolution=48, template_vertices=2000)
    rig = CaptureRig.ring(
        num_cameras=2,
        intrinsics=Intrinsics.from_fov(96, 72, 70.0),
        noise=DepthNoiseModel.ideal(),
    )
    return RGBDSequenceDataset(
        model, talking(n_frames=3), rig, samples_per_pixel=1.0
    )


def _audience(count, tiers):
    return [
        BroadcastReceiver(name=f"r{i:03d}", tier=i % tiers)
        for i in range(count)
    ]


class TestExactCounting:
    @pytest.mark.parametrize("backend", ["c", "numpy"])
    def test_one_reconstruction_per_frame_tier_pair_n100(
        self, dataset, backend, monkeypatch
    ):
        """N=100 receivers, 3 tiers, 3 frames: exactly 9
        reconstructions cold, exactly 0 warm — the engine metric, not
        a proxy."""
        if backend == "numpy":
            monkeypatch.setenv("REPRO_DISABLE_C_KERNEL", "1")
        frames, tiers, n = 3, 3, 100
        with use_clock(FakeClock()), ServingEngine(
            ServingConfig(workers=0)
        ) as engine:
            cold = BroadcastSession(
                dataset,
                _audience(n, tiers),
                tiers=tiers,
                resolution=16,
                octree_base=8,
                serving=engine,
            ).run()
            assert cold.receivers == n
            assert cold.delivered_frames == frames
            assert cold.unique_pairs == frames * tiers
            assert cold.reconstructions == cold.unique_pairs
            assert cold.cache_hits == frames * n - frames * tiers
            # Every receiver saw every frame fresh.
            assert all(
                r.delivered_rate == 1.0 and r.concealed_rate == 0.0
                for r in cold.per_receiver
            )
            # Warm start on the same engine: the cache still holds
            # every (pose-bucket, tier) mesh — zero new
            # reconstructions for the whole audience.
            warm = BroadcastSession(
                dataset,
                _audience(n, tiers),
                tiers=tiers,
                resolution=16,
                octree_base=8,
                serving=engine,
            ).run()
            assert warm.reconstructions == 0
            assert warm.cache_hits == frames * n
            assert warm.unique_pairs == 0

    def test_one_refinement_per_frame(self, dataset):
        """The tiers of one frame share tier 0's refinement: one field
        refinement, still one reconstruction per (frame, tier)."""
        with use_clock(FakeClock()), ServingEngine(
            ServingConfig(workers=0)
        ) as engine:
            summary = BroadcastSession(
                dataset, _audience(12, 3), tiers=3, resolution=16,
                octree_base=8, serving=engine,
            ).run(frames=1)
            assert engine.metrics.value("serve.engine.refinements") == 1
            assert summary.reconstructions == 3
            assert summary.reconstructions == summary.unique_pairs
            assert "refinements" not in engine.serving_summary()

    def test_reconstruction_count_scales_with_tiers_not_receivers(
        self, dataset
    ):
        """Doubling the audience does not change the reconstruction
        count; adding a tier does."""
        counts = {}
        for n, tiers in [(8, 2), (16, 2), (8, 4)]:
            with use_clock(FakeClock()):
                with BroadcastSession(
                    dataset,
                    _audience(n, tiers),
                    tiers=tiers,
                    resolution=16,
                    octree_base=8,
                ) as bc:
                    counts[(n, tiers)] = bc.run().reconstructions
        assert counts[(8, 2)] == counts[(16, 2)] == 2 * 3
        assert counts[(8, 4)] == 4 * 3


class TestSharedSurfaces:
    @staticmethod
    def _surfaces(dataset, engine, n, tiers):
        """Run a broadcast on ``engine`` and return every decoded
        surface keyed by (frame, receiver)."""
        surfaces = {}
        decode = engine.decode

        def recording(pipeline, encoded, session, sender):
            decoded = decode(
                pipeline, encoded, session=session, sender=sender
            )
            surfaces[(encoded.frame_index, session)] = decoded.surface
            return decoded

        engine.decode = recording
        with use_clock(FakeClock()):
            BroadcastSession(
                dataset,
                _audience(n, tiers),
                tiers=tiers,
                resolution=16,
                octree_base=8,
                serving=engine,
            ).run()
        return surfaces

    def test_tier_receivers_share_one_read_only_buffer(self, dataset):
        """Every receiver of one (frame, tier) gets a surface over the
        same buffer, byte-identical to a cache-free decode."""
        n, tiers = 9, 3
        with ServingEngine(ServingConfig(workers=0)) as engine:
            shared = self._surfaces(dataset, engine, n, tiers)
        with ServingEngine(
            ServingConfig(workers=0, cache=False)
        ) as engine:
            cold = self._surfaces(dataset, engine, n, tiers)
        assert shared.keys() == cold.keys()
        assert len(shared) == 3 * n
        for (frame, name), surface in shared.items():
            tier = int(name[1:]) % tiers
            leader = shared[(frame, f"r{tier:03d}")]
            assert np.shares_memory(surface.vertices, leader.vertices)
            assert np.shares_memory(surface.faces, leader.faces)
            assert not surface.vertices.flags.writeable
            assert not surface.faces.flags.writeable
            reference = cold[(frame, name)]
            assert surface.vertices.tobytes() == (
                reference.vertices.tobytes()
            )
            assert surface.faces.tobytes() == reference.faces.tobytes()
        # Tiers are distinct reconstructions, not one shared buffer.
        assert not np.shares_memory(
            shared[(0, "r000")].vertices, shared[(0, "r001")].vertices
        )


class TestDeterminism:
    def test_same_run_byte_identical(self, dataset):
        def one_run():
            with use_clock(FakeClock()):
                with BroadcastSession(
                    dataset,
                    _audience(12, 3),
                    tiers=3,
                    resolution=16,
                    octree_base=8,
                ) as bc:
                    summary = bc.run()
                    return summary.summary_json(), bc.decision_jsonl()

        assert one_run() == one_run()

    def test_decision_log_is_canonical_jsonl(self, dataset):
        with use_clock(FakeClock()):
            with BroadcastSession(
                dataset, _audience(6, 3), tiers=3, resolution=16,
                octree_base=8,
            ) as bc:
                bc.run()
                text = bc.decision_jsonl()
        for line in text.splitlines():
            entry = json.loads(line)
            assert line == json.dumps(entry, sort_keys=True)
            assert "action" in entry

    def test_export_decisions_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "decisions.jsonl"
        with use_clock(FakeClock()):
            with BroadcastSession(
                dataset, _audience(4, 2), tiers=2, resolution=16,
                octree_base=8,
            ) as bc:
                bc.run()
                count = bc.export_decisions(path)
                expected = bc.decision_jsonl() + "\n"
        assert path.read_text() == expected
        assert count == len(expected.splitlines())


class TestTopology:
    def test_tier_leader_entries_are_receiver_free(self, dataset):
        """Exactly one 'reconstruct' entry per (frame, tier), and it
        names no receiver — the tier, not a viewer, paid for it."""
        with use_clock(FakeClock()):
            with BroadcastSession(
                dataset, _audience(9, 3), tiers=3, resolution=16,
                octree_base=8,
            ) as bc:
                bc.run()
                entries = [
                    json.loads(line)
                    for line in bc.decision_jsonl().splitlines()
                ]
        recon = [e for e in entries if e["action"] == "reconstruct"]
        assert len(recon) == 3 * 3
        assert len({(e["frame"], e["tier"]) for e in recon}) == 9
        assert all("receiver" not in e for e in recon)

    def test_downlink_loss_conceals_only_that_receiver(self, dataset):
        """A lossy last hop affects its own receiver's freshness, not
        its tier-mates — per-receiver concealment state is isolated."""
        lossy = NetworkLink(
            trace=BandwidthTrace.constant(100.0),
            loss_rate=1.0,
            seed=3,
        )
        audience = [
            BroadcastReceiver(name="good0", tier=0),
            BroadcastReceiver(name="bad1", tier=0, downlink=lossy),
        ]
        with use_clock(FakeClock()):
            with BroadcastSession(
                dataset, audience, tiers=1, resolution=16,
                octree_base=8,
            ) as bc:
                summary = bc.run()
        by_name = {r.receiver: r for r in summary.per_receiver}
        assert by_name["good0"].delivered_rate == 1.0
        assert by_name["bad1"].delivered_rate == 0.0
        # The tier still reconstructed each frame for the healthy
        # receiver.
        assert summary.reconstructions == 3

    def test_validation(self, dataset):
        with pytest.raises(PipelineError):
            BroadcastSession(dataset, [], tiers=3)
        with pytest.raises(PipelineError):
            BroadcastSession(
                dataset,
                [BroadcastReceiver(name="a", tier=5)],
                tiers=2,
            )
        with pytest.raises(PipelineError):
            BroadcastSession(
                dataset,
                [
                    BroadcastReceiver(name="a", tier=0),
                    BroadcastReceiver(name="a", tier=1),
                ],
                tiers=2,
            )
        with pytest.raises(PipelineError):
            gaze_tiers(0)

    def test_gaze_tiers_are_distinct_cache_identities(self):
        tiers = gaze_tiers(4)
        wires = {t.to_wire() for t in tiers}
        assert len(wires) == 4
        drops = [t.peripheral_drop for t in tiers]
        assert drops == [0, 1, 2, 3]
