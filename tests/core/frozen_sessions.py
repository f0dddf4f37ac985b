"""Frozen session and meeting outcomes from before the decode collapse.

Sessions and meetings used to decode three ways: inline through the
pipeline (``serving=None``), through a synchronous serving engine, and
through a pipelined one; meetings also kept a sequential loop beside
their tick stepper.  Every run now decodes through a
:class:`repro.serve.ServingEngine`.  The tables below were recorded,
under a :class:`repro.obs.clock.FakeClock`, from the old inline
``serving=None`` paths; the one remaining path must reproduce them bit
for bit.

Each session row holds the report fields (index, payload bytes,
delivered, decode_failed, corrupted, concealed, stale age, semantic
level) and the frame's breakdown as sorted ``(stage, seconds)`` pairs.
Mesh digests (the first 32 hex digits of the sha256 of the surface's
vertex and face bytes, or of its points for a point cloud; ``None``
when nothing was displayed) are kept per kernel backend; since the
NumPy evaluator computes the C kernel's per-point expression, the two
columns are the same.

Regenerate with ``PYTHONPATH=src python -m tests.core.frozen_sessions``
(set ``REPRO_DISABLE_C_KERNEL=1`` for the NumPy digests).
"""

from __future__ import annotations

import hashlib
import pprint

import numpy as np

from repro.body.motion import talking, waving
from repro.capture.dataset import RGBDSequenceDataset
from repro.core.concealment import ResilienceConfig
from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.multiparty import MultiPartySession, Participant
from repro.core.session import TelepresenceSession
from repro.core.text_pipeline import TextSemanticPipeline
from repro.geometry.capsule_kernel import kernel_available
from repro.net.link import NetworkLink
from repro.net.trace import BandwidthTrace
from repro.obs.clock import FakeClock, use_clock

FRAMES = 16
MEETING_FRAMES = 3
SESSION_CASES = ("keypoint-r32-fallback", "keypoint-r48", "text-kf3")


def backend() -> str:
    return "c" if kernel_available() else "numpy"


def _digest(surface) -> str:
    if surface is None:
        return None
    if hasattr(surface, "faces"):
        data = (np.ascontiguousarray(surface.vertices).tobytes()
                + np.ascontiguousarray(surface.faces).tobytes())
    else:
        data = np.ascontiguousarray(surface.points).tobytes()
    return hashlib.sha256(data).hexdigest()[:32]


def lossy_link() -> NetworkLink:
    return NetworkLink(
        trace=BandwidthTrace.constant(50.0),
        loss_rate=0.3,
        retransmit=False,
        seed=11,
    )


def build_session(case, body_model, dataset, **kwargs):
    """The lossy session of one frozen case (``kwargs`` go to
    :class:`TelepresenceSession`, e.g. ``serving``)."""
    if case == "keypoint-r32-fallback":
        pipeline = KeypointSemanticPipeline(resolution=32)
        kwargs.setdefault("resilience", ResilienceConfig(
            fallback=TextSemanticPipeline(model=body_model, points=300)
        ))
    elif case == "keypoint-r48":
        pipeline = KeypointSemanticPipeline(resolution=48)
    elif case == "text-kf3":
        pipeline = TextSemanticPipeline(
            model=body_model, points=300, keyframe_interval=3
        )
    else:
        raise KeyError(case)
    return TelepresenceSession(dataset, pipeline, link=lossy_link(),
                               **kwargs)


def session_table(session):
    """Run ``session`` for :data:`FRAMES` frames on a fake clock;
    returns (report rows, mesh digests)."""
    with use_clock(FakeClock()):
        session.run(frames=FRAMES)
    return report_table(session)


def report_table(session):
    """(report rows, mesh digests) of a finished run."""
    rows = [
        (
            r.frame_index, r.payload_bytes, r.delivered,
            r.decode_failed, r.corrupted, r.concealed, r.stale_age,
            r.semantic_level, tuple(sorted(r.breakdown.stages.items())),
        )
        for r in session.reports
    ]
    digests = [
        _digest(None if r.decoded is None else r.decoded.surface)
        for r in session.reports
    ]
    return rows, digests


def roster(talking_ds, waving_ds):
    datasets = [talking_ds, waving_ds, talking_ds]
    return [
        Participant(
            name=f"user{i}",
            dataset=datasets[i],
            pipeline=KeypointSemanticPipeline(resolution=32, seed=i),
        )
        for i in range(3)
    ]


def meeting_table(meeting):
    """Run the 3-party ``meeting`` on a fake clock; returns its pair
    fields, uplink and interactive fraction."""
    with use_clock(FakeClock()):
        summary = meeting.run(frames=MEETING_FRAMES)
    return {
        "pairs": [
            (p.sender, p.receiver, p.frames, p.delivered,
             p.mean_end_to_end, p.mean_payload_bytes)
            for p in summary.pairs
        ],
        "uplink_mbps": dict(summary.uplink_mbps),
        "interactive_fraction": summary.interactive_fraction,
    }


def datasets(model=None):
    """(body model, talking, waving) as ``tests/conftest.py`` builds
    them, with talking at :data:`FRAMES` frames."""
    from repro.body.model import BodyModel
    from repro.capture.noise import DepthNoiseModel
    from repro.capture.rig import CaptureRig
    from repro.geometry.camera import Intrinsics

    if model is None:
        model = BodyModel(template_resolution=64,
                          template_vertices=4000)

    def rig(noise):
        return CaptureRig.ring(
            num_cameras=3,
            intrinsics=Intrinsics.from_fov(128, 96, 70.0),
            noise=noise,
        )

    def dataset(motion, noise):
        return RGBDSequenceDataset(model=model, motion=motion,
                                   rig=rig(noise), samples_per_pixel=4.0)

    return (
        model,
        dataset(talking(n_frames=FRAMES), DepthNoiseModel.kinect()),
        dataset(waving(n_frames=12), DepthNoiseModel.ideal()),
    )


#: case -> {"rows": [...], "digests": {backend: [...]}}
FROZEN_SESSIONS = {
    "keypoint-r32-fallback": {
        "rows": [
            (0, 702, False, False, False, False, 1, "keypoint-r32", (
                ("compress", 0.0), ("expression_capture", 0.008),
                ("keypoint_detection", 0.016), ("pose_fitting", 0.0),
            )),
            (1, 858, True, False, False, False, 0, "keypoint-r32", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.022593122157171866), ("pose_fitting", 0.0),
            )),
            (2, 850, False, False, False, True, 1, "keypoint-r32", (
                ("compress", 0.0), ("concealment", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("pose_fitting", 0.0),
            )),
            (3, 874, False, False, False, True, 2, "keypoint-r32", (
                ("compress", 0.0), ("concealment", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("pose_fitting", 0.0),
            )),
            (4, 878, True, False, False, False, 0, "keypoint-r32", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.021286332715143907), ("pose_fitting", 0.0),
            )),
            (5, 866, False, False, False, True, 1, "keypoint-r32", (
                ("compress", 0.0), ("concealment", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0), ("pose_fitting", 0.0),
            )),
            (6, 866, True, False, False, False, 0, "keypoint-r32", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.023839609597948203), ("pose_fitting", 0.0),
            )),
            (7, 878, True, False, False, False, 0, "keypoint-r32", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.020339744320311215), ("pose_fitting", 0.0),
            )),
            (8, 882, True, False, False, False, 0, "keypoint-r32", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.020420652667953676), ("pose_fitting", 0.0),
            )),
            (9, 878, False, False, False, True, 1, "keypoint-r32", (
                ("compress", 0.0), ("concealment", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0), ("pose_fitting", 0.0),
            )),
            (10, 882, True, False, False, False, 0, "keypoint-r32", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.021796547055060234), ("pose_fitting", 0.0),
            )),
            (11, 878, True, False, False, False, 0, "keypoint-r32", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.020452452357140438), ("pose_fitting", 0.0),
            )),
            (12, 886, True, False, False, False, 0, "keypoint-r32", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.021888841283894345), ("pose_fitting", 0.0),
            )),
            (13, 874, False, False, False, True, 1, "keypoint-r32", (
                ("compress", 0.0), ("concealment", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0), ("pose_fitting", 0.0),
            )),
            (14, 866, True, False, False, False, 0, "keypoint-r32", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.021486091647375805), ("pose_fitting", 0.0),
            )),
            (15, 878, True, False, False, False, 0, "keypoint-r32", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.021774987327890738), ("pose_fitting", 0.0),
            )),
        ],
        "digests": {
            "c": [
                None, "e3fc3e6f03efb221ab2c430ebe451544",
                "e3fc3e6f03efb221ab2c430ebe451544",
                "e3fc3e6f03efb221ab2c430ebe451544",
                "c5272180b2a66acff837a760470ff453",
                "32a99d9b1bfb96b82714734459972703",
                "cfd1efab7e5e380439e26ffd5af54611",
                "8cffc0220c0eea2ff65fe45423cebfa8",
                "e20af2f0a79ac00acda10ac3956afbb9",
                "bd2c7e6eceb748d94aa5d1865be39894",
                "d6eaf3a24f87b78b23dbdc7143aefb18",
                "91c315a515d02e3d8bf4f70c1bc44e2b",
                "ed1ab237652e2642f91435debcd4a2d1",
                "c2074d38e61336445c6287e31ce00690",
                "0345b155f937203e6bb81ce9bd59f3b9",
                "2f6a0e0a587b8448608de44e3814f374",
            ],
            "numpy": [
                None, "e3fc3e6f03efb221ab2c430ebe451544",
                "e3fc3e6f03efb221ab2c430ebe451544",
                "e3fc3e6f03efb221ab2c430ebe451544",
                "c5272180b2a66acff837a760470ff453",
                "32a99d9b1bfb96b82714734459972703",
                "cfd1efab7e5e380439e26ffd5af54611",
                "8cffc0220c0eea2ff65fe45423cebfa8",
                "e20af2f0a79ac00acda10ac3956afbb9",
                "bd2c7e6eceb748d94aa5d1865be39894",
                "d6eaf3a24f87b78b23dbdc7143aefb18",
                "91c315a515d02e3d8bf4f70c1bc44e2b",
                "ed1ab237652e2642f91435debcd4a2d1",
                "c2074d38e61336445c6287e31ce00690",
                "0345b155f937203e6bb81ce9bd59f3b9",
                "2f6a0e0a587b8448608de44e3814f374",
            ],
        },
    },
    "keypoint-r48": {
        "rows": [
            (0, 684, False, False, False, False, 1, "keypoint-r48", (
                ("compress", 0.0), ("expression_capture", 0.008),
                ("keypoint_detection", 0.016), ("pose_fitting", 0.0),
            )),
            (1, 840, True, False, False, False, 0, "keypoint-r48", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0), ("network", 0.02259024215717187),
                ("pose_fitting", 0.0),
            )),
            (2, 832, False, False, False, False, 1, "keypoint-r48", (
                ("compress", 0.0), ("expression_capture", 0.008),
                ("keypoint_detection", 0.016), ("pose_fitting", 0.0),
            )),
            (3, 856, False, False, False, False, 2, "keypoint-r48", (
                ("compress", 0.0), ("expression_capture", 0.008),
                ("keypoint_detection", 0.016), ("pose_fitting", 0.0),
            )),
            (4, 860, True, False, False, False, 0, "keypoint-r48", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.021283452715143925), ("pose_fitting", 0.0),
            )),
            (5, 848, False, False, False, False, 1, "keypoint-r48", (
                ("compress", 0.0), ("expression_capture", 0.008),
                ("keypoint_detection", 0.016), ("pose_fitting", 0.0),
            )),
            (6, 848, True, False, False, False, 0, "keypoint-r48", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.023836729597948192), ("pose_fitting", 0.0),
            )),
            (7, 860, True, False, False, False, 0, "keypoint-r48", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.020336864320311232), ("pose_fitting", 0.0),
            )),
            (8, 864, True, False, False, False, 0, "keypoint-r48", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.020417772667953638), ("pose_fitting", 0.0),
            )),
            (9, 860, False, False, False, False, 1, "keypoint-r48", (
                ("compress", 0.0), ("expression_capture", 0.008),
                ("keypoint_detection", 0.016), ("pose_fitting", 0.0),
            )),
            (10, 864, True, False, False, False, 0, "keypoint-r48", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.021793667055060195), ("pose_fitting", 0.0),
            )),
            (11, 860, True, False, False, False, 0, "keypoint-r48", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0), ("network", 0.0204495723571404),
                ("pose_fitting", 0.0),
            )),
            (12, 868, True, False, False, False, 0, "keypoint-r48", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.021885961283894362), ("pose_fitting", 0.0),
            )),
            (13, 856, False, False, False, False, 1, "keypoint-r48", (
                ("compress", 0.0), ("expression_capture", 0.008),
                ("keypoint_detection", 0.016), ("pose_fitting", 0.0),
            )),
            (14, 848, True, False, False, False, 0, "keypoint-r48", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0),
                ("network", 0.021483211647375766), ("pose_fitting", 0.0),
            )),
            (15, 860, True, False, False, False, 0, "keypoint-r48", (
                ("compress", 0.0), ("decompress", 0.0),
                ("expression_capture", 0.008), ("keypoint_detection", 0.016),
                ("mesh_reconstruction", 0.0), ("network", 0.02177210732789081),
                ("pose_fitting", 0.0),
            )),
        ],
        "digests": {
            "c": [
                None, "fea33fd04175c6aeb1695b12ecfa1c92", None, None,
                "301a65a7ceaac167c27cc531b94af2ac", None,
                "4c1ad529eb9a2ed7b8cf0488d778ac71",
                "7db7ec945a5cc76f7ef18b5c14a76a14",
                "5b4f1e04c1859cf718f132d7f746da6b", None,
                "c9f64ae984be0c933d6bd4257b5f6626",
                "70e67defdb697e0f0452d5d059031c73",
                "3cbfc5dfd055b40e15c65b8737dd0457", None,
                "4a435e17de826d340408fb130d06a3da",
                "6528767c3aaf5effba5d162b528ad865",
            ],
            "numpy": [
                None, "fea33fd04175c6aeb1695b12ecfa1c92", None, None,
                "301a65a7ceaac167c27cc531b94af2ac", None,
                "4c1ad529eb9a2ed7b8cf0488d778ac71",
                "7db7ec945a5cc76f7ef18b5c14a76a14",
                "5b4f1e04c1859cf718f132d7f746da6b", None,
                "c9f64ae984be0c933d6bd4257b5f6626",
                "70e67defdb697e0f0452d5d059031c73",
                "3cbfc5dfd055b40e15c65b8737dd0457", None,
                "4a435e17de826d340408fb130d06a3da",
                "6528767c3aaf5effba5d162b528ad865",
            ],
        },
    },
    "text-kf3": {
        "rows": [
            (0, 1238, False, False, False, False, 1, "text-delta", (
                ("captioning", 0.35), ("parameter_extraction", 0.016),
            )),
            (1, 654, True, True, False, False, 2, "text-delta", (
                ("captioning", 0.35), ("network", 0.022560482157171866),
                ("parameter_extraction", 0.016),
            )),
            (2, 981, False, False, False, False, 3, "text-delta", (
                ("captioning", 0.35), ("parameter_extraction", 0.016),
            )),
            (3, 800, False, False, False, False, 4, "text-delta", (
                ("captioning", 0.35), ("parameter_extraction", 0.016),
            )),
            (4, 1553, False, False, False, False, 5, "text-delta", (
                ("captioning", 0.35), ("parameter_extraction", 0.016),
            )),
            (5, 716, True, True, False, False, 6, "text-delta", (
                ("captioning", 0.35), ("network", 0.023815609597948206),
                ("parameter_extraction", 0.016),
            )),
            (6, 908, True, True, False, False, 7, "text-delta", (
                ("captioning", 0.35), ("network", 0.020344544320311214),
                ("parameter_extraction", 0.016),
            )),
            (7, 708, True, True, False, False, 8, "text-delta", (
                ("captioning", 0.35), ("network", 0.020392812667953675),
                ("parameter_extraction", 0.016),
            )),
            (8, 1380, False, False, False, False, 9, "text-delta", (
                ("captioning", 0.35), ("parameter_extraction", 0.016),
            )),
            (9, 936, True, True, False, False, 10, "text-delta", (
                ("captioning", 0.35), ("network", 0.021805187055060238),
                ("parameter_extraction", 0.016),
            )),
            (10, 892, True, True, False, False, 11, "text-delta", (
                ("captioning", 0.35), ("network", 0.020454692357140425),
                ("parameter_extraction", 0.016),
            )),
            (11, 1022, True, True, False, False, 12, "text-delta", (
                ("captioning", 0.35), ("network", 0.021910601283894326),
                ("parameter_extraction", 0.016),
            )),
            (12, 1416, False, False, False, False, 13, "text-delta", (
                ("captioning", 0.35), ("parameter_extraction", 0.016),
            )),
            (13, 1068, True, True, False, False, 14, "text-delta", (
                ("captioning", 0.35), ("network", 0.021805387327890724),
                ("parameter_extraction", 0.016),
            )),
            (14, 942, False, False, False, False, 15, "text-delta", (
                ("captioning", 0.35), ("parameter_extraction", 0.016),
            )),
            (15, 1152, True, True, False, False, 16, "text-delta", (
                ("captioning", 0.35), ("network", 0.023175647768126084),
                ("parameter_extraction", 0.016),
            )),
        ],
        "digests": {
            "c": [
                None, None, None, None, None, None, None, None, None, None,
                None, None, None, None, None, None,
            ],
            "numpy": [
                None, None, None, None, None, None, None, None, None, None,
                None, None, None, None, None, None,
            ],
        },
    },
}

#: backend -> the 3-party meeting's deterministic summary fields
FROZEN_MEETING = {
    "c": {
        "pairs": [
            ("user0", "user1", 3, 3, 0.0501300392713993, 785.3333333333334),
            ("user0", "user2", 3, 3, 0.05071037233143317, 785.3333333333334),
            ("user1", "user0", 3, 3, 0.051835560092694126, 786.6666666666666),
            ("user1", "user2", 3, 3, 0.05082008993112671, 786.6666666666666),
            ("user2", "user0", 3, 3, 0.05050896808486823, 793.3333333333334),
            ("user2", "user1", 3, 3, 0.04989648134903899, 793.3333333333334),
        ],
        "uplink_mbps": {
            "user0": 0.39616,
            "user1": 0.3968,
            "user2": 0.4,
        },
        "interactive_fraction": 1.0,
    },
    "numpy": {
        "pairs": [
            ("user0", "user1", 3, 3, 0.0501300392713993, 785.3333333333334),
            ("user0", "user2", 3, 3, 0.05071037233143317, 785.3333333333334),
            ("user1", "user0", 3, 3, 0.051835560092694126, 786.6666666666666),
            ("user1", "user2", 3, 3, 0.05082008993112671, 786.6666666666666),
            ("user2", "user0", 3, 3, 0.05050896808486823, 793.3333333333334),
            ("user2", "user1", 3, 3, 0.04989648134903899, 793.3333333333334),
        ],
        "uplink_mbps": {
            "user0": 0.39616,
            "user1": 0.3968,
            "user2": 0.4,
        },
        "interactive_fraction": 1.0,
    },
}

if __name__ == "__main__":
    model, talking_ds, waving_ds = datasets()
    out = {"backend": backend(), "sessions": {}}
    for case in SESSION_CASES:
        rows, digests = session_table(
            build_session(case, model, talking_ds)
        )
        out["sessions"][case] = {"rows": rows, "digests": digests}
    out["meeting"] = meeting_table(
        MultiPartySession(roster(talking_ds, waving_ds))
    )
    pprint.pprint(out, width=72)
