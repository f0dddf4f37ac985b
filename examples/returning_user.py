#!/usr/bin/env python3
"""A returning user served from the persistent avatar store.

The first time an identity appears, the serving engine pays for a
full field extraction and publishes the canonical mesh into the
cross-process :class:`repro.avatar.AvatarStore`.  Every later frame
of that identity — any pose — is a store hit: the engine re-poses
the canonical vertices by linear blend skinning, spending zero field
evaluations.  The script runs two "calls" with the same user, the
second through a brand-new engine process state restored from the
first engine's snapshot, and prints per-frame latency plus the store
ledger.

Run:  python examples/returning_user.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.bench.harness import ExperimentTable
from repro.body.pose import BodyPose
from repro.body.shape import ShapeParams
from repro.compression.lzma_codec import SemanticKeypointPayload
from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.pipeline import EncodedFrame
from repro.obs.clock import perf_counter
from repro.serve import ServingConfig, ServingEngine

RESOLUTION = 64
FRAMES_PER_CALL = 5


def make_pipeline() -> KeypointSemanticPipeline:
    # Root grid 32 rather than the dense 64^3 root pass the resolution
    # would derive: the cold frame refines from a coarser grid.
    return KeypointSemanticPipeline(
        resolution=RESOLUTION, octree_base=32, seed=0
    )


def run_call(engine: ServingEngine, shape: ShapeParams,
             table: ExperimentTable, call: str) -> None:
    pipe = make_pipeline()
    for index in range(FRAMES_PER_CALL):
        pose = BodyPose.identity()
        angle = 0.05 * index
        pose.joint_rotations[16] = [0.0, 0.0, angle]
        pose.joint_rotations[17] = [0.0, angle / 2, -angle / 2]
        payload = SemanticKeypointPayload(
            pose=pose, shape=shape, frame_index=index
        )
        encoded = EncodedFrame(
            frame_index=index, payload=pipe.codec.compress(payload)
        )
        start = perf_counter()
        decoded = engine.decode(pipe, encoded, session=call)
        ms = (perf_counter() - start) * 1000.0
        meta = decoded.metadata
        path = "store hit (LBS)" if meta.get("store_hit") else (
            "cache hit" if meta.get("cache_hit") else "extraction"
        )
        table.add_row(
            f"{call}/{index}", path, f"{ms:.1f}",
            str(meta["field_evaluations"]),
            str(decoded.surface.num_vertices),
        )


def main() -> None:
    rng = np.random.default_rng(3)
    shape = ShapeParams(betas=rng.uniform(-1.5, 1.5, 10))
    table = ExperimentTable(
        title="Returning user through the persistent avatar store",
        columns=["frame", "path", "latency_ms", "field_evals",
                 "vertices"],
    )

    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "avatars.npz"

        # First call: frame 0 is a cold boot (extract + publish),
        # the rest are skinning-only store hits.
        with ServingEngine(ServingConfig(workers=0, store=True)) \
                as engine:
            run_call(engine, shape, table, "call-1")
            engine.save_store(snapshot)
            first = engine.serving_summary()

        # Second call: a fresh engine — think process restart —
        # restores the snapshot, so even frame 0 skips extraction.
        with ServingEngine(ServingConfig(
                workers=0, store=True,
                store_path=str(snapshot))) as engine:
            run_call(engine, shape, table, "call-2")
            second = engine.serving_summary()

    table.show()
    total = first["store_hits"] + second["store_hits"]
    frames = 2 * FRAMES_PER_CALL
    print()
    print(f"store hits          : {total}/{frames} frames "
          f"(hit rate {total / frames:.2f})")
    print(f"extractions paid    : {first['store_misses']} "
          "(the cold boot; call 2 restored the snapshot)")
    print(f"canonical meshes    : {second['store_entries']} "
          f"({second['store_bytes'] / 1e6:.1f} MB shared memory)")
    print(f"restored from disk  : {second['store_restored']}")


if __name__ == "__main__":
    main()
