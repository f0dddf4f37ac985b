"""Figure 4: reconstruction FPS vs. output resolution.

The paper measures mesh-reconstruction frame rate at resolutions
128/256/512/1024 on an NVIDIA A100: below 3 FPS at 128, below 1 FPS at
the higher resolutions — far from the 30 FPS real-time bar.  We measure
the same sweep on this machine (NumPy substrate) and additionally model
the paper's hardware observations through the edge compute model:
the RTX 3080 cannot run 512/1024 at all (memory), and an MR headset is
out of the question.
"""

import pytest

from repro.avatar.reconstructor import KeypointMeshReconstructor
from repro.avatar.temporal import TemporalReconstructor
from conftest import register
from repro.bench.harness import ExperimentTable, safe_rate
from repro.errors import NetworkError
from repro.net.edge import (
    A100,
    HEADSET,
    RTX3080,
    EdgeServer,
    reconstruction_memory_gb,
)

RESOLUTIONS = (128, 256, 512, 1024)
REALTIME_FPS = 30.0


@pytest.fixture(scope="module")
def fps_sweep(bench_talking):
    frame = bench_talking.frame(3)
    results = {}
    for resolution in RESOLUTIONS:
        result = KeypointMeshReconstructor(
            resolution=resolution
        ).reconstruct(
            frame.body_state.pose,
            expression=frame.body_state.expression,
        )
        results[resolution] = result
    return frame, results


def test_figure4_regenerates(fps_sweep, benchmark):
    frame, results = fps_sweep
    table = ExperimentTable(
        title="Figure 4 — reconstruction FPS vs. resolution",
        columns=["resolution", "seconds", "fps", "vertices",
                 "field evals", "RTX3080 feasible"],
        paper_note=(
            "A100: <3 FPS at 128, <1 FPS elsewhere; RTX 3080 cannot "
            "handle 512/1024"
        ),
    )
    for resolution in RESOLUTIONS:
        result = results[resolution]
        feasible = (
            reconstruction_memory_gb(resolution) <= RTX3080.memory_gb
        )
        assert result.field_evaluations > 0
        table.add_row(
            str(resolution),
            f"{result.seconds:.2f}",
            f"{result.fps:.3f}",
            str(result.mesh.num_vertices),
            str(result.field_evaluations),
            "yes" if feasible else "OOM",
        )
    table.show()

    fps = [results[r].fps for r in RESOLUTIONS]
    # Shape 1: FPS decreases monotonically with resolution.
    assert all(a > b for a, b in zip(fps, fps[1:])), fps
    # Shape 2: every resolution is below the 30 FPS real-time bar.
    assert all(f < REALTIME_FPS for f in fps)
    # Shape 3: the higher resolutions are below 1 FPS.
    assert fps[-1] < 1.0
    assert fps[-2] < 1.0
    register(benchmark, table.render)


def test_figure4_hardware_claims(benchmark):
    """The paper's RTX 3080 observation, through the memory model."""
    for resolution in (128, 256):
        assert reconstruction_memory_gb(resolution) <= \
            RTX3080.memory_gb
    for resolution in (512, 1024):
        assert reconstruction_memory_gb(resolution) > \
            RTX3080.memory_gb
        assert reconstruction_memory_gb(resolution) <= A100.memory_gb
    server = EdgeServer(device=RTX3080)
    with pytest.raises(NetworkError):
        server.execute(
            1.0, 0.0,
            memory_gb=reconstruction_memory_gb(512),
            operation="reconstruct-512",
        )
    register(benchmark, reconstruction_memory_gb, 1024)


def test_figure4_headset_infeasible(fps_sweep, benchmark):
    """Why the edge server exists (Figure 1): on-headset
    reconstruction would run two orders of magnitude slower."""
    _, results = fps_sweep
    headset = EdgeServer(device=HEADSET)
    seconds_on_headset = (
        results[256].seconds / headset.device.speed_factor
    )
    assert seconds_on_headset > 10.0
    register(benchmark, reconstruction_memory_gb, 256)


def test_figure4_temporal_ablation(bench_talking, benchmark):
    """§3.1's inter-frame proposal recovers interactive rates: the
    keyframe+warp reconstructor reaches >10x the per-frame FPS."""
    frames = [bench_talking.frame(i) for i in range(6)]
    temporal = TemporalReconstructor(
        base=KeypointMeshReconstructor(resolution=128)
    )
    seconds = [
        temporal.reconstruct(
            f.body_state.pose, expression=f.body_state.expression
        ).seconds
        for f in frames
    ]
    full = seconds[0]
    warps = [s for s in seconds[1:] if s < full / 2]
    assert warps, "temporal reconstructor never warped"
    assert min(warps) < full / 10

    table = ExperimentTable(
        title="Figure 4 ablation — temporal keyframe+warp (§3.1)",
        columns=["variant", "seconds/frame", "fps"],
        paper_note="proposal: exploit inter-frame similarity",
    )
    table.add_row("full extraction (keyframe)", f"{full:.2f}",
                  f"{safe_rate(full):.2f}")
    mean_warp = sum(warps) / len(warps)
    table.add_row("warp frames", f"{mean_warp:.3f}",
                  f"{safe_rate(mean_warp):.1f}")
    table.show()
    register(benchmark, table.render)


def test_bench_reconstruct_256(benchmark, bench_talking):
    frame = bench_talking.frame(3)
    reconstructor = KeypointMeshReconstructor(resolution=256)
    benchmark.pedantic(
        reconstructor.reconstruct,
        args=(frame.body_state.pose,),
        rounds=1,
        iterations=1,
    )
