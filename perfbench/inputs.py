"""Benchmark inputs: pre-rendered capture frames, cached per sender.

Rendering a synthetic multi-view capture costs far more than encoding
it, so the frames a workload replays are rendered once, in child
processes (``RENDER_PROCESSES`` of them, each sender's frames split
between them), and cached under the checkout's ``.perfbench_cache``
directory.  The benchmark process then holds only what the sender
reads — depth maps, keypoints, expression coefficients — so its
``setup_s`` measures the program, not the renderer.

Frames are rendered exactly as the program captures them by default:
``CaptureRig.ring()`` (four 320x240 cameras, Kinect depth noise) and
``RGBDSequenceDataset`` (4 splats per pixel), with the motion sampled
at the rate the session replays it.

The render processes also compile (or load) the C capsule kernel into
the benchmark's own kernel cache, so set-up always measures a load.

Run as a script to render frames 0-7 of one sender::

    python3 perfbench/inputs.py --seed 3 --job talking 0 0 8 f.npz
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

import numpy as np

# Distinct capture frames per sender; the replay ping-pongs over them
# (0..F-1..1) so consecutive frames stay temporally continuous.
FRAMES = 16
# Capture rate of the rendered motion, the session and the link alike.
FPS = 30.0
# Render processes run at once (one per core of a 2-vCPU host).
RENDER_PROCESSES = 2
# Bumped whenever the generated content changes, so stale cache files
# are never reused.
VERSION = 3

SENDERS: Dict[str, Sequence[str]] = {
    "edge-4x-r128": ("talking", "presenting", "waving", "walking"),
    "webinar-100x-r128": ("talking",),
}


def sender_seed(seed: int, slot: int) -> int:
    """Capture-noise seed of one sender of a workload (distinct per
    slot)."""
    return 1000 * seed + 17 * slot + 1


def cache_dir(root: Path) -> Path:
    return root / ".perfbench_cache"


def input_path(root: Path, kind: str, slot: int, seed: int,
               first: int) -> Path:
    """Frames ``first``.. of one sender.  The file depends only on the
    motion, the slot and the seed, so workloads that share a sender
    share it."""
    return (cache_dir(root) / "inputs"
            / f"{kind}{slot}-s{seed}-f{first}-v{VERSION}.npz")


def parts() -> List[range]:
    """Each sender's frames in ``RENDER_PROCESSES`` ranges, so that
    even a one-sender workload renders on every core."""
    step = -(-FRAMES // RENDER_PROCESSES)
    return [range(first, min(first + step, FRAMES))
            for first in range(0, FRAMES, step)]


def _motion(kind: str, slot: int):
    """The motion of one sender slot.  It does not depend on the
    benchmark seed: a seed-dependent motion phase moved the field
    evaluations per frame by about 9% between seeds, which the
    end-to-end metrics would report as noise."""
    from repro.body import motion

    return getattr(motion, kind)(n_frames=FRAMES, fps=FPS, seed=slot)


def render(kind: str, slot: int, seed: int,
           frames: Optional[Sequence[int]] = None) -> Dict[str, np.ndarray]:
    """Render ``frames`` (default: all) of one sender (this is the slow
    part)."""
    from repro.body.model import BodyModel
    from repro.capture.dataset import RGBDSequenceDataset

    dataset = RGBDSequenceDataset(
        model=BodyModel(), motion=_motion(kind, slot),
        seed=sender_seed(seed, slot),
    )
    depth, keypoints, expression = [], [], []
    for index in range(FRAMES) if frames is None else frames:
        frame = dataset.frame(index)
        depth.append(np.stack([v.depth for v in frame.views]))
        keypoints.append(frame.body_state.keypoints)
        expression.append(frame.body_state.expression.coefficients)
    return {
        # float32 storage halves the cache; its 0.2 um rounding at 2 m
        # is far below the sensor noise model's millimetres.
        "depth": np.asarray(depth, dtype=np.float32),
        "keypoints": np.asarray(keypoints),
        "expression": np.asarray(expression),
    }


def render_workload(workload: str, seed: int) -> Dict[str, np.ndarray]:
    """Every sender of ``workload``, rendered in this process and
    loaded as :func:`ensure_inputs` loads it."""
    arrays: Dict[str, np.ndarray] = {}
    for slot, kind in enumerate(SENDERS[workload]):
        for name, value in render(kind, slot, seed).items():
            arrays[f"{name}{slot}"] = value
        arrays[f"depth{slot}"] = arrays[f"depth{slot}"].astype(np.float64)
    return arrays


def generate(seed: int, jobs) -> None:
    """Render and save each ``(kind, slot, first, stop, out)`` job."""
    from repro.geometry.capsule_kernel import kernel_available

    kernel_available()  # compile into the benchmark's kernel cache
    for kind, slot, first, stop, out in jobs:
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        arrays = render(kind, int(slot), seed, range(int(first), int(stop)))
        tmp = out.with_name(out.name + f".{os.getpid()}.tmp.npz")
        np.savez(tmp, **arrays)
        os.replace(tmp, out)


def ensure_inputs(root: Path, workload: str, seed: int,
                  env) -> Dict[str, np.ndarray]:
    """Every sender's frames of ``workload``, rendering the missing
    ones in ``RENDER_PROCESSES`` child processes."""
    paths = {
        slot: [(frames, input_path(root, kind, slot, seed, frames.start))
               for frames in parts()]
        for slot, kind in enumerate(SENDERS[workload])
    }
    missing = [
        ["--job", kind, str(slot), str(frames.start), str(frames.stop),
         str(path)]
        for slot, kind in enumerate(SENDERS[workload])
        for frames, path in paths[slot]
        if not path.exists()
    ]
    running: List[subprocess.Popen] = []
    try:
        for share in range(RENDER_PROCESSES):
            jobs = missing[share::RENDER_PROCESSES]
            if jobs:
                running.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--seed", str(seed)] + sum(jobs, []),
                    env=env, cwd=str(root), stdout=subprocess.DEVNULL,
                ))
        for child in running:
            if child.wait() != 0:
                raise RuntimeError(f"rendering inputs failed: {child.args}")
    finally:
        for child in running:
            if child.poll() is None:
                child.kill()
                child.wait()
    arrays: Dict[str, np.ndarray] = {}
    for slot, files in paths.items():
        loaded = []
        for _, path in files:
            with np.load(path) as data:
                loaded.append({name: data[name] for name in data.files})
        for name in loaded[0]:
            arrays[f"{name}{slot}"] = np.concatenate(
                [part[name] for part in loaded])
        # The renderer's dtype, so the sender computes as on a capture.
        arrays[f"depth{slot}"] = arrays[f"depth{slot}"].astype(np.float64)
    return arrays


class CapturedSequence:
    """The sender's capture, replayed from pre-rendered arrays.

    Duck-types :class:`repro.capture.RGBDSequenceDataset` for the
    sessions: ``len``, ``fps`` and ``frame(index)``.  Virtual frame
    ``i`` replays stored frame ``pingpong(i)`` with a fresh monotone
    timestamp.  ``frame`` stamps ``handed_at`` — the moment the
    benchmark hands the sender its frame, where receiver-frame latency
    starts.

    ``jitter`` (metres) perturbs the keypoints the detector sees,
    seeded by ``(seed, slot, i)``, so that a replayed frame never
    reproduces an earlier detection bit for bit even when the sender's
    noise generator was reset in between.
    """

    def __init__(self, arrays, slot: int, seed: int, jitter: float = 0.0,
                 length: int = 10 ** 6):
        from repro.capture.rig import CaptureRig
        from repro.obs.clock import perf_counter

        self._clock = perf_counter
        self._depth = arrays[f"depth{slot}"]
        self._keypoints = arrays[f"keypoints{slot}"]
        self._expression = arrays[f"expression{slot}"]
        self._cameras = list(CaptureRig.ring().cameras)
        h, w = self._depth.shape[2:]
        self._blank_rgb = np.broadcast_to(np.zeros(1), (h, w, 3))
        self._length = length
        self._seed = (seed, slot)
        self._jitter = jitter
        self.handed_at = 0.0

    def __len__(self) -> int:
        return self._length

    @property
    def fps(self) -> float:
        return FPS

    def frame(self, index: int):
        from repro.body.expression import ExpressionParams
        from repro.capture.render import RGBDFrame

        self.handed_at = self._clock()
        stored = pingpong(index, len(self._depth))
        keypoints = self._keypoints[stored]
        if self._jitter:
            keypoints = keypoints + np.random.default_rng(
                (*self._seed, index)
            ).normal(0.0, self._jitter, keypoints.shape)
        timestamp = index / FPS
        views: List[RGBDFrame] = [
            RGBDFrame(
                depth=depth, rgb=self._blank_rgb, camera=camera,
                timestamp=timestamp,
            )
            for depth, camera in zip(self._depth[stored], self._cameras)
        ]
        return SimpleNamespace(
            index=index,
            timestamp=timestamp,
            views=views,
            body_state=SimpleNamespace(
                keypoints=keypoints,
                expression=ExpressionParams(
                    coefficients=self._expression[stored]
                ),
            ),
        )


def pingpong(index: int, count: int) -> int:
    """0, 1, ..., count-1, count-2, ..., 1, 0, 1, ... (period 2count-2)."""
    if count <= 1:
        return 0
    period = 2 * count - 2
    phase = index % period
    return phase if phase < count else period - phase


def _main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--job", nargs=5, action="append", required=True,
                        metavar=("KIND", "SLOT", "FIRST", "STOP", "OUT"))
    args = parser.parse_args()
    generate(args.seed, args.job)


if __name__ == "__main__":
    _main()
