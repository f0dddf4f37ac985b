"""Tests of the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
os.environ.setdefault(
    "REPRO_KERNEL_CACHE", str(ROOT / ".perfbench_cache" / "kernels")
)

import inputs  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- statistics ------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert measure.samples_needed(75) == 40
    assert measure.samples_needed(50) == 20
    assert measure.samples_needed(90) == 100
    assert not measure.has_tail(39, 75)
    assert measure.has_tail(40, 75)
    with pytest.raises(ValueError):
        measure.samples_needed(100)


def test_percentile_interpolates_linearly():
    assert measure.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert measure.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75) == 4.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_self_time_subtracts_direct_children():
    assert measure.self_time(1.0, [0.25, 0.5]) == 0.25
    assert measure.self_time(2.0, []) == 2.0


# -- the layer probe -------------------------------------------------


def _ticking(monkeypatch, *times):
    ticks = iter(times)
    monkeypatch.setattr(layers, "wall", lambda: next(ticks))


def test_probe_self_time_is_duration_minus_children(monkeypatch):
    probe = layers.LayerProbe()
    # outer starts 0, inner runs 1..4, outer ends 10
    _ticking(monkeypatch, 0.0, 1.0, 4.0, 10.0)
    inner = probe._wrap("keypoints.fit", "fit", lambda: "fit")
    outer = probe._wrap("core.session", "step", lambda: inner())
    assert outer() == "fit"
    assert probe.seconds["core.session"] == 10.0
    assert probe.self_seconds["core.session"] == 7.0
    assert probe.seconds["keypoints.fit"] == 3.0
    assert probe.self_seconds["keypoints.fit"] == 3.0
    assert probe.calls == {"core.session": 1, "keypoints.fit": 1}


def test_probe_counts_a_reentered_layer_once(monkeypatch):
    probe = layers.LayerProbe()
    _ticking(monkeypatch, 0.0, 1.0, 2.0, 5.0)
    inner = probe._wrap("geometry.kernel", "evaluate_batch", lambda: 1)
    outer = probe._wrap("geometry.kernel", "evaluate_packed",
                        lambda: inner())
    outer()
    assert probe.seconds["geometry.kernel"] == 5.0
    assert probe.calls["geometry.kernel"] == 1


def test_probe_restores_every_target():
    before = [getattr(owner, attr) for _, owner, attr in layers.TARGETS]
    with layers.LayerProbe():
        patched = [getattr(owner, attr) for _, owner, attr in layers.TARGETS]
    after = [getattr(owner, attr) for _, owner, attr in layers.TARGETS]
    assert all(a is not b for a, b in zip(before, patched))
    assert all(a is b for a, b in zip(before, after))


# -- metric names ----------------------------------------------------


def test_spec_follows_the_naming_rules():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for key in ("end_to_end", "per_layer") for m in SPEC[key])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def test_end_to_end_metrics_match_the_spec():
    timed = {"latencies": [0.1 * i for i in range(1, 41)],
             "fresh": [True] * 40, "elapsed": 4.0, "cpu": 2.0,
             "wire": 800 * 10, "sender_frames": 10}
    metrics = run.end_to_end_metrics(timed, [0.5, 1.5], [0.2, 0.1, 0.3])
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert metrics["frame_p50_ms"] == pytest.approx(2050.0)
    assert metrics["frames_per_s"] == 10.0
    assert metrics["cpu_ms_per_frame"] == 50.0
    assert metrics["wire_bytes_per_frame"] == 800.0
    assert metrics["surface_error_mm"] == 1.0
    assert metrics["setup_s"] == 0.2


def test_per_layer_metrics_match_the_spec():
    counters = dict.fromkeys(
        layers.COUNTERS + ("batch_count", "batch_sum"), 0.0
    )
    metrics = layers.layer_metrics(
        layers.LayerProbe(), sender_frames=1, window_s=1.0,
        counters=counters, workers=0,
    )
    extra = {"host.calibration_ms", "host.steal_share", "trace.overhead_pct"}
    assert set(metrics) | extra == {m["name"] for m in SPEC["per_layer"]}


# -- inputs ----------------------------------------------------------


def test_pingpong_replays_without_jumps():
    assert [inputs.pingpong(i, 4) for i in range(8)] == [
        0, 1, 2, 3, 2, 1, 0, 1,
    ]
    assert inputs.pingpong(5, 1) == 0


def test_render_parts_cover_every_frame_once():
    frames = [i for part in inputs.parts() for i in part]
    assert frames == list(range(inputs.FRAMES))
    assert len(inputs.parts()) == inputs.RENDER_PROCESSES


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "edge-4x-r128", "--seed", "1",
                     "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


# -- tiny-size smoke runs of every workload ----------------------------


@pytest.fixture(scope="module")
def tiny():
    """Three frames per sender, every workload at resolution 32."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inputs, "FRAMES", 3)
        arrays = inputs.render_workload("edge-4x-r128", seed=1)
        patch.setattr(workloads, "RESOLUTION",
                      dict.fromkeys(workloads.RESOLUTION, 32))
        patch.setattr(workloads, "WEBINAR_RECEIVERS", 6)
        yield arrays


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_and_checks(tiny, name, trace):
    result = run.run(name, 1, 0.5, trace, tiny, run._load_spec())
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())
