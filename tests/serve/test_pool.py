"""Tests for the process-parallel reconstruction pool."""

import os
import time

import numpy as np
import pytest

from repro.obs.clock import monotonic
from repro.avatar.reconstructor import KeypointMeshReconstructor
from repro.body.motion import talking, waving
from repro.errors import BackpressureError, PipelineError, ServingError
from repro.serve.pool import ReconstructionPool


def _shm_segments():
    """Names of the POSIX shared-memory segments currently mapped."""
    try:
        return {
            name for name in os.listdir("/dev/shm")
            if name.startswith("psm_")
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture(scope="module")
def poses():
    return [frame.pose for frame in talking(n_frames=3, seed=0).frames]


class TestRoundTrip:
    def test_pooled_meshes_match_sequential(self, poses):
        """Shared-memory transfer is exact: the pooled stream
        reproduces the sequential reconstructor's meshes bit for
        bit."""
        sequential = KeypointMeshReconstructor(resolution=48)
        expected = [
            sequential.reconstruct(pose=pose) for pose in poses
        ]
        with ReconstructionPool(workers=2) as pool:
            results = [
                pool.reconstruct("s", i, pose=pose, resolution=48)
                for i, pose in enumerate(poses)
            ]
        for got, want in zip(results, expected):
            assert np.array_equal(got.mesh.vertices,
                                  want.mesh.vertices)
            assert np.array_equal(got.mesh.faces, want.mesh.faces)
            assert got.field_evaluations == want.field_evaluations
        assert all(r.seconds > 0 for r in results)
        assert all(r.cpu_seconds > 0 for r in results)

    def test_interleaved_streams_match_solo(self, poses):
        """Workers keep no per-stream state: frames of several streams
        submitted interleaved, two of them pinned to one worker, give
        each frame's solo mesh and evaluation count byte for byte."""
        frames = {
            "a": poses,
            "b": [f.pose for f in waving(n_frames=3, seed=1).frames],
            "c": poses[::-1],
        }
        with ReconstructionPool(workers=2) as pool:
            jobs = [
                (s, i, pool.submit(s, i, pose=frames[s][i], resolution=48))
                for i in range(3)
                for s in ("a", "b", "c")
            ]
            assert pool.worker_for("a") == pool.worker_for("c")
            results = [(s, i, pool.result(job)) for s, i, job in jobs]
        for stream, i, got in results:
            want = KeypointMeshReconstructor(resolution=48).reconstruct(
                pose=frames[stream][i]
            )
            assert got.mesh.vertices.tobytes() == \
                want.mesh.vertices.tobytes()
            assert got.mesh.faces.tobytes() == want.mesh.faces.tobytes()
            assert got.field_evaluations == want.field_evaluations


class TestRouting:
    def test_sticky_least_loaded(self):
        with ReconstructionPool(workers=2) as pool:
            assert pool.worker_for("a") == 0
            assert pool.worker_for("b") == 1
            assert pool.worker_for("c") == 0
            assert pool.worker_for("d") == 1
            # Sticky: repeated lookups never migrate a stream.
            assert pool.worker_for("a") == 0
            assert pool.worker_for("b") == 1


class TestFailure:
    def test_worker_death_surfaces_frame_index(self, poses):
        """A crashed worker yields a typed error naming the in-flight
        frame — never a hang (the satellite regression)."""
        with ReconstructionPool(workers=1) as pool:
            pool.reconstruct("doomed", 0, pose=poses[0], resolution=32)
            pool.crash_worker(0)
            # Either the submit sees the corpse, or the queued job is
            # failed when the death is detected; both name the frame.
            with pytest.raises(PipelineError,
                               match=r"frame 7 of stream 'doomed'"):
                job = pool.submit("doomed", 7, pose=poses[0],
                                  resolution=32)
                pool.result(job)

    def test_submit_to_dead_worker_refused(self, poses):
        with ReconstructionPool(workers=1) as pool:
            pool.crash_worker(0, exit_code=3)
            pool._processes[0].join(timeout=10)
            with pytest.raises(PipelineError, match="dead"):
                pool.submit("s", 0, pose=poses[0], resolution=32)

    def test_unknown_job_id(self):
        with ReconstructionPool(workers=1) as pool:
            with pytest.raises(PipelineError, match="unknown job"):
                pool.result(12345)

    def test_closed_pool_refuses_submits(self, poses):
        pool = ReconstructionPool(workers=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(PipelineError, match="closed"):
            pool.submit("s", 0, pose=poses[0])

    def test_validation(self):
        with pytest.raises(PipelineError):
            ReconstructionPool(workers=0)
        with pytest.raises(PipelineError):
            ReconstructionPool(workers=1, job_timeout=0.0)

    def test_content_error_is_plain_pipeline_error(self, poses):
        """An exception raised *inside* the reconstruction (bad
        content) surfaces as the same plain PipelineError the
        in-process path would raise — concealable — and leaves the
        worker alive for the next frame."""
        with ReconstructionPool(workers=1) as pool:
            job = pool.submit("s", 0, pose=poses[0], resolution=4)
            with pytest.raises(PipelineError,
                               match="resolution") as excinfo:
                pool.result(job)
            assert not isinstance(excinfo.value, ServingError)
            # The worker survived and serves the corrected retry.
            result = pool.reconstruct("s", 1, pose=poses[0],
                                      resolution=32)
            assert result.mesh.num_vertices > 0

    def test_worker_death_is_a_serving_error(self, poses):
        with ReconstructionPool(workers=1) as pool:
            pool.crash_worker(0, exit_code=5)
            pool._processes[0].join(timeout=10)
            with pytest.raises(ServingError, match="dead"):
                pool.submit("s", 0, pose=poses[0], resolution=32)


class TestTimeout:
    def test_timeout_respawns_worker_and_fails_queued_jobs(self,
                                                           poses):
        """A wedged worker trips the job timeout as a typed
        ServingError, is terminated and respawned in place (streams
        keep their pinning), and its queued jobs fail typed instead of
        timing out one by one behind the wedge."""
        with ReconstructionPool(workers=1) as pool:
            pool.stall_worker(0, seconds=30.0)
            first = pool.submit("s", 3, pose=poses[0], resolution=32)
            second = pool.submit("s", 4, pose=poses[1], resolution=32)
            old_process = pool._processes[0]
            with pytest.raises(ServingError, match="timed out"):
                pool.result(first, timeout=0.3)
            # The queued job behind the wedge failed typed, naming
            # its frame — no second timeout wait.
            with pytest.raises(ServingError,
                               match="frame 4 of stream 's'"):
                pool.result(second)
            # Fresh process in the same slot; the stream stays pinned.
            assert pool._processes[0] is not old_process
            assert not old_process.is_alive()
            assert pool._processes[0].is_alive()
            assert pool.worker_for("s") == 0
            # The respawned worker serves the stream again.
            result = pool.reconstruct("s", 5, pose=poses[2],
                                      resolution=32)
            assert result.mesh.num_vertices > 0

    def test_closed_pool_refuses_results(self, poses):
        pool = ReconstructionPool(workers=1)
        job = pool.submit("s", 0, pose=poses[0], resolution=32)
        pool.close()
        with pytest.raises(ServingError, match="closed"):
            pool.result(job)


class TestCoalescing:
    def test_coalesced_output_byte_identical(self, poses):
        """Cross-stream batching changes *when* kernel calls happen,
        never *what* is computed: meshes and evaluation counts of a
        coalesced run match the sequential reconstructor byte for byte
        — while the batch metrics prove real coalescing occurred."""
        streams = ["a", "b", "c", "d"]
        expected = {}
        for stream in streams:
            sequential = KeypointMeshReconstructor(resolution=48)
            expected[stream] = [
                sequential.reconstruct(pose=pose) for pose in poses
            ]
        with ReconstructionPool(
            workers=1, coalesce_window=0.25, max_batch=8
        ) as pool:
            got = {stream: [] for stream in streams}
            for i, pose in enumerate(poses):
                jobs = [
                    (s, pool.submit(s, i, pose=pose, resolution=48))
                    for s in streams
                ]
                for stream, job in jobs:
                    got[stream].append(pool.result(job))
            coalesced = pool.metrics.value("serve.pool.batch.coalesced")
            size_hist = pool.metrics.histogram("serve.pool.batch.size")
        for stream in streams:
            for have, want in zip(got[stream], expected[stream]):
                assert np.array_equal(have.mesh.vertices,
                                      want.mesh.vertices)
                assert np.array_equal(have.mesh.faces, want.mesh.faces)
                assert have.field_evaluations == want.field_evaluations
        # The window plus the submit backlog guarantee real batches.
        assert coalesced > 0
        assert any(
            r.batch_size > 1 for rs in got.values() for r in rs
        )
        assert size_hist.count > 0

    def test_same_stream_jobs_never_coalesce(self, poses):
        """Two frames of one stream stay sequential (per-stream FIFO),
        so a backlog of a single stream yields solo dispatches only."""
        with ReconstructionPool(
            workers=1, coalesce_window=0.25, max_batch=8
        ) as pool:
            jobs = [
                pool.submit("solo-stream", i, pose=poses[i % len(poses)],
                            resolution=48)
                for i in range(3)
            ]
            results = [pool.result(job) for job in jobs]
            assert all(r.batch_size == 1 for r in results)
            assert pool.metrics.value("serve.pool.batch.coalesced") == 0
            assert pool.metrics.value("serve.pool.batch.solo") == 3

    def test_coalescing_disabled(self, poses):
        with ReconstructionPool(
            workers=1, coalesce=False, max_batch=8
        ) as pool:
            jobs = [
                pool.submit(f"s{i}", 0, pose=poses[0], resolution=32)
                for i in range(3)
            ]
            results = [pool.result(job) for job in jobs]
            assert all(r.batch_size == 1 for r in results)
            assert pool.metrics.value("serve.pool.batch.coalesced") == 0

    def test_bad_job_fails_alone_in_batch(self, poses):
        """A content-level failure coalesced with healthy jobs errs
        only its own stream; batchmates complete normally."""
        with ReconstructionPool(
            workers=1, coalesce_window=0.25, max_batch=8
        ) as pool:
            good = [
                pool.submit(f"ok{i}", 0, pose=poses[0], resolution=48)
                for i in range(2)
            ]
            bad = pool.submit("bad", 0, pose=poses[0], resolution=4)
            with pytest.raises(PipelineError, match="resolution"):
                pool.result(bad)
            for job in good:
                assert pool.result(job).mesh.num_vertices > 0

    def test_validation(self):
        with pytest.raises(PipelineError):
            ReconstructionPool(workers=1, coalesce_window=-0.1)
        with pytest.raises(PipelineError):
            ReconstructionPool(workers=1, max_batch=0)


class TestBackpressure:
    def test_per_stream_inflight_bound_is_typed(self, poses):
        """Past ``max_inflight_per_stream`` outstanding jobs, submit
        raises a typed BackpressureError instead of queueing without
        bound behind a slow worker (the satellite regression)."""
        with ReconstructionPool(
            workers=1, max_inflight_per_stream=2
        ) as pool:
            pool.stall_worker(0, 1.5)
            jobs = [
                pool.submit("s", i, pose=poses[0], resolution=32)
                for i in range(2)
            ]
            assert pool.stream_inflight("s") == 2
            assert pool.inflight == 2
            with pytest.raises(BackpressureError, match="'s'"):
                pool.submit("s", 2, pose=poses[0], resolution=32)
            # Typed and ordered: BackpressureError is a ServingError
            # (infrastructure, not content).
            assert issubclass(BackpressureError, ServingError)
            assert pool.metrics.value("serve.pool.backpressure") == 1
            # Another stream is not punished for this stream's
            # backlog.
            other = pool.submit("t", 0, pose=poses[0], resolution=32)
            # Draining restores headroom: once results are reaped the
            # stream submits again.
            for job in jobs:
                pool.result(job)
            assert pool.stream_inflight("s") == 0
            retry = pool.submit("s", 2, pose=poses[0], resolution=32)
            pool.result(retry)
            pool.result(other)

    def test_unbounded_legacy_mode(self, poses):
        with ReconstructionPool(
            workers=1, max_inflight_per_stream=None
        ) as pool:
            jobs = [
                pool.submit("s", i, pose=poses[0], resolution=32)
                for i in range(8)
            ]
            for job in jobs:
                pool.result(job)

    def test_validation(self):
        with pytest.raises(PipelineError, match="max_inflight"):
            ReconstructionPool(workers=1, max_inflight_per_stream=0)


class TestHeal:
    def test_ensure_workers_respawns_dead_slots(self, poses):
        """The gateway's heal path: a dead worker slot is respawned in
        place, after which the streams pinned to it submit again."""
        with ReconstructionPool(workers=2) as pool:
            pool.reconstruct("a", 0, pose=poses[0], resolution=32)
            pool.crash_worker(0, exit_code=9)
            pool._processes[0].join(timeout=10)
            assert pool.ensure_workers() == 1
            assert pool._processes[0].is_alive()
            # Sticky pinning survives the respawn.
            assert pool.worker_for("a") == 0
            result = pool.reconstruct("a", 1, pose=poses[0],
                                      resolution=32)
            assert result.worker == 0
            # Healthy pool: a no-op.
            assert pool.ensure_workers() == 0

    def test_ensure_workers_fails_in_flight_jobs_typed(self, poses):
        with ReconstructionPool(workers=1) as pool:
            pool.reconstruct("a", 0, pose=poses[0], resolution=32)
            job = pool.submit("a", 1, pose=poses[0], resolution=32)
            pool.crash_worker(0)
            pool._processes[0].join(timeout=10)
            pool.ensure_workers()
            # The in-flight job either finished before the crash
            # landed or resolves as a typed ServingError; never a
            # hang.
            try:
                pool.result(job, timeout=10.0)
            except ServingError:
                pass

    def test_closed_pool_refuses_heal(self):
        pool = ReconstructionPool(workers=1)
        pool.close()
        with pytest.raises(ServingError, match="closed"):
            pool.ensure_workers()


class TestSharedMemoryHygiene:
    def test_close_reaps_in_flight_results(self, poses):
        """A result nobody collects — submitted, completed, then the
        pool is closed — must not leak its /dev/shm segment: close()
        drains the response queue and unlinks abandoned segments."""
        before = _shm_segments()
        pool = ReconstructionPool(workers=1)
        job = pool.submit("s", 0, pose=poses[0], resolution=32)
        # Let the worker finish and flush the shared-memory reply
        # without ever calling result().
        deadline = monotonic() + 30.0
        while monotonic() < deadline and \
                pool._responses.empty():
            time.sleep(0.05)
        pool.close()
        assert job not in pool._done
        assert not pool._abandoned
        leaked = _shm_segments() - before
        assert leaked == set()
