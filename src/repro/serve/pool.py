"""Process-parallel mesh reconstruction with shared-memory transfer.

The receiver-side hot path (:meth:`repro.avatar.reconstructor.
KeypointMeshReconstructor.reconstruct`) is CPU-bound NumPy, so a
thread pool gains nothing; this pool fans frames across worker
*processes* instead.  Three properties matter for correctness and
throughput:

* **Sticky streams.**  Each job builds its reconstructor from the job's
  config, so a worker holds no per-stream state.  Streams are still
  pinned to workers on first sight, least-loaded first: one stream's
  frames then leave its worker's queue in the order they were
  submitted, and routing is deterministic and balanced.
* **Shared-memory results.**  A reconstructed mesh at resolution 256+
  is hundreds of KB of vertex/face data per frame; workers return it
  through :mod:`multiprocessing.shared_memory` segments the parent
  copies out and unlinks, instead of pickling arrays through a pipe.
* **Typed failure, never a hang.**  Infrastructure failures — a worker
  that dies (OOM-kill, segfault), a wedged worker tripping the job
  timeout, a closed pool — surface as
  :class:`repro.errors.ServingError` naming the in-flight frame; an
  exception *inside* a reconstruction (bad content) surfaces as the
  plain :class:`repro.errors.PipelineError` the in-process path would
  raise, so sessions can conceal it.  A timed-out worker is terminated
  and respawned in place (streams keep their pinning), and every shared-memory segment a worker produced is
  copied-or-unlinked exactly once — including results that arrive
  after their job was abandoned by a timeout or ``close``.
* **Cross-stream batching.**  When several *different* streams with
  the same reconstructor config are queued on one worker, the worker
  coalesces them (up to ``max_batch``, waiting at most
  ``coalesce_window`` seconds for stragglers) and reconstructs them
  together: each job runs in its own thread, and a combining barrier
  (:class:`_FieldBatchCoordinator`) merges the concurrent implicit-
  field queries into single ragged calls through
  :func:`repro.geometry.sdf.evaluate_batch`, amortizing per-call
  kernel overhead across streams.  Every stream still runs its own
  solo arithmetic — the batch only changes *when* kernel invocations
  happen — so coalesced meshes are byte-identical to uncoalesced
  ones, and per-stream FIFO order is preserved (two jobs of one
  stream never share a batch; a control message or incompatible job
  pulled during collection is stashed and handled right after the
  batch, never before it).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.body.expression import ExpressionParams
from repro.body.pose import BodyPose
from repro.body.shape import ShapeParams
from repro.errors import BackpressureError, PipelineError, ServingError
from repro.geometry.mesh import TriangleMesh
from repro.obs.clock import monotonic, perf_counter
from repro.obs.registry import MetricsRegistry

__all__ = ["PoolResult", "ReconstructionPool"]

_VERTEX_BYTES = 24  # 3 × float64
_FACE_BYTES = 24    # 3 × int64

# serve.pool.batch.size histogram bounds: powers of two around the
# default max_batch, so bucket counts read directly as batch sizes.
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@dataclass
class PoolResult:
    """One pooled reconstruction, as observed by the parent.

    Attributes:
        mesh: the reconstructed surface (copied out of shared memory).
        seconds: worker-measured wall-clock reconstruction time.
        cpu_seconds: worker-measured CPU time for the reconstruction —
            the basis of the serving throughput model.  Wall-clock is
            inflated by timesharing when workers outnumber cores (the
            CI case); CPU time is what each worker would take with a
            core of its own.
        field_evaluations: implicit-field evaluations performed.
        worker: index of the worker that served the job.
        spans: worker-side span records (name/start/end in the worker's
            clock domain, plus worker identity) for re-parenting under
            the consuming frame's trace.
        batch_size: how many stream jobs shared the worker dispatch
            that produced this result (1 = solo, no coalescing).
    """

    mesh: TriangleMesh
    seconds: float
    cpu_seconds: float
    field_evaluations: int
    worker: int
    spans: Tuple[Dict[str, object], ...] = ()
    batch_size: int = 1


class _FieldBatchCoordinator:
    """Combining barrier that merges concurrent field queries.

    ``parties`` reconstruction threads run one coalesced batch.  Each
    thread's implicit-field evaluation lands here as a ``(sdf,
    points)`` problem and blocks; once every thread still working has
    a problem parked (threads that finished their whole job ``leave``
    and stop being counted), the last arrival executes all parked
    problems as one :func:`repro.geometry.sdf.evaluate_batch` call and
    wakes the others.  Each problem keeps its own solo arithmetic, so
    values are bit-identical to unbatched evaluation; only the FFI
    crossings are shared.
    """

    def __init__(self, parties: int) -> None:
        self._cond = threading.Condition()
        self._active = parties
        self._waiting: List[_BatchSlot] = []

    def evaluate(self, problem) -> np.ndarray:
        slot = _BatchSlot(problem)
        with self._cond:
            self._waiting.append(slot)
            if len(self._waiting) >= self._active:
                self._flush_locked()
            else:
                self._cond.wait_for(lambda: slot.done)
        if slot.error is not None:
            raise slot.error
        return slot.value

    def leave(self) -> None:
        """A thread finished its job: stop waiting on it.  If every
        remaining thread is already parked, the batch flushes now."""
        with self._cond:
            self._active -= 1
            if self._waiting and len(self._waiting) >= self._active:
                self._flush_locked()

    def _flush_locked(self) -> None:
        from repro.geometry.sdf import evaluate_batch

        slots, self._waiting = self._waiting, []
        try:
            values = evaluate_batch([s.problem for s in slots])
            for slot, value in zip(slots, values):
                slot.value = value
                slot.done = True
        except Exception as exc:  # pragma: no cover - defensive
            for slot in slots:
                slot.error = exc
                slot.done = True
        self._cond.notify_all()


class _BatchSlot:
    __slots__ = ("problem", "value", "error", "done")

    def __init__(self, problem) -> None:
        self.problem = problem
        self.value = None
        self.error = None
        self.done = False


class _BatchedField:
    """Arithmetic-transparent SDF proxy installed as the
    reconstructor's ``field_hook`` during coalesced execution: queries
    go through the batch coordinator (pre-warped into a packable
    kernel problem when the field supports it) instead of straight to
    the field."""

    def __init__(self, coordinator: _FieldBatchCoordinator, fld) -> None:
        self._coordinator = coordinator
        self._fld = fld

    def __call__(self, points: np.ndarray) -> np.ndarray:
        problem = None
        kernel_problem = getattr(self._fld, "kernel_problem", None)
        if kernel_problem is not None:
            problem = kernel_problem(points)
        if problem is None:
            problem = (self._fld, points)
        return self._coordinator.evaluate(problem)


def _worker_main(
    worker_id: int,
    requests,
    responses,
    coalesce: bool = False,
    coalesce_window: float = 0.0,
    max_batch: int = 1,
) -> None:
    """Worker loop: one fresh reconstructor per job, built from the
    job's config tuple."""
    # Imported here so the module stays importable without triggering
    # the avatar stack at parent import time.
    from repro.avatar.reconstructor import KeypointMeshReconstructor
    from repro.avatar.store import arena_views, repose_vertices
    from repro.gaze.lod import GazeDepthBudget

    # Canonical-avatar arenas this worker has attached, by segment
    # name: every repose job of one identity reads the same mapping —
    # one attach, N zero-copy reads.  The store (parent) owns the
    # segments; attachments are read-only and never unlink.
    arenas: Dict[str, tuple] = {}

    def build_reconstructor(config, gaze):
        resolution, expression_channels, blend, octree_base = config
        reconstructor = KeypointMeshReconstructor(
            resolution=resolution,
            expression_channels=expression_channels,
            blend=blend,
            octree_base=octree_base,
        )
        # The gaze budget rides per *job*, not in the config: two
        # streams looking different ways still share a coalesced
        # dispatch.
        reconstructor.set_depth_budget(
            None if gaze is None else GazeDepthBudget.from_wire(gaze)
        )
        return reconstructor

    def decode_params(pose_blob, shape_blob, expr_blob):
        pose = BodyPose.from_flat(
            np.frombuffer(pose_blob, dtype="<f8")
        )
        shape = (
            None
            if shape_blob is None
            else ShapeParams(
                betas=np.frombuffer(shape_blob, dtype="<f8")
            )
        )
        expression = (
            None
            if expr_blob is None
            else ExpressionParams(
                coefficients=np.frombuffer(expr_blob, dtype="<f8")
            )
        )
        return pose, shape, expression

    def ship_err(job_id, exc):
        responses.put(
            (
                "err",
                job_id,
                worker_id,
                f"{type(exc).__name__}: {exc}",
                # Content-level failures (the reconstruction itself
                # rejected the input) must stay concealable, i.e.
                # plain PipelineError in the parent; anything else
                # is an infrastructure-grade surprise.
                isinstance(exc, PipelineError),
            )
        )

    def ship_ok(job_id, stream, frame_index, result, cpu_seconds,
                span_start, span_end, batch_size, batch_leader,
                batch_streams):
        # Span records in the *worker's* clock domain; the parent
        # re-parents them under the consuming frame's trace
        # (Tracer.attach_worker_spans rebases the timestamps).
        spans = [
            {
                "name": "worker_reconstruct",
                "start": span_start,
                "end": span_end,
                "worker": worker_id,
                "pid": os.getpid(),
                "stream": stream,
                "frame_index": frame_index,
            },
        ]
        if batch_size > 1:
            spans.append(
                {
                    "name": "worker_batch",
                    "start": span_start,
                    "end": span_end,
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "stream": stream,
                    "batch_size": batch_size,
                    "batch_leader": bool(batch_leader),
                    "batch_streams": ",".join(batch_streams),
                },
            )
        # Octree refinement-level and polygonisation spans recorded by
        # the extractor; they already carry a "kind" override so the
        # parent's tracer attributes time to individual levels.
        for record in getattr(result, "extract_spans", ()):
            spans.append(
                {
                    **record,
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "stream": stream,
                    "frame_index": frame_index,
                }
            )
        mesh = result.mesh
        nv, nf = mesh.num_vertices, mesh.num_faces
        size = max(nv * _VERTEX_BYTES + nf * _FACE_BYTES, 1)
        shm = SharedMemory(create=True, size=size)
        shm.buf[: nv * _VERTEX_BYTES] = np.ascontiguousarray(
            mesh.vertices, dtype="<f8"
        ).tobytes()
        shm.buf[
            nv * _VERTEX_BYTES: nv * _VERTEX_BYTES + nf * _FACE_BYTES
        ] = np.ascontiguousarray(mesh.faces, dtype="<i8").tobytes()
        name = shm.name
        shm.close()
        # Ownership transfers to the parent (which copies the
        # arrays out and unlinks); unregister here so the worker's
        # resource tracker does not report the segment as leaked.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(
                f"/{name}" if not name.startswith("/") else name,
                "shared_memory",
            )
        except Exception:  # pragma: no cover
            pass
        responses.put(
            (
                "ok",
                job_id,
                worker_id,
                name,
                nv,
                nf,
                result.seconds,
                cpu_seconds,
                result.field_evaluations,
                tuple(spans),
                batch_size,
                batch_leader,
            )
        )

    def run_solo(message):
        (_, job_id, stream, frame_index, config,
         pose_blob, shape_blob, expr_blob, gaze) = message
        try:
            reconstructor = build_reconstructor(config, gaze)
            pose, shape, expression = decode_params(
                pose_blob, shape_blob, expr_blob
            )
            cpu_start = time.thread_time()
            span_start = perf_counter()
            result = reconstructor.reconstruct(
                pose=pose, shape=shape, expression=expression
            )
            span_end = perf_counter()
            cpu_seconds = time.thread_time() - cpu_start
            ship_ok(job_id, stream, frame_index, result, cpu_seconds,
                    span_start, span_end, 1, True, ())
        except Exception as exc:  # surface, don't kill the worker
            ship_err(job_id, exc)

    def attach_arena(name, nv, nf, k):
        held = arenas.get(name)
        if held is not None:
            return held[1]
        try:
            shm = SharedMemory(name=name)
        except FileNotFoundError:
            # The parent evicted the identity between submit and
            # execution — a content-level refusal the session can
            # conceal (the next frame misses the store and
            # re-extracts), not an infrastructure failure.
            raise PipelineError(
                f"canonical avatar arena {name!r} is gone "
                "(evicted or store closed)"
            )
        # Attaching re-registers the segment with the resource
        # tracker, but pool workers inherit the *parent's* tracker
        # (both fork and spawn ship ``tracker_fd`` in the preparation
        # data), so the registration set already holds the name from
        # the store's create: a no-op.  Crucially we must NOT
        # unregister here — that would cancel the store's own
        # registration and turn its later ``unlink`` into a tracker
        # KeyError.  Worker death therefore never reclaims an arena;
        # only the owning store unlinks.
        views = arena_views(shm.buf, nv, nf, k)
        arenas[name] = (shm, views)
        return views

    def run_repose(message):
        """Pose-delta-only reconstruction: LBS of the shared canonical
        mesh — zero field evaluations, no extractor."""
        (_, job_id, stream, frame_index, _config,
         pose_blob, shape_blob, arena, nv, nf, k) = message
        try:
            views = attach_arena(arena, nv, nf, k)
            pose, shape, _ = decode_params(pose_blob, shape_blob, None)
            cpu_start = time.thread_time()
            span_start = perf_counter()
            warped = repose_vertices(
                views["vertices"],
                views["indices"],
                views["weights"],
                views["inverse_transforms"],
                pose,
                shape,
            )
            mesh = TriangleMesh(
                vertices=warped, faces=np.array(views["faces"])
            )
            span_end = perf_counter()
            cpu_seconds = time.thread_time() - cpu_start
            result = SimpleNamespace(
                mesh=mesh,
                seconds=span_end - span_start,
                field_evaluations=0,
            )
            ship_ok(job_id, stream, frame_index, result, cpu_seconds,
                    span_start, span_end, 1, True, ())
        except Exception as exc:
            ship_err(job_id, exc)

    def run_coalesced(batch):
        # Per-job preparation happens on the worker's main thread, each
        # job's failures charged to that job alone — a bad config in
        # one stream must not fail its batchmates.
        prepared = []
        for message in batch:
            (_, job_id, stream, frame_index, config,
             pose_blob, shape_blob, expr_blob, gaze) = message
            try:
                reconstructor = build_reconstructor(config, gaze)
                params = decode_params(pose_blob, shape_blob, expr_blob)
                prepared.append(
                    (job_id, stream, frame_index, reconstructor, params)
                )
            except Exception as exc:
                ship_err(job_id, exc)
        if not prepared:
            return
        coordinator = _FieldBatchCoordinator(len(prepared))
        outcomes = [None] * len(prepared)

        def run_one(index, entry):
            job_id, stream, frame_index, reconstructor, params = entry
            pose, shape, expression = params
            try:
                # The job's own reconstructor: no other thread sees
                # the hook.
                reconstructor.field_hook = (
                    lambda fld: _BatchedField(coordinator, fld)
                )
                # thread_time, not process_time: each job charges only
                # the CPU its own thread burned (the shared kernel call
                # lands on whichever thread flushed the barrier).
                cpu_start = time.thread_time()
                span_start = perf_counter()
                result = reconstructor.reconstruct(
                    pose=pose, shape=shape, expression=expression
                )
                span_end = perf_counter()
                cpu_seconds = time.thread_time() - cpu_start
                outcomes[index] = (
                    "ok", result, cpu_seconds, span_start, span_end
                )
            except Exception as exc:
                outcomes[index] = ("err", exc)
            finally:
                coordinator.leave()

        threads = [
            threading.Thread(
                target=run_one, args=(i, entry), daemon=True
            )
            for i, entry in enumerate(prepared)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        batch_streams = tuple(entry[1] for entry in prepared)
        for i, entry in enumerate(prepared):
            job_id, stream, frame_index = entry[:3]
            outcome = outcomes[i]
            if outcome is None or outcome[0] == "err":
                ship_err(
                    job_id,
                    outcome[1] if outcome else
                    RuntimeError("batch thread died"),
                )
            else:
                _, result, cpu_seconds, span_start, span_end = outcome
                ship_ok(job_id, stream, frame_index, result,
                        cpu_seconds, span_start, span_end,
                        len(prepared), i == 0, batch_streams)

    pending = None
    while True:
        if pending is not None:
            message, pending = pending, None
        else:
            message = requests.get()
        kind = message[0]
        if kind == "stop":
            return
        if kind == "crash":
            # Test hook: die like a segfaulted/OOM-killed worker,
            # without cleaning up shared-memory segments.  The response queue IS flushed first: its
            # write lock is shared with every surviving worker, and
            # dying between the feeder thread's send and its lock
            # release (a single-core scheduler makes that window
            # wide — the parent wakes on the send and can deliver
            # this crash before the feeder runs again) would wedge
            # all future results, which is not the failure mode the
            # hook exists to inject.
            responses.close()
            responses.join_thread()
            os._exit(message[1])
        if kind == "stall":
            # Test hook: wedge the worker for a while, like a job
            # stuck in a pathological reconstruction.
            time.sleep(message[1])
            continue
        if kind == "repose":
            run_repose(message)
            continue
        if kind != "job":
            continue
        batch = [message]
        if coalesce and max_batch > 1:
            # Coalesce compatible queued jobs: same reconstructor
            # config, each from a *different* stream (two jobs of one
            # stream stay sequential, in FIFO order).  The first
            # control message or incompatible job ends collection and
            # is stashed so it is handled right after this batch —
            # queue order between a stream's jobs is preserved.
            streams = {message[2]}
            config = message[4]
            deadline = monotonic() + coalesce_window
            while len(batch) < max_batch:
                try:
                    if coalesce_window > 0:
                        remaining = deadline - monotonic()
                        if remaining > 0:
                            extra = requests.get(timeout=remaining)
                        else:
                            extra = requests.get_nowait()
                    else:
                        extra = requests.get_nowait()
                except queue.Empty:
                    break
                if (
                    extra[0] == "job"
                    and extra[2] not in streams
                    and extra[4] == config
                ):
                    batch.append(extra)
                    streams.add(extra[2])
                else:
                    pending = extra
                    break
        if len(batch) == 1:
            run_solo(batch[0])
        else:
            run_coalesced(batch)


class ReconstructionPool:
    """A pool of reconstruction worker processes.

    Args:
        workers: worker process count (>= 1).
        job_timeout: default seconds to wait for one job's result.
        start_method: ``multiprocessing`` start method (``None`` =
            platform default).
        coalesce: let a worker batch compatible queued jobs of
            *different* streams into one cross-stream kernel dispatch.
            Coalesced output is byte-identical to solo output; disable
            only to pin down scheduling in experiments.
        coalesce_window: seconds a worker waits for additional
            compatible jobs after receiving one (0 = batch only what
            is already queued, adding no latency for lone jobs).
        max_batch: most jobs one coalesced dispatch may hold.
        max_inflight_per_stream: most jobs one stream may have queued
            or running at once.  A slow worker behind a fast submitter
            used to grow the request queue without bound; past this
            many outstanding jobs, :meth:`submit` raises a typed
            :class:`repro.errors.BackpressureError` instead.  ``None``
            restores the unbounded legacy behaviour.

    Use as a context manager, or call :meth:`close` explicitly; worker
    processes are daemonic, so a leaked pool cannot outlive the parent.
    """

    def __init__(
        self,
        workers: int = 2,
        job_timeout: float = 300.0,
        start_method: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        coalesce: bool = True,
        coalesce_window: float = 0.0,
        max_batch: int = 8,
        max_inflight_per_stream: Optional[int] = 64,
    ) -> None:
        if workers < 1:
            raise PipelineError("a reconstruction pool needs >= 1 worker")
        if job_timeout <= 0:
            raise PipelineError("job_timeout must be positive")
        if coalesce_window < 0:
            raise PipelineError("coalesce_window must be >= 0")
        if max_batch < 1:
            raise PipelineError("max_batch must be >= 1")
        if (
            max_inflight_per_stream is not None
            and max_inflight_per_stream < 1
        ):
            raise PipelineError(
                "max_inflight_per_stream must be >= 1 (or None for "
                "unbounded)"
            )
        self.workers = workers
        self.job_timeout = job_timeout
        self.coalesce = coalesce
        self.coalesce_window = coalesce_window
        self.max_batch = max_batch
        self.max_inflight_per_stream = max_inflight_per_stream
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.metrics.set("serve.pool.workers", workers)
        self.metrics.histogram(
            "serve.pool.batch.size", buckets=_BATCH_SIZE_BUCKETS
        )
        # Start the shared-memory resource tracker *before* forking
        # workers: forked children inherit it, so a worker attaching a
        # store arena registers with the parent's tracker (a no-op —
        # the name is already registered by the owning store) instead
        # of lazily starting a private tracker that would unlink the
        # arena when the worker exits.  Spawn/forkserver children are
        # handed the tracker fd by multiprocessing itself.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover
            pass
        self._context = get_context(start_method)
        self._requests = [self._context.Queue() for _ in range(workers)]
        self._responses = self._context.Queue()
        self._processes = [
            self._spawn_worker(i) for i in range(workers)
        ]
        self._next_job = 0
        self._stream_worker: Dict[str, int] = {}
        self._stream_counts = [0] * workers
        self._stream_inflight: Dict[str, int] = {}
        self._pending: Dict[int, Tuple[str, int, int]] = {}
        self._done: Dict[int, Tuple[str, object]] = {}
        # Jobs abandoned by a timeout or close: their late results are
        # drained for their shared-memory segment (unlinked, never
        # kept) instead of accumulating in ``_done`` forever.
        self._abandoned: Set[int] = set()
        self.jobs_per_worker = [0] * workers
        self._closed = False

    def _spawn_worker(self, worker: int):
        process = self._context.Process(
            target=_worker_main,
            args=(
                worker,
                self._requests[worker],
                self._responses,
                self.coalesce,
                self.coalesce_window,
                self.max_batch,
            ),
            daemon=True,
            name=f"reconstruction-worker-{worker}",
        )
        process.start()
        return process

    # -- routing ---------------------------------------------------

    def worker_for(self, stream: str) -> int:
        """Sticky least-loaded routing: a stream keeps its worker, so
        its frames run in the order they were submitted; a new stream
        goes to the worker holding the fewest streams (ties break on
        the lowest index), so load balances deterministically in
        arrival order."""
        worker = self._stream_worker.get(stream)
        if worker is None:
            worker = int(np.argmin(self._stream_counts))
            self._stream_worker[stream] = worker
            self._stream_counts[worker] += 1
            self.metrics.inc("serve.pool.streams_routed")
        return worker

    # -- inflight accounting ---------------------------------------

    @property
    def inflight(self) -> int:
        """Jobs submitted but not yet resolved (the pool's depth)."""
        return len(self._pending)

    def stream_inflight(self, stream: str) -> int:
        """Outstanding jobs of one stream."""
        return self._stream_inflight.get(stream, 0)

    def _forget_pending(self, job_id: int):
        """Remove one pending entry, keeping the per-stream inflight
        count exact; returns the entry (or None)."""
        entry = self._pending.pop(job_id, None)
        if entry is not None:
            stream = entry[0]
            count = self._stream_inflight.get(stream, 0) - 1
            if count > 0:
                self._stream_inflight[stream] = count
            else:
                self._stream_inflight.pop(stream, None)
        return entry

    # -- job lifecycle ---------------------------------------------

    def _admit_job(self, stream: str, frame_index: int) -> int:
        """Shared admission path of every submit flavour: closed
        check, per-stream backpressure bound, sticky routing, dead
        worker check.  Returns the worker index."""
        if self._closed:
            raise ServingError("pool is closed")
        bound = self.max_inflight_per_stream
        if (
            bound is not None
            and self._stream_inflight.get(stream, 0) >= bound
        ):
            # The backlog may just not have been reaped yet: drain
            # whatever already responded before refusing.
            while (
                self._stream_inflight.get(stream, 0) >= bound
                and self._drain(block_seconds=0.0)
            ):
                pass
        if (
            bound is not None
            and self._stream_inflight.get(stream, 0) >= bound
        ):
            self.metrics.inc("serve.pool.backpressure")
            raise BackpressureError(
                f"stream {stream!r} already has {bound} jobs in "
                f"flight; refusing frame {frame_index} instead of "
                "queueing without bound behind a slow worker"
            )
        worker = self.worker_for(stream)
        if not self._processes[worker].is_alive():
            raise ServingError(
                f"reconstruction worker {worker} is dead (exit code "
                f"{self._processes[worker].exitcode}); cannot submit "
                f"frame {frame_index} of stream {stream!r}"
            )
        return worker

    def _register_job(
        self, job_id: int, stream: str, frame_index: int, worker: int
    ) -> None:
        self._pending[job_id] = (stream, frame_index, worker)
        self._stream_inflight[stream] = (
            self._stream_inflight.get(stream, 0) + 1
        )
        self.jobs_per_worker[worker] += 1
        self.metrics.inc("serve.pool.submitted")

    def submit(
        self,
        stream: str,
        frame_index: int,
        pose: Optional[BodyPose] = None,
        shape: Optional[ShapeParams] = None,
        expression: Optional[ExpressionParams] = None,
        resolution: int = 128,
        expression_channels: int = 0,
        blend: float = 0.035,
        octree_base: Optional[int] = None,
        gaze: Optional[tuple] = None,
    ) -> int:
        """Queue one reconstruction; returns a job id for :meth:`result`.

        ``octree_base`` is reconstructor config (part of the
        coalescing compatibility key); ``gaze`` is an optional
        :meth:`repro.gaze.lod.GazeDepthBudget.to_wire` tuple applied
        per job, so streams with different gazes still coalesce.
        """
        worker = self._admit_job(stream, frame_index)
        job_id = self._next_job
        self._next_job += 1
        pose = pose or BodyPose.identity()
        self._requests[worker].put(
            (
                "job",
                job_id,
                stream,
                frame_index,
                (resolution, expression_channels, blend, octree_base),
                pose.flatten().astype("<f8").tobytes(),
                None
                if shape is None
                else shape.betas.astype("<f8").tobytes(),
                None
                if expression is None
                else expression.coefficients.astype("<f8").tobytes(),
                None if gaze is None else tuple(gaze),
            )
        )
        self._register_job(job_id, stream, frame_index, worker)
        return job_id

    def submit_repose(
        self,
        stream: str,
        frame_index: int,
        pose: Optional[BodyPose] = None,
        shape: Optional[ShapeParams] = None,
        arena: str = "",
        nv: int = 0,
        nf: int = 0,
        k: int = 4,
    ) -> int:
        """Queue a skinning-only re-pose of a canonical mesh held in
        the shared-memory ``arena`` published by an
        :class:`repro.avatar.AvatarStore`.

        The worker attaches the arena read-only (zero-copy) and warps
        the canonical vertices with linear blend skinning — no SDF
        field evaluations.  Admission (backpressure, sticky routing,
        dead-worker checks) matches :meth:`submit`, so repose and
        full-extraction jobs share one FIFO per stream.
        """
        worker = self._admit_job(stream, frame_index)
        job_id = self._next_job
        self._next_job += 1
        pose = pose or BodyPose.identity()
        self._requests[worker].put(
            (
                "repose",
                job_id,
                stream,
                frame_index,
                None,
                pose.flatten().astype("<f8").tobytes(),
                None
                if shape is None
                else shape.betas.astype("<f8").tobytes(),
                arena,
                int(nv),
                int(nf),
                int(k),
            )
        )
        self._register_job(job_id, stream, frame_index, worker)
        self.metrics.inc("serve.pool.repose_submitted")
        return job_id

    def result(
        self, job_id: int, timeout: Optional[float] = None
    ) -> PoolResult:
        """Block until ``job_id`` finishes; raise typed errors on
        worker failure, worker death, or timeout — never hang."""
        if self._closed:
            raise ServingError("pool is closed")
        deadline = monotonic() + (
            self.job_timeout if timeout is None else timeout
        )
        while True:
            done = self._done.pop(job_id, None)
            if done is not None:
                kind, value = done
                if kind == "ok":
                    return value
                raise value
            if job_id not in self._pending:
                raise ServingError(f"unknown job id {job_id}")
            if not self._drain(block_seconds=0.05):
                stream, frame_index, worker = self._pending[job_id]
                process = self._processes[worker]
                if not process.is_alive():
                    # One last drain: the worker may have replied just
                    # before dying.
                    while self._drain(block_seconds=0.0):
                        pass
                    if job_id in self._done:
                        continue
                    self.metrics.inc("serve.pool.worker_deaths")
                    self._fail_worker_jobs(worker)
                    continue
                if monotonic() > deadline:
                    # Race check: the result may have landed between
                    # the blocking drain and the deadline test.
                    while self._drain(block_seconds=0.0):
                        pass
                    if job_id in self._done:
                        continue
                    # The worker is wedged: abandon the job (a late
                    # result is drained and its segment unlinked, not
                    # kept), then terminate and respawn the worker so
                    # the streams pinned to it do not queue behind the
                    # wedge and time out too.
                    self._forget_pending(job_id)
                    self._abandoned.add(job_id)
                    self.metrics.inc("serve.pool.timeouts")
                    self._respawn_worker(worker)
                    raise ServingError(
                        f"reconstruction of frame {frame_index} "
                        f"(stream {stream!r}) timed out after "
                        f"{self.job_timeout if timeout is None else timeout:.0f}s "
                        f"on worker {worker} (worker respawned)"
                    )

    def reconstruct(self, stream: str, frame_index: int, **kwargs
                    ) -> PoolResult:
        """Synchronous submit + result."""
        return self.result(self.submit(stream, frame_index, **kwargs))

    # -- internals -------------------------------------------------

    def _drain(self, block_seconds: float) -> bool:
        """Move at most one response into ``_done``; False when idle.

        Responses of abandoned jobs (timeout, close) are reaped
        instead: their shared-memory segment is unlinked and nothing
        is kept, so a late result can neither leak ``/dev/shm`` nor
        grow ``_done`` forever.
        """
        try:
            if block_seconds > 0:
                message = self._responses.get(timeout=block_seconds)
            else:
                message = self._responses.get_nowait()
        except queue.Empty:
            return False
        kind = message[0]
        job_id = message[1]
        self._forget_pending(job_id)
        if job_id in self._abandoned:
            self._abandoned.discard(job_id)
            if kind == "ok":
                shm_name = message[3]
                try:
                    shm = SharedMemory(name=shm_name)
                    shm.close()
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
            return True
        if kind == "ok":
            (_, _, worker, shm_name, nv, nf,
             seconds, cpu_seconds, evaluations, spans,
             batch_size, batch_leader) = message
            if batch_leader:
                # One observation per dispatch (the leader speaks for
                # the batch), so the histogram reads as batches, not
                # jobs.
                self.metrics.observe(
                    "serve.pool.batch.size", batch_size
                )
            self.metrics.inc(
                "serve.pool.batch.coalesced"
                if batch_size > 1
                else "serve.pool.batch.solo"
            )
            shm = SharedMemory(name=shm_name)
            try:
                vertices = np.array(
                    np.frombuffer(shm.buf, dtype="<f8", count=nv * 3)
                ).reshape(nv, 3)
                faces = np.array(
                    np.frombuffer(
                        shm.buf,
                        dtype="<i8",
                        count=nf * 3,
                        offset=nv * _VERTEX_BYTES,
                    )
                ).reshape(nf, 3)
            finally:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
            self._done[job_id] = (
                "ok",
                PoolResult(
                    mesh=TriangleMesh(vertices=vertices, faces=faces),
                    seconds=seconds,
                    cpu_seconds=cpu_seconds,
                    field_evaluations=evaluations,
                    worker=worker,
                    spans=tuple(spans),
                    batch_size=int(batch_size),
                ),
            )
        else:
            worker, detail, content = message[2], message[3], message[4]
            error_type = PipelineError if content else ServingError
            self._done[job_id] = (
                "err",
                error_type(
                    f"reconstruction worker {worker} failed: {detail}"
                ),
            )
        return True

    def _fail_worker_jobs(self, worker: int) -> None:
        """Convert every pending job of a dead worker into a typed
        error naming its frame."""
        exitcode = self._processes[worker].exitcode
        dead = [
            job_id
            for job_id, (_, _, w) in self._pending.items()
            if w == worker
        ]
        for job_id in dead:
            stream, frame_index, _ = self._forget_pending(job_id)
            self._done[job_id] = (
                "err",
                ServingError(
                    f"reconstruction worker {worker} died (exit code "
                    f"{exitcode}) with frame {frame_index} of stream "
                    f"{stream!r} in flight"
                ),
            )

    def _respawn_worker(self, worker: int) -> None:
        """Terminate a wedged worker and start a fresh process in its
        slot.  Remaining pending jobs of the old process become typed
        errors, the request queue is replaced so stale messages never
        reach the replacement, and the worker's streams keep their
        pinning."""
        process = self._processes[worker]
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover
                process.kill()
                process.join(timeout=1.0)
        self.metrics.inc("serve.pool.respawns")
        self._fail_worker_jobs(worker)
        old_requests = self._requests[worker]
        self._requests[worker] = self._context.Queue()
        try:
            old_requests.close()
        except Exception:  # pragma: no cover
            pass
        self._processes[worker] = self._spawn_worker(worker)

    def ensure_workers(self) -> int:
        """Respawn every dead worker in place; returns the count.

        The heal path for a long-lived serving layer (the gateway):
        a worker killed by the OS fails its in-flight jobs with typed
        errors, and this call brings the slot back so the streams
        pinned to it resume on the next submit.  A healthy pool is a
        no-op.
        """
        if self._closed:
            raise ServingError("pool is closed")
        respawned = 0
        for worker, process in enumerate(self._processes):
            if not process.is_alive():
                # Reap results the worker flushed before dying so its
                # pending jobs resolve from real responses where
                # possible, then convert the remainder to typed errors
                # and start a replacement.
                while self._drain(block_seconds=0.0):
                    pass
                self.metrics.inc("serve.pool.worker_deaths")
                self._respawn_worker(worker)
                respawned += 1
        return respawned

    def crash_worker(self, worker: int, exit_code: int = 17) -> None:
        """Test hook: make one worker die abruptly (fault injection)."""
        self._requests[worker].put(("crash", exit_code))

    def stall_worker(self, worker: int, seconds: float) -> None:
        """Test hook: wedge one worker for ``seconds`` (fault
        injection for the job-timeout path)."""
        self._requests[worker].put(("stall", seconds))

    # -- lifecycle -------------------------------------------------

    def close(self) -> None:
        """Stop every worker; idempotent.

        Jobs still in flight are abandoned, and the response queue is
        drained after the workers stop so every shared-memory segment
        a worker flushed on its way out is unlinked — a segment whose
        ownership transferred to the parent must be reaped even when
        nobody will call :meth:`result` again.
        """
        if self._closed:
            return
        self._closed = True
        self._abandoned.update(self._pending)
        self._pending.clear()
        self._stream_inflight.clear()
        for process, requests in zip(self._processes, self._requests):
            if process.is_alive():
                try:
                    requests.put(("stop",))
                except Exception:  # pragma: no cover
                    pass
        for process in self._processes:
            process.join(timeout=2.0)
        while self._drain(block_seconds=0.1):
            pass
        for process in self._processes:
            if process.is_alive():  # pragma: no cover
                process.terminate()
                process.join(timeout=1.0)
        while self._drain(block_seconds=0.0):
            pass
        for requests in self._requests:
            requests.close()
        self._responses.close()

    def __enter__(self) -> "ReconstructionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
