"""The worker pool every chunk-parallel driver of this package runs on.

The line-wise chunk plans of :mod:`repro.hsi.chunking` decompose an
image into *independent* units of work: every chunk carries the halo
its stencils need, so no chunk reads another chunk's results.  That
independence is exactly what the related streaming literature exploits
("the streaming decomposition makes the workload embarrassingly
parallel").  :func:`run_tasks` cashes it in on the host: it maps a
per-chunk function over the plan through a :mod:`multiprocessing` pool,
and its callers (the chunk driver :func:`repro.parallel.map.run_chunked`
and :mod:`repro.pipeline.batch`) stitch the results in plan order,
producing results **identical** to serial execution — same chunk
geometry, same per-chunk arithmetic, only the schedule differs.

Design notes
------------

* Pools are long-lived and come from the ``forkserver`` context.  Its
  server is started with fork+exec and every worker forks from that
  single-threaded process, so no worker is ever forked while another
  thread of the caller (a serving executor, say) is inside BLAS.  A job
  checks out an idle pool of its size, or creates one, and checks it
  back in when done; the first chunk-parallel job of a process pays
  the workers' imports, later jobs pay none.  A job that lost a task
  (crash, deadline) terminates its pool instead, so a stalled worker
  never serves another job.  Idle pools are closed at interpreter exit.
* A job's state travels once, through one
  :mod:`multiprocessing.shared_memory` segment: the pickled
  ``(func, initializer, initargs)``, the retry policy and the caller's
  process-wide settings (the resolved fault injector and the spectral
  epsilon), with
  every array stored out of band *at its original strides and
  alignment* — numpy's reductions are layout-sensitive at the last bit.
  Each task message is the segment name, the task's index and the
  task; a worker builds the job's state (``initializer(*initargs)``)
  on its first task of the job and keeps it until the next job
  arrives, and runs each task under the policy's retry loop.
* ``outputs`` are arrays among ``initargs`` that tasks fill in place:
  workers write into their copies in the segment, which are copied
  back into the caller's arrays when the job ends, so bulk results
  never cross the result pipe.
* ``n_workers <= 1``, a single-task plan, or an unavailable pool all
  take the same in-process code path — the fallback is the *identical*
  per-task function on the caller's own arrays, so correctness never
  depends on the pool.

Fault tolerance (:mod:`repro.resilience`) rides the same independence:
tasks are retried per the caller's :class:`~repro.resilience.RetryPolicy`
(worker-side), collected with a per-task deadline, and any task the
pool loses — worker crash, stalled chunk, broken pool, ``OSError`` at
pool or segment creation — is recomputed *in-process* with the
identical per-task function, so a dying pool degrades the schedule,
never the results.
"""

from __future__ import annotations

import atexit
import io
import multiprocessing
import os
import pickle
import threading
from functools import partial
from multiprocessing import forkserver, resource_tracker, shared_memory, util

import numpy as np

from repro import faults
from repro.errors import StreamError
from repro.profiling.profiler import Profiler
from repro.resilience import RetryPolicy, TaskOutcome, collect_async, \
    run_with_retry
from repro.spectral.normalize import SpectralEpsilon

#: Start method of every pool: workers fork from a single-threaded
#: server, never from the caller.
_START_METHOD = ("forkserver"
                 if "forkserver" in multiprocessing.get_all_start_methods()
                 else "spawn")

#: The modules whose task functions pool workers run.
_TASK_MODULES = ("repro.parallel.amc", "repro.parallel.map",
                 "repro.pipeline.batch")

#: A job segment keeps each array's data address modulo this many bytes.
_ALIGN = 64

# Idle pools as (processes, pool), shared by every thread of the process.
_IDLE: list = []
_IDLE_LOCK = threading.Lock()


def resolve_workers(n_workers: int) -> int:
    """Normalize a worker-count request: 0 means "all cores".

    Negative counts are rejected; anything else is returned clamped to
    at least 1 (``os.cpu_count()`` can return ``None`` on exotic
    platforms — that also resolves to 1).
    """
    if n_workers < 0:
        raise StreamError(f"n_workers must be >= 0, got {n_workers}")
    if n_workers == 0:
        return max(1, os.cpu_count() or 1)
    return n_workers


def _make_pool(processes: int):
    """Pool construction, separated so tests can force the fallback."""
    ctx = multiprocessing.get_context(_START_METHOD)
    if _START_METHOD == "forkserver":
        # Workers then fork with their task modules imported.  The
        # server imports them without the caller's sys.path, so this
        # helps only where ``repro`` is importable by default (an
        # installed package, PYTHONPATH); elsewhere each new worker
        # imports them itself.  Ignored once the server runs.
        ctx.set_forkserver_preload(["__main__", *_TASK_MODULES])
    return ctx.Pool(processes)


def _checkout(processes: int):
    """An idle pool of ``processes`` workers, else a new one."""
    with _IDLE_LOCK:
        for i, (size, pool) in enumerate(_IDLE):
            if size == processes:
                return _IDLE.pop(i)[1]
    return _make_pool(processes)


@atexit.register
def _close_pools() -> None:
    """Terminate the idle pools (runs at interpreter exit, before
    multiprocessing's own exit handler)."""
    with _IDLE_LOCK:
        pools = [pool for _, pool in _IDLE]
        _IDLE.clear()
    for pool in pools:
        pool.terminate()


def _stop_helpers() -> None:
    """Stop the fork server and the resource tracker.

    Both would exit on their own once this process is gone; stopping
    them at exit means neither outlives the interpreter, even briefly.
    A pool worker leaves them to the process that started them.
    """
    if multiprocessing.parent_process() is not None:
        return
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


# After multiprocessing's exit finalizers of priority >= 0, which
# terminate the pools and release their semaphores through the resource
# tracker, and before the one (-100) that removes the fork server's
# socket directory.
util.Finalize(None, _stop_helpers, exitpriority=-50)


# -- job segments --------------------------------------------------------

def _span(array: np.ndarray) -> tuple[int, int]:
    """Byte extent of ``array``'s elements around its first element."""
    lo = hi = 0
    for n, stride in zip(array.shape, array.strides):
        lo += min(0, (n - 1) * stride)
        hi += max(0, (n - 1) * stride)
    return lo, hi + array.itemsize


class _Packer(pickle.Pickler):
    """Pickler that lifts every array out of band, by index."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: list[np.ndarray] = []

    def persistent_id(self, obj):
        if (isinstance(obj, np.ndarray) and obj.size
                and not obj.dtype.hasobject):
            self.arrays.append(obj)
            return len(self.arrays) - 1
        return None


class _Loader(pickle.Unpickler):
    """Unpickler that maps the out-of-band arrays onto a segment."""

    def __init__(self, file, segment, layout) -> None:
        super().__init__(file)
        self.segment, self.layout = segment, layout

    def persistent_load(self, pid):
        entry = self.layout[pid]
        array = _view(self.segment, entry)
        array.flags.writeable = entry[4]
        return array


def _view(segment, entry) -> np.ndarray:
    """The array ``entry`` of a job layout locates in ``segment``."""
    offset, dtype, shape, strides, _ = entry
    return np.ndarray(shape, dtype, buffer=segment.buf, offset=offset,
                      strides=strides)


def _pack(job, outputs) -> tuple:
    """Write ``job`` into a new segment; returns ``(segment, slots)``.

    Segment bytes: the offset and length of the pickled
    ``(body, layout)`` (8 bytes each), then, from byte ``_ALIGN``, every
    array the body refers to, each at its own strides and data
    alignment, then the pickle.  Only ``outputs`` are writeable in
    workers; ``slots[i]`` is the layout entry of ``outputs[i]``.
    """
    buffer = io.BytesIO()
    packer = _Packer(buffer)
    packer.dump(job)
    layout, end = [], _ALIGN
    for array in packer.arrays:
        lo, hi = _span(array)
        end += (array.ctypes.data + lo - end) % _ALIGN
        layout.append((end - lo, array.dtype, array.shape, array.strides,
                       any(array is out for out in outputs)))
        end += hi - lo
    meta = pickle.dumps((buffer.getvalue(), layout),
                        protocol=pickle.HIGHEST_PROTOCOL)
    segment = shared_memory.SharedMemory(create=True,
                                         size=end + len(meta))
    written = False
    try:
        if hasattr(os, "posix_fallocate"):
            # reserve the pages now: a full tmpfs then raises ENOSPC
            # here instead of SIGBUS on the first write past its end
            os.posix_fallocate(segment._fd, 0, segment.size)
        segment.buf[:16] = (end.to_bytes(8, "little")
                            + len(meta).to_bytes(8, "little"))
        segment.buf[end:end + len(meta)] = meta
        for entry, array in zip(layout, packer.arrays):
            np.copyto(_view(segment, entry), array)
        written = True
    finally:
        if not written:
            segment.close()
            segment.unlink()
    slots = [next(entry for entry, array in zip(layout, packer.arrays)
                  if array is out)
             for out in outputs]
    return segment, slots


def _unpack(segment):
    """The job :func:`_pack` wrote into ``segment`` (arrays as views)."""
    start = int.from_bytes(segment.buf[:8], "little")
    size = int.from_bytes(segment.buf[8:16], "little")
    body, layout = pickle.loads(bytes(segment.buf[start:start + size]))
    return _Loader(io.BytesIO(body), segment, layout).load()


# -- worker side ---------------------------------------------------------

# The job this worker process holds:
# (segment name, segment, func, state, policy).
_JOB: tuple | None = None


def _adopt(name: str):
    """Attach job ``name`` (once per worker); returns ``(func, state,
    policy)``.

    The previous job's state is dropped and its segment detached first.
    The job's settings replace the worker's own: the fault injector the
    caller resolved (``REPRO_FAULTS`` included, so the environment the
    worker started with no longer applies) and the spectral epsilon.
    """
    global _JOB
    if _JOB is not None and _JOB[0] == name:
        return _JOB[2:]
    if _JOB is not None:
        segment = _JOB[1]
        _JOB = None
        segment.close()
    segment = shared_memory.SharedMemory(name=name)
    func, initializer, initargs, policy, injector, epsilon = \
        _unpack(segment)
    os.environ.pop(faults.ENV_VAR, None)
    if injector is None:
        faults.uninstall()
    else:
        faults.install(injector)
    SpectralEpsilon.set(epsilon)
    _JOB = (name, segment, func, initializer(*initargs), policy)
    return _JOB[2:]


def _job_task(name: str, index: int, task) -> TaskOutcome:
    """Worker-side entry: run task ``index`` of job ``name`` under the
    job's retry loop."""
    func, state, policy = _adopt(name)
    return run_with_retry(partial(func, state), task, index=index,
                          policy=policy)


# -- parent side ---------------------------------------------------------

def _run_on_pool(processes: int, tasks, func, initializer, initargs,
                 outputs, policy: RetryPolicy):
    """Run every task of one job on a checked-out pool; returns
    ``(outcomes, failures)`` with ``outputs`` holding what it wrote.

    The pool goes back to the idle list unless a task was lost to a
    crash or deadline: that task's worker may still be running, so the
    pool is terminated instead.
    """
    segment, slots = _pack(
        (func, initializer, initargs, policy, faults.current_injector(),
         SpectralEpsilon.get()), outputs)
    try:
        pool = _checkout(processes)
        healthy = False
        try:
            outcomes, failures = collect_async(
                pool, partial(_job_task, segment.name), tasks, policy)
            healthy = not any(isinstance(exc, multiprocessing.TimeoutError)
                              for exc in failures.values())
        finally:
            if healthy:
                with _IDLE_LOCK:
                    _IDLE.append((processes, pool))
            else:
                pool.terminate()
        for out, entry in zip(outputs, slots):
            np.copyto(out, _view(segment, entry))
        return outcomes, failures
    finally:
        segment.close()
        segment.unlink()


def _recompute_in_process(tasks, indices, func, state,
                          policy: RetryPolicy, extra_retries: int
                          ) -> dict[int, TaskOutcome]:
    """Run the given task indices in-process (the recovery/fallback path).

    Attempt numbers start at ``policy.max_retries + 1`` — disjoint from
    every worker-side attempt — so a fault pinned to a worker attempt
    (e.g. an injected ``os._exit``) can never re-fire in the parent.
    ``extra_retries`` is added to each outcome's retry count to account
    for attempts the pool already lost (0 when no pool ever ran).
    """
    outcomes = {}
    for index in indices:
        outcome = run_with_retry(partial(func, state), tasks[index],
                                 index=index, policy=policy,
                                 attempt_base=policy.max_retries + 1)
        outcomes[index] = TaskOutcome(
            outcome.value, retries=outcome.retries + extra_retries,
            recovered=True)
    return outcomes


def run_tasks(tasks, func, initializer, initargs, n_workers: int, *,
              outputs: tuple = (),
              policy: RetryPolicy | None = None,
              profiler: Profiler | None = None
              ) -> list[TaskOutcome]:
    """Map ``func`` over ``tasks``, through a process pool when possible.

    The shared dispatch engine of this package: ``initializer(*initargs)``
    builds the job's state (once per worker process, or once in-process),
    then ``func(state, task)`` runs per task.  ``initializer``, ``func``
    and ``initargs`` must pickle (module-level functions and classes
    pickle by reference); ``outputs`` names the arrays among
    ``initargs`` that tasks fill in place.  With ``n_workers <= 1``, a
    single task, or a host where pools cannot be created (``OSError``),
    the *same* initializer+func pair runs in-process on the caller's
    own arguments — the fallback path is byte-for-byte the same
    computation.

    Fault tolerance: every task runs under ``policy``'s bounded retry
    loop (worker-side in pools, in-process otherwise), pool results are
    collected with the policy's per-task deadline, and any task the pool
    fails to deliver — a crashed worker, a stalled chunk, a worker-side
    exception — is recomputed in-process, so one dying worker degrades
    the schedule, never the run.  Detecting a *crashed* worker requires
    a finite ``policy.chunk_timeout_s`` (a bare ``multiprocessing.Pool``
    silently drops the in-flight task of a dead worker).  Recoveries are
    recorded as ``"pool_recovery"`` events on ``profiler``.

    Returns one :class:`~repro.resilience.TaskOutcome` per task, in task
    order; ``outcome.value`` is what ``func`` returned.
    """
    tasks = list(tasks)
    if policy is None:
        policy = RetryPolicy()
    if n_workers <= 1 or len(tasks) <= 1:
        state = initializer(*initargs)
        return [run_with_retry(partial(func, state), task, index=index,
                               policy=policy)
                for index, task in enumerate(tasks)]
    try:
        collected, failures = _run_on_pool(
            min(n_workers, len(tasks)), tasks, func, initializer, initargs,
            outputs, policy)
    except OSError as exc:                   # no pool or segment here
        collected, failures = {}, {-1: exc}
    outcomes = [collected.get(index) for index in range(len(tasks))]
    missing = [i for i, o in enumerate(outcomes) if o is None]
    if not missing:
        return outcomes
    if profiler is not None:
        for index, exc in sorted(failures.items()):
            profiler.record_event(
                "pool_recovery", f"{type(exc).__name__}: {exc}",
                chunk_index=index)
    recovered = _recompute_in_process(
        tasks, missing, func, initializer(*initargs), policy,
        extra_retries=0 if -1 in failures else 1)
    for index, outcome in recovered.items():
        outcomes[index] = outcome
    return outcomes
