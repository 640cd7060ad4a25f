"""Multi-core chunked execution of stage graphs.

The chunk plan of :mod:`repro.stream.chunked` already decomposes a
pipeline into *independent* units of work: every chunk carries the halo
its stencils need, so no chunk reads another chunk's results.  That
independence is exactly what the related streaming literature exploits
("the streaming decomposition makes the workload embarrassingly
parallel"), and this module cashes it in on the host: chunks are
dispatched across a :mod:`multiprocessing` worker pool and the cores
stitched back in plan order, producing results **identical** to serial
execution — same chunk geometry, same per-chunk arithmetic, only the
schedule differs.

Design notes
------------

* Workers receive the graph, the full input streams and the executor
  once (pool initializer), then one :class:`~repro.hsi.chunking.Chunk`
  per task — the cheap message is the chunk geometry, not the data.
  On fork-capable platforms even the one-time state rides the fork.
* Each worker builds its chunk view, runs the executor, and sends back
  only the *core* rows plus a
  :class:`~repro.profiling.profiler.ChunkRecord` (wall time; on GPU
  executors also the modeled upload/compute/download split read off the
  worker-local device counters).
* ``n_workers <= 1``, a single-chunk plan, or an unavailable pool all
  take the same in-process code path — the fallback is the *identical*
  per-chunk function, so correctness never depends on the pool.
* Dependent-fetch graphs are rejected up front by
  :func:`~repro.stream.chunked.graph_halo`, before any process is
  spawned — the same constraint that forced the paper's MEI stage to
  keep its whole chunk resident.

Fault tolerance (:mod:`repro.resilience`) rides the same independence:
tasks are retried per the caller's :class:`~repro.resilience.RetryPolicy`
(worker-side), collected with a per-task deadline, and any task the
pool loses — worker crash, stalled chunk, broken pool, ``OSError`` at
pool creation — is recomputed *in-process* with the identical per-chunk
function, so a dying pool degrades the schedule, never the results.
A :class:`~repro.errors.GpuOutOfMemoryError` during chunked execution
triggers graceful degradation instead of failure: the plan is rebuilt
with halved ``max_ext_lines`` (down to the halo-imposed minimum) and
retried — the paper's motivation for chunking, applied dynamically.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np

from repro.errors import GpuOutOfMemoryError, StreamError
from repro.faults import maybe_inject
from repro.hsi.chunking import Chunk
from repro.profiling.profiler import ChunkRecord, Profiler
from repro.resilience import RetryPolicy, TaskOutcome, collect_async, \
    run_with_retry
from repro.stream.chunked import plan_stream_chunks
from repro.stream.graph import StageGraph
from repro.stream.stream import Stream


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


# Worker-side state, installed once per pool process by _init_worker.
# Plain module global: multiprocessing initializers cannot return state.
_STATE: dict = {}


def _init_worker(graph: StageGraph, inputs: dict[str, Stream],
                 executor, halo: int) -> None:
    _STATE["graph"] = graph
    _STATE["inputs"] = inputs
    _STATE["executor"] = executor
    _STATE["halo"] = halo


def _counters_of(executor):
    device = getattr(executor, "device", None)
    return None if device is None else device.counters


def _run_chunk(chunk: Chunk):
    """Execute one chunk; returns (index, core arrays, profile record)."""
    maybe_inject("chunk", index=chunk.index, ext_lines=chunk.ext_lines)
    graph, inputs = _STATE["graph"], _STATE["inputs"]
    executor, halo = _STATE["executor"], _STATE["halo"]
    counters = _counters_of(executor)
    base = (0.0, 0.0, 0.0) if counters is None else (
        counters.upload_time_s, counters.kernel_time_s,
        counters.download_time_s)
    start = time.perf_counter()
    chunk_inputs = {
        name: Stream(name, stream.data[chunk.ext_start:chunk.ext_stop])
        for name, stream in inputs.items()}
    result = executor.run(graph, chunk_inputs)
    cores = {name: np.ascontiguousarray(chunk.core_of(stream.data))
             for name, stream in result.items()}
    wall = time.perf_counter() - start
    if counters is None:
        upload, compute, download = 0.0, wall, 0.0
    else:
        upload = counters.upload_time_s - base[0]
        compute = counters.kernel_time_s - base[1]
        download = counters.download_time_s - base[2]
    record = ChunkRecord(index=chunk.index, core_lines=chunk.core_lines,
                         ext_lines=chunk.ext_lines, halo=halo,
                         wall_s=wall, upload_s=upload, compute_s=compute,
                         download_s=download, worker=os.getpid())
    return chunk.index, cores, record


def _make_pool(ctx, processes: int, initializer, initargs):
    """Pool construction, separated so tests can force the fallback."""
    return ctx.Pool(processes=processes, initializer=initializer,
                    initargs=initargs)


def _recompute_in_process(tasks, indices, func, initializer, initargs,
                          state, policy: RetryPolicy, extra_retries: int
                          ) -> dict[int, TaskOutcome]:
    """Run the given task indices in-process (the recovery/fallback path).

    Attempt numbers start at ``policy.max_retries + 1`` — disjoint from
    every worker-side attempt — so a fault pinned to a worker attempt
    (e.g. an injected ``os._exit``) can never re-fire in the parent.
    ``extra_retries`` is added to each outcome's retry count to account
    for attempts the pool already lost (0 when no pool ever ran).
    """
    initializer(*initargs)
    try:
        outcomes = {}
        for index in indices:
            outcome = run_with_retry(func, tasks[index], index=index,
                                     policy=policy,
                                     attempt_base=policy.max_retries + 1)
            outcomes[index] = TaskOutcome(
                outcome.value, retries=outcome.retries + extra_retries,
                recovered=True)
        return outcomes
    finally:
        if state is not None:
            state.clear()


def run_tasks(tasks, func, initializer, initargs, n_workers: int,
              state: dict | None = None,
              policy: RetryPolicy | None = None,
              profiler: Profiler | None = None
              ) -> list[TaskOutcome]:
    """Map ``func`` over ``tasks``, through a process pool when possible.

    The shared dispatch engine of this package: ``initializer(*initargs)``
    installs worker-side state (once per pool process), then ``func`` runs
    per task.  With ``n_workers <= 1``, a single task, or a host where
    pools cannot be created (``OSError``), the *same* initializer+func
    pair runs in-process — the fallback path is byte-for-byte the same
    computation.  ``state`` names the module-global dict the initializer
    fills so the in-process path can clear it afterwards.

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
    outcomes: list[TaskOutcome | None] = [None] * len(tasks)
    if n_workers > 1 and len(tasks) > 1:
        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else None)
        ctx = multiprocessing.get_context(method)
        try:
            pool = _make_pool(ctx, min(n_workers, len(tasks)),
                              initializer, initargs)
        except OSError as exc:
            pool = None                      # no pool on this host
            failures: dict[int, BaseException] = {-1: exc}
        if pool is not None:
            # the context manager terminate()s on exit, killing any
            # straggler worker still sleeping on a lost task
            with pool:
                collected, failures = collect_async(pool, func, tasks,
                                                    policy)
            for index, outcome in collected.items():
                outcomes[index] = outcome
        missing = [i for i, o in enumerate(outcomes) if o is None]
        if not missing:
            return outcomes
        if profiler is not None:
            for index, exc in sorted(failures.items()):
                profiler.record_event(
                    "pool_recovery", f"{type(exc).__name__}: {exc}",
                    chunk_index=index)
        recovered = _recompute_in_process(
            tasks, missing, func, initializer, initargs, state, policy,
            extra_retries=0 if pool is None else 1)
        for index, outcome in recovered.items():
            outcomes[index] = outcome
        return outcomes
    initializer(*initargs)
    try:
        return [run_with_retry(func, task, index=index, policy=policy)
                for index, task in enumerate(tasks)]
    finally:
        if state is not None:
            state.clear()


def record_outcome(profiler: Profiler | None, outcome: TaskOutcome,
                   index: int, record: ChunkRecord) -> None:
    """Put one chunk's profile record, and its retry event, on ``profiler``.

    The shared bookkeeping of every chunked runner: a chunk that took
    extra attempts gets them on its :class:`ChunkRecord` and a
    ``"retry"`` event (noting an in-process recovery) before the record.
    """
    if profiler is None:
        return
    if outcome.retries:
        record = replace(record, retries=outcome.retries)
        profiler.record_event(
            "retry", f"chunk took {outcome.retries} extra attempt(s)"
            + (" (recovered in-process)" if outcome.recovered else ""),
            chunk_index=index)
    profiler.record_chunk(record)


def degrade_ext_lines(current: int, floor: int) -> int:
    """The next (halved) ``max_ext_lines`` after an OOM, or raise-worthy.

    Returns ``max(floor, current // 2)``; when that is not strictly
    smaller than ``current`` the degradation has bottomed out at the
    halo-imposed minimum and the caller must re-raise.
    """
    return max(floor, current // 2)


def run_chunked_parallel(graph: StageGraph, inputs: dict[str, Stream],
                         executor, *, max_ext_lines: int,
                         halo: int | None = None, n_workers: int = 0,
                         profiler: Profiler | None = None,
                         policy: RetryPolicy | None = None
                         ) -> dict[str, Stream]:
    """Run a stage graph chunk by chunk across a process pool.

    The parallel counterpart of
    :func:`repro.stream.chunked.run_chunked` — same parameters, same
    chunk plan, bit-identical outputs; chunks merely execute
    concurrently.

    Parameters
    ----------
    graph, inputs, executor, max_ext_lines, halo:
        As in :func:`~repro.stream.chunked.run_chunked`.  The executor
        must be picklable (both :class:`~repro.stream.executor.CpuExecutor`
        and :class:`~repro.stream.executor.GpuExecutor` are); each worker
        process operates on its own copy, so a GPU executor's device
        counters accumulate per worker — the per-chunk
        upload/compute/download split still reaches the caller through
        the profiler records.
    n_workers:
        Pool size; 0 means one worker per CPU core, 1 forces the serial
        in-process path.
    profiler:
        Optional :class:`~repro.profiling.profiler.Profiler`; receives
        one :class:`~repro.profiling.profiler.ChunkRecord` per chunk,
        plus resilience events (retries, recoveries, degradations).
    policy:
        Optional :class:`~repro.resilience.RetryPolicy` — per-task
        retry budget and deadline (see :func:`run_tasks`).

    A :class:`~repro.errors.GpuOutOfMemoryError` raised during execution
    triggers graceful degradation: the run is re-planned with halved
    ``max_ext_lines`` (down to ``2 * halo + 1``, the smallest chunk that
    still holds one core line plus its halos) and retried.  Chunk
    geometry does not affect results, so degraded runs stay
    bit-identical.

    Returns
    -------
    dict of stitched output streams, identical to serial execution.
    """
    workers = resolve_workers(n_workers)
    ext_lines = max_ext_lines
    while True:
        plan = plan_stream_chunks(graph, inputs, max_ext_lines=ext_lines,
                                  halo=halo)
        try:
            results = run_tasks(plan, _run_chunk, _init_worker,
                                (graph, inputs, executor, plan.halo),
                                workers, state=_STATE, policy=policy,
                                profiler=profiler)
            break
        except GpuOutOfMemoryError as exc:
            smaller = degrade_ext_lines(ext_lines, 2 * plan.halo + 1)
            if smaller >= ext_lines:
                raise
            if profiler is not None:
                detail = f"max_ext_lines {ext_lines} -> {smaller}"
                if exc.requested is not None:
                    detail += (f" (requested={exc.requested}, "
                               f"free={exc.free})")
                profiler.record_event("oom_degrade", detail)
            ext_lines = smaller

    lines, samples = plan.lines, plan.samples
    outputs: dict[str, np.ndarray] = {}
    for outcome in results:
        index, cores, record = outcome.value
        chunk = plan.chunks[index]
        for name, core in cores.items():
            if name not in outputs:
                outputs[name] = np.empty((lines, samples, 4),
                                         dtype=np.float32)
            outputs[name][chunk.core_start:chunk.core_stop] = core
        record_outcome(profiler, outcome, index, record)
    return {name: Stream(name, data) for name, data in outputs.items()}
