"""The worker pool every chunk-parallel driver of this package runs on.

The line-wise chunk plans of :mod:`repro.hsi.chunking` decompose an
image into *independent* units of work: every chunk carries the halo
its stencils need, so no chunk reads another chunk's results.  That
independence is exactly what the related streaming literature exploits
("the streaming decomposition makes the workload embarrassingly
parallel").  :func:`run_tasks` cashes it in on the host: it maps a
per-chunk function over the plan through a :mod:`multiprocessing` pool,
and the drivers (:mod:`repro.parallel.amc`, :mod:`repro.parallel.map`)
stitch the cores back in plan order, producing results **identical**
to serial execution — same chunk geometry, same per-chunk arithmetic,
only the schedule differs.

Design notes
------------

* Workers receive the driver's shared state (the cube, the kernel or
  backend, ...) once, through the pool initializer, then one
  :class:`~repro.hsi.chunking.Chunk` per task — the cheap message is
  the chunk geometry, not the data.  On fork-capable platforms even
  the one-time state rides the fork.
* ``n_workers <= 1``, a single-task plan, or an unavailable pool all
  take the same in-process code path — the fallback is the *identical*
  per-chunk function, so correctness never depends on the pool.
* :func:`record_outcome` puts each chunk's
  :class:`~repro.profiling.profiler.ChunkRecord` and retry event on the
  caller's profiler.

Fault tolerance (:mod:`repro.resilience`) rides the same independence:
tasks are retried per the caller's :class:`~repro.resilience.RetryPolicy`
(worker-side), collected with a per-task deadline, and any task the
pool loses — worker crash, stalled chunk, broken pool, ``OSError`` at
pool creation — is recomputed *in-process* with the identical per-chunk
function, so a dying pool degrades the schedule, never the results.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace

from repro.errors import StreamError
from repro.profiling.profiler import ChunkRecord, Profiler
from repro.resilience import RetryPolicy, TaskOutcome, collect_async, \
    run_with_retry


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
