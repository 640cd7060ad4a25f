"""Pool-side result collection with deadlines and loss accounting.

A plain :class:`multiprocessing.pool.Pool` has a failure mode the
stdlib does not surface: when a worker process dies mid-task (crash,
OOM-kill, injected ``os._exit``), the task it was holding is simply
lost — ``pool.map`` blocks forever waiting for a result that will never
arrive, even though the pool's maintenance thread has already replaced
the dead worker.  This module replaces the blocking ``map`` with
per-task async dispatch plus a per-task deadline, and reports exactly
*which* tasks were lost so the caller can recompute only those
(in-process, against the same worker function — bit-identical results).
"""

from __future__ import annotations

from repro.resilience.retry import RetryPolicy, TaskOutcome


def collect_async(pool, func, tasks, policy: RetryPolicy):
    """Dispatch ``tasks`` on ``pool``; collect what survives.

    ``func(index, task)`` is the worker-side entry: it must pickle and
    return the task's :class:`TaskOutcome`, running the policy's retry
    loop itself.  Every task is submitted with ``apply_async`` and
    collected with the policy's per-task deadline.  Returns
    ``(outcomes, failures)`` where ``outcomes`` maps task index to
    :class:`TaskOutcome` and ``failures`` maps the indices that produced
    no result to the exception that explains why
    (``multiprocessing.TimeoutError`` for a lost/stalled task, or
    whatever the worker raised).  Nothing is
    raised from here — routing *every* failure to the caller's
    in-process recovery gives genuine errors a clean parent-side
    traceback and transient ones a second life, through one code path.
    """
    handles = [pool.apply_async(func, (index, task))
               for index, task in enumerate(tasks)]
    outcomes: dict[int, TaskOutcome] = {}
    failures: dict[int, BaseException] = {}
    for index, handle in enumerate(handles):
        try:
            outcomes[index] = handle.get(policy.chunk_timeout_s)
        except Exception as exc:
            failures[index] = exc
    return outcomes, failures
