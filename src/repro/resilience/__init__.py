"""Fault tolerance for chunked execution: retries, recovery, isolation.

The chunk plan already makes every unit of work independent and
restartable (each chunk carries its own halo); this package cashes that
in when things go wrong: bounded per-task retry
(:class:`~repro.resilience.retry.RetryPolicy`, derived from the
:class:`~repro.resilience.retry.ExecutionKnobs` every workload config
shares), per-task deadlines and
dead-pool recovery (:mod:`repro.resilience.recovery`), and the error
isolation primitive behind the batch runner's ``on_error`` policies.
All recovery paths produce outputs bit-identical to a fault-free serial
run.  See ``docs/robustness.md``.
"""

from repro.resilience.recovery import collect_async
from repro.resilience.retry import (
    ExecutionKnobs,
    RetryPolicy,
    TaskOutcome,
    run_isolated,
    run_with_retry,
)

__all__ = [
    "ExecutionKnobs",
    "RetryPolicy",
    "TaskOutcome",
    "collect_async",
    "run_isolated",
    "run_with_retry",
]
