"""Bounded retry and error isolation primitives.

The primitives here are deliberately tiny — a policy record, a retry
loop, an isolation wrapper — because the *semantics* doing the heavy
lifting live elsewhere: chunk independence (every chunk carries its own
halo) is what makes re-running one task safe, and the stitching layer's
bit-identical guarantee is what makes it *correct*.

This package is also the only place in the codebase allowed to contain
blanket ``except`` clauses (reprolint's ``blanket-except`` rule —
``python -m tools.reprolint --rules blanket-except`` — enforces it):
swallowing arbitrary exceptions is exactly the resilience layer's job
and nobody else's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import faults
from repro.errors import StreamError, TransientFaultError, ValidationError


def _check_retry_knobs(max_retries: int, chunk_timeout_s: float | None,
                       error: type[Exception]) -> None:
    if max_retries < 0:
        raise error(f"max_retries must be >= 0, got {max_retries}")
    if chunk_timeout_s is not None and chunk_timeout_s <= 0:
        raise error(f"chunk_timeout_s must be positive, got "
                    f"{chunk_timeout_s}")


@dataclass(frozen=True)
class RetryPolicy:
    """How much failure one task dispatch is allowed to absorb.

    Attributes
    ----------
    max_retries:
        Extra attempts after the first, per task (0 = one attempt).
        Applies worker-side in pools and in-process on the serial path.
    chunk_timeout_s:
        Per-task deadline when collecting pool results.  ``None`` (the
        default) waits forever — which also means a worker that *dies*
        mid-task can never be detected, because a plain
        ``multiprocessing.Pool`` silently drops the in-flight task;
        crash recovery therefore requires a finite deadline.

    The retry loop absorbs :class:`~repro.errors.TransientFaultError`
    (and its subclasses) only; anything else propagates immediately — a
    ``ShapeError`` will not get better on attempt two.
    """

    max_retries: int = 0
    chunk_timeout_s: float | None = None

    def __post_init__(self) -> None:
        _check_retry_knobs(self.max_retries, self.chunk_timeout_s,
                           StreamError)


@dataclass(frozen=True, kw_only=True)
class ExecutionKnobs:
    """The execution knobs every workload config shares.

    They select *how* a result is computed, never *what*: chunk
    independence plus the stitching layer's bit-identity make every
    setting produce the same bits, so the knobs are excluded from
    serving cache keys (``repro.workloads.DEFAULT_EXECUTION_KNOBS``).
    Keyword-only, so a subclass's own fields keep their positions.

    Attributes
    ----------
    n_workers:
        Worker processes for the chunk-parallel stage.  1 = serial (the
        default); N > 1 splits the image into halo-carrying line chunks
        executed by a process pool (:mod:`repro.parallel`); 0 = one
        worker per CPU core.
    max_retries:
        Extra attempts each chunk may consume after its first (0 = fail
        fast).
    chunk_timeout_s:
        Per-chunk deadline (seconds) when collecting pool results.  None
        waits forever; a finite deadline is required to *detect* a
        worker that died mid-chunk (the pool silently drops its task),
        after which the chunk is recomputed in-process.
    """

    n_workers: int = 1
    max_retries: int = 0
    chunk_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 0:
            raise ValidationError("n_workers must be >= 0 (0 = all cores)")
        _check_retry_knobs(self.max_retries, self.chunk_timeout_s,
                           ValidationError)

    def retry_policy(self) -> RetryPolicy:
        """The per-chunk :class:`RetryPolicy` these knobs configure."""
        return RetryPolicy(max_retries=self.max_retries,
                           chunk_timeout_s=self.chunk_timeout_s)


@dataclass(frozen=True)
class TaskOutcome:
    """One task's successful result plus how much failure it cost.

    Attributes
    ----------
    value:
        Whatever the task function returned.
    retries:
        Attempts beyond the first this task consumed (including a lost
        pool attempt when the task was recovered in-process).
    recovered:
        True when the recorded attempt ran in the parent process after
        the pool lost or failed the task.
    """

    value: object
    retries: int = 0
    recovered: bool = False


def run_with_retry(func, task, *, index: int | None = None,
                   policy: RetryPolicy = RetryPolicy(),
                   attempt_base: int = 0) -> TaskOutcome:
    """Run ``func(task)`` with the policy's bounded retry loop.

    Each attempt is numbered ``attempt_base + n`` and published through
    :func:`repro.faults.set_attempt` so injected faults can key on it.
    Recovery paths pass ``attempt_base > policy.max_retries`` — their
    attempt numbers are disjoint from any worker attempt, so a fault
    pinned to attempt 0 can never re-fire in the parent process (where
    an injected ``os._exit`` would kill the whole run, not one worker).

    Only :class:`~repro.errors.TransientFaultError` is absorbed; the
    last one is re-raised when attempts run out.
    """
    last: BaseException | None = None
    for attempt in range(policy.max_retries + 1):
        faults.set_attempt(attempt_base + attempt)
        try:
            try:
                value = func(task)
            finally:
                faults.set_attempt(0)
        except TransientFaultError as exc:
            last = exc
            continue
        return TaskOutcome(value, retries=attempt)
    assert last is not None
    raise last


def run_isolated(func, *args, **kwargs):
    """Run ``func(*args, **kwargs)``, capturing any exception.

    Returns ``(value, None)`` on success, ``(None, exception)`` on any
    :class:`Exception` — the error-isolation primitive behind the batch
    runner's ``on_error`` policies.  ``BaseException`` (keyboard
    interrupt, ``SystemExit``) still propagates.
    """
    try:
        return func(*args, **kwargs), None
    except Exception as exc:
        return None, exc
