"""Job lifecycle: states, the mutable job record, immutable snapshots.

A :class:`Job` is one unit of admitted work.  Its lifecycle is a small
state machine::

    submit ──► QUEUED ──► RUNNING ──► DONE
                  ▲  │        │   └─► FAILED
                  │  │        └─(watchdog requeue)─► QUEUED
                  │  └──► CANCELLED
            (journal replay re-enqueues queued/running jobs here)

plus one shortcut: a submission whose key is already cached is born
``DONE`` (``from_cache=True``) without ever entering the queue.  A
``RUNNING`` job cannot be cancelled by clients — the executor owns it
— but the *watchdog* may return it to ``QUEUED`` when its heartbeat
goes stale (the zombie attempt's eventual outcome is dropped by the
``generation`` guard), and the journal replay at startup re-enqueues
jobs that were queued or running when the process died.
``DONE``/``FAILED``/``CANCELLED`` are terminal.

Jobs are mutated only on the server's event-loop thread; everything a
client sees is an immutable :class:`JobStatus` snapshot (JSON-safe via
:meth:`JobStatus.to_dict`, which is what the socket protocol ships).
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass

from repro.errors import ServingError

#: Lifecycle states, in nominal order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every valid job state.
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States a job can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Legal transitions of the state machine (from -> allowed to).
#: RUNNING -> QUEUED is the watchdog's requeue edge: a stuck job goes
#: back to the queue under a fresh generation.
_TRANSITIONS = {
    QUEUED: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({DONE, FAILED, QUEUED}),
}


@dataclass(frozen=True)
class JobStatus:
    """One immutable, JSON-safe view of a job.

    Attributes
    ----------
    job_id / key / state:
        Identity and lifecycle position (``key`` is the full
        content-addressed job key).
    from_cache:
        The result was served from the cache — no execution happened
        for this submission.
    coalesced:
        How many *extra* submissions were folded into this job while it
        was in flight (0 = unique).
    retries:
        Extra execution attempts the job consumed (resilience layer).
    error:
        ``"Type: message"`` for FAILED jobs, else None.
    result_sha256:
        Bit-identity fingerprint of the decision arrays
        (:func:`~repro.serving.api.result_digest`) for DONE jobs.
    overall_accuracy:
        Report accuracy (%) when a classify request carried a ground
        truth (detection/reduction jobs leave it None).
    workload:
        Registry name of the algorithm this job runs
        (:mod:`repro.workloads`).
    watchdog_requeues:
        How many times the watchdog rescued this job from a stalled
        executor (0 on the healthy path).
    recovered:
        The job was re-enqueued (or recreated terminal) by journal
        replay after a restart — it survived a process death.
    """

    job_id: int
    key: str
    state: str
    from_cache: bool = False
    coalesced: int = 0
    retries: int = 0
    error: str | None = None
    result_sha256: str | None = None
    overall_accuracy: float | None = None
    workload: str | None = None
    watchdog_requeues: int = 0
    recovered: bool = False

    def to_dict(self) -> dict:
        """Plain-data form (what the socket protocol serializes)."""
        return asdict(self)


class Job:
    """The server-side record of one admitted request.

    Holds the request payload (cube, params, ground truth), the
    lifecycle state, and — after completion — the per-job
    :class:`~repro.profiling.ProfileReport`, the bit-identity digest,
    the report accuracy and the
    :class:`~repro.serving.cache.CacheEntry` it was served.  The entry
    holds the result only while the server's result cache keeps it;
    after eviction the job's :attr:`result` reads None once nothing
    else holds it, while its :meth:`status` is unchanged.
    ``done`` is an :class:`asyncio.Event` waiters block on;
    :meth:`wait_result` also hands the result over.
    """

    def __init__(self, job_id: int, key: str, *, bip, config,
                 ground_truth=None, class_names=None,
                 workload=None, state: str = QUEUED) -> None:
        self.job_id = job_id
        self.key = key
        self.bip = bip
        self.config = config
        self.workload = workload    # Workload instance | None
        self.ground_truth = ground_truth
        self.class_names = class_names
        self.state = state
        self.from_cache = False
        self.coalesced = 0
        self.retries = 0
        self._entry = None           # CacheEntry | None
        #: wait_result() callers still blocked, and the result kept
        #: alive for them once it arrives
        self._result_waiters = 0
        self._handoff = None
        self.overall_accuracy: float | None = None
        self.report = None          # ProfileReport | None
        self.error: Exception | str | None = None
        self.result_sha256: str | None = None
        self.done = asyncio.Event()
        #: Execution generation: bumped on every watchdog requeue, so
        #: a zombie attempt's late outcome is recognized as stale.
        self.generation = 0
        self.watchdog_requeues = 0
        #: Journal replay recreated/re-enqueued this job after a crash.
        self.recovered = False
        #: Liveness timestamp of the current attempt (set by the
        #: executor; None until the job first runs).
        self.heartbeat = None
        #: Watchdog EventRecords concerning this job, merged into its
        #: final profile report.
        self.events: list = []

    def transition(self, state: str) -> None:
        """Move to ``state``, enforcing the lifecycle machine."""
        allowed = _TRANSITIONS.get(self.state, frozenset())
        if state not in allowed:
            raise ServingError(
                f"job {self.job_id}: illegal transition "
                f"{self.state!r} -> {state!r}")
        self.state = state
        if state in TERMINAL_STATES:
            self.done.set()

    def serve_from_cache(self, entry) -> None:
        """Complete this job from a :class:`~repro.serving.cache.CacheEntry`.

        The one sanctioned bypass of :meth:`transition`: a cached key
        means the work already happened, so the job is born terminal
        without ever being queued or run.
        """
        self.state = DONE
        self.from_cache = True
        self.attach_result(entry)
        self.report = entry.report
        self.result_sha256 = entry.digest
        self.release_payload()
        self.done.set()

    @property
    def result(self):
        """The finished result, or None: before completion, for a
        failed or replayed job, or once the result cache has evicted it
        and nothing else holds it."""
        return None if self._entry is None else self._entry.result

    def attach_result(self, entry) -> None:
        """Record a finished result through its cache entry, plus the
        report accuracy :meth:`status` must keep showing after the
        result is gone.  A blocked :meth:`wait_result` caller keeps the
        result alive until it wakes, even if the entry is evicted
        first."""
        self._entry = entry
        result = entry.result
        if self._result_waiters:
            self._handoff = result
        # not every workload's result carries a classification report
        # (detection and reduction results do not)
        report = getattr(result, "report", None)
        if report is not None:
            self.overall_accuracy = float(report.overall_accuracy)

    async def wait_result(self):
        """Await the terminal state; returns the result, or None for a
        job that did not end ``done``.

        Unlike reading :attr:`result` after awaiting :attr:`done`, this
        cannot miss a result the cache evicted while the caller was
        waking up: one that arrives while a caller waits is held for it
        until the call returns.
        """
        self._result_waiters += 1
        try:
            await self.done.wait()
            return self.result
        finally:
            self._result_waiters -= 1
            if not self._result_waiters:
                self._handoff = None

    def release_payload(self) -> None:
        """Drop the request cube once the job is terminal.  The server
        keeps every job record for status queries, but a record holds
        its result only while the result cache does, and a retained
        cube would grow memory with history length."""
        self.bip = None
        self.ground_truth = None

    def status(self) -> JobStatus:
        """The current :class:`JobStatus` snapshot."""
        error = None
        if isinstance(self.error, str):
            # journal replay recreates failed jobs from the recorded
            # "Type: message" text — the exception object is gone
            error = self.error
        elif self.error is not None:
            error = f"{type(self.error).__name__}: {self.error}"
        return JobStatus(
            job_id=self.job_id, key=self.key, state=self.state,
            from_cache=self.from_cache, coalesced=self.coalesced,
            retries=self.retries, error=error,
            result_sha256=self.result_sha256,
            overall_accuracy=self.overall_accuracy,
            workload=None if self.workload is None else self.workload.name,
            watchdog_requeues=self.watchdog_requeues,
            recovered=self.recovered)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Job(id={self.job_id}, state={self.state}, "
                f"key={self.key[:12]}...)")
