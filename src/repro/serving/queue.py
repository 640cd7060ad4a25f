"""Bounded admission queue: backpressure instead of unbounded latency.

A server that accepts every request melts down by queueing: once the
arrival rate exceeds service rate, latency grows without bound and
every client times out — the classic failure the admission-control
literature calls *congestion collapse*.  The serving layer therefore
bounds its queue and **rejects at admission** when full, telling the
client when to come back (:class:`~repro.errors.ServerBusyError`
carries ``retry_after_s``), rather than letting work pile up.

The retry hint is load-proportional, not clock-derived (the serving
layer, like the compute layers, reads no wall clock — the
``no-wallclock-in-compute`` lint holds here too): it is the number of
jobs ahead of the rejected one times the server's per-job cost
estimate.  Crude, but monotone in load, which is all a backoff loop
needs.
"""

from __future__ import annotations

import asyncio

from repro.errors import ServerBusyError, ServingError


class AdmissionQueue:
    """An :class:`asyncio.Queue` with reject-at-admission semantics.

    Parameters
    ----------
    maxsize:
        Jobs the queue holds before rejecting (>= 1).
    estimated_job_s:
        Per-job service-time estimate behind the ``retry_after_s``
        hint.
    """

    def __init__(self, maxsize: int = 16,
                 estimated_job_s: float = 1.0) -> None:
        if maxsize < 1:
            raise ServingError(f"maxsize must be >= 1, got {maxsize}")
        if estimated_job_s <= 0:
            raise ServingError(
                f"estimated_job_s must be positive, got {estimated_job_s}")
        self.maxsize = int(maxsize)
        self.estimated_job_s = float(estimated_job_s)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.maxsize)

    def __len__(self) -> int:
        return self._queue.qsize()

    @property
    def depth(self) -> int:
        """Jobs currently waiting for a worker."""
        return self._queue.qsize()

    def retry_after_s(self) -> float:
        """The backpressure hint for a rejection issued now."""
        return (self.depth + 1) * self.estimated_job_s

    def admit(self, job) -> None:
        """Enqueue ``job`` or raise :class:`ServerBusyError`.

        Admission is synchronous (``put_nowait``): a full queue is a
        *decision point*, not something to await on — blocking the
        submitter is exactly the unbounded-latency failure mode the
        bound exists to prevent.
        """
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            hint = self.retry_after_s()
            raise ServerBusyError(
                f"job queue full ({self.maxsize} waiting); "
                f"retry in ~{hint:.1f}s",
                retry_after_s=hint) from None

    async def readmit(self, job) -> None:
        """Re-enqueue a job bypassing admission control.

        The watchdog-requeue and journal-replay paths: the job was
        *already admitted* once (and counted against the bound then),
        so bouncing it now would turn a rescue into a loss.  Awaits a
        free slot instead of rejecting — both callers run where a brief
        wait is acceptable (startup replay, the monitor task).
        """
        await self._queue.put(job)

    async def next_job(self):
        """Await the next admitted job (worker side)."""
        return await self._queue.get()

    async def put_sentinel(self) -> None:
        """Enqueue a ``None`` stop sentinel, bypassing admission.

        Shutdown must not be rejectable — this awaits a free slot
        instead of bouncing, which is safe because workers are still
        draining the queue while sentinels wait.
        """
        await self._queue.put(None)

    def task_done(self) -> None:
        """Mark one fetched job finished (pairs with :meth:`next_job`)."""
        self._queue.task_done()

    async def join(self) -> None:
        """Await until every admitted job has been marked done."""
        await self._queue.join()

    def drain(self) -> list:
        """Remove and return every waiting job (shutdown path)."""
        jobs = []
        while True:
            try:
                jobs.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                return jobs
            self._queue.task_done()
