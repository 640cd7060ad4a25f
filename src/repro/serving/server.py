"""The hyperspectral job server: one event loop, a persistent worker
pool, a content-addressed cache, and the coalescer that ties them
together.

Architecture (see ``docs/serving.md`` for the full treatment)::

    submit ──► admission (bounded queue, reject-with-retry-after)
                  │
                  ├── key in flight?  ──► coalesce onto the live job
                  ├── key in cache?   ──► serve the cached result
                  ├── key on disk?    ──► verify sha, promote, serve
                  └── else ──► journal ──► queue ──► worker task
                                               │
                                               └─ executor thread
                                                  (persistent Pipeline,
                                                   heartbeats, retry
                                                   loop per attempt)

Every request is content-addressed (:func:`~repro.serving.api.job_key`)
before anything else happens, which is what makes the dedup layers —
in-flight coalescing, the memory cache, the disk tier — sound: N
identical submissions cost exactly one pipeline execution, whether
they arrive together (coalesced), spread over time (cached), or across
a server restart (disk tier + journal replay).

Durability (optional, enabled by ``state_dir``): every lifecycle
transition is appended to a write-ahead journal
(:class:`~repro.serving.journal.JobJournal`) before it is acted on,
request payloads are spilled so queued/running jobs survive a crash,
and completed results are written through to a sha-verified disk cache
tier (:class:`~repro.serving.diskcache.DiskCacheTier`).  On start the
journal is replayed: interrupted jobs re-enqueue from their spilled
payloads, completed jobs are recreated terminal without re-execution.
Journal/disk faults never fail a job — they degrade durability and are
counted (``journal_errors``, disk ``write_errors``), both visible in
:meth:`AMCServer.health`.

Self-healing: executor threads heartbeat through their job's
:class:`~repro.serving.watchdog.Heartbeat`; the
:class:`~repro.serving.watchdog.Watchdog` monitor requeues jobs whose
heartbeat goes stale (under the job's own retry budget, with a
``generation`` guard dropping the zombie attempt's late result) or
fails them with :class:`~repro.errors.StuckJobError` once the budget
is spent.

The server is workload-generic: each submission names a registered
:class:`~repro.workloads.Workload` (default ``"amc"``), which supplies
the config schema (invalid parameters fail at admission), the input
validation (non-finite or zero-sized cubes are rejected at submit
time, before they occupy a queue slot), the cache-key parameter list,
the pipeline the executor threads keep warm, and the result
digest/size accounting.  Execution rides the existing machinery
unchanged: jobs run through ``workload.run(...)`` on a long-lived
per-(thread, workload) :class:`~repro.pipeline.Pipeline` (the
``run_amc_batch`` reuse discipline), wrapped in the
:mod:`repro.resilience` retry loop, so a transient fault, a crashed
worker or a GPU OOM degrades *one job* — never the server.

Threading discipline: all server state (jobs table, coalescing map,
caches, journal, counters) is touched only from the event-loop thread;
executor threads see nothing but their job's payload, their heartbeat,
and their own pipelines.
"""

from __future__ import annotations

import asyncio
import os.path
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from threading import local

from repro.errors import (JobNotFoundError, ServerBusyError,
                          ServerClosedError, ServingError, StuckJobError,
                          TransientFaultError)
from repro.faults import maybe_inject
from repro.profiling.profiler import Profiler
from repro.resilience import run_isolated, run_with_retry
from repro.serving import jobs as jobstates
from repro.serving.api import job_key, result_digest
from repro.serving.cache import ResultCache
from repro.serving.diskcache import DiskCacheTier
from repro.serving.jobs import Job, JobStatus
from repro.serving.journal import JobJournal
from repro.serving.queue import AdmissionQueue
from repro.serving.watchdog import Heartbeat, Watchdog
from repro.workloads import get_workload, workload_names


def _registered_workload(name):
    """The registered workload called ``name``; None for a missing or
    unregistered name (journal replay must not raise on either)."""
    if isinstance(name, str) and name in workload_names():
        return get_workload(name)
    return None


@dataclass
class ServerCounters:
    """Request-accounting counters of one :class:`AMCServer`.

    ``submitted`` counts every accepted ``submit`` call;
    ``coalesced`` + ``cache_hits`` + ``disk_cache_hits`` + ``executed``
    partition it (minus cancellations).  ``rejected`` counts
    submissions refused at admission (not in ``submitted``).
    ``executed`` is jobs that reached a pipeline; ``completed``/
    ``failed`` split their outcomes.  ``recovered`` is jobs journal
    replay re-enqueued after a restart; ``stale_drops`` is
    zombie-attempt outcomes discarded by the generation guard.
    """

    submitted: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    disk_cache_hits: int = 0
    rejected: int = 0
    executed: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    recovered: int = 0
    stale_drops: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (for ``stats()`` reports)."""
        return {"submitted": self.submitted, "coalesced": self.coalesced,
                "cache_hits": self.cache_hits,
                "disk_cache_hits": self.disk_cache_hits,
                "rejected": self.rejected,
                "executed": self.executed, "completed": self.completed,
                "failed": self.failed, "cancelled": self.cancelled,
                "recovered": self.recovered,
                "stale_drops": self.stale_drops}


class AMCServer:
    """An asyncio job server for classify/detect requests.

    Parameters
    ----------
    workers:
        Concurrent executor threads (each owns one persistent
        pipeline).  Per-job chunk parallelism (``params["n_workers"]``)
        nests inside these as usual.
    queue_size:
        Admission bound — jobs waiting beyond the running ones before
        submissions are rejected with a retry-after hint.
    cache_bytes:
        Byte budget of the result cache
        (:class:`~repro.serving.cache.ResultCache`), the one store that
        keeps finished results alive: job records reach their results
        through its entries, so the most recent results up to that many
        bytes (and always the newest one, however large) are held, and
        an evicted one lives on only while something else holds it.
    state_dir:
        Directory for the durable tier (write-ahead journal, payload
        spill, disk result cache).  ``None`` (the default) keeps the
        server fully in-memory — the historical behavior.
    disk_cache_bytes:
        Byte budget of the disk cache tier (with ``state_dir`` only).
    watchdog_deadline_s:
        Default heartbeat-age limit before a running job is considered
        stuck; ``None`` disables the watchdog monitor.
    watchdog_poll_s:
        Watchdog wake interval.
    default_workload:
        The workload submissions run when they name none — a
        :mod:`repro.workloads` registry name or instance (default
        ``"amc"``).
    default_params:
        Parameter defaults merged under each request's params *for the
        default workload* (a mapping of its config field overrides;
        requests naming a different workload take their params as-is —
        field names are not portable across config schemas).
    estimated_job_s:
        Per-job service-time estimate behind ``retry_after_s``.
    """

    def __init__(self, *, workers: int = 2, queue_size: int = 16,
                 cache_bytes: int = 256 << 20,
                 state_dir: str | None = None,
                 disk_cache_bytes: int = 1 << 30,
                 watchdog_deadline_s: float | None = None,
                 watchdog_poll_s: float = 0.25,
                 default_workload="amc", default_params=None,
                 estimated_job_s: float = 1.0) -> None:
        if workers < 1:
            raise ServingError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.default_workload = get_workload(default_workload)
        self.default_params = dict(default_params or {})
        # validate defaults at build time, against the right schema
        self.default_workload.as_config(self.default_params)
        self.counters = ServerCounters()
        self.cache = ResultCache(max_bytes=cache_bytes)
        self.queue = AdmissionQueue(maxsize=queue_size,
                                    estimated_job_s=estimated_job_s)
        self.journal: JobJournal | None = None
        self.disk_cache: DiskCacheTier | None = None
        if state_dir is not None:
            self.journal = JobJournal(state_dir)
            self.disk_cache = DiskCacheTier(
                os.path.join(state_dir, "cache"),
                max_bytes=disk_cache_bytes)
        self.watchdog: Watchdog | None = None
        if watchdog_deadline_s is not None:
            self.watchdog = Watchdog(self, deadline_s=watchdog_deadline_s,
                                     poll_s=watchdog_poll_s)
        #: Journal/spill appends that failed (durability degraded,
        #: jobs unaffected).
        self.journal_errors = 0
        self._jobs: dict[int, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._next_id = 1
        self._running = False
        self._worker_tasks: list[asyncio.Task] = []
        self._requeue_tasks: set[asyncio.Task] = set()
        self._executor: ThreadPoolExecutor | None = None
        self._thread_state = local()
        #: Every pipeline any executor thread ever built — the ground
        #: truth for the zero-duplicate-execution acceptance check.
        self._pipelines: list = []

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the server is accepting submissions."""
        return self._running

    @property
    def pipeline_runs(self) -> int:
        """Total pipeline executions across every executor thread."""
        return sum(pipeline.run_count for pipeline in self._pipelines)

    async def start(self) -> "AMCServer":
        """Spawn the worker tasks and the executor; begin accepting.

        With a ``state_dir``, the journal is replayed first: jobs that
        were queued or running at crash time re-enqueue from their
        spilled payloads, completed jobs are recreated terminal (their
        results live in the disk tier — no re-execution), and the
        journal is compacted to one record per job.
        """
        if self._running:
            raise ServingError("server is already running")
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="amc-serve")
        if self.journal is not None:
            await self._recover()
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(), name=f"amc-worker-{i}")
            for i in range(self.workers)]
        if self.watchdog is not None:
            self.watchdog.start()
        self._running = True
        return self

    async def stop(self, *, drain: bool = True) -> None:
        """Stop accepting, finish work, shut the executor down.

        ``drain=True`` (default) completes every admitted job first;
        ``drain=False`` cancels the still-queued ones (running jobs
        always finish — the executor cannot abandon a thread safely).
        """
        if not self._running:
            return
        self._running = False
        if not drain:
            for job in self.queue.drain():
                if job is not None and job.state == jobstates.QUEUED:
                    self._cancel_queued(job)
        await self.queue.join()
        for _ in self._worker_tasks:
            await self.queue.put_sentinel()
        await asyncio.gather(*self._worker_tasks)
        self._worker_tasks = []
        if self.watchdog is not None:
            await self.watchdog.stop()
        for task in list(self._requeue_tasks):
            task.cancel()
        self._requeue_tasks.clear()
        if self.journal is not None:
            self.journal.close()
        self._executor.shutdown(wait=True)
        self._executor = None

    async def __aenter__(self) -> "AMCServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- the client-facing API -------------------------------------------

    async def submit(self, cube, params=None, *, workload=None,
                     ground_truth=None, class_names=None) -> Job:
        """Admit one request; returns its :class:`Job`.

        ``workload`` names the algorithm (registry name or instance;
        None = the server's default).  Dedup order: an identical
        in-flight job coalesces (the same Job object is returned, no
        new queue slot); an identical cached key — memory first, then
        the sha-verified disk tier — returns a job born ``done``;
        otherwise the request passes admission control — raising
        :class:`~repro.errors.ServerBusyError` when the queue is full
        — is journaled (when durable), and is queued.  Invalid
        parameters and non-finite or zero-sized cubes raise here, at
        admission, through the workload's own config schema and input
        validation.
        """
        if not self._running:
            raise ServerClosedError("server is not running")
        wl = (self.default_workload if workload is None
              else get_workload(workload))
        if wl is self.default_workload:
            merged = dict(self.default_params)
            if params is not None:
                merged.update(dict(params))
        else:
            # default_params speak the default workload's schema; a
            # request for another workload supplies its params whole
            merged = dict(params or {})
        config = wl.as_config(merged)
        bip = wl.check_inputs(cube)
        key = job_key(bip, config, ground_truth=ground_truth,
                      class_names=class_names, workload=wl)

        live = self._inflight.get(key)
        if live is not None:
            live.coalesced += 1
            self.counters.submitted += 1
            self.counters.coalesced += 1
            return live

        entry = self.cache.get(key)
        if entry is not None:
            job = self._new_job(key, bip=None, config=config, workload=wl)
            job.serve_from_cache(entry)
            self.counters.submitted += 1
            self.counters.cache_hits += 1
            return job

        if self.disk_cache is not None:
            loaded = self.disk_cache.get(key)
            if loaded is not None:
                # promote into the memory tier so the next hit is hot
                entry = self.cache.put(key, loaded.result, loaded.report,
                                       loaded.digest, nbytes=loaded.nbytes)
                job = self._new_job(key, bip=None, config=config,
                                    workload=wl)
                job.serve_from_cache(entry)
                self.counters.submitted += 1
                self.counters.disk_cache_hits += 1
                return job

        job = self._new_job(key, bip=bip, config=config, workload=wl,
                            ground_truth=ground_truth,
                            class_names=class_names)
        try:
            self.queue.admit(job)
        except ServerBusyError:
            del self._jobs[job.job_id]
            self.counters.rejected += 1
            raise
        self._inflight[key] = job
        self._spill_safe(job)
        self._journal_safe(jobstates.QUEUED, job)
        self.counters.submitted += 1
        return job

    def status(self, job_id: int) -> JobStatus:
        """The current snapshot of one job."""
        return self._job(job_id).status()

    def job(self, job_id: int) -> Job:
        """The live :class:`Job` record (in-process callers)."""
        return self._job(job_id)

    def job_statuses(self) -> list[JobStatus]:
        """Snapshots of every job this server has seen, by id."""
        return [job.status() for _, job in sorted(self._jobs.items())]

    async def wait(self, job_id: int) -> JobStatus:
        """Await a job's terminal state; returns the final snapshot."""
        job = self._job(job_id)
        await job.done.wait()
        return job.status()

    async def cancel(self, job_id: int) -> JobStatus:
        """Cancel a job if it is still queued.

        Running jobs are not interrupted (the executor owns them) and
        terminal jobs are left alone; either way the current snapshot
        is returned, so callers branch on ``.state``, not on errors.
        """
        job = self._job(job_id)
        if job.state == jobstates.QUEUED:
            self._cancel_queued(job)
        return job.status()

    def stats(self) -> dict:
        """One observable snapshot: counters, queue, cache, pipelines."""
        return {
            "running": self._running,
            "workers": self.workers,
            "jobs": len(self._jobs),
            "queue_depth": self.queue.depth,
            "queue_maxsize": self.queue.maxsize,
            "pipeline_runs": self.pipeline_runs,
            "counters": self.counters.as_dict(),
            "cache": self.cache.as_dict(),
        }

    def health(self) -> dict:
        """The self-diagnosis snapshot behind the ``health`` verb.

        Queue pressure, both cache tiers, journal occupancy and write
        errors, watchdog activity, and the heartbeat age of every
        running job — everything an operator (or a client backoff
        loop) needs to judge whether the server is healthy, loaded, or
        wedged.
        """
        running_jobs = [
            {"job_id": job.job_id,
             "generation": job.generation,
             "heartbeat_age_s": (None if job.heartbeat is None
                                 else round(job.heartbeat.age(), 3))}
            for job in self._jobs.values()
            if job.state == jobstates.RUNNING]
        return {
            "running": self._running,
            "workers": self.workers,
            "queue": {"depth": self.queue.depth,
                      "maxsize": self.queue.maxsize,
                      "rejected": self.counters.rejected,
                      "retry_after_s": self.queue.retry_after_s()},
            "journal": (None if self.journal is None
                        else dict(self.journal.stats(),
                                  write_errors=self.journal_errors)),
            "cache": {"memory": self.cache.as_dict(),
                      "disk": (None if self.disk_cache is None
                               else self.disk_cache.as_dict())},
            "watchdog": (self.watchdog.as_dict()
                         if self.watchdog is not None
                         else {"enabled": False}),
            "running_jobs": running_jobs,
            "pipeline_runs": self.pipeline_runs,
            "counters": self.counters.as_dict(),
        }

    # -- internals -------------------------------------------------------

    def _new_job(self, key: str, *, bip, config, workload,
                 ground_truth=None, class_names=None) -> Job:
        job = Job(self._next_id, key, bip=bip, config=config,
                  workload=workload, ground_truth=ground_truth,
                  class_names=class_names)
        self._jobs[job.job_id] = job
        self._next_id += 1
        return job

    def _job(self, job_id: int) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no job with id {job_id}")
        return job

    def _cancel_queued(self, job: Job) -> None:
        job.transition(jobstates.CANCELLED)
        self._inflight.pop(job.key, None)
        job.release_payload()
        self._journal_safe(jobstates.CANCELLED, job)
        self._drop_payload_safe(job)
        self.counters.cancelled += 1

    # -- durability ------------------------------------------------------

    def _journal_safe(self, state: str, job: Job, *,
                      digest: str | None = None,
                      error: str | None = None) -> None:
        """Append one transition; a journal fault degrades durability,
        never the job (counted, surfaced in ``health()``)."""
        if self.journal is None:
            return
        workload = None if job.workload is None else job.workload.name
        try:
            self.journal.append(state, job_id=job.job_id, key=job.key,
                                workload=workload, digest=digest,
                                error=error, generation=job.generation)
        except (TransientFaultError, OSError):
            self.journal_errors += 1

    def _spill_safe(self, job: Job) -> None:
        """Spill one request payload with the same containment."""
        if self.journal is None:
            return
        try:
            self.journal.spill_payload(
                job.key, bip=job.bip, config=job.config,
                workload=job.workload.name,
                ground_truth=job.ground_truth,
                class_names=job.class_names)
        except (TransientFaultError, OSError):
            self.journal_errors += 1

    def _drop_payload_safe(self, job: Job) -> None:
        """Delete a terminal job's spilled payload with the same
        containment (a failed delete leaves a stale file, nothing
        worse)."""
        if self.journal is None:
            return
        try:
            self.journal.drop_payload(job.key)
        except OSError:
            self.journal_errors += 1

    async def _recover(self) -> None:
        """Replay the journal: recreate history, re-enqueue lost work."""
        report = self.journal.replay()
        if not report.jobs:
            return
        self.journal.compact(report)
        self._next_id = max(self._next_id, report.max_job_id + 1)
        for replayed in report.jobs.values():
            workload = _registered_workload(replayed.workload)
            if replayed.state in jobstates.TERMINAL_STATES:
                job = Job(replayed.job_id, replayed.key, bip=None,
                          config=None, workload=workload,
                          state=replayed.state)
                job.recovered = True
                job.generation = replayed.generation
                job.result_sha256 = replayed.digest
                job.error = replayed.error
                job.done.set()
                self._jobs[job.job_id] = job
                continue
            # queued or running at crash time: the execution was lost
            payload = self.journal.load_payload(replayed.key)
            replay_workload = (None if payload is None else
                               _registered_workload(payload["workload"]))
            if replay_workload is None:
                job = Job(replayed.job_id, replayed.key, bip=None,
                          config=None, workload=workload,
                          state=jobstates.FAILED)
                job.recovered = True
                job.error = ("ServingError: request payload lost or "
                             "corrupt — cannot replay the job")
                job.done.set()
                self._jobs[job.job_id] = job
                self._journal_safe(jobstates.FAILED, job,
                                   error=job.error)
                self._drop_payload_safe(job)
                self.counters.failed += 1
                continue
            job = Job(replayed.job_id, replayed.key, bip=payload["bip"],
                      config=payload["config"], workload=replay_workload,
                      ground_truth=payload["ground_truth"],
                      class_names=payload["class_names"],
                      state=jobstates.QUEUED)
            job.recovered = True
            job.generation = replayed.generation
            self._jobs[job.job_id] = job
            self._inflight[job.key] = job
            await self.queue.readmit(job)
            self._journal_safe(jobstates.QUEUED, job)
            self.counters.recovered += 1

    # -- the watchdog's callback -----------------------------------------

    def _rescue_stuck(self, job: Job, *, age: float,
                      deadline: float) -> bool:
        """Requeue or fail one stuck job (event-loop thread only).

        Returns True when the job was requeued, False when its retry
        budget was exhausted and it was failed.  Either way the
        generation bump makes the zombie attempt's eventual outcome
        stale.
        """
        budget = job.config.max_retries
        job.generation += 1
        if job.watchdog_requeues >= budget:
            job.error = StuckJobError(
                f"job {job.job_id}: no heartbeat for {age:.2f}s "
                f"(deadline {deadline:.2f}s) and the retry budget "
                f"({budget}) is spent")
            job.transition(jobstates.FAILED)
            self._journal_safe(jobstates.FAILED, job,
                               error=f"StuckJobError: {job.error}")
            self._drop_payload_safe(job)
            self._inflight.pop(job.key, None)
            job.release_payload()
            self.counters.failed += 1
            return False
        job.watchdog_requeues += 1
        job.transition(jobstates.QUEUED)
        self._journal_safe(jobstates.QUEUED, job)
        task = asyncio.create_task(self.queue.readmit(job),
                                   name=f"requeue-{job.job_id}")
        self._requeue_tasks.add(task)
        task.add_done_callback(self._requeue_tasks.discard)
        return True

    # -- execution -------------------------------------------------------

    async def _worker_loop(self) -> None:
        """One server worker: pull admitted jobs, run them off-loop."""
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.next_job()
            try:
                if job is None:
                    return
                if job.state != jobstates.QUEUED:
                    continue  # cancelled (or watchdog-failed) while waiting
                job.transition(jobstates.RUNNING)
                job.heartbeat = Heartbeat()
                generation = job.generation
                self._journal_safe(jobstates.RUNNING, job)
                self.counters.executed += 1
                # no local keeps the outcome, or this loop would keep
                # an evicted result alive until its next job finished
                self._finish(job, generation, *await loop.run_in_executor(
                    self._executor, self._execute, job, generation))
            finally:
                self.queue.task_done()

    def _finish(self, job: Job, generation: int, result, report,
                retries, error) -> None:
        """Apply one execution outcome (event-loop thread only).

        The generation guard drops stale outcomes: if the watchdog
        requeued (or failed) the job while this attempt was wedged,
        the attempt's late result must not overwrite the rescue.
        """
        if job.state != jobstates.RUNNING or generation != job.generation:
            self.counters.stale_drops += 1
            return
        job.retries = retries
        if report is not None and job.events:
            report = replace(report,
                             events=report.events + tuple(job.events))
        job.report = report
        if error is None:
            job.result_sha256 = result_digest(result, workload=job.workload)
            nbytes = job.workload.result_nbytes(result)
            job.attach_result(self.cache.put(
                job.key, result, report, job.result_sha256,
                nbytes=nbytes))
            job.transition(jobstates.DONE)
            self.counters.completed += 1
            self._journal_safe(jobstates.DONE, job,
                               digest=job.result_sha256)
            if self.disk_cache is not None:
                self.disk_cache.put(job.key, result, report,
                                    job.result_sha256, nbytes=nbytes,
                                    workload=job.workload.name)
        else:
            job.error = error
            job.transition(jobstates.FAILED)
            self.counters.failed += 1
            self._journal_safe(
                jobstates.FAILED, job,
                error=f"{type(error).__name__}: {error}")
        self._drop_payload_safe(job)
        self._inflight.pop(job.key, None)
        job.release_payload()

    def _thread_pipeline(self, workload):
        """This executor thread's persistent pipeline for ``workload``
        (built once per thread and workload)."""
        pipelines = getattr(self._thread_state, "pipelines", None)
        if pipelines is None:
            pipelines = {}
            self._thread_state.pipelines = pipelines
        pipeline = pipelines.get(workload.name)
        if pipeline is None:
            pipeline = workload.build_pipeline()
            pipelines[workload.name] = pipeline
            self._pipelines.append(pipeline)
        return pipeline

    def _execute(self, job: Job, generation: int):
        """Run one job in an executor thread; never raises.

        Returns ``(result, report, retries, error)``.  Retries follow
        the job's own parameters (``max_retries`` /
        ``chunk_timeout_s``) through the standard
        :mod:`repro.resilience` loop; each attempt gets a fresh
        profiler so the surfaced report describes the successful
        attempt only, while the retry count records what recovery cost.

        Attempt numbering is generation-disjoint
        (``attempt_base = generation * (max_retries + 1)``), the same
        idiom the pool-recovery path uses: a fault pinned to attempt 0
        fires on the first generation only, so a watchdog-rescued job
        re-executes clean.  The heartbeat is refreshed at every
        attempt boundary; the ``heartbeat_stall`` fault site between
        the beat and the run is where chaos tests wedge the thread.
        """
        policy = job.config.retry_policy()
        workload = job.workload
        pipeline = self._thread_pipeline(workload)
        heartbeat = job.heartbeat

        def attempt(_):
            heartbeat.beat()
            maybe_inject("heartbeat_stall", index=job.job_id)
            meta = {"job": job.job_id, "key": job.key[:12],
                    "workload": workload.name,
                    "workers": job.config.n_workers}
            backend = getattr(job.config, "backend", None)
            if backend is not None:
                meta["backend"] = backend
            profiler = Profiler(meta=meta)
            maybe_inject("job", index=job.job_id)
            result = workload.run(job.bip, job.config,
                                  ground_truth=job.ground_truth,
                                  class_names=job.class_names,
                                  profiler=profiler, pipeline=pipeline)
            heartbeat.beat()
            return result, profiler.report()

        outcome, error = run_isolated(
            run_with_retry, attempt, None, index=job.job_id,
            policy=policy,
            attempt_base=generation * (policy.max_retries + 1))
        if error is not None:
            return None, None, 0, error
        result, report = outcome.value
        return result, report, outcome.retries, None
