"""AMCServer behaviour: lifecycle, dedup, backpressure, isolation.

The acceptance criterion these tests own: *a duplicate submission
performs zero pipeline executions* — verified against the pipeline
run counter, not timing — *and returns a bit-identical result*
(sha256 equal to a one-shot :func:`run_amc` of the same request).

Tests drive the server with ``asyncio.run`` from synchronous test
functions (no async test plugin needed).
"""

from __future__ import annotations

import asyncio
import errno
import gc
import os

import numpy as np
import pytest

from repro import faults
from repro.core import AMCConfig, run_amc
from repro.errors import JobNotFoundError, ServerBusyError, ServerClosedError
from repro.faults import FaultInjector, FaultSpec
from repro.serving import AMCServer, CacheEntry, durable, result_digest
from repro.serving import jobs as jobstates
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.uninstall()
    faults.set_attempt(0)
    yield
    faults.uninstall()
    faults.set_attempt(0)


PARAMS = {"n_classes": 3}


async def _until_state(server, job_id, state, tries=200):
    for _ in range(tries):
        if server.status(job_id).state == state:
            return
        await asyncio.sleep(0.01)
    raise AssertionError(
        f"job {job_id} never reached {state!r} "
        f"(now {server.status(job_id).state!r})")


class TestLifecycle:
    def test_submit_requires_running_server(self, small_cube):
        async def scenario():
            server = AMCServer(workers=1)
            with pytest.raises(ServerClosedError):
                await server.submit(small_cube, PARAMS)

        asyncio.run(scenario())

    def test_job_reaches_done_with_report_and_digest(self, small_cube):
        async def scenario():
            async with AMCServer(workers=1) as server:
                job = await server.submit(small_cube, PARAMS)
                status = await server.wait(job.job_id)
            return server, status

        server, status = asyncio.run(scenario())
        assert status.state == jobstates.DONE
        assert not status.from_cache
        assert status.result_sha256
        # the per-job profile went through the standard pipeline path:
        # one record per stage, in order, with the job's identity in meta
        job = server.job(status.job_id)
        assert [s.name for s in job.report.stages] == [
            "morphology", "endmembers", "unmixing",
            "classification", "evaluation"]
        assert job.report.meta["job"] == status.job_id
        # terminal jobs drop their request payload
        assert job.bip is None

    def test_unknown_job_id_raises(self, small_cube):
        async def scenario():
            async with AMCServer(workers=1) as server:
                with pytest.raises(JobNotFoundError):
                    server.status(999)

        asyncio.run(scenario())


class TestDedup:
    def test_duplicates_cost_zero_extra_executions(self, small_cube):
        """3 concurrent identical + 1 later identical submission = one
        pipeline run; every result is bit-identical to one-shot
        run_amc."""
        oneshot = result_digest(run_amc(small_cube, AMCConfig(**PARAMS)))

        async def scenario():
            async with AMCServer(workers=2) as server:
                first = await server.submit(small_cube, PARAMS)
                second = await server.submit(small_cube, PARAMS)
                third = await server.submit(small_cube, PARAMS)
                # identical in-flight submissions coalesce to one Job
                assert second is first and third is first
                await server.wait(first.job_id)
                # the work is finished and cached: a fresh submission
                # is born done without touching the queue
                fourth = await server.submit(small_cube, PARAMS)
                assert fourth is not first
                assert fourth.state == jobstates.DONE
                assert fourth.from_cache
                return server, first, fourth

        server, first, fourth = asyncio.run(scenario())
        assert server.pipeline_runs == 1          # the acceptance gate
        assert first.coalesced == 2
        assert first.result_sha256 == oneshot
        assert fourth.result_sha256 == oneshot
        counters = server.counters
        assert counters.submitted == 4
        assert counters.coalesced == 2
        assert counters.cache_hits == 1
        assert counters.executed == 1

    def test_execution_knobs_hit_the_same_cache_entry(self, small_cube):
        """A parallel request is a cache hit for a serial result."""
        async def scenario():
            async with AMCServer(workers=1) as server:
                job = await server.submit(small_cube, PARAMS)
                await server.wait(job.job_id)
                knobbed = await server.submit(
                    small_cube, dict(PARAMS, n_workers=4, max_retries=5))
                return server, job, knobbed

        server, job, knobbed = asyncio.run(scenario())
        assert knobbed.from_cache
        assert knobbed.result_sha256 == job.result_sha256
        assert server.pipeline_runs == 1

    def test_distinct_params_do_not_dedup(self, small_cube):
        async def scenario():
            async with AMCServer(workers=1) as server:
                a = await server.submit(small_cube, {"n_classes": 3})
                b = await server.submit(small_cube, {"n_classes": 4})
                assert b is not a
                await server.wait(a.job_id)
                await server.wait(b.job_id)
                return server

        server = asyncio.run(scenario())
        assert server.pipeline_runs == 2


class TestBackpressureAndCancel:
    def test_full_queue_rejects_with_retry_hint(self, small_cube):
        """One worker stalled + queue of one = the third distinct job
        bounces with a load-proportional retry_after_s."""
        faults.install(FaultInjector([
            FaultSpec(kind="timeout", site="job", index=1, sleep_s=0.4),
        ]))

        async def scenario():
            async with AMCServer(workers=1, queue_size=1,
                                 estimated_job_s=2.0) as server:
                stalled = await server.submit(small_cube, {"n_classes": 3})
                await _until_state(server, stalled.job_id,
                                   jobstates.RUNNING)
                queued = await server.submit(small_cube, {"n_classes": 4})
                with pytest.raises(ServerBusyError) as excinfo:
                    await server.submit(small_cube, {"n_classes": 5})
                # depth 1 ahead + the rejected one, at 2 s per job
                assert excinfo.value.retry_after_s == pytest.approx(4.0)
                # the rejected submission left no job record behind
                assert {j.job_id for j in server.job_statuses()} == {
                    stalled.job_id, queued.job_id}
                await server.wait(stalled.job_id)
                await server.wait(queued.job_id)
                return server

        server = asyncio.run(scenario())
        assert server.counters.rejected == 1
        assert server.health()["queue"]["rejected"] == 1

    def test_queued_job_can_be_cancelled(self, small_cube):
        faults.install(FaultInjector([
            FaultSpec(kind="timeout", site="job", index=1, sleep_s=0.4),
        ]))

        async def scenario():
            async with AMCServer(workers=1, queue_size=4) as server:
                stalled = await server.submit(small_cube, {"n_classes": 3})
                await _until_state(server, stalled.job_id,
                                   jobstates.RUNNING)
                queued = await server.submit(small_cube, {"n_classes": 4})
                status = await server.cancel(queued.job_id)
                assert status.state == jobstates.CANCELLED
                # cancelling a running job is a no-op, not an error
                still = await server.cancel(stalled.job_id)
                assert still.state == jobstates.RUNNING
                await server.wait(stalled.job_id)
                return server

        server = asyncio.run(scenario())
        assert server.counters.cancelled == 1
        assert server.pipeline_runs == 1      # the cancelled job never ran

    def test_failed_job_does_not_poison_the_server(self, small_cube):
        """A job that exhausts its retries fails alone; the next
        submission of the *same key* executes fresh (failures are not
        cached)."""
        faults.install(FaultInjector([
            FaultSpec(kind="transient", site="job", index=1, attempt=None),
        ]))

        async def scenario():
            async with AMCServer(workers=1) as server:
                doomed = await server.submit(
                    small_cube, dict(PARAMS, max_retries=1))
                status = await server.wait(doomed.job_id)
                assert status.state == jobstates.FAILED
                assert "TransientFaultError" in status.error
                # same key, next submission: the fault spec is pinned to
                # job_id 1, so this one runs clean
                retry = await server.submit(
                    small_cube, dict(PARAMS, max_retries=1))
                final = await server.wait(retry.job_id)
                assert final.state == jobstates.DONE
                return server

        server = asyncio.run(scenario())
        assert server.counters.failed == 1
        assert server.counters.completed == 1

    def test_stop_without_drain_cancels_queued_jobs(self, small_cube):
        faults.install(FaultInjector([
            FaultSpec(kind="timeout", site="job", index=1, sleep_s=0.4),
        ]))

        async def scenario():
            server = await AMCServer(workers=1, queue_size=4).start()
            stalled = await server.submit(small_cube, {"n_classes": 3})
            await _until_state(server, stalled.job_id, jobstates.RUNNING)
            queued = await server.submit(small_cube, {"n_classes": 4})
            await server.stop(drain=False)
            return server, stalled, queued

        server, stalled, queued = asyncio.run(scenario())
        assert stalled.state == jobstates.DONE       # running jobs finish
        assert queued.state == jobstates.CANCELLED
        assert server.pipeline_runs == 1


class TestResultRetention:
    """The result cache is the one store that keeps results alive: job
    records reach their results through its entries, within
    ``cache_bytes``."""

    @staticmethod
    def _cubes(small_cube, n):
        return [small_cube + 0.01 * i for i in range(n)]

    def test_retained_bytes_stay_within_cache_bytes(self, small_cube):
        nbytes = get_workload("amc").result_nbytes(
            run_amc(small_cube, AMCConfig(**PARAMS)))
        budget = int(2.5 * nbytes)           # room for two results

        async def scenario():
            async with AMCServer(workers=1, cache_bytes=budget) as server:
                done = []
                for cube in self._cubes(small_cube, 4):
                    job = await server.submit(cube, PARAMS)
                    done.append(await server.wait(job.job_id))
                return server, done

        server, done = asyncio.run(scenario())
        gc.collect()
        live = {id(r): r for r in (server.job(s.job_id).result
                                   for s in done) if r is not None}
        pinned = sum(get_workload("amc").result_nbytes(r)
                     for r in live.values())
        assert pinned <= budget
        assert server.cache.current_bytes == pinned == 2 * nbytes
        memory = server.cache.as_dict()
        assert (memory["entries"], memory["bytes"], memory["max_bytes"],
                memory["evictions"]) == (2, 2 * nbytes, budget, 2)
        assert server.health()["cache"]["memory"] == memory
        for status in done[:2]:
            # evicted, yet the status a client sees is unchanged
            assert server.job(status.job_id).result is None
            assert server.status(status.job_id) == status
            assert status.result_sha256
            assert status.overall_accuracy is None  # no ground truth
        for status in done[2:]:
            assert server.job(status.job_id).result is not None

    def test_the_newest_result_is_kept_however_large(self, small_cube):
        """A result larger than ``cache_bytes`` stays until a newer one
        completes; its accuracy survives the eviction."""
        gt = (np.arange(small_cube.shape[0] * small_cube.shape[1])
              .reshape(small_cube.shape[:2]) % 3 + 1)

        async def scenario():
            async with AMCServer(workers=1, cache_bytes=1) as server:
                first = await server.submit(small_cube, PARAMS,
                                            ground_truth=gt)
                status = await server.wait(first.job_id)
                gc.collect()
                kept = first.result is not None
                second = await server.submit(small_cube + 0.01, PARAMS)
                await server.wait(second.job_id)
                return server, status, kept, second

        server, status, kept, second = asyncio.run(scenario())
        gc.collect()
        assert kept
        assert server.job(status.job_id).result is None
        assert second.result is not None
        assert server.cache.stats.evictions == 1
        assert len(server.cache) == 1
        assert status.overall_accuracy is not None
        assert server.status(status.job_id) == status

    def test_waiters_are_handed_released_results(self, small_cube):
        """Two workers finish jobs while their waiters are still
        waking; a budget of one byte evicts each result as the next
        completes, yet every ``wait_result`` caller gets its own."""
        async def scenario():
            async with AMCServer(workers=2, cache_bytes=1) as server:
                jobs, waiters = [], []
                for cube in self._cubes(small_cube, 4):
                    jobs.append(await server.submit(cube, PARAMS))
                    waiters.append(asyncio.ensure_future(
                        jobs[-1].wait_result()))
                return server, jobs, await asyncio.gather(*waiters)

        server, jobs, results = asyncio.run(scenario())
        assert server.cache.stats.evictions == 3
        for job, result in zip(jobs, results):
            assert result_digest(result) == job.result_sha256

    def test_records_keep_retained_results_after_shutdown(self,
                                                          small_cube):
        """A record read after its server is stopped and dropped still
        has the result that was cached when the server went away."""
        async def scenario():
            async with AMCServer(workers=1) as server:
                job = await server.submit(small_cube, PARAMS)
                await server.wait(job.job_id)
                return job

        job = asyncio.run(scenario())
        gc.collect()
        assert result_digest(job.result) == job.result_sha256

    def test_handoff_outlives_the_release(self):
        """A result that arrives while ``wait_result`` waits is held
        for the waiter even though nothing else keeps it alive, and
        only until the waiter returns."""
        class Result:
            pass

        async def scenario():
            job = jobstates.Job(1, "key", bip=None, config=None)
            waiter = asyncio.ensure_future(job.wait_result())
            await asyncio.sleep(0)            # the waiter is blocked
            job.transition(jobstates.RUNNING)
            entry = CacheEntry(Result(), nbytes=1)
            job.attach_result(entry)
            job.transition(jobstates.DONE)
            entry.release()          # a newer result evicted the entry
            gc.collect()
            return job, type(await waiter)

        job, handed = asyncio.run(scenario())
        gc.collect()
        assert handed is Result
        assert job.result is None

    def test_cache_hits_share_one_retained_result(self, small_cube):
        async def scenario():
            async with AMCServer(workers=1) as server:
                jobs = []
                for _ in range(3):
                    job = await server.submit(small_cube, PARAMS)
                    await server.wait(job.job_id)
                    jobs.append(job)
                return server, jobs

        server, jobs = asyncio.run(scenario())
        assert jobs[1].from_cache and jobs[2].from_cache
        memory = server.cache.as_dict()
        assert (memory["entries"], memory["insertions"],
                memory["hits"]) == (1, 1, 2)
        assert jobs[0].result is jobs[2].result is not None

    def test_not_bounded_by_cache_entries(self, small_cube):
        """The budget is bytes, not entries: 65 small results all stay
        cached, and the first is still a memory hit."""
        async def scenario():
            async with AMCServer(workers=1) as server:
                jobs = []
                for cube in self._cubes(small_cube, 65):
                    job = await server.submit(cube, PARAMS)
                    await server.wait(job.job_id)
                    jobs.append(job)
                again = await server.submit(small_cube, PARAMS)
                return server, jobs, again

        server, jobs, again = asyncio.run(scenario())
        gc.collect()
        assert again.from_cache and server.counters.cache_hits == 1
        assert server.pipeline_runs == 65
        assert server.cache.stats.evictions == 0
        assert all(job.result is not None for job in jobs)


class TestDiskHitDedup:
    """The disk tier serves keys the memory tier has evicted, and only
    those: a result still cached is never reloaded from disk."""

    def test_a_cached_result_is_never_a_disk_hit(self, small_cube,
                                                  tmp_path):
        """65 distinct results under the default budgets all stay in
        memory, so resubmitting the first one reads no disk entry."""
        async def scenario():
            async with AMCServer(workers=1,
                                 state_dir=str(tmp_path / "state")) as server:
                for i in range(65):
                    job = await server.submit(small_cube + 0.01 * i, PARAMS)
                    await server.wait(job.job_id)
                before = server.counters.cache_hits
                again = await server.submit(small_cube, PARAMS)
                return server, before, again

        server, before, again = asyncio.run(scenario())
        assert again.from_cache
        assert server.counters.cache_hits == before + 1
        assert server.counters.disk_cache_hits == 0
        assert server.disk_cache.stats.hits == 0
        assert server.pipeline_runs == 65

    def test_disk_hits_on_one_key_share_one_result(self, small_cube,
                                                   tmp_path):
        other = {"n_classes": 2}

        async def scenario():
            async with AMCServer(workers=1, cache_bytes=1,
                                 state_dir=str(tmp_path / "state")) as server:
                ran = await server.submit(small_cube, PARAMS)
                await server.wait(ran.job_id)
                # each submission of the other key evicts PARAMS from
                # the one-result memory tier
                await server.wait((await server.submit(small_cube,
                                                       other)).job_id)
                a = await server.submit(small_cube, PARAMS)
                await server.submit(small_cube, other)
                b = await server.submit(small_cube, PARAMS)
                return server, ran, a, b

        server, ran, a, b = asyncio.run(scenario())
        assert server.counters.disk_cache_hits == 3
        # every disk hit loaded and verified its entry
        assert server.disk_cache.stats.hits == 3
        assert a.from_cache and b.from_cache
        assert a.result_sha256 == b.result_sha256 == ran.result_sha256
        assert server.pipeline_runs == 2

    def test_restarted_server_first_disk_hit_loads_and_verifies(
            self, small_cube, tmp_path):
        state = str(tmp_path / "state")

        async def first_life():
            async with AMCServer(workers=1, state_dir=state) as server:
                job = await server.submit(small_cube, PARAMS)
                await server.wait(job.job_id)
                return job.key, job.result_sha256

        key, digest = asyncio.run(first_life())

        async def second_life():
            async with AMCServer(workers=1, cache_bytes=1,
                                 state_dir=state) as server:
                hit = await server.submit(small_cube, PARAMS)
                assert server.disk_cache.stats.hits == 1
                loaded = result_digest(hit.result)
                # evict it from memory, then damage the entry: a failed
                # verification is a miss, never a hit
                await server.wait((await server.submit(
                    small_cube, {"n_classes": 2})).job_id)
                path = os.path.join(server.disk_cache.directory,
                                    f"{key}.res")
                with open(path, "rb") as fh:
                    data = fh.read()
                with open(path, "wb") as fh:
                    fh.write(data[: len(data) - 64])
                rerun = await server.submit(small_cube, PARAMS)
                await server.wait(rerun.job_id)
                return server, hit, loaded, rerun

        server, hit, loaded, rerun = asyncio.run(second_life())
        assert hit.from_cache and hit.result_sha256 == digest
        assert loaded == digest
        assert server.disk_cache.stats.quarantined == 1
        assert not rerun.from_cache
        assert rerun.result_sha256 == digest
        assert server.pipeline_runs == 2

    def test_equal_digests_on_different_keys_never_share(self, small_cube,
                                                         tmp_path):
        """Class names are part of the key but not of the digest (which
        covers only the decision arrays): two keys, one digest, two
        results that differ outside the digested arrays."""
        gt = np.arange(90).reshape(10, 9) % 3 + 1
        abc = {"ground_truth": gt, "class_names": ("a", "b", "c")}
        xyz = {"ground_truth": gt, "class_names": ("x", "y", "z")}

        async def scenario():
            async with AMCServer(workers=1, cache_bytes=1,
                                 state_dir=str(tmp_path / "state")) as server:
                ran_abc = await server.submit(small_cube, PARAMS, **abc)
                await server.wait(ran_abc.job_id)
                ran_xyz = await server.submit(small_cube, PARAMS, **xyz)
                await server.wait(ran_xyz.job_id)
                # read each hit's names before the next one evicts it
                hit_abc = await server.submit(small_cube, PARAMS, **abc)
                names_abc = hit_abc.result.report.class_names
                hit_xyz = await server.submit(small_cube, PARAMS, **xyz)
                names_xyz = hit_xyz.result.report.class_names
                return server, ran_abc, ran_xyz, names_abc, names_xyz

        server, ran_abc, ran_xyz, names_abc, names_xyz = asyncio.run(
            scenario())
        assert server.counters.disk_cache_hits == 2
        assert ran_abc.key != ran_xyz.key
        assert ran_abc.result_sha256 == ran_xyz.result_sha256
        assert names_abc == ("a", "b", "c")
        assert names_xyz == ("x", "y", "z")


class TestDurabilityFaults:
    def test_payload_delete_error_is_counted_not_fatal(self, small_cube,
                                                       tmp_path,
                                                       monkeypatch):
        """One EIO deleting a finished job's spilled payload must not
        kill the server worker that hit it."""
        remove, failed = durable.remove, []

        def eio_once(path):
            if path.endswith(".req") and not failed:
                failed.append(path)
                raise OSError(errno.EIO, "injected EIO", path)
            return remove(path)

        monkeypatch.setattr(durable, "remove", eio_once)

        async def scenario():
            server = AMCServer(workers=1, state_dir=str(tmp_path / "state"))
            await server.start()
            jobs = [await server.submit(small_cube, {"n_classes": n})
                    for n in (2, 3, 4)]
            statuses = [await server.wait(job.job_id) for job in jobs]
            await server.stop()
            return server, statuses

        server, statuses = asyncio.run(asyncio.wait_for(scenario(), 30))
        assert failed
        assert [s.state for s in statuses] == [jobstates.DONE] * 3
        assert server.journal_errors == 1
