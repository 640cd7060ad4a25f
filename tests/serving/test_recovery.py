"""Restart recovery: journal replay recreates history, re-enqueues
interrupted jobs from their spilled payloads, and never re-executes
completed work — with results bit-identical to a crash-free run.

Crashes are simulated in-process by *not* stopping the first server
cleanly where noted (the journal is written ahead of every action, so
a dirty handle drop is exactly what a SIGKILL leaves behind; the true
process-kill path is ``test_chaos_recovery.py``).
"""

from __future__ import annotations

import asyncio
import os
import pickle

import pytest

from repro import faults
from repro.core import AMCConfig, run_amc
from repro.errors import InvalidCubeError
from repro.faults import FaultInjector, FaultSpec
from repro.serving import AMCServer, JobJournal, job_key, result_digest
from repro.serving import jobs as jobstates

PARAMS = {"n_classes": 3}


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.uninstall()
    faults.set_attempt(0)
    yield
    faults.uninstall()
    faults.set_attempt(0)


def _state(tmp_path):
    return str(tmp_path / "state")


class TestTerminalReplay:
    def test_done_jobs_replay_without_reexecution(self, small_cube,
                                                  tmp_path):
        async def first_life():
            async with AMCServer(workers=1,
                                 state_dir=_state(tmp_path)) as server:
                job = await server.submit(small_cube, PARAMS)
                await server.wait(job.job_id)
                return job.result_sha256

        async def second_life():
            async with AMCServer(workers=1,
                                 state_dir=_state(tmp_path)) as server:
                replayed = server.status(1)
                resubmit = await server.submit(small_cube, PARAMS)
                return server, replayed, resubmit

        digest = asyncio.run(first_life())
        server, replayed, resubmit = asyncio.run(second_life())

        assert replayed.state == jobstates.DONE
        assert replayed.recovered
        assert replayed.result_sha256 == digest
        # the resubmission is served from the disk tier: same digest,
        # promoted to memory, and the pipeline never ran
        assert resubmit.from_cache
        assert resubmit.result_sha256 == digest
        assert resubmit.job_id == 2              # ids continue past replay
        assert server.pipeline_runs == 0
        assert server.counters.disk_cache_hits == 1

    def test_failed_jobs_replay_as_history(self, small_cube, tmp_path):
        # an unrecovered crash (no retry budget) fails the job honestly
        faults.install(FaultInjector([
            FaultSpec(kind="worker_crash", site="job", index=1,
                      attempt=None)]))

        async def first_life():
            async with AMCServer(workers=1,
                                 state_dir=_state(tmp_path)) as server:
                job = await server.submit(small_cube, PARAMS)
                await server.wait(job.job_id)
                return server.status(job.job_id).error

        async def second_life():
            async with AMCServer(workers=1,
                                 state_dir=_state(tmp_path)) as server:
                return server.status(1)

        error = asyncio.run(first_life())
        replayed = asyncio.run(second_life())
        assert replayed.state == jobstates.FAILED
        assert replayed.recovered
        assert replayed.error == error


class TestInterruptedReplay:
    def _crash_with_inflight_job(self, cube, tmp_path, *,
                                 spill_payload=True):
        """Hand-write the journal a crashed server leaves behind: a job
        journaled queued+running whose execution never finished."""
        config = AMCConfig(**PARAMS)
        key = job_key(cube, config)
        journal = JobJournal(_state(tmp_path))
        if spill_payload:
            journal.spill_payload(key, bip=cube, config=config,
                                  workload="amc")
        journal.append("queued", job_id=3, key=key, workload="amc")
        journal.append("running", job_id=3, key=key, workload="amc")
        journal.close()
        return key

    def test_interrupted_job_reenqueues_and_completes(self, small_cube,
                                                      tmp_path):
        self._crash_with_inflight_job(small_cube, tmp_path)
        oneshot = result_digest(run_amc(small_cube, AMCConfig(**PARAMS)))

        async def recovered_life():
            async with AMCServer(workers=1,
                                 state_dir=_state(tmp_path)) as server:
                status = await server.wait(3)
                duplicate = await server.submit(small_cube, PARAMS)
                return server, status, duplicate

        server, status, duplicate = asyncio.run(recovered_life())
        assert status.state == jobstates.DONE
        assert status.recovered
        assert status.result_sha256 == oneshot
        assert server.counters.recovered == 1
        assert server.pipeline_runs == 1             # exactly once
        # the resubmission after recovery hits the caches, not the
        # pipeline — and new ids continue past the replayed one
        assert duplicate.from_cache or duplicate.coalesced
        assert duplicate.job_id == 4

    def test_interrupted_job_journal_ledger_shows_one_new_claim(
            self, small_cube, tmp_path):
        self._crash_with_inflight_job(small_cube, tmp_path)

        async def recovered_life():
            async with AMCServer(workers=1,
                                 state_dir=_state(tmp_path)) as server:
                await server.wait(3)
            return JobJournal(_state(tmp_path)).replay()

        report = asyncio.run(recovered_life())
        job = report.jobs[3]
        assert job.state == jobstates.DONE
        # compaction folded the crashed claim into one record; the
        # recovered execution added exactly one more
        assert job.executions == 2

    def test_lost_payload_fails_the_job_explicitly(self, small_cube,
                                                   tmp_path):
        self._crash_with_inflight_job(small_cube, tmp_path,
                                      spill_payload=False)

        async def recovered_life():
            async with AMCServer(workers=1,
                                 state_dir=_state(tmp_path)) as server:
                return server.status(3), server.counters.failed

        status, failed = asyncio.run(recovered_life())
        assert status.state == jobstates.FAILED
        assert status.recovered
        assert "payload lost" in status.error
        assert failed == 1

    def test_payload_naming_a_missing_module_fails_only_that_job(
            self, small_cube, tmp_path):
        key = self._crash_with_inflight_job(small_cube, tmp_path)
        path = JobJournal(_state(tmp_path))._payload_path(key)
        data = open(path, "rb").read()
        assert b"repro.core.amc" in data
        with open(path, "wb") as fh:
            fh.write(data.replace(b"repro.core.amc", b"repro.core.amX"))

        async def recovered_life():
            async with AMCServer(workers=1,
                                 state_dir=_state(tmp_path)) as server:
                job = await server.submit(small_cube, PARAMS)
                return (server.status(3), server.counters.failed,
                        await server.wait(job.job_id))

        status, failed, fresh = asyncio.run(recovered_life())
        assert status.state == jobstates.FAILED
        assert status.recovered
        assert "payload lost or corrupt" in status.error
        assert failed == 1
        assert os.path.exists(path + ".quarantined")
        # the server started and still serves the same key afresh
        assert fresh.state == jobstates.DONE

    @pytest.mark.parametrize("mangle", [
        lambda payload: {"v": 1},
        lambda payload: list(payload.items()),
        lambda payload: {**payload, "v": 2},
        lambda payload: {**payload, "workload": "no-such-workload"},
    ], ids=["keys-missing", "not-a-dict", "other-version",
            "unknown-workload"])
    def test_malformed_payload_fails_the_job_not_startup(self, small_cube,
                                                         tmp_path, mangle):
        key = self._crash_with_inflight_job(small_cube, tmp_path)
        path = JobJournal(_state(tmp_path))._payload_path(key)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        with open(path, "wb") as fh:
            pickle.dump(mangle(payload), fh)

        async def recovered_life():
            async with AMCServer(workers=1,
                                 state_dir=_state(tmp_path)) as server:
                return server.status(3), server.counters.failed

        status, failed = asyncio.run(recovered_life())
        assert status.state == jobstates.FAILED
        assert status.recovered
        assert "payload lost or corrupt" in status.error
        assert failed == 1
        assert not os.path.exists(path)     # quarantined or dropped

    def test_torn_journal_tail_does_not_block_startup(self, small_cube,
                                                      tmp_path):
        key = self._crash_with_inflight_job(small_cube, tmp_path)
        journal_path = JobJournal(_state(tmp_path)).path
        with open(journal_path, "ab") as fh:
            fh.write(b'{"v": 1, "seq": 3, "job_id": 3, "key": "' +
                     key.encode() + b'", "sta')

        async def recovered_life():
            async with AMCServer(workers=1,
                                 state_dir=_state(tmp_path)) as server:
                return await server.wait(3)

        assert asyncio.run(recovered_life()).state == jobstates.DONE


class TestAdmissionValidation:
    def test_zero_sized_cube_is_rejected_at_submit(self, tmp_path):
        import numpy as np

        empty = np.empty((0, 4, 5))

        async def scenario():
            async with AMCServer(workers=1) as server:
                with pytest.raises(InvalidCubeError, match="zero-sized"):
                    await server.submit(empty, PARAMS)
                return server.counters.submitted, len(server._jobs)

        submitted, jobs = asyncio.run(scenario())
        assert submitted == 0 and jobs == 0      # never occupied a slot

    @pytest.mark.parametrize("shape", [(0, 4, 5), (4, 0, 5), (4, 5, 0)])
    def test_any_zero_dimension_is_invalid(self, shape):
        import numpy as np

        from repro.workloads import get_workload

        with pytest.raises(InvalidCubeError, match=str(shape)):
            get_workload("amc").check_inputs(np.empty(shape))


class TestHealth:
    def test_health_snapshot_reports_every_subsystem(self, small_cube,
                                                     tmp_path):
        async def scenario():
            async with AMCServer(workers=1, state_dir=_state(tmp_path),
                                 watchdog_deadline_s=30.0) as server:
                job = await server.submit(small_cube, PARAMS)
                await server.wait(job.job_id)
                return server.health()

        health = asyncio.run(scenario())
        assert health["running"]
        assert health["queue"]["maxsize"] == 16
        assert health["journal"]["appended"] == 3    # queued/running/done
        assert health["journal"]["write_errors"] == 0
        assert health["cache"]["memory"]["insertions"] == 1
        assert health["cache"]["disk"]["insertions"] == 1
        assert health["watchdog"]["enabled"]
        assert health["pipeline_runs"] == 1
        assert health["counters"]["completed"] == 1

    def test_health_without_durable_tier(self, small_cube):
        async def scenario():
            async with AMCServer(workers=1) as server:
                return server.health()

        health = asyncio.run(scenario())
        assert health["journal"] is None
        assert health["cache"]["disk"] is None
        assert health["watchdog"] == {"enabled": False}
