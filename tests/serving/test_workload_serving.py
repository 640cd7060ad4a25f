"""Workload-generic serving: distinct cache keys, admission checks,
per-workload digests, and mixed-workload traffic through one server.

The regression this file pins (the cache-key satellite): *two distinct
workloads submitted with the same cube never collide in the cache*,
because the workload name is part of :func:`job_key` and each key is
canonicalized through the workload's own declared parameter list.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import NonFiniteInputError, UnknownWorkloadError
from repro.serving import AMCServer, job_key, result_digest, result_nbytes
from repro.serving import jobs as jobstates
from repro.workloads import get_workload, workload_names


def _target_of(cube):
    return tuple(float(v) for v in np.asarray(cube).reshape(
        -1, np.asarray(cube).shape[-1])[:4].mean(axis=0))


class TestJobKeys:
    def test_distinct_workloads_distinct_keys(self, small_cube):
        """Same cube, same (empty) params — keys must never collide."""
        keys = {name: job_key(small_cube, workload=name)
                for name in ("amc", "rx", "pca")}
        assert len(set(keys.values())) == 3

    def test_same_math_different_workload_still_distinct(self, small_cube):
        """rx and pca both accept default params; identity must come
        from the workload name, not the param dict."""
        assert (job_key(small_cube, {}, workload="rx")
                != job_key(small_cube, {}, workload="pca"))

    def test_key_canonicalized_through_declared_params(self, small_cube):
        target = _target_of(small_cube)
        reference = job_key(small_cube, {"target": target}, workload="sam")
        # defaults filled in, knobs stripped, order irrelevant
        assert job_key(small_cube,
                       {"target": target, "regularization": 1e-6},
                       workload="sam") == reference
        assert job_key(small_cube,
                       {"n_workers": 4, "target": target,
                        "max_retries": 2},
                       workload="sam") == reference

    def test_target_changes_the_key(self, small_cube):
        target = _target_of(small_cube)
        shifted = tuple(v + 0.25 for v in target)
        assert (job_key(small_cube, {"target": target}, workload="sam")
                != job_key(small_cube, {"target": shifted},
                           workload="sam"))

    def test_workload_instance_accepted(self, small_cube):
        assert (job_key(small_cube, workload=get_workload("rx"))
                == job_key(small_cube, workload="rx"))

    def test_unknown_workload_rejected(self, small_cube):
        with pytest.raises(UnknownWorkloadError):
            job_key(small_cube, workload="kmeans")


class TestDigests:
    def test_detection_digest_covers_scores(self, small_cube):
        result = get_workload("rx").run(small_cube)
        digest = result_digest(result, workload="rx")
        assert len(digest) == 64
        assert digest == result_digest(result, workload="rx")
        assert result_nbytes(result,
                             workload="rx") == result.scores.nbytes

    def test_reduction_digest_is_shape_sensitive(self, small_cube):
        two = get_workload("pca").run(small_cube, {"n_components": 2})
        three = get_workload("pca").run(small_cube, {"n_components": 3})
        assert (result_digest(two, workload="pca")
                != result_digest(three, workload="pca"))


class TestServerWorkloads:
    def test_detection_job_cold_then_cache_hit(self, small_cube):
        target = _target_of(small_cube)

        async def scenario():
            async with AMCServer(workers=1) as server:
                cold = await server.wait((await server.submit(
                    small_cube, {"target": target},
                    workload="sam")).job_id)
                # different execution knobs, same request identity
                warm = await server.wait((await server.submit(
                    small_cube, {"target": target, "n_workers": 2},
                    workload="sam")).job_id)
            return server, cold, warm

        server, cold, warm = asyncio.run(scenario())
        assert cold.state == warm.state == jobstates.DONE
        assert not cold.from_cache
        assert warm.from_cache
        assert warm.result_sha256 == cold.result_sha256
        assert server.stats()["pipeline_runs"] == 1

    def test_status_reports_workload_name(self, small_cube):
        async def scenario():
            async with AMCServer(workers=1) as server:
                rx = await server.wait((await server.submit(
                    small_cube, workload="rx")).job_id)
                amc = await server.wait((await server.submit(
                    small_cube, {"n_classes": 3})).job_id)
            return rx, amc

        rx, amc = asyncio.run(scenario())
        assert rx.workload == "rx"
        assert amc.workload == "amc"

    def test_mixed_workloads_do_not_collide(self, small_cube):
        """One server, every registered workload, one cube: one
        pipeline run and one distinct digest per workload; resubmitting
        every job hits the cache with the same bytes."""
        target = _target_of(small_cube)
        extra = {"amc": {"n_classes": 3}, "pca": {"n_components": 2}}

        def params_for(name):
            params = dict(extra.get(name, {}))
            if get_workload(name).requires_target:
                params["target"] = target
            return params

        async def submit_all(server):
            jobs = [await server.submit(small_cube, params_for(name),
                                        workload=name)
                    for name in workload_names()]
            return [await server.wait(j.job_id) for j in jobs]

        async def scenario():
            async with AMCServer(workers=2) as server:
                cold = await submit_all(server)
                runs = server.stats()["pipeline_runs"]
                warm = await submit_all(server)
            return server, runs, cold, warm

        server, runs, cold, warm = asyncio.run(scenario())
        assert "cem" in workload_names()
        assert all(s.state == jobstates.DONE for s in cold + warm)
        assert not any(s.from_cache for s in cold)
        digests = [s.result_sha256 for s in cold]
        assert len(set(digests)) == len(workload_names())
        assert runs == len(workload_names())
        assert server.stats()["pipeline_runs"] == runs
        assert all(s.from_cache for s in warm)
        assert [s.result_sha256 for s in warm] == digests

    def test_detection_result_matches_direct_run(self, small_cube):
        """Server-mediated execution is bit-identical to a direct run."""
        async def scenario():
            async with AMCServer(workers=1) as server:
                status = await server.wait((await server.submit(
                    small_cube, workload="rx")).job_id)
                return status, server.job(status.job_id).result

        status, via_server = asyncio.run(scenario())
        direct = get_workload("rx").run(small_cube)
        np.testing.assert_array_equal(via_server.scores, direct.scores)
        assert status.result_sha256 == result_digest(direct,
                                                     workload="rx")

    def test_profile_report_labeled_with_workload(self, small_cube):
        async def scenario():
            async with AMCServer(workers=1) as server:
                status = await server.wait((await server.submit(
                    small_cube, workload="rx")).job_id)
                return server.job(status.job_id)

        job = asyncio.run(scenario())
        assert job.report.meta["workload"] == "rx"
        assert [s.name for s in job.report.stages] == [
            "statistics", "scores", "evaluation"]

    def test_non_finite_cube_rejected_at_submit(self, small_cube):
        bad = np.array(small_cube, dtype=np.float64)
        bad[0, 0, 0] = np.nan

        async def scenario():
            async with AMCServer(workers=1) as server:
                with pytest.raises(NonFiniteInputError):
                    await server.submit(bad, workload="rx")
                with pytest.raises(NonFiniteInputError):
                    await server.submit(bad, {"n_classes": 3})
                return server.stats()

        stats = asyncio.run(scenario())
        assert stats["counters"]["submitted"] == 0
        assert stats["pipeline_runs"] == 0

    def test_unknown_workload_rejected_at_submit(self, small_cube):
        async def scenario():
            async with AMCServer(workers=1) as server:
                with pytest.raises(UnknownWorkloadError):
                    await server.submit(small_cube, workload="kmeans")

        asyncio.run(scenario())

    def test_default_params_do_not_leak_across_workloads(self, small_cube):
        """Server-level default params belong to the default workload
        only; a sam submission must not inherit AMC's n_classes."""
        target = _target_of(small_cube)

        async def scenario():
            async with AMCServer(workers=1,
                                 default_params={"n_classes": 3}) as server:
                amc = await server.wait((await server.submit(
                    small_cube)).job_id)
                sam = await server.wait((await server.submit(
                    small_cube, {"target": target},
                    workload="sam")).job_id)
            return amc, sam

        amc, sam = asyncio.run(scenario())
        assert amc.state == sam.state == jobstates.DONE

    def test_detection_ground_truth_scored(self, small_cube):
        target = _target_of(small_cube)
        mask = np.zeros(small_cube.shape[:2], dtype=bool)
        mask[:2, :2] = True

        async def scenario():
            async with AMCServer(workers=1) as server:
                status = await server.wait((await server.submit(
                    small_cube, {"target": target}, workload="sam",
                    ground_truth=mask)).job_id)
                return server.job(status.job_id).result

        result = asyncio.run(scenario())
        assert result.curve is not None
        assert 0.0 <= result.auc <= 1.0
