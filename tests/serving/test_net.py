"""The unix-socket protocol: submit/status/wait/cancel/stats/shutdown
round trips, error shaping, and the cube-reference loading path.

The client half (:func:`repro.serving.request`) is blocking by design,
so the tests drive it through ``run_in_executor`` against an in-process
:class:`UnixSocketFrontend`.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket

import numpy as np
import pytest

from repro.hsi import SceneParams, generate_scene
from repro.hsi.envi import write_cube
from repro.serving import AMCServer, UnixSocketFrontend, request
from repro.serving.jobs import Job

PARAMS = {"n_classes": 3}


@pytest.fixture()
def scene_path(tmp_path):
    """A small on-disk ENVI scene with its ground-truth sidecar."""
    scene = generate_scene(SceneParams(lines=16, samples=16,
                                       band_count=24, seed=11,
                                       min_field=4))
    path = str(tmp_path / "scene.raw")
    write_cube(scene.cube, path)
    np.save(path + ".gt.npy", scene.ground_truth)
    return path


def _roundtrip(scene_path, tmp_path, requests, **server_kwargs):
    """Run ``requests`` (payload dicts) against a live frontend; return
    the response list."""
    sock = str(tmp_path / "amc.sock")

    async def scenario():
        loop = asyncio.get_running_loop()
        async with AMCServer(workers=1, **server_kwargs) as server:
            frontend = UnixSocketFrontend(server, sock)
            await frontend.start()
            try:
                responses = []
                for payload in requests:
                    responses.append(await loop.run_in_executor(
                        None, request, sock, payload))
                return server, responses
            finally:
                await frontend.stop()

    return asyncio.run(scenario())


class TestProtocol:
    def test_submit_wait_profile_and_outputs(self, scene_path, tmp_path):
        server, (response,) = _roundtrip(scene_path, tmp_path, [
            {"op": "submit", "cube": scene_path, "params": PARAMS,
             "wait": True, "profile": True, "write_outputs": True},
        ])
        assert response["ok"]
        job = response["job"]
        assert job["state"] == "done"
        assert job["result_sha256"]
        assert job["overall_accuracy"] is not None  # the gt sidecar loaded
        stages = [s["name"] for s in response["profile"]["stages"]]
        assert stages == ["morphology", "endmembers", "unmixing",
                          "classification", "evaluation"]
        assert os.path.exists(response["outputs"]["mei"])
        assert os.path.exists(response["outputs"]["classes"])

    def test_duplicate_submission_is_served_from_cache(self, scene_path,
                                                       tmp_path):
        server, (first, second) = _roundtrip(scene_path, tmp_path, [
            {"op": "submit", "cube": scene_path, "params": PARAMS},
            {"op": "submit", "cube": scene_path, "params": PARAMS},
        ])
        assert not first["job"]["from_cache"]
        assert second["job"]["from_cache"]
        assert (second["job"]["result_sha256"]
                == first["job"]["result_sha256"])
        assert server.pipeline_runs == 1

    def test_status_and_stats(self, scene_path, tmp_path):
        server, (submit, status, stats) = _roundtrip(scene_path, tmp_path, [
            {"op": "submit", "cube": scene_path, "params": PARAMS},
            {"op": "status", "job_id": 1},
            {"op": "stats"},
        ])
        assert status["job"]["state"] == "done"
        assert stats["stats"]["counters"]["completed"] == 1
        assert stats["stats"]["pipeline_runs"] == 1

    def test_errors_come_back_shaped_not_raised(self, scene_path,
                                                tmp_path):
        server, responses = _roundtrip(scene_path, tmp_path, [
            {"op": "frobnicate"},
            {"op": "status", "job_id": 42},
            {"op": "submit", "cube": scene_path,
             "params": {"no_such_field": 1}},
            {"op": "submit", "cube": str(tmp_path / "missing.raw")},
        ])
        unknown_op, missing_job, bad_params, missing_cube = responses
        assert not unknown_op["ok"] and "frobnicate" in unknown_op["message"]
        assert missing_job["error"] == "JobNotFoundError"
        assert bad_params["error"] == "TypeError"
        assert not missing_cube["ok"]

    def test_non_object_requests_are_answered_on_the_same_connection(
            self, tmp_path):
        """Valid JSON that is not an object, or whose job id does not
        fit an integer, gets an error response, and the connection
        stays open for the next request."""
        sock = str(tmp_path / "amc.sock")

        def exchange():
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
                conn.settimeout(10.0)
                conn.connect(sock)
                reader = conn.makefile("rb")
                answers = []
                for line in (b"[1, 2]", b'"stats"', b"7",
                             b'{"op": "status", "job_id": 1e400}',
                             b'{"op": "stats"}'):
                    conn.sendall(line + b"\n")
                    answers.append(json.loads(reader.readline()))
                return answers

        async def scenario():
            loop = asyncio.get_running_loop()
            async with AMCServer(workers=1) as server:
                frontend = UnixSocketFrontend(server, sock)
                await frontend.start()
                try:
                    return await loop.run_in_executor(None, exchange)
                finally:
                    await frontend.stop()

        *refused, overflow, stats = asyncio.run(scenario())
        for response, kind in zip(refused, ("list", "str", "int")):
            assert response["ok"] is False
            assert response["error"] == "ReproError"
            assert kind in response["message"]
        assert overflow["ok"] is False
        assert overflow["error"] == "OverflowError"
        assert stats["ok"] and "counters" in stats["stats"]

    def test_health_reports_every_subsystem(self, scene_path, tmp_path):
        server, (submit, health) = _roundtrip(scene_path, tmp_path, [
            {"op": "submit", "cube": scene_path, "params": PARAMS,
             "wait": True},
            {"op": "health"},
        ])
        assert submit["ok"] and health["ok"]
        snapshot = health["health"]
        assert snapshot["running"]
        assert snapshot["workers"] == 1
        assert snapshot["queue"]["depth"] == 0
        assert snapshot["counters"]["completed"] == 1
        assert snapshot["pipeline_runs"] == 1
        # no state_dir / watchdog on this server: reported, not omitted
        assert snapshot["journal"] is None
        assert snapshot["cache"]["disk"] is None
        assert snapshot["watchdog"] == {"enabled": False}

    def test_shutdown_request_releases_the_frontend(self, scene_path,
                                                    tmp_path):
        sock = str(tmp_path / "amc.sock")

        async def scenario():
            loop = asyncio.get_running_loop()
            async with AMCServer(workers=1) as server:
                frontend = UnixSocketFrontend(server, sock)
                await frontend.start()
                response = await loop.run_in_executor(
                    None, request, sock, {"op": "shutdown"})
                # returns promptly because the shutdown op set the event
                await asyncio.wait_for(frontend.serve_until_shutdown(),
                                       timeout=5.0)
                return response

        response = asyncio.run(scenario())
        assert response["ok"] and response["stopping"]
        assert not os.path.exists(sock)


class TestWorkloadRequests:
    """The ``workload`` and ``target_class`` wire fields."""

    def _a_label(self, scene_path):
        labels = np.load(scene_path + ".gt.npy")
        values, counts = np.unique(labels[labels != 0],
                                   return_counts=True)
        return int(values[counts.argmax()])

    def test_detection_submit_via_target_class(self, scene_path,
                                               tmp_path):
        """`target_class` turns the gt sidecar into a SAM request: the
        class mean becomes the target, its footprint the eval mask."""
        label = self._a_label(scene_path)
        server, (response,) = _roundtrip(scene_path, tmp_path, [
            {"op": "submit", "cube": scene_path, "workload": "sam",
             "target_class": label, "profile": True},
        ])
        job = response["job"]
        assert job["state"] == "done"
        assert job["workload"] == "sam"
        stages = [s["name"] for s in response["profile"]["stages"]]
        assert stages == ["statistics", "scores", "evaluation"]
        assert response["profile"]["meta"]["workload"] == "sam"

    def test_rx_needs_no_target_and_drops_label_sidecar(self, scene_path,
                                                        tmp_path):
        """An anomaly detector takes no target; the label-map sidecar
        must not leak into its evaluation."""
        server, (response,) = _roundtrip(scene_path, tmp_path, [
            {"op": "submit", "cube": scene_path, "workload": "rx"},
        ])
        assert response["job"]["state"] == "done"
        assert response["job"]["workload"] == "rx"
        result = server.job(response["job"]["job_id"]).result
        assert result.curve is None

    def test_distinct_workloads_distinct_cache_entries(self, scene_path,
                                                       tmp_path):
        server, (rx, pca) = _roundtrip(scene_path, tmp_path, [
            {"op": "submit", "cube": scene_path, "workload": "rx"},
            {"op": "submit", "cube": scene_path, "workload": "pca"},
        ])
        assert not rx["job"]["from_cache"]
        assert not pca["job"]["from_cache"]
        assert rx["job"]["result_sha256"] != pca["job"]["result_sha256"]
        assert server.pipeline_runs == 2

    def test_write_outputs_skipped_for_label_free_results(self, scene_path,
                                                          tmp_path):
        """Detection results carry no class map; the submit op must not
        try to render one."""
        server, (response,) = _roundtrip(scene_path, tmp_path, [
            {"op": "submit", "cube": scene_path, "workload": "rx",
             "write_outputs": True},
        ])
        assert response["job"]["state"] == "done"
        assert "outputs" not in response

    def test_write_outputs_under_a_tiny_cache_budget(self, scene_path,
                                                     tmp_path):
        """Results larger than ``cache_bytes`` are evicted once newer
        ones complete, yet every submit still writes its outputs."""
        server, responses = _roundtrip(scene_path, tmp_path, [
            {"op": "submit", "cube": scene_path,
             "params": {"n_classes": n}, "write_outputs": True}
            for n in (3, 4, 3)], cache_bytes=1)
        for response in responses:
            assert response["ok"]
            assert os.path.exists(response["outputs"]["mei"])
            assert os.path.exists(response["outputs"]["classes"])
        assert server.cache.stats.evictions == 2

    def test_write_outputs_without_a_result_is_an_error(
            self, scene_path, tmp_path, monkeypatch):
        """A done job whose result is gone answers with an error naming
        the release, not with a response that lacks its outputs."""
        async def released(job):
            await job.done.wait()
            return None

        monkeypatch.setattr(Job, "wait_result", released)
        server, (response, status) = _roundtrip(scene_path, tmp_path, [
            {"op": "submit", "cube": scene_path, "params": PARAMS,
             "write_outputs": True},
            {"op": "status", "job_id": 1},
        ])
        assert not response["ok"]
        assert response["error"] == "ServingError"
        assert "job 1" in response["message"]
        assert "released" in response["message"]
        assert not os.path.exists(scene_path + ".mei.pgm")
        # the job itself completed; only its outputs are lost
        assert status["job"]["state"] == "done"
        assert status["job"]["result_sha256"]

    def test_retired_optimize_knob_rejected_at_admission(
            self, scene_path, tmp_path, capsys):
        """No workload config and no CLI flag accepts ``optimize``."""
        from repro.cli import main

        names = ("amc", "sam", "cem", "rx", "pca")
        server, responses = _roundtrip(scene_path, tmp_path, [
            {"op": "submit", "cube": scene_path, "workload": name,
             "params": {"optimize": "none"}} for name in names])
        for name, response in zip(names, responses):
            assert not response["ok"], name
            assert response["error"] == "TypeError", name
        assert server.pipeline_runs == 0
        with pytest.raises(SystemExit) as exc:
            main(["classify", scene_path, "--optimize", "none"])
        assert exc.value.code == 2
        assert "--optimize" in capsys.readouterr().err

    def test_target_class_errors_are_shaped(self, scene_path, tmp_path):
        """Missing sidecar / empty class come back as error responses."""
        bare = str(tmp_path / "bare.raw")
        scene = generate_scene(SceneParams(lines=12, samples=12,
                                           band_count=24, seed=5,
                                           min_field=4))
        write_cube(scene.cube, bare)   # no .gt.npy sidecar
        server, (no_sidecar, empty_class, unknown) = _roundtrip(
            scene_path, tmp_path, [
                {"op": "submit", "cube": bare, "workload": "sam",
                 "target_class": 1},
                {"op": "submit", "cube": scene_path, "workload": "sam",
                 "target_class": 9999},
                {"op": "submit", "cube": scene_path,
                 "workload": "kmeans"},
            ])
        assert not no_sidecar["ok"]
        assert "sidecar" in no_sidecar["message"]
        assert not empty_class["ok"]
        assert "9999" in empty_class["message"]
        assert not unknown["ok"]
        assert unknown["error"] == "UnknownWorkloadError"
