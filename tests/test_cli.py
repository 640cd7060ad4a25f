"""Tests for the command-line interface (driven through main())."""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "x.raw"])
        assert args.lines == 128 and args.bands == 224

    def test_classify_backend_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify", "x.raw",
                                       "--backend", "cuda"])

    def test_bench_table_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--table", "3"])

    def test_classify_workers_default_serial(self):
        args = build_parser().parse_args(["classify", "x.raw"])
        assert args.workers == 1 and args.profile is None

    def test_classify_profile_flag_forms(self):
        bare = build_parser().parse_args(["classify", "x.raw", "--profile"])
        assert bare.profile == "-"
        pathed = build_parser().parse_args(
            ["classify", "x.raw", "--profile", "out.json"])
        assert pathed.profile == "out.json"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "GeForce 7800 GTX" in out
        assert "Pentium 4" in out

    def test_bench(self, capsys):
        assert main(["bench", "--table", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out and "icc" in out
        assert "speedup" in out

    def test_generate_then_classify(self, tmp_path, capsys):
        path = str(tmp_path / "scene.raw")
        assert main(["generate", path, "--lines", "24", "--samples", "24",
                     "--bands", "32", "--seed", "3"]) == 0
        assert os.path.exists(path)
        assert os.path.exists(path + ".hdr")
        assert os.path.exists(path + ".gt.ppm")
        gt = np.load(path + ".gt.npy")
        assert gt.shape == (24, 24)

        assert main(["classify", path, "--classes", "6"]) == 0
        out = capsys.readouterr().out
        assert "overall accuracy" in out
        assert os.path.exists(path + ".mei.pgm")
        assert os.path.exists(path + ".classes.ppm")

    def test_classify_gpu_backend_reports_device_time(self, tmp_path,
                                                      capsys):
        path = str(tmp_path / "scene.raw")
        main(["generate", path, "--lines", "16", "--samples", "16",
              "--bands", "24", "--seed", "4"])
        assert main(["classify", path, "--classes", "4",
                     "--backend", "gpu"]) == 0
        out = capsys.readouterr().out
        assert "modeled GPU time" in out

    def test_classify_with_trace(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "scene.raw")
        main(["generate", path, "--lines", "12", "--samples", "12",
              "--bands", "16", "--seed", "5"])
        trace_path = str(tmp_path / "timeline.json")
        assert main(["classify", path, "--classes", "3",
                     "--backend", "gpu", "--trace", trace_path]) == 0
        with open(trace_path) as fh:
            trace = json.load(fh)
        assert trace["traceEvents"]
        out = capsys.readouterr().out
        assert "device timeline" in out

    def test_trace_requires_gpu_backend(self, tmp_path, capsys):
        path = str(tmp_path / "scene.raw")
        main(["generate", path, "--lines", "12", "--samples", "12",
              "--bands", "16", "--seed", "5"])
        assert main(["classify", path, "--classes", "3",
                     "--trace", str(tmp_path / "t.json")]) == 2

    def test_classify_workers_with_profile_text(self, tmp_path, capsys):
        path = str(tmp_path / "scene.raw")
        main(["generate", path, "--lines", "24", "--samples", "16",
              "--bands", "24", "--seed", "6"])
        capsys.readouterr()
        assert main(["classify", path, "--classes", "4",
                     "--workers", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "workers: 2" in out
        assert "morphology" in out
        assert "upload" in out          # per-chunk stream-phase table

    def test_classify_profile_json(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "scene.raw")
        main(["generate", path, "--lines", "16", "--samples", "16",
              "--bands", "24", "--seed", "7"])
        profile_path = str(tmp_path / "profile.json")
        assert main(["classify", path, "--classes", "3",
                     "--backend", "gpu", "--workers", "2",
                     "--profile", profile_path]) == 0
        with open(profile_path) as fh:
            data = json.load(fh)
        assert data["meta"]["backend"] == "gpu"
        assert [s["name"] for s in data["stages"]] == [
            "morphology", "endmembers", "unmixing", "classification",
            "evaluation"]
        assert data["chunks"] and data["chunks"][0]["upload_s"] > 0
        out = capsys.readouterr().out
        assert "profile report" in out

    def test_classify_workers_matches_serial_outputs(self, tmp_path,
                                                     capsys):
        path = str(tmp_path / "scene.raw")
        main(["generate", path, "--lines", "20", "--samples", "16",
              "--bands", "24", "--seed", "8"])
        assert main(["classify", path, "--classes", "4"]) == 0
        serial = capsys.readouterr().out
        assert main(["classify", path, "--classes", "4",
                     "--workers", "3"]) == 0
        parallel = capsys.readouterr().out
        accuracy = [line for line in serial.splitlines()
                    if "overall accuracy" in line]
        assert accuracy and accuracy[0] in parallel

    def test_classify_without_ground_truth(self, tmp_path, capsys):
        from repro.hsi import HyperCube
        from repro.hsi.envi import write_cube

        rng = np.random.default_rng(0)
        cube = HyperCube(rng.uniform(0.1, 1.0, (12, 12, 16))
                         .astype(np.float32))
        path = str(tmp_path / "plain.raw")
        write_cube(cube, path)
        assert main(["classify", path, "--classes", "3"]) == 0
        out = capsys.readouterr().out
        assert "overall accuracy" not in out
        assert os.path.exists(path + ".classes.ppm")


def _write_nan_cube(tmp_path, name="broken.raw"):
    from repro.hsi import HyperCube
    from repro.hsi.envi import write_cube

    rng = np.random.default_rng(1)
    data = rng.uniform(0.1, 1.0, (12, 12, 16)).astype(np.float32)
    data[4, 4, 4] = np.nan
    path = str(tmp_path / name)
    write_cube(HyperCube(data), path)
    return path


class TestRobustnessFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["classify", "x.raw"])
        assert args.retries == 0
        assert args.chunk_timeout_s is None
        assert args.on_error == "raise"
        assert args.path == ["x.raw"]

    def test_on_error_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify", "x.raw",
                                       "--on-error", "ignore"])

    def test_classify_with_retry_knobs(self, tmp_path, capsys):
        path = str(tmp_path / "scene.raw")
        main(["generate", path, "--lines", "16", "--samples", "12",
              "--bands", "16", "--seed", "9"])
        assert main(["classify", path, "--classes", "3", "--workers", "2",
                     "--retries", "1", "--chunk-timeout-s", "30"]) == 0
        out = capsys.readouterr().out
        assert "overall accuracy" in out

    def test_batch_classify_writes_all_outputs(self, tmp_path, capsys):
        paths = []
        for i in range(2):
            path = str(tmp_path / f"scene{i}.raw")
            main(["generate", path, "--lines", "14", "--samples", "12",
                  "--bands", "16", "--seed", str(20 + i)])
            paths.append(path)
        capsys.readouterr()
        assert main(["classify", *paths, "--classes", "3"]) == 0
        for path in paths:
            assert os.path.exists(path + ".mei.pgm")
            assert os.path.exists(path + ".classes.ppm")

    def test_batch_trace_rejected(self, tmp_path, capsys):
        assert main(["classify", "a.raw", "b.raw", "--classes", "3",
                     "--trace", str(tmp_path / "t.json")]) == 2
        assert "single cube" in capsys.readouterr().err

    def test_batch_on_error_skip(self, tmp_path, capsys):
        good = str(tmp_path / "good.raw")
        main(["generate", good, "--lines", "14", "--samples", "12",
              "--bands", "16", "--seed", "30"])
        bad = _write_nan_cube(tmp_path)
        capsys.readouterr()
        assert main(["classify", good, bad, "--classes", "3",
                     "--on-error", "skip"]) == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.err
        assert "NonFiniteInputError" in captured.err
        assert os.path.exists(good + ".mei.pgm")
        assert not os.path.exists(bad + ".mei.pgm")

    def test_batch_on_error_collect_reports_failure(self, tmp_path,
                                                    capsys):
        good = str(tmp_path / "good.raw")
        main(["generate", good, "--lines", "14", "--samples", "12",
              "--bands", "16", "--seed", "31"])
        bad = _write_nan_cube(tmp_path)
        capsys.readouterr()
        assert main(["classify", good, bad, "--classes", "3",
                     "--on-error", "collect"]) == 0
        assert "failed" in capsys.readouterr().err

    def test_batch_all_failures_exit_nonzero(self, tmp_path, capsys):
        bad_a = _write_nan_cube(tmp_path, "a.raw")
        bad_b = _write_nan_cube(tmp_path, "b.raw")
        assert main(["classify", bad_a, bad_b, "--classes", "3",
                     "--on-error", "skip"]) == 1

    def test_batch_profile_reports_batch_errors(self, tmp_path, capsys):
        good = str(tmp_path / "good.raw")
        main(["generate", good, "--lines", "14", "--samples", "12",
              "--bands", "16", "--seed", "32"])
        bad = _write_nan_cube(tmp_path)
        capsys.readouterr()
        assert main(["classify", good, bad, "--classes", "3",
                     "--on-error", "skip", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "on_error: skip" in out
        assert "batch_error" in out


class TestServingCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.socket == "/tmp/repro-amc.sock"
        assert args.workers == 2 and args.queue_size == 16
        assert args.cache_mb == 256
        assert not hasattr(args, "cache_entries")

    def test_submit_parser_defaults(self):
        args = build_parser().parse_args(["submit", "x.raw"])
        assert args.path == "x.raw"
        assert not args.no_wait and not args.profile
        assert not args.shutdown

    def test_serve_submit_round_trip(self, tmp_path, capsys):
        """The worked CLI session from docs/serving.md, in-process: a
        cold submit executes, its duplicate is a cache hit, shutdown
        stops the server."""
        import threading
        import time as _time

        path = str(tmp_path / "scene.raw")
        main(["generate", path, "--lines", "16", "--samples", "16",
              "--bands", "24", "--seed", "41"])
        sock = str(tmp_path / "amc.sock")
        rc = {}
        server = threading.Thread(
            target=lambda: rc.update(serve=main(
                ["serve", "--socket", sock, "--workers", "1"])))
        server.start()
        try:
            for _ in range(200):
                if os.path.exists(sock):
                    break
                _time.sleep(0.05)
            capsys.readouterr()
            assert main(["submit", path, "--socket", sock,
                         "--classes", "4"]) == 0
            cold = capsys.readouterr().out
            assert "[executed" in cold
            assert "result sha256" in cold
            assert main(["submit", path, "--socket", sock,
                         "--classes", "4"]) == 0
            warm = capsys.readouterr().out
            assert "[cache]" in warm
        finally:
            assert main(["submit", "--shutdown", "--socket", sock]) == 0
            server.join(timeout=30)
        assert rc["serve"] == 0
        sha = [line for line in cold.splitlines() if "sha256" in line]
        assert sha and sha[0] in warm

    def test_submit_requires_path_unless_shutdown(self, capsys):
        assert main(["submit"]) == 2
        assert "path" in capsys.readouterr().err

    def test_durability_parser_defaults(self):
        serve = build_parser().parse_args(["serve"])
        assert serve.state_dir is None
        assert serve.watchdog_deadline_s is None
        submit = build_parser().parse_args(["submit", "x.raw"])
        assert submit.retry_budget_s == 0.0
        assert not submit.health
        serve = build_parser().parse_args(
            ["serve", "--state-dir", "/tmp/s",
             "--watchdog-deadline-s", "5"])
        assert serve.state_dir == "/tmp/s"
        assert serve.watchdog_deadline_s == 5.0
        submit = build_parser().parse_args(
            ["submit", "--health", "--retry-budget-s", "30"])
        assert submit.health and submit.retry_budget_s == 30.0

    def test_serve_durable_restart_and_health(self, tmp_path, capsys):
        """The crash-recovery walkthrough from docs/robustness.md,
        in-process: a durable server survives a restart (clean here;
        the SIGKILL variant is tests/serving/test_chaos_recovery.py),
        serves the old result from the disk tier, and answers
        --health with a JSON snapshot.  The late-started second server
        also exercises --retry-budget-s riding through connection
        errors."""
        import json as _json
        import threading
        import time as _time

        path = str(tmp_path / "scene.raw")
        main(["generate", path, "--lines", "16", "--samples", "16",
              "--bands", "24", "--seed", "41"])
        sock = str(tmp_path / "amc.sock")
        state = str(tmp_path / "state")

        def serve_in_thread():
            rc = {}
            thread = threading.Thread(
                target=lambda: rc.update(serve=main(
                    ["serve", "--socket", sock, "--workers", "1",
                     "--state-dir", state])))
            thread.start()
            for _ in range(200):
                if os.path.exists(sock):
                    break
                _time.sleep(0.05)
            return thread, rc

        server, rc = serve_in_thread()
        try:
            capsys.readouterr()
            assert main(["submit", path, "--socket", sock,
                         "--classes", "4"]) == 0
            cold = capsys.readouterr().out
            assert "[executed" in cold
            assert main(["submit", "--health", "--socket", sock]) == 0
            health = _json.loads(capsys.readouterr().out)
            assert health["journal"]["appended"] == 3
            assert health["cache"]["disk"]["insertions"] == 1
        finally:
            assert main(["submit", "--shutdown", "--socket", sock]) == 0
            server.join(timeout=30)
        assert rc["serve"] == 0

        # restart on the same state dir; the client outlives the gap
        # because its retry budget covers the connection errors
        submit_rc = {}
        client = threading.Thread(
            target=lambda: submit_rc.update(rc=main(
                ["submit", path, "--socket", sock, "--classes", "4",
                 "--retry-budget-s", "30"])))
        client.start()
        _time.sleep(0.3)                    # client retries into the void
        server, rc = serve_in_thread()
        try:
            client.join(timeout=30)
            assert submit_rc["rc"] == 0
        finally:
            assert main(["submit", "--shutdown", "--socket", sock]) == 0
            server.join(timeout=30)
        out = capsys.readouterr().out
        assert "[cache]" in out             # served from the disk tier
        sha_cold = [line for line in cold.splitlines()
                    if "sha256" in line]
        assert sha_cold and sha_cold[0] in out


class TestDetectReduceCommands:
    """The registry-sourced ``detect`` and ``reduce`` subcommands."""

    @pytest.fixture()
    def scene_path(self, tmp_path):
        path = str(tmp_path / "scene.raw")
        assert main(["generate", path, "--lines", "20", "--samples", "20",
                     "--bands", "24", "--seed", "17"]) == 0
        return path

    @staticmethod
    def _a_label(path):
        labels = np.load(path + ".gt.npy")
        values, counts = np.unique(labels[labels != 0],
                                   return_counts=True)
        return int(values[counts.argmax()])

    def test_algo_choices_come_from_registry(self):
        from repro.workloads import workload_names

        detect = build_parser().parse_args(["detect", "x.raw"])
        assert detect.algo == "sam"
        reduce_ = build_parser().parse_args(["reduce", "x.raw"])
        assert reduce_.algo == "pca"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "x.raw",
                                       "--algo", "pca"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reduce", "x.raw",
                                       "--algo", "sam"])
        assert set(workload_names(kind="detection")) == {
            "sam", "cem", "rx"}

    def test_detect_sam_with_target_class(self, scene_path, capsys):
        label = self._a_label(scene_path)
        assert main(["detect", scene_path, "--algo", "sam",
                     "--target-class", str(label)]) == 0
        out = capsys.readouterr().out
        assert "score map" in out
        assert "detection AUC" in out
        assert os.path.exists(scene_path + ".sam.pgm")

    def test_detect_rx_needs_no_target(self, scene_path, capsys):
        assert main(["detect", scene_path, "--algo", "rx"]) == 0
        out = capsys.readouterr().out
        assert "score map" in out
        assert "detection AUC" not in out   # no mask, no curve
        assert os.path.exists(scene_path + ".rx.pgm")

    def test_detect_profile_labeled_by_workload(self, scene_path, capsys):
        label = self._a_label(scene_path)
        assert main(["detect", scene_path, "--algo", "cem",
                     "--target-class", str(label),
                     "--workers", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "workload: cem" in out
        assert "statistics" in out and "scores" in out

    def test_detect_matched_filter_requires_target_class(self, scene_path,
                                                         capsys):
        assert main(["detect", scene_path, "--algo", "sam"]) == 2
        assert "--target-class" in capsys.readouterr().err

    def test_detect_missing_sidecar_is_an_error(self, tmp_path, capsys):
        bare = str(tmp_path / "bare.raw")
        main(["generate", bare, "--lines", "12", "--samples", "12",
              "--bands", "24", "--seed", "9"])
        os.remove(bare + ".gt.npy")
        capsys.readouterr()
        assert main(["detect", bare, "--algo", "sam",
                     "--target-class", "1"]) == 2
        assert "sidecar" in capsys.readouterr().err

    def test_detect_empty_class_is_an_error(self, scene_path, capsys):
        assert main(["detect", scene_path, "--algo", "sam",
                     "--target-class", "9999"]) == 2
        assert "9999" in capsys.readouterr().err

    def test_reduce_writes_components(self, scene_path, capsys):
        assert main(["reduce", scene_path, "--components", "4"]) == 0
        out = capsys.readouterr().out
        assert "reduced cube" in out and "-> 4 band(s)" in out
        assert "component variance" in out
        transformed = np.load(scene_path + ".pca.npy")
        assert transformed.shape == (20, 20, 4)
        assert os.path.exists(scene_path + ".pca1.pgm")

    def test_reduce_chunked_matches_serial(self, scene_path, capsys):
        assert main(["reduce", scene_path, "--components", "3"]) == 0
        serial = np.load(scene_path + ".pca.npy")
        assert main(["reduce", scene_path, "--components", "3",
                     "--workers", "2"]) == 0
        np.testing.assert_array_equal(serial,
                                      np.load(scene_path + ".pca.npy"))

    def test_submit_workload_flag_filters_params(self):
        args = build_parser().parse_args(
            ["submit", "x.raw", "--workload", "rx"])
        assert args.workload == "rx"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "x.raw",
                                       "--workload", "kmeans"])
