"""Tests for the Chrome-trace export and counter aggregation details."""

import json

import numpy as np
import pytest

from repro.core.amc_gpu import (
    VRAM_FRACTION,
    _line_bytes,
    gpu_morphological_stage,
)
from repro.gpu import FragmentShader, GEFORCE_7800GTX, VirtualGPU
from repro.gpu import shaderir as ir
from repro.gpu.counters import GpuCounters, KernelLaunchRecord, TransferRecord
from repro.gpu.trace import build_timeline, export_chrome_trace


@pytest.fixture()
def busy_device(rng):
    gpu = VirtualGPU(GEFORCE_7800GTX)
    tex = gpu.upload(rng.uniform(size=(6, 6, 4)).astype(np.float32))
    shader = FragmentShader("dbl", ir.mul(ir.TexFetch("a"), 2.0),
                            samplers=("a",))
    target = gpu.create_target(6, 6)
    gpu.launch(shader, target, {"a": tex})
    gpu.launch(shader, target, {"a": tex})
    gpu.download(target)
    return gpu


class TestTimeline:
    def test_event_counts(self, busy_device):
        events = build_timeline(busy_device.counters)
        kinds = [e["cat"] for e in events]
        assert kinds.count("kernel") == 2
        assert kinds.count("transfer") == 2  # one upload, one download

    def test_ordering_upload_kernels_download(self, busy_device):
        events = build_timeline(busy_device.counters)
        names = [e["name"] for e in events]
        assert names[0].startswith("upload")
        assert names[-1].startswith("download")

    def test_events_back_to_back(self, busy_device):
        events = sorted(build_timeline(busy_device.counters),
                        key=lambda e: e["ts"])
        for before, after in zip(events, events[1:]):
            assert after["ts"] == pytest.approx(before["ts"] + before["dur"])

    def test_total_duration_matches_counters(self, busy_device):
        events = build_timeline(busy_device.counters)
        total_us = sum(e["dur"] for e in events)
        assert total_us == pytest.approx(
            busy_device.counters.total_time_s * 1e6)

    def test_kernel_args(self, busy_device):
        kernel = next(e for e in build_timeline(busy_device.counters)
                      if e["cat"] == "kernel")
        assert kernel["args"]["fragments"] == 36
        assert kernel["args"]["compute_us"] > 0

    def test_empty_counters(self):
        assert build_timeline(GpuCounters()) == []

    def test_chunks_replay_in_submission_order(self, rng):
        """Four chunks: each chunk's uploads come before its kernels,
        its downloads before the next chunk's uploads."""
        budget = 9 * _line_bytes(8, 8, 1)  # nine extended lines
        device = VirtualGPU(GEFORCE_7800GTX.with_(
            vram_bytes=int(budget / VRAM_FRACTION) + 1))
        out = gpu_morphological_stage(
            rng.uniform(0.1, 1.0, size=(24, 8, 8)), radius=1, device=device)
        assert out.chunk_count == 4
        kinds = []
        for event in build_timeline(device.counters):
            kind = event["name"].split()[0] if event["cat"] == "transfer" \
                else "kernel"
            if not kinds or kinds[-1] != kind:
                kinds.append(kind)
        # the offset lookup texture is uploaded once, before chunk 1
        assert kinds == ["upload", "kernel", "download"] * 4


class TestExport:
    def test_valid_json_with_metadata(self, busy_device, tmp_path):
        path = export_chrome_trace(busy_device.counters,
                                   str(tmp_path / "trace.json"))
        with open(path) as fh:
            trace = json.load(fh)
        assert trace["otherData"]["kernel_launches"] == 2
        assert len(trace["traceEvents"]) == 4
        assert all({"name", "ph", "ts", "dur"} <= set(e)
                   for e in trace["traceEvents"])

    def test_full_pipeline_trace(self, tmp_path, rng):
        device = VirtualGPU(GEFORCE_7800GTX)
        cube = rng.uniform(0.1, 1.0, size=(8, 8, 10))
        gpu_morphological_stage(cube, device=device)
        path = export_chrome_trace(device.counters,
                                   str(tmp_path / "amc.json"))
        with open(path) as fh:
            trace = json.load(fh)
        names = {e["name"] for e in trace["traceEvents"]}
        assert any(n.startswith("cross_") for n in names)
        assert "mei_final" in names
