"""Captured Fig. 4 chunk programs: replay equals the checked path.

The first chunk of a program runs through the device's checked verbs
and is captured; later chunks with the same program replay it.  The
oracle here is the checked path alone (every chunk captured afresh,
none replayed).  Every test starts from an empty program cache, so
capture and replay are both exercised whatever order the tests run in.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.amc_gpu as amc_gpu
from repro.core import AMCConfig, run_amc
from repro.core.amc_gpu import clear_program_cache, gpu_morphological_stage
from repro.errors import GpuOutOfMemoryError
from repro.gpu import GEFORCE_7800GTX, VirtualGPU
from repro.gpu import device as device_mod
from repro.gpu.trace import build_timeline
from repro.hsi import SceneParams, generate_scene
from repro.spectral.normalize import SpectralEpsilon


@pytest.fixture(autouse=True)
def _empty_cache():
    clear_program_cache()
    yield
    clear_program_cache()


class _Spy:
    """Counts captures and replays on every device."""

    def __init__(self, patch):
        self.captures = self.replays = 0
        capture, replay = VirtualGPU.capture, VirtualGPU.replay

        def counting_capture(gpu, inputs, body):
            self.captures += 1
            return capture(gpu, inputs, body)

        def counting_replay(gpu, program, inputs):
            self.replays += 1
            return replay(gpu, program, inputs)

        patch.setattr(VirtualGPU, "capture", counting_capture)
        patch.setattr(VirtualGPU, "replay", counting_replay)


@pytest.fixture()
def spy(monkeypatch):
    return _Spy(monkeypatch)


def _cube(lines, samples, bands, seed):
    return np.random.default_rng(seed).uniform(
        0.05, 1.0, size=(lines, samples, bands))


def _run(cube, radius, *, spec=GEFORCE_7800GTX, fuse_groups=6):
    """One stage run on a fresh device: (output, device)."""
    gpu = VirtualGPU(spec)
    out = gpu_morphological_stage(cube, radius, device=gpu,
                                  fuse_groups=fuse_groups)
    return out, gpu


def _checked(cube, radius, **kwargs):
    """The oracle: every chunk through the checked verbs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(amc_gpu, "_cached_program", lambda key: None)
        return _run(cube, radius, **kwargs)


def _state(out, gpu):
    counters = gpu.counters
    return (out.mei.tobytes(), out.erosion_index.tobytes(),
            out.dilation_index.tobytes(), out.counters, out.time_by_kernel,
            out.modeled_time_s, counters.records, counters.summary(),
            counters.time_by_kernel(), build_timeline(counters),
            gpu.vram.used, gpu.vram.high_water_mark)


@given(st.integers(3, 7), st.integers(3, 7), st.integers(1, 12),
       st.integers(1, 3), st.sampled_from((1, 6)), st.integers(0, 99))
@settings(max_examples=10, deadline=None)
def test_replay_matches_checked_path(lines, samples, bands, radius,
                                     fuse_groups, seed):
    clear_program_cache()
    first = _cube(lines, samples, bands, seed)
    second = _cube(lines, samples, bands, seed + 1)
    _run(first, radius, fuse_groups=fuse_groups)         # captures
    replayed = _run(second, radius, fuse_groups=fuse_groups)
    assert _state(*replayed) == _state(
        *_checked(second, radius, fuse_groups=fuse_groups))


def test_chunks_of_one_shape_replay_within_a_job(spy):
    """A board too small for the image streams it in chunks; every chunk
    after the first of its extent replays."""
    spec = replace(GEFORCE_7800GTX, name="small board", vram_bytes=30_000)
    cube = _cube(40, 6, 9, 0)
    out, gpu = _run(cube, 1, spec=spec)
    assert out.chunk_count > 3
    assert spy.replays > 0
    assert spy.captures + spy.replays == out.chunk_count
    assert spy.captures < out.chunk_count
    assert _state(out, gpu) == _state(*_checked(cube, 1, spec=spec))


class TestKeySoundness:
    """Whatever the program depends on is in its key: changing it
    captures afresh, and the run equals the checked path."""

    @staticmethod
    def _second_run_captures(spy, first, second, patch_second=None):
        _run(*first[:2], **first[2])
        with pytest.MonkeyPatch.context() as patch:
            if patch_second is not None:
                patch_second(patch)
            captures = spy.captures
            got = _run(*second[:2], **second[2])
            assert spy.captures == captures + 1
            assert spy.replays == 0
            assert _state(*got) == _state(
                *_checked(*second[:2], **second[2]))

    def test_band_count_not_just_band_groups(self, spy):
        # 27 and 28 bands pack into the same 7 texture groups, but the
        # last group's mask uniform differs.
        self._second_run_captures(spy, (_cube(6, 5, 28, 0), 1, {}),
                                  (_cube(6, 5, 27, 1), 1, {}))

    def test_spectral_epsilon(self, spy):
        def loosen(patch):
            patch.setattr(SpectralEpsilon, "_value", 1e-3)

        self._second_run_captures(spy, (_cube(6, 5, 8, 0), 1, {}),
                                  (_cube(6, 5, 8, 1), 1, {}), loosen)

    def test_device_spec(self, spy):
        other = replace(GEFORCE_7800GTX, name="other board",
                        core_clock_hz=2 * GEFORCE_7800GTX.core_clock_hz)
        self._second_run_captures(spy, (_cube(6, 5, 8, 0), 1, {}),
                                  (_cube(6, 5, 8, 1), 1, {"spec": other}))

    def test_queue_budget(self, spy):
        def unqueued(patch):
            patch.setattr(device_mod, "QUEUE_TEXELS", 0)

        self._second_run_captures(spy, (_cube(6, 5, 8, 0), 1, {}),
                                  (_cube(6, 5, 8, 1), 1, {}), unqueued)

    @pytest.mark.parametrize("second", (
        ((6, 5, 8), 2, {}),
        ((6, 5, 8), 1, {"fuse_groups": 1}),
        ((7, 5, 8), 1, {}),
        ((6, 6, 8), 1, {}),
    ), ids=("radius", "fuse_groups", "lines", "samples"))
    def test_shape_and_program_parameters(self, spy, second):
        shape, radius, kwargs = second
        self._second_run_captures(spy, (_cube(6, 5, 8, 0), 1, {}),
                                  (_cube(*shape, 1), radius, kwargs))


def test_out_of_memory_during_capture_stores_nothing(spy):
    cube = _cube(6, 5, 8, 0)
    gpu = VirtualGPU()
    # room for the uploads and a few targets, not for the whole chunk
    gpu.vram.allocate(gpu.vram.capacity - 6 * 5 * 16 * 8)
    with pytest.raises(GpuOutOfMemoryError):
        gpu_morphological_stage(cube, 1, device=gpu)
    assert spy.captures == 1
    # the device left capture mode: it can upload and capture again
    gpu.upload(np.zeros((2, 2, 4)))
    assert gpu.capture({}, lambda: None)[1].ops == ()
    # nothing was stored: the next run captures
    out = _run(cube, 1)
    assert spy.captures == 3 and spy.replays == 0
    assert _state(*out) == _state(*_checked(cube, 1))


def test_threads_with_own_devices_share_one_program():
    """More threads than cores, each on its own device, capture and
    replay one program concurrently; every result equals the checked
    path's."""
    threads_count = 4
    cubes = [_cube(8, 7, 12, seed) for seed in range(2 * threads_count)]
    want = [_state(*_checked(cube, 2)) for cube in cubes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            clear_program_cache()
            got = [None] * len(cubes)
            barrier = threading.Barrier(threads_count)

            def worker(first):
                barrier.wait()
                for i in range(first, len(cubes), threads_count):
                    got[i] = _state(*_run(cubes[i], 2))

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert got == want
    finally:
        sys.setswitchinterval(interval)


def test_warm_cache_keeps_recursive_oracle_launch_by_launch(monkeypatch):
    """The fusion-identity oracle sets a zero queue budget so that every
    launch of a 20x20x28, radius-2 AMC job (1546) reaches its patched
    ``execute_lazy`` alone.  A program captured under the default budget
    must not be replayed under that patch."""
    from repro.core.shifts import clamped_shift
    from repro.gpu import interpreter

    # 32 generated bands keep 28 once the water-absorption bands go
    scene = generate_scene(SceneParams(lines=20, samples=20, band_count=32,
                                       seed=7, min_field=5))
    cube = scene.cube.as_bip()
    config = AMCConfig(n_classes=8, backend="gpu", se_radius=2)
    fast = run_amc(cube, config)          # warms the default-budget key
    calls = []

    def recursive(*args):
        calls.append(args[0].name)
        return interpreter.execute(*args)

    monkeypatch.setattr(device_mod, "execute_lazy", recursive)
    monkeypatch.setattr(device_mod, "QUEUE_TEXELS", 0)
    monkeypatch.setattr(interpreter, "_fetch_static",
                        lambda texture, dx, dy: clamped_shift(texture, dy, dx))
    for _ in range(2):                    # captures, then replays
        calls.clear()
        oracle = run_amc(cube, config)
        assert len(calls) == 1546
        assert oracle.gpu_output.counters["kernel_launches"] == 1546
        assert oracle.mei.tobytes() == fast.mei.tobytes()
        assert oracle.labels.tobytes() == fast.labels.tobytes()
