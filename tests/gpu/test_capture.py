"""Capture and replay of a device command stream.

A program captured through the checked verbs and replayed over new
input textures must leave exactly what running it checked leaves: the
same downloads and texels, launch records, VRAM accounting and flush
points.  Random programs over a small texture pool (ping-pong reuse,
stacking kernels, clears, frees, flushes, downloads) are run three
ways: checked while capturing on one input set, replayed on a second
input set, and checked on the second set.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GpuOutOfMemoryError, ShaderError
from repro.gpu import FragmentShader, GEFORCE_7800GTX, VirtualGPU
from repro.gpu import device as device_mod
from repro.gpu import shaderir as ir
from repro.gpu.trace import build_timeline

H, W = 5, 4
_F32 = np.float32
_INPUTS = ("in0", "in1")


def _shader(kind, dx, dy):
    a = ir.TexFetch("a", dx, dy)
    b = ir.TexFetch("b", -dy, dx)
    if kind == 0:       # stacks with its offset variants
        body = ir.add(ir.mul(a, ir.Uniform("u")), b)
    else:               # Select: always runs alone
        body = ir.select(ir.cmp_gt(a, b), b, ir.Uniform("u"))
    return FragmentShader(f"k{kind}_{dx}_{dy}", body, samplers=("a", "b"),
                          uniforms=("u",))


def _inputs(gpu, seed):
    rng = np.random.default_rng(seed)
    return {name: gpu.upload(rng.uniform(0.0, 2.0, (H, W, 4)), label=name)
            for name in _INPUTS}


def _run(gpu, inputs, ops):
    """Issue ``ops`` through the checked verbs over the inputs and four
    fresh targets; returns the downloads."""
    pool = list(inputs.values())
    pool += [gpu.create_target(H, W, label=f"t{i}") for i in range(4)]
    downloads = []
    for op in ops:
        code = op[0]
        if code == "create":
            pool.append(gpu.create_target(H, W, label=f"t{len(pool)}"))
        elif code == "launch":
            _, kind, dx, dy, target, s0, s1, u = op
            target, a, b = (pool[i % len(pool)] for i in (target, s0, s1))
            if target is a or target is b:
                continue
            gpu.launch(_shader(kind, dx, dy), target, {"a": a, "b": b},
                       {"u": np.full(4, u, dtype=_F32)})
        elif code == "clear":
            gpu.clear(pool[op[1] % len(pool)])
        elif code == "free":
            i = op[1] % len(pool)
            gpu.free(pool[i])
            pool[i] = gpu.create_target(H, W, label=f"r{i}")
        elif code == "flush":
            gpu.flush()
        else:
            read = gpu.download_scalar if op[2] else gpu.download
            downloads.append(read(pool[op[1] % len(pool)]))
    return downloads


_index = st.integers(0, 7)
_launch = st.tuples(st.just("launch"), st.integers(0, 1), st.integers(-2, 2),
                    st.integers(-2, 2), _index, _index, _index,
                    st.floats(-2.0, 2.0, width=32))
# Launches are most of a program, so that independent launches of one
# family meet in a flush and stack.
_op = st.one_of(
    _launch, _launch, _launch, _launch,
    st.tuples(st.just("create")),
    st.tuples(st.just("clear"), _index),
    st.tuples(st.just("free"), _index),
    st.tuples(st.just("flush")),
    st.tuples(st.just("download"), _index, st.booleans()),
)


def _state(gpu, inputs, downloads, schedule):
    return ([d.tobytes() for d in downloads],
            [t.data.tobytes() for t in inputs.values()],
            gpu.counters.records, build_timeline(gpu.counters),
            gpu.vram.used, gpu.vram.high_water_mark, list(schedule))


@given(st.lists(_op, min_size=1, max_size=30),
       st.sampled_from((device_mod.QUEUE_TEXELS, 2 * H * W)))
@settings(max_examples=80, deadline=None)
def test_replay_matches_checked_run(ops, queue_texels):
    # The evaluation schedule (which launches ran alone, which stacked
    # together) shows the flush points as well as the texels do.
    schedule = []
    lazy, stacked = device_mod.execute_lazy, device_mod.execute_stacked

    def one(shader, *args):
        schedule.append(shader.name)
        return lazy(shader, *args)

    def stack(shader, offsets, *args):
        schedule.append((shader.name, len(offsets)))
        return stacked(shader, offsets, *args)

    with mock.patch.multiple(device_mod, QUEUE_TEXELS=queue_texels,
                             execute_lazy=one, execute_stacked=stack):
        capturing = VirtualGPU()
        first = _inputs(capturing, 1)
        _, program = capturing.capture(
            first, lambda: _run(capturing, first, ops))

        schedule.clear()
        replaying = VirtualGPU()
        inputs = _inputs(replaying, 2)
        downloads = replaying.replay(program, inputs)
        replayed = _state(replaying, inputs, downloads, schedule)

        schedule.clear()
        checked = VirtualGPU()
        inputs = _inputs(checked, 2)
        downloads = _run(checked, inputs, ops)
        assert replayed == _state(checked, inputs, downloads, schedule)


def _ping_pong(gpu, inputs):
    """Two launches into fresh targets, then a download."""
    shader = _shader(0, 1, 0)
    u = {"u": np.full(4, 0.5, dtype=_F32)}
    first = gpu.create_target(H, W)
    second = gpu.create_target(H, W)
    gpu.launch(shader, first, {"a": inputs["in0"], "b": inputs["in1"]}, u)
    gpu.launch(shader, second, {"a": first, "b": inputs["in1"]}, u)
    out = gpu.download(second)
    gpu.free(first, second)
    return out


def _captured(gpu=None):
    gpu = gpu or VirtualGPU()
    inputs = _inputs(gpu, 3)
    return gpu.capture(inputs, lambda: _ping_pong(gpu, inputs))[1]


class TestReplayChecks:
    """One up-front check replaces the per-launch ones; a refused replay
    records and allocates nothing."""

    @pytest.mark.parametrize("case", ("missing", "extra", "order", "shape",
                                      "freed", "duplicate", "type"))
    def test_inputs_must_match_capture(self, case):
        program = _captured()
        gpu = VirtualGPU()
        inputs = _inputs(gpu, 4)
        if case == "missing":
            del inputs["in1"]
        elif case == "extra":
            inputs["more"] = gpu.create_target(H, W)
        elif case == "order":
            inputs = dict(reversed(inputs.items()))
        elif case == "shape":
            inputs["in1"] = gpu.create_target(H + 1, W)
        elif case == "freed":
            gpu.free(inputs["in1"])
        elif case == "duplicate":
            inputs["in1"] = inputs["in0"]
        else:
            inputs["in1"] = np.zeros((H, W, 4), dtype=_F32)
        used = gpu.vram.used
        records = list(gpu.counters.records)
        with pytest.raises(ShaderError):
            gpu.replay(program, inputs)
        assert gpu.vram.used == used
        assert gpu.counters.records == records

    def test_spec_must_match_capture(self):
        program = _captured()
        other = VirtualGPU(replace(GEFORCE_7800GTX, name="other board"))
        with pytest.raises(ShaderError, match="captured on"):
            other.replay(program, _inputs(other, 4))
        assert other.counters.kernel_launch_count == 0

    def test_replay_out_of_memory_matches_checked(self):
        """Allocations are re-issued, so a board too full for the
        program fails at the same allocation either way."""
        program = _captured()
        results = []
        for replayed in (False, True):
            gpu = VirtualGPU()
            inputs = _inputs(gpu, 4)
            gpu.vram.allocate(gpu.vram.free - H * W * 16 - 8)
            with pytest.raises(GpuOutOfMemoryError):
                if replayed:
                    gpu.replay(program, inputs)
                else:
                    _ping_pong(gpu, inputs)
            results.append((gpu.vram.used, gpu.counters.records))
        assert results[0] == results[1]


class TestCaptureMode:
    def test_capture_refuses_uploads(self):
        gpu = VirtualGPU()
        with pytest.raises(ShaderError, match="cannot upload"):
            gpu.capture({}, lambda: gpu.upload(np.zeros((H, W, 4))))

    def test_unknown_texture_is_refused_before_queueing(self):
        gpu = VirtualGPU()
        inputs = _inputs(gpu, 5)
        outside = gpu.create_target(H, W)

        def body():
            target = gpu.create_target(H, W)
            gpu.launch(_shader(0, 0, 0), target,
                       {"a": inputs["in0"], "b": outside},
                       {"u": np.ones(4, dtype=_F32)})

        with pytest.raises(ShaderError, match="neither an input"):
            gpu.capture(inputs, body)
        assert gpu.counters.kernel_launch_count == 0

    def test_failed_capture_leaves_capture_mode(self):
        gpu = VirtualGPU()
        inputs = _inputs(gpu, 6)

        def body():
            _ping_pong(gpu, inputs)
            raise RuntimeError("body failed")

        with pytest.raises(RuntimeError):
            gpu.capture(inputs, body)
        # not capturing: uploads work, and a new capture starts
        gpu.upload(np.zeros((H, W, 4)))
        assert gpu.capture(inputs, lambda: _ping_pong(gpu, inputs))[1]

    def test_no_nesting(self):
        gpu = VirtualGPU()
        inputs = _inputs(gpu, 7)
        program = _captured()
        with pytest.raises(ShaderError, match="already capturing"):
            gpu.capture(inputs, lambda: gpu.capture(inputs, lambda: None))
        with pytest.raises(ShaderError, match="into a capture"):
            gpu.capture(inputs, lambda: gpu.replay(program, inputs))

    def test_capture_holds_no_texels(self):
        program = _captured()
        arrays = [value for op in program.ops for value in op
                  if isinstance(value, np.ndarray)]
        arrays += [u for op in program.ops if op[0] == device_mod._LAUNCH
                   for u in op[4].values()]
        assert all(a.size <= 4 for a in arrays)
