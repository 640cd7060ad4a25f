"""Compiled plans vs the recursive oracle, over every production kernel.

Each fragment program :mod:`repro.core.amc_gpu` builds (radii 1-3 at
fusion widths ``(1, 6)``) and each one :mod:`repro.core.unmix_gpu`
launches is run through its compiled plan (``execute_lazy``, the path
``VirtualGPU.launch`` takes) and through ``execute``, the recursive
evaluator, with every fixed-offset fetch of the oracle run swapped for
the clamped-index gather; the texels must agree byte for byte.  Fused
graphs from :func:`repro.stream.optimize.fuse_elementwise` run through
``VirtualGPU.launch_fused`` against the unfused graph on the oracle.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.amc_gpu import _kernels
from repro.core.shifts import clamped_shift
from repro.core.unmix_gpu import gpu_unmix_classify
from repro.gpu import VirtualGPU, interpreter
from repro.gpu import shaderir as ir
from repro.gpu.interpreter import execute, execute_lazy
from repro.spectral.normalize import SpectralEpsilon
from repro.stream import (
    CpuExecutor,
    FusedStep,
    GpuExecutor,
    StageGraph,
    Step,
    Stream,
    StreamKernel,
    fuse_elementwise,
)
from repro.stream.kernel import map_binary, map_scale_bias, stencil_sum

H, W = 6, 7


def _bindings(shader, rng):
    textures = {s: rng.uniform(-1.0, 2.0, size=(H, W, 4)).astype(np.float32)
                for s in shader.samplers}
    uniforms = {u: rng.uniform(-2.0, 2.0, size=4).astype(np.float32)
                for u in shader.uniforms}
    return textures, uniforms


@contextmanager
def _gather_fetches(monkeypatch):
    """Fixed-offset fetches as a fancy-indexing gather, so the oracle
    shares no fetch code with the plans' strided copies."""
    with monkeypatch.context() as patch:
        patch.setattr(interpreter, "_fetch_static",
                      lambda texture, dx, dy: clamped_shift(texture, dy, dx))
        yield


def _assert_plan_matches_oracle(shaders, rng, monkeypatch):
    for shader in shaders:
        textures, uniforms = _bindings(shader, rng)
        with _gather_fetches(monkeypatch):
            want = execute(shader, H, W, textures, uniforms).tobytes()
        got = np.empty((H, W, 4), dtype=np.float32)
        got[...] = execute_lazy(shader, H, W, textures, uniforms)
        assert got.tobytes() == want, shader.name


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_amc_kernel_set_matches_oracle(radius, monkeypatch):
    shaders = _kernels(radius, SpectralEpsilon.get(), (1, 6)).values()
    _assert_plan_matches_oracle(shaders, np.random.default_rng(radius),
                                monkeypatch)


def test_unmix_kernel_set_matches_oracle(monkeypatch):
    launched = {}
    real_launch = VirtualGPU.launch

    def recording(self, shader, *args, **kwargs):
        launched[shader.name] = shader
        return real_launch(self, shader, *args, **kwargs)

    monkeypatch.setattr(VirtualGPU, "launch", recording)
    rng = np.random.default_rng(5)
    cube = rng.uniform(0.05, 1.0, size=(5, 4, 21))
    gpu_unmix_classify(cube, rng.uniform(0.05, 1.0, size=(3, 21)))
    assert {"copy", "mm_init", "mm_step"} <= set(launched)
    assert any(name.startswith("bandsum_w") for name in launched)
    _assert_plan_matches_oracle(launched.values(), rng, monkeypatch)


def _stencil_chain():
    """x -> scale/bias -> clamped log -> 5-point stencil -> +x: the
    stencil reads its producer at offsets, so the fused kernel keeps a
    materialized in-launch part."""
    log = StreamKernel.from_expression(
        "lg", ir.log(ir.max_(ir.TexFetch("a"), 1e-6)), inputs=("a",))
    return StageGraph(
        "stencil-chain", inputs=("x",),
        steps=(Step(map_scale_bias("sb"), {"a": "x"}, "t1",
                    uniforms={"scale": np.float32(2.0),
                              "bias": np.float32(0.5)}),
               Step(log, {"a": "t1"}, "t2"),
               Step(stencil_sum("st", ((0, 0), (0, 1), (1, 0), (-1, 0),
                                       (0, -1))), {"a": "t2"}, "t3"),
               Step(map_binary("add", "add"), {"a": "t3", "b": "x"},
                    "out")),
        outputs=("out",))


def _masked_reduction_chain(rng):
    """zero -> four ``acc + dot(src_i at an offset, mask)`` steps.

    Each step binds its own ``mask`` uniform: steps 0, 1 and 3 share one
    value (deduped to one slot), step 2's differs (renamed
    ``mask_f2``).  Step 2 reads its accumulator at an offset, so step
    1's output stays a materialized in-launch part."""
    offsets = ((0, 0), (1, 0), (0, 1), (-1, -1))
    acc_offsets = ((0, 0), (0, 0), (0, -1), (0, 0))
    shared = rng.uniform(-1.0, 1.0, size=4).astype(np.float32)
    masks = (shared, shared,
             rng.uniform(-1.0, 1.0, size=4).astype(np.float32), shared)
    steps = []
    acc = "zero"
    for i, ((dx, dy), (adx, ady), mask) in enumerate(
            zip(offsets, acc_offsets, masks)):
        body = ir.add(ir.TexFetch("acc", adx, ady),
                      ir.dot4(ir.TexFetch("src", dx, dy), ir.Uniform("mask")))
        kernel = StreamKernel.from_expression(
            f"red{i}", body, inputs=("acc", "src"), uniforms=("mask",))
        out = "out" if i == len(offsets) - 1 else f"r{i}"
        steps.append(Step(kernel, {"acc": acc, "src": f"src{i}"}, out,
                          uniforms={"mask": mask}))
        acc = out
    inputs = {"zero": Stream.zeros("zero", H, W)}
    for i in range(len(offsets)):
        inputs[f"src{i}"] = Stream(
            f"src{i}", rng.uniform(0.05, 1.0, size=(H, W, 4)))
    graph = StageGraph("masked-reduction", inputs=tuple(inputs),
                       steps=tuple(steps), outputs=("out",))
    return graph, inputs


def _fused_graphs(rng):
    yield _stencil_chain(), {
        "x": Stream.from_scalar("x", rng.uniform(size=(H, W)))}
    yield _masked_reduction_chain(rng)


def test_launch_fused_matches_unfused_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    parts = []
    for graph, inputs in _fused_graphs(rng):
        fused = fuse_elementwise(graph)
        assert fused.step_count() < graph.step_count()
        if graph.name == "masked-reduction":
            (step,) = fused.steps
            assert sorted(step.uniforms) == ["mask", "mask_f2"]
        parts.extend(len(step.kernel.part_shaders) for step in fused.steps
                     if isinstance(step, FusedStep))
        with _gather_fetches(monkeypatch):
            want = CpuExecutor().run(graph, inputs)
        device = VirtualGPU()
        got = GpuExecutor(device).run(fused, inputs)
        assert device.counters.passes_fused > 0
        for name in graph.outputs:
            assert got[name].data.tobytes() == want[name].data.tobytes(), \
                (graph.name, name)
    assert max(parts) > 1  # a materialized part ran in-launch
