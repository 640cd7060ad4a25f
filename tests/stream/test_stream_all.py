"""Tests for the stream programming framework (Stream/Kernel/Graph/Executors)."""

import numpy as np
import pytest

from repro.errors import ShapeError, StreamError
from repro.gpu import GEFORCE_7800GTX, VirtualGPU
from repro.gpu import shaderir as ir
from repro.stream import (
    CpuExecutor,
    GpuExecutor,
    StageGraph,
    Step,
    Stream,
    StreamKernel,
)
from repro.stream.kernel import (
    map_binary,
    map_scale_bias,
    reduce_dot,
    stencil_sum,
)


class TestStream:
    def test_from_scalar_roundtrip(self, rng):
        image = rng.uniform(size=(4, 6)).astype(np.float32)
        stream = Stream.from_scalar("s", image)
        np.testing.assert_array_equal(stream.scalar(), image)
        assert stream.shape == (4, 6)

    def test_zeros(self):
        stream = Stream.zeros("z", 3, 5)
        assert np.all(stream.data == 0)

    def test_copy_independent(self):
        a = Stream.zeros("a", 2, 2)
        b = a.copy("b")
        b.data[...] = 1
        assert np.all(a.data == 0)
        assert b.name == "b"

    def test_needs_name(self):
        with pytest.raises(StreamError):
            Stream("", np.zeros((2, 2, 4), dtype=np.float32))

    def test_needs_float4(self):
        with pytest.raises(ShapeError):
            Stream("s", np.zeros((2, 2, 3), dtype=np.float32))

    def test_from_scalar_needs_2d(self):
        with pytest.raises(ShapeError):
            Stream.from_scalar("s", np.zeros(4))

    def test_zeros_bad_extent(self):
        with pytest.raises(ShapeError):
            Stream.zeros("z", 0, 4)


class TestStreamKernel:
    def test_from_expression(self):
        k = StreamKernel.from_expression(
            "k", ir.add(ir.TexFetch("a"), 1.0), inputs=("a",))
        assert k.name == "k"

    def test_inputs_must_cover_samplers(self):
        shader_body = ir.add(ir.TexFetch("a"), ir.TexFetch("b"))
        with pytest.raises(StreamError, match="cover"):
            from repro.gpu import FragmentShader
            StreamKernel(FragmentShader("k", shader_body,
                                        samplers=("a", "b")),
                         inputs=("a",))

    def test_standard_kernels_build(self):
        map_binary("add", "add")
        map_scale_bias("sb")
        reduce_dot("rd")
        stencil_sum("st", ((0, 0), (0, 1), (1, 0)))

    def test_stencil_needs_offsets(self):
        with pytest.raises(StreamError):
            stencil_sum("st", ())


class TestStageGraph:
    def _k(self):
        return map_binary("add", "add")

    def test_valid_graph(self):
        graph = StageGraph("g", inputs=("x", "y"),
                           steps=(Step(self._k(), {"a": "x", "b": "y"},
                                       "out"),),
                           outputs=("out",))
        assert graph.step_count() == 1
        assert graph.stream_names == ("x", "y", "out")

    def test_read_before_write(self):
        with pytest.raises(StreamError, match="before it exists"):
            StageGraph("g", inputs=("x",),
                       steps=(Step(self._k(), {"a": "x", "b": "ghost"},
                                   "out"),),
                       outputs=("out",))

    def test_single_assignment(self):
        k = self._k()
        with pytest.raises(StreamError, match="more than once"):
            StageGraph("g", inputs=("x", "y"),
                       steps=(Step(k, {"a": "x", "b": "y"}, "t"),
                              Step(k, {"a": "x", "b": "y"}, "t")),
                       outputs=("t",))

    def test_missing_output(self):
        with pytest.raises(StreamError, match="never produced"):
            StageGraph("g", inputs=("x", "y"),
                       steps=(Step(self._k(), {"a": "x", "b": "y"}, "t"),),
                       outputs=("nope",))

    def test_no_steps(self):
        with pytest.raises(StreamError, match="no steps"):
            StageGraph("g", inputs=("x",), steps=(), outputs=("x",))

    def test_step_binding_validation(self):
        with pytest.raises(StreamError, match="not bound"):
            Step(self._k(), {"a": "x"}, "out")
        with pytest.raises(StreamError, match="unknown kernel inputs"):
            Step(self._k(), {"a": "x", "b": "y", "c": "z"}, "out")

    def test_step_uniforms_validated(self):
        k = map_scale_bias("sb")
        with pytest.raises(StreamError, match="uniforms"):
            Step(k, {"a": "x"}, "out")  # scale/bias missing

    def test_producers(self):
        step = Step(self._k(), {"a": "x", "b": "y"}, "out")
        graph = StageGraph("g", inputs=("x", "y"), steps=(step,),
                           outputs=("out",))
        assert graph.producers()["out"] is step


@pytest.fixture()
def pipeline():
    """x -> double -> add original -> output (tests chaining)."""
    dbl = StreamKernel.from_expression(
        "dbl", ir.mul(ir.TexFetch("a"), 2.0), inputs=("a",))
    add = map_binary("add", "add")
    return StageGraph("p", inputs=("x",),
                      steps=(Step(dbl, {"a": "x"}, "x2"),
                             Step(add, {"a": "x2", "b": "x"}, "x3")),
                      outputs=("x3",))


class TestExecutors:
    def test_cpu_executor(self, pipeline, rng):
        x = Stream.from_scalar("x", rng.uniform(size=(4, 4)))
        out = CpuExecutor().run(pipeline, {"x": x})
        np.testing.assert_allclose(out["x3"].scalar(), 3 * x.scalar(),
                                   rtol=1e-6)

    def test_gpu_executor_matches_cpu(self, pipeline, rng):
        x = Stream.from_scalar("x", rng.uniform(size=(4, 4)))
        cpu = CpuExecutor().run(pipeline, {"x": x})
        gpu = GpuExecutor().run(pipeline, {"x": x.copy()})
        np.testing.assert_array_equal(cpu["x3"].data, gpu["x3"].data)

    def test_gpu_executor_frees_vram(self, pipeline, rng):
        device = VirtualGPU(GEFORCE_7800GTX)
        x = Stream.from_scalar("x", rng.uniform(size=(4, 4)))
        GpuExecutor(device).run(pipeline, {"x": x})
        assert device.vram.used == 0

    def test_gpu_executor_counts_launches(self, pipeline, rng):
        device = VirtualGPU(GEFORCE_7800GTX)
        x = Stream.from_scalar("x", rng.uniform(size=(4, 4)))
        GpuExecutor(device).run(pipeline, {"x": x})
        assert device.counters.kernel_launch_count == 2

    def test_missing_input_rejected(self, pipeline):
        with pytest.raises(StreamError, match="not provided"):
            CpuExecutor().run(pipeline, {})

    def test_extra_input_rejected(self, pipeline):
        x = Stream.zeros("x", 2, 2)
        with pytest.raises(StreamError, match="unexpected"):
            CpuExecutor().run(pipeline, {"x": x, "y": x.copy("y")})

    def test_shape_disagreement_rejected(self):
        add = map_binary("add", "add")
        graph = StageGraph("g", inputs=("x", "y"),
                           steps=(Step(add, {"a": "x", "b": "y"}, "o"),),
                           outputs=("o",))
        with pytest.raises(StreamError, match="disagree"):
            CpuExecutor().run(graph, {"x": Stream.zeros("x", 2, 2),
                                      "y": Stream.zeros("y", 3, 3)})

    def test_gpu_executor_frees_vram_on_failure(self, pipeline, rng,
                                                monkeypatch):
        """Failure injection: if a kernel blows up mid-graph, the GPU
        executor must still release every texture it allocated."""
        import repro.gpu.device as device_mod
        from repro.gpu.interpreter import execute

        device = VirtualGPU(GEFORCE_7800GTX)
        calls = {"n": 0}

        def flaky(shader, height, width, textures, uniforms=None):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected kernel fault")
            return execute(shader, height, width, textures, uniforms)

        monkeypatch.setattr(device_mod, "execute_lazy", flaky)
        x = Stream.from_scalar("x", rng.uniform(size=(4, 4)))
        with pytest.raises(RuntimeError, match="injected"):
            GpuExecutor(device).run(pipeline, {"x": x})
        assert device.vram.used == 0

    def test_uniforms_flow_through(self, rng):
        sb = map_scale_bias("sb")
        graph = StageGraph(
            "g", inputs=("x",),
            steps=(Step(sb, {"a": "x"}, "o",
                        uniforms={"scale": np.float32(3.0),
                                  "bias": np.float32(-1.0)}),),
            outputs=("o",))
        x = Stream.from_scalar("x", rng.uniform(size=(3, 3)))
        out = CpuExecutor().run(graph, {"x": x})
        np.testing.assert_allclose(out["o"].scalar(),
                                   3 * x.scalar() - 1, rtol=1e-6)
