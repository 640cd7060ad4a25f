"""Tests for the pass-fusion compiler (repro.stream.optimize).

Contracts: fused graphs are bit-identical to unfused on both executors,
fusion blockers (multi-consumer, graph outputs, dependent fetches,
``max_group``) are honoured, the fused launch is cheaper in the cost
model while counting every instruction, the halo of a fused graph never
exceeds the unfused chain's, and the shared structural memo hoists
repeated subexpressions across fused parts.
"""

import numpy as np
import pytest

from repro.errors import ShaderValidationError, StreamError
from repro.gpu import GEFORCE_7800GTX, VirtualGPU
from repro.gpu import shaderir as ir
from repro.stream import (
    CpuExecutor,
    FusedStep,
    GpuExecutor,
    StageGraph,
    Step,
    Stream,
    StreamKernel,
    fuse_elementwise,
    graph_halo,
    run_chunked,
)
from repro.stream.kernel import map_binary, map_scale_bias, stencil_sum


def _scale(name):
    return map_scale_bias(name)


def _log_clamped(name):
    body = ir.log(ir.max_(ir.TexFetch("a"), 1e-6))
    return StreamKernel.from_expression(name, body, inputs=("a",))


def _chain_graph():
    """x -> scale/bias -> log -> stencil -> +x: a 4-step fusable chain."""
    st = stencil_sum("st", ((0, 0), (0, 1), (1, 0), (-1, 0), (0, -1)))
    return StageGraph(
        "chain", inputs=("x",),
        steps=(Step(_scale("sb"), {"a": "x"}, "t1",
                    uniforms={"scale": np.float32(2.0),
                              "bias": np.float32(0.5)}),
               Step(_log_clamped("lg"), {"a": "t1"}, "t2"),
               Step(st, {"a": "t2"}, "t3"),
               Step(map_binary("add", "add"), {"a": "t3", "b": "x"},
                    "out")),
        outputs=("out",))


@pytest.fixture()
def chain():
    return _chain_graph()


@pytest.fixture()
def x_stream(rng):
    return Stream.from_scalar("x", rng.uniform(size=(17, 13)))


class TestFuseElementwise:
    def test_chain_fuses_to_one_step(self, chain):
        fused = fuse_elementwise(chain)
        assert fused.step_count() == 1
        (step,) = fused.steps
        assert isinstance(step, FusedStep)
        assert step.kernel.fused_count == 4
        assert step.output == "out"
        assert step.kernel.external_inputs == ("x",)

    def test_zero_offset_intermediates_inlined(self, chain):
        """t1 (zero-offset consumer) inlines; t2 (stencil-read) and the
        final body survive as materialized parts."""
        (step,) = fuse_elementwise(chain).steps
        assert step.kernel.part_names == ("t2", "out")

    def test_cpu_bit_identical(self, chain, x_stream):
        ref = CpuExecutor().run(chain, {"x": x_stream})
        got = CpuExecutor().run(fuse_elementwise(chain), {"x": x_stream})
        np.testing.assert_array_equal(ref["out"].data, got["out"].data)

    def test_gpu_bit_identical_and_fewer_launches(self, chain, x_stream):
        unfused = VirtualGPU(GEFORCE_7800GTX)
        device = VirtualGPU(GEFORCE_7800GTX)
        ref = GpuExecutor(unfused).run(chain, {"x": x_stream})
        got = GpuExecutor(device).run(fuse_elementwise(chain),
                                      {"x": x_stream.copy()})
        np.testing.assert_array_equal(ref["out"].data, got["out"].data)
        assert unfused.counters.kernel_launch_count == 4
        assert device.counters.kernel_launch_count == 1

    def test_fusion_counters_recorded(self, chain, x_stream):
        device = VirtualGPU(GEFORCE_7800GTX)
        GpuExecutor(device).run(fuse_elementwise(chain), {"x": x_stream})
        assert device.counters.passes_fused == 3
        # 3 intermediate textures + the interpreter scratch
        assert device.counters.temporaries_elided == 4
        summary = device.counters.summary()
        assert summary["passes_fused"] == 3.0

    def test_fused_modeled_time_lower(self, chain, x_stream):
        unfused = VirtualGPU(GEFORCE_7800GTX)
        device = VirtualGPU(GEFORCE_7800GTX)
        GpuExecutor(unfused).run(chain, {"x": x_stream})
        GpuExecutor(device).run(fuse_elementwise(chain),
                                {"x": x_stream.copy()})
        assert device.counters.total_time_s < unfused.counters.total_time_s

    def test_fused_launch_counts_all_work(self, chain, x_stream):
        """The single launch record keeps every ALU instruction of the
        chain; only the fetches of *inlined* intermediates (t1, t3 —
        one each) disappear, because the value now stays in a register
        instead of round-tripping through a texture."""
        unfused = VirtualGPU(GEFORCE_7800GTX)
        device = VirtualGPU(GEFORCE_7800GTX)
        GpuExecutor(unfused).run(chain, {"x": x_stream})
        GpuExecutor(device).run(fuse_elementwise(chain),
                                {"x": x_stream.copy()})
        (fused_rec,) = device.counters.launches
        total_cycles = sum(r.cycles_per_fragment
                           for r in unfused.counters.launches)
        total_fetches = sum(r.static_fetches
                            for r in unfused.counters.launches)
        from repro.gpu.cost import OP_COSTS

        assert fused_rec.static_fetches == total_fetches - 2
        assert fused_rec.cycles_per_fragment == pytest.approx(
            total_cycles - 2 * OP_COSTS["tex"])

    def test_halo_preserved(self, chain):
        assert graph_halo(fuse_elementwise(chain)) == graph_halo(chain)

    def test_chunked_fused_matches_whole_unfused(self, chain, rng):
        x = Stream.from_scalar("x", rng.uniform(size=(23, 9)))
        whole = CpuExecutor().run(chain, {"x": x})
        fused = fuse_elementwise(chain)
        chunked = run_chunked(fused, {"x": x}, CpuExecutor(),
                              max_ext_lines=7)
        np.testing.assert_array_equal(whole["out"].data,
                                      chunked["out"].data)

    def test_multi_consumer_blocks_fusion(self):
        """An intermediate read twice must stay materialized."""
        dbl = StreamKernel.from_expression(
            "dbl", ir.mul(ir.TexFetch("a"), 2.0), inputs=("a",))
        add = map_binary("add", "add")
        graph = StageGraph(
            "g", inputs=("x",),
            steps=(Step(dbl, {"a": "x"}, "t"),
                   Step(add, {"a": "t", "b": "t"}, "u"),
                   Step(dbl, {"a": "t"}, "v"),
                   Step(add, {"a": "u", "b": "v"}, "out")),
            outputs=("out",))
        fused = fuse_elementwise(graph)
        # t has two consumers -> step 1 stands alone; u is only read by
        # the final add but v sits between them in program order.
        producers = fused.producers()
        assert not isinstance(producers["t"], FusedStep)

    def test_graph_output_blocks_fusion(self, chain):
        exposed = StageGraph(chain.name, inputs=chain.inputs,
                             steps=chain.steps,
                             outputs=("t2", "out"))
        fused = fuse_elementwise(exposed)
        # t2's name is part of the contract: the chain splits there.
        assert "t2" in fused.producers()
        assert fused.step_count() == 2

    def test_dynamic_fetch_blocks_fusion(self, chain):
        lookup = StreamKernel.from_expression(
            "lut", ir.TexFetchDyn("table", ir.TexFetch("a")),
            inputs=("a", "table"))
        graph = StageGraph(
            "g", inputs=("x", "table"),
            steps=(Step(_log_clamped("lg"), {"a": "x"}, "t"),
                   Step(lookup, {"a": "t", "table": "table"}, "out")),
            outputs=("out",))
        fused = fuse_elementwise(graph)
        assert fused.step_count() == 2

    def test_max_group_bound(self, chain):
        fused = fuse_elementwise(chain, max_group=2)
        assert fused.step_count() == 2
        assert all(s.kernel.fused_count == 2 for s in fused.steps)
        with pytest.raises(StreamError, match="max_group"):
            fuse_elementwise(chain, max_group=1)

    def test_uniform_conflict_renamed_and_dedup(self, x_stream):
        """Same uniform name, different values: the second gets a fresh
        slot; identical values share one."""
        graph = StageGraph(
            "g", inputs=("x",),
            steps=(Step(_scale("s1"), {"a": "x"}, "t",
                        uniforms={"scale": np.float32(2.0),
                                  "bias": np.float32(1.0)}),
                   Step(_scale("s2"), {"a": "t"}, "out",
                        uniforms={"scale": np.float32(3.0),
                                  "bias": np.float32(1.0)})),
            outputs=("out",))
        fused = fuse_elementwise(graph)
        (step,) = fused.steps
        assert set(step.uniforms) == {"scale", "scale_f1", "bias"}
        ref = CpuExecutor().run(graph, {"x": x_stream})
        got = CpuExecutor().run(fused, {"x": x_stream})
        np.testing.assert_array_equal(ref["out"].data, got["out"].data)


class TestSubstitute:
    def test_rename_keeps_offsets(self):
        body = ir.add(ir.TexFetch("a", 1, -1), ir.TexFetch("b"))
        out = ir.substitute(body, {"a": ("rename", "stream")})
        fetches = [n for n in ir.walk(out) if isinstance(n, ir.TexFetch)]
        assert {f.sampler for f in fetches} == {"stream", "b"}
        (moved,) = [f for f in fetches if f.sampler == "stream"]
        assert (moved.dx, moved.dy) == (1, -1)

    def test_inline_zero_offset(self):
        inner = ir.mul(ir.TexFetch("x"), 2.0)
        out = ir.substitute(ir.log(ir.TexFetch("a")),
                            {"a": ("inline", inner)})
        samplers = {n.sampler for n in ir.walk(out)
                    if isinstance(n, ir.TexFetch)}
        assert samplers == {"x"}

    def test_inline_offset_fetch_rejected(self):
        inner = ir.mul(ir.TexFetch("x"), 2.0)
        with pytest.raises(ShaderValidationError, match="offset fetch"):
            ir.substitute(ir.TexFetch("a", 1, 0), {"a": ("inline", inner)})

    def test_inline_dependent_fetch_rejected(self):
        body = ir.TexFetchDyn("a", ir.TexFetch("c"))
        with pytest.raises(ShaderValidationError, match="dependent"):
            ir.substitute(body, {"a": ("inline", ir.TexFetch("x"))})

    def test_uniform_rename(self):
        body = ir.add(ir.Uniform("u"), ir.Uniform("v"))
        out = ir.substitute(body, uniform_map={"u": "w"})
        names = {n.name for n in ir.walk(out) if isinstance(n, ir.Uniform)}
        assert names == {"w", "v"}

    def test_untouched_tree_returned_as_is(self):
        body = ir.add(ir.TexFetch("a"), 1.0)
        assert ir.substitute(body, {"other": ("rename", "z")}) is body


def _count_fetches(monkeypatch):
    """Count every fixed-offset fetch the interpreter issues."""
    from repro.gpu import interpreter

    calls = {"n": 0}
    real = interpreter._fetch_static

    def counting(texture, dx, dy):
        calls["n"] += 1
        return real(texture, dx, dy)

    monkeypatch.setattr(interpreter, "_fetch_static", counting)
    return calls


def _twice_graph():
    body = ir.add(ir.TexFetch("a", 1, 0), ir.TexFetch("a", 1, 0))
    kernel = StreamKernel.from_expression("twice", body, inputs=("a",))
    return StageGraph("g", inputs=("x",),
                      steps=(Step(kernel, {"a": "x"}, "out"),),
                      outputs=("out",))


def _shared_fetch_graph(mix_offset=(0, 0)):
    """x -> shift(0, 1) -> t; out = t(mix_offset) + x(0, 1).  With a
    zero ``mix_offset`` the shift inlines into one part; otherwise it
    stays a materialized part of the fused kernel."""
    shift = StreamKernel.from_expression(
        "shift", ir.TexFetch("a", 0, 1), inputs=("a",))
    mix = StreamKernel.from_expression(
        "mix", ir.add(ir.TexFetch("a", *mix_offset),
                      ir.TexFetch("b", 0, 1)),
        inputs=("a", "b"))
    graph = StageGraph(
        "g", inputs=("x",),
        steps=(Step(shift, {"a": "x"}, "t"),
               Step(mix, {"a": "t", "b": "x"}, "out")),
        outputs=("out",))
    fused = fuse_elementwise(graph)
    assert fused.step_count() == 1
    return fused


class TestStructuralMemo:
    def test_equal_distinct_subtrees_fetch_once(self, rng, monkeypatch):
        """Two structurally equal (but distinct) offset fetches hit the
        texture unit once per launch — the id()-memo bug this release
        fixed."""
        calls = _count_fetches(monkeypatch)
        x = Stream.from_scalar("x", rng.uniform(size=(6, 6)))
        CpuExecutor().run(_twice_graph(), {"x": x})
        assert calls["n"] == 1

    def test_equal_distinct_subtrees_fetch_once_on_device(self, rng,
                                                          monkeypatch):
        """The same pin through ``VirtualGPU.launch``: the compiled
        plan's structural CSE keeps the two equal fetches on one
        register."""
        calls = _count_fetches(monkeypatch)
        x = Stream.from_scalar("x", rng.uniform(size=(6, 6)))
        GpuExecutor(VirtualGPU()).run(_twice_graph(), {"x": x})
        assert calls["n"] == 1

    def test_hoisting_across_fused_parts(self, rng, monkeypatch):
        """A fetch shared by two fused members evaluates once per fused
        launch instead of once per original pass."""
        calls = _count_fetches(monkeypatch)
        x = Stream.from_scalar("x", rng.uniform(size=(6, 6)))
        CpuExecutor().run(_shared_fetch_graph(), {"x": x})
        # both members read x at (0, 1): one gather serves both parts
        assert calls["n"] == 1

    def test_hoisting_across_fused_parts_on_device(self, rng, monkeypatch):
        """The same pin through ``VirtualGPU.launch_fused``."""
        calls = _count_fetches(monkeypatch)
        x = Stream.from_scalar("x", rng.uniform(size=(6, 6)))
        GpuExecutor(VirtualGPU()).run(_shared_fetch_graph(), {"x": x})
        assert calls["n"] == 1

    def test_hoisting_across_materialized_parts_on_device(self, rng,
                                                          monkeypatch):
        """With the shift kept as a materialized part, x(0, 1) is shared
        *across* parts: one fetch for it plus one of the part at (1, 0)
        — not three."""
        fused = _shared_fetch_graph(mix_offset=(1, 0))
        assert len(fused.steps[0].kernel.part_shaders) == 2
        calls = _count_fetches(monkeypatch)
        x = Stream.from_scalar("x", rng.uniform(size=(6, 6)))
        GpuExecutor(VirtualGPU()).run(fused, {"x": x})
        assert calls["n"] == 2
