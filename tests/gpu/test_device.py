"""Tests for the VirtualGPU device object."""

import numpy as np
import pytest

from repro.errors import GpuOutOfMemoryError, ShaderError
from repro.gpu import FragmentShader, GEFORCE_7800GTX, VirtualGPU
from repro.gpu import shaderir as ir


@pytest.fixture()
def gpu():
    return VirtualGPU(GEFORCE_7800GTX)


@pytest.fixture()
def double_shader():
    return FragmentShader("double", ir.mul(ir.TexFetch("a"), 2.0),
                          samplers=("a",))


class TestUploadDownload:
    def test_upload_counts_transfer_and_vram(self, gpu, rng):
        data = rng.uniform(size=(8, 8, 4)).astype(np.float32)
        tex = gpu.upload(data)
        assert gpu.counters.bytes_uploaded == tex.nbytes
        assert gpu.vram.used == tex.nbytes

    def test_upload_copies(self, gpu):
        data = np.ones((4, 4, 4), dtype=np.float32)
        tex = gpu.upload(data)
        data[...] = 0
        assert np.all(tex.data == 1.0)

    def test_download_roundtrip(self, gpu, rng):
        data = rng.uniform(size=(6, 3, 4)).astype(np.float32)
        tex = gpu.upload(data)
        np.testing.assert_array_equal(gpu.download(tex), data)
        assert gpu.counters.bytes_downloaded == tex.nbytes

    def test_download_scalar_quarter_traffic(self, gpu, rng):
        data = rng.uniform(size=(8, 8, 4)).astype(np.float32)
        tex = gpu.upload(data)
        out = gpu.download_scalar(tex)
        np.testing.assert_array_equal(out, data[:, :, 0])
        assert gpu.counters.bytes_downloaded == tex.nbytes // 4

    def test_upload_scalar(self, gpu, rng):
        image = rng.uniform(size=(5, 7)).astype(np.float32)
        tex = gpu.upload_scalar(image)
        np.testing.assert_array_equal(tex.data[:, :, 0], image)

    def test_oom_on_upload(self):
        gpu = VirtualGPU(GEFORCE_7800GTX.with_(vram_bytes=64))
        with pytest.raises(GpuOutOfMemoryError):
            gpu.upload(np.zeros((8, 8, 4), dtype=np.float32))

    def test_free_releases_vram(self, gpu):
        tex = gpu.create_target(8, 8)
        used = gpu.vram.used
        gpu.free(tex)
        assert gpu.vram.used == used - 8 * 8 * 16
        gpu.free(tex)  # second free is a no-op
        assert gpu.vram.used == used - 8 * 8 * 16


class TestLaunch:
    def test_launch_computes_and_counts(self, gpu, double_shader, rng):
        data = rng.uniform(size=(4, 5, 4)).astype(np.float32)
        tex = gpu.upload(data)
        target = gpu.create_target(4, 5)
        gpu.launch(double_shader, target, {"a": tex})
        np.testing.assert_array_equal(target.data, data * 2)
        assert gpu.counters.kernel_launch_count == 1
        record = gpu.counters.launches[0]
        assert record.kernel == "double"
        assert record.fragments == 20
        assert record.modeled_time_s > 0

    def test_launch_requires_resident_inputs(self, gpu, double_shader):
        from repro.gpu import Texture2D
        ghost = Texture2D.zeros(4, 4)  # never uploaded
        target = gpu.create_target(4, 4)
        with pytest.raises(ShaderError, match="not.*resident|resident"):
            gpu.launch(double_shader, target, {"a": ghost})

    def test_launch_rejects_target_as_input(self, gpu):
        shader = FragmentShader("inc", ir.add(ir.TexFetch("a"), 1.0),
                                samplers=("a",))
        target = gpu.create_target(4, 4)
        with pytest.raises(ShaderError, match="ping-pong"):
            gpu.launch(shader, target, {"a": target})

    def test_launch_rejects_non_texture_binding(self, gpu, double_shader):
        target = gpu.create_target(4, 4)
        with pytest.raises(ShaderError, match="expected Texture2D"):
            gpu.launch(double_shader, target,
                       {"a": np.zeros((4, 4, 4))})  # type: ignore

    def test_chained_launches_ping_pong(self, gpu, double_shader, rng):
        data = rng.uniform(size=(4, 4, 4)).astype(np.float32)
        tex = gpu.upload(data)
        ping = gpu.create_target(4, 4)
        pong = gpu.create_target(4, 4)
        gpu.launch(double_shader, ping, {"a": tex})
        gpu.launch(double_shader, pong, {"a": ping})
        np.testing.assert_array_equal(pong.data, data * 4)

    def test_counters_aggregate(self, gpu, double_shader, rng):
        data = rng.uniform(size=(4, 4, 4)).astype(np.float32)
        tex = gpu.upload(data)
        target = gpu.create_target(4, 4)
        for _ in range(3):
            gpu.launch(double_shader, target, {"a": tex})
        summary = gpu.counters.summary()
        assert summary["kernel_launches"] == 3
        assert summary["fragments_shaded"] == 48
        assert summary["total_time_s"] == pytest.approx(
            summary["kernel_time_s"] + summary["transfer_time_s"])

    def test_time_by_kernel(self, gpu, double_shader, rng):
        tex = gpu.upload(rng.uniform(size=(4, 4, 4)).astype(np.float32))
        target = gpu.create_target(4, 4)
        gpu.launch(double_shader, target, {"a": tex})
        profile = gpu.counters.time_by_kernel()
        assert set(profile) == {"double"}
        assert profile["double"] > 0

    def test_reset_counters(self, gpu, rng):
        gpu.upload(rng.uniform(size=(4, 4, 4)).astype(np.float32))
        gpu.reset_counters()
        assert gpu.counters.kernel_launch_count == 0
        assert gpu.counters.bytes_uploaded == 0


class TestCompileOnce:
    """A shader is compiled once — plan and static cost — however many
    devices (one per serving job) launch it."""

    @pytest.fixture()
    def compiles(self, monkeypatch):
        from repro.gpu import cost, interpreter

        counts = {"plan": 0, "cost": 0}
        real_plan = interpreter.compile_plan
        real_cost = cost._static_cost

        def counting_plan(*args, **kwargs):
            counts["plan"] += 1
            return real_plan(*args, **kwargs)

        def counting_cost(shader):
            counts["cost"] += 1
            return real_cost(shader)

        monkeypatch.setattr(interpreter, "compile_plan", counting_plan)
        monkeypatch.setattr(cost, "_static_cost", counting_cost)
        return counts

    def test_two_devices_compile_shader_once(self, compiles, rng):
        shader = FragmentShader(
            "fresh", ir.add(ir.TexFetch("a", 1, 0), ir.Uniform("u")),
            samplers=("a",), uniforms=("u",))
        data = rng.uniform(size=(5, 4, 4)).astype(np.float32)
        records = []
        for _ in range(2):
            device = VirtualGPU(GEFORCE_7800GTX)
            tex = device.upload(data)
            for _ in range(3):
                device.launch(shader, device.create_target(5, 4),
                              {"a": tex}, {"u": np.float32(0.5)})
            records.append(device.counters.launches)
        assert compiles == {"plan": 1, "cost": 1}
        assert records[0] == records[1]


class TestCommandQueue:
    """Launches queue; a flush runs them, stacking equal plan shapes."""

    @staticmethod
    def _shift_shader(dx, dy, nested=False):
        dot = ir.dot4(ir.TexFetch("a", dx, dy), ir.Uniform("u"))
        if nested:  # a DP4 of DP4 results
            dot = ir.dot4(dot, ir.dot4(ir.TexFetch("acc"),
                                       ir.TexFetch("a", dy, dx)))
        body = ir.add(ir.TexFetch("acc"), dot)
        return FragmentShader(f"shift_{dx}_{dy}", body,
                              samplers=("acc", "a"), uniforms=("u",))

    @pytest.mark.parametrize("nested", [False, True])
    def test_offset_variants_stack_and_match_oracle(self, gpu, rng,
                                                    monkeypatch, nested):
        import repro.gpu.device as device_mod
        from repro.gpu.interpreter import execute

        stacks = []
        real = device_mod.execute_stacked

        def counting(shader, offsets, *args):
            stacks.append(len(offsets))
            return real(shader, offsets, *args)

        monkeypatch.setattr(device_mod, "execute_stacked", counting)
        data = rng.uniform(-1, 1, size=(6, 5, 4)).astype(np.float32)
        acc = rng.uniform(-1, 1, size=(6, 5, 4)).astype(np.float32)
        tex, acc_tex = gpu.upload(data), gpu.upload(acc)
        offsets = [(1, 0), (-2, 1), (0, -1), (1, 2)]
        targets = []
        for i, (dx, dy) in enumerate(offsets):
            target = gpu.create_target(6, 5)
            gpu.launch(self._shift_shader(dx, dy, nested), target,
                       {"acc": acc_tex, "a": tex}, {"u": np.float32(i)})
            targets.append(target)
        assert stacks == []  # nothing ran yet
        for i, ((dx, dy), target) in enumerate(zip(offsets, targets)):
            want = execute(self._shift_shader(dx, dy, nested), 6, 5,
                           {"acc": acc, "a": data}, {"u": np.float32(i)})
            assert target.data.tobytes() == want.tobytes()
        assert stacks == [len(offsets)]

    def test_dependent_launches_keep_program_order(self, gpu, rng):
        shader = FragmentShader("inc", ir.add(ir.TexFetch("a"), 1.0),
                                samplers=("a",))
        ping, pong = gpu.create_target(3, 3), gpu.create_target(3, 3)
        for _ in range(5):
            gpu.launch(shader, pong, {"a": ping})
            ping, pong = pong, ping
        assert np.all(gpu.download(ping) == 5.0)
        assert np.all(pong.data == 4.0)

    def test_host_write_waits_for_queued_reads(self, gpu, double_shader,
                                               rng):
        data = rng.uniform(size=(4, 4, 4)).astype(np.float32)
        tex = gpu.upload(data)
        target = gpu.create_target(4, 4)
        gpu.launch(double_shader, target, {"a": tex})
        tex.data[...] = 0.0  # the queued launch already read ``data``
        np.testing.assert_array_equal(target.data, data * 2)

    def test_clear_is_queued_and_unrecorded(self, gpu, double_shader, rng):
        tex = gpu.upload(rng.uniform(size=(4, 4, 4)).astype(np.float32))
        target = gpu.create_target(4, 4)
        gpu.launch(double_shader, target, {"a": tex})
        gpu.clear(tex)
        out = gpu.create_target(4, 4)
        gpu.launch(double_shader, out, {"a": tex})
        assert gpu.counters.kernel_launch_count == 2
        assert np.all(gpu.download(out) == 0.0)
        assert np.all(tex.data == 0.0)
        assert np.all(target.data > 0.0)

    def test_free_does_not_flush(self, gpu, double_shader, rng):
        data = rng.uniform(size=(4, 4, 4)).astype(np.float32)
        tex = gpu.upload(data)
        target = gpu.create_target(4, 4)
        gpu.launch(double_shader, target, {"a": tex})
        gpu.free(tex, target)
        assert gpu.vram.used == 0
        assert target._version is not None  # still queued
        np.testing.assert_array_equal(target.data, data * 2)

    def test_superseded_versions_are_dropped(self, gpu, double_shader, rng):
        tex = gpu.upload(rng.uniform(size=(4, 4, 4)).astype(np.float32))
        scratch, out = gpu.create_target(4, 4), gpu.create_target(4, 4)
        gpu.launch(double_shader, scratch, {"a": tex})
        first = scratch._version
        gpu.launch(double_shader, out, {"a": scratch})
        gpu.launch(double_shader, scratch, {"a": tex})  # supersedes first
        gpu.flush()
        assert first.array is None

    def test_queue_flushes_past_its_texel_budget(self, gpu, double_shader,
                                                 monkeypatch):
        import repro.gpu.device as device_mod

        monkeypatch.setattr(device_mod, "QUEUE_TEXELS", 32)
        tex = gpu.upload(np.ones((4, 4, 4), dtype=np.float32))
        targets = [gpu.create_target(4, 4) for _ in range(3)]
        for target in targets:
            gpu.launch(double_shader, target, {"a": tex})
        # the third launch found 32 texels queued and flushed them
        assert [t._version is None for t in targets] == [True, True, False]


class TestLaunchErrorTiming:
    """A refused launch raises at the call, not at a later download,
    and leaves nothing queued."""

    @pytest.fixture()
    def queued(self, gpu, double_shader, rng):
        data = rng.uniform(size=(4, 4, 4)).astype(np.float32)
        tex = gpu.upload(data)
        target = gpu.create_target(4, 4)
        gpu.launch(double_shader, target, {"a": tex})
        return tex, target, data

    @staticmethod
    def _assert_only_first_queued(gpu, queued, *untouched):
        tex, target, data = queued
        assert len(gpu._commands) == 1
        assert gpu.counters.kernel_launch_count == 1
        assert all(t._pending is None for t in untouched)
        np.testing.assert_array_equal(gpu.download(target), data * 2)

    def test_missing_binding(self, gpu, queued):
        shader = FragmentShader("two", ir.add(ir.TexFetch("a"),
                                              ir.TexFetch("b")),
                                samplers=("a", "b"))
        other = gpu.create_target(4, 4)
        with pytest.raises(ShaderError, match="missing texture"):
            gpu.launch(shader, other, {"a": queued[0]})
        self._assert_only_first_queued(gpu, queued, other)

    def test_wrongly_shaped_texture(self, gpu, double_shader, queued):
        bad, other = gpu.create_target(4, 4), gpu.create_target(4, 4)
        bad.data = np.zeros((4, 4, 3), dtype=np.float32)
        with pytest.raises(ShaderError, match="must be"):
            gpu.launch(double_shader, other, {"a": bad})
        self._assert_only_first_queued(gpu, queued, bad, other)

    def test_bad_uniform(self, gpu, queued):
        shader = FragmentShader("scale", ir.mul(ir.TexFetch("a"),
                                                ir.Uniform("g")),
                                samplers=("a",), uniforms=("g",))
        other = gpu.create_target(4, 4)
        with pytest.raises(ShaderError, match="components"):
            gpu.launch(shader, other, {"a": queued[0]},
                       {"g": np.ones(3, dtype=np.float32)})
        self._assert_only_first_queued(gpu, queued, other)

    def test_self_bound_target(self, gpu, double_shader, queued):
        other = gpu.create_target(4, 4)
        with pytest.raises(ShaderError, match="ping-pong"):
            gpu.launch(double_shader, other, {"a": other})
        self._assert_only_first_queued(gpu, queued, other)
