"""Tests for the vectorized shader interpreter.

Everything here cross-checks interpreter semantics against the
corresponding NumPy operation in float32.
"""

import numpy as np
import pytest

from repro.errors import ShaderError
from repro.gpu import FragmentShader
from repro.gpu import shaderir as ir
from repro.gpu.interpreter import execute


@pytest.fixture()
def tex_a(rng):
    return rng.uniform(0.1, 2.0, size=(5, 6, 4)).astype(np.float32)


@pytest.fixture()
def tex_b(rng):
    return rng.uniform(0.1, 2.0, size=(5, 6, 4)).astype(np.float32)


def run(body, textures, uniforms=None, samplers=None, shape=(5, 6)):
    shader = FragmentShader(
        "t", body,
        samplers=tuple(samplers if samplers is not None else textures),
        uniforms=tuple(uniforms or ()))
    return execute(shader, shape[0], shape[1], textures, uniforms)


class TestArithmetic:
    def test_add(self, tex_a, tex_b):
        out = run(ir.add(ir.TexFetch("a"), ir.TexFetch("b")),
                  {"a": tex_a, "b": tex_b})
        np.testing.assert_array_equal(out, tex_a + tex_b)

    def test_sub_mul(self, tex_a, tex_b):
        out = run(ir.mul(ir.sub(ir.TexFetch("a"), ir.TexFetch("b")),
                         ir.TexFetch("a")),
                  {"a": tex_a, "b": tex_b})
        np.testing.assert_array_equal(out, (tex_a - tex_b) * tex_a)

    def test_div(self, tex_a, tex_b):
        out = run(ir.div(ir.TexFetch("a"), ir.TexFetch("b")),
                  {"a": tex_a, "b": tex_b})
        np.testing.assert_array_equal(out, tex_a / tex_b)

    def test_min_max(self, tex_a, tex_b):
        out = run(ir.max_(ir.min_(ir.TexFetch("a"), ir.TexFetch("b")), 0.5),
                  {"a": tex_a, "b": tex_b})
        np.testing.assert_array_equal(
            out, np.maximum(np.minimum(tex_a, tex_b), np.float32(0.5)))

    def test_log_exp(self, tex_a):
        out = run(ir.exp(ir.log(ir.TexFetch("a"))), {"a": tex_a})
        np.testing.assert_allclose(out, tex_a, rtol=1e-6)

    def test_unary_ops(self, tex_a):
        for op, fn in (("neg", np.negative), ("abs", np.abs),
                       ("floor", np.floor), ("sqrt", np.sqrt)):
            out = run(ir.Op(op, (ir.TexFetch("a"),)), {"a": tex_a})
            np.testing.assert_allclose(out, fn(tex_a), rtol=1e-6)

    def test_rcp(self, tex_a):
        out = run(ir.Op("rcp", (ir.TexFetch("a"),)), {"a": tex_a})
        np.testing.assert_allclose(out, 1.0 / tex_a, rtol=1e-6)

    def test_comparisons(self, tex_a, tex_b):
        gt = run(ir.cmp_gt(ir.TexFetch("a"), ir.TexFetch("b")),
                 {"a": tex_a, "b": tex_b})
        np.testing.assert_array_equal(gt, (tex_a > tex_b).astype(np.float32))
        ge = run(ir.cmp_ge(ir.TexFetch("a"), ir.TexFetch("a")),
                 {"a": tex_a})
        assert np.all(ge == 1.0)

    def test_float32_throughout(self, tex_a):
        out = run(ir.add(ir.TexFetch("a"), 1.0), {"a": tex_a})
        assert out.dtype == np.float32

    def test_log_of_zero_is_neg_inf(self):
        tex = np.zeros((2, 2, 4), dtype=np.float32)
        out = run(ir.log(ir.TexFetch("a")), {"a": tex}, shape=(2, 2))
        assert np.all(np.isneginf(out))


class TestStructuralOps:
    def test_dot_broadcasts(self, tex_a, tex_b):
        out = run(ir.dot4(ir.TexFetch("a"), ir.TexFetch("b")),
                  {"a": tex_a, "b": tex_b})
        expected = (tex_a * tex_b).sum(axis=-1, dtype=np.float32)
        for lane in range(4):
            np.testing.assert_allclose(out[:, :, lane], expected, rtol=1e-6)

    def test_swizzle(self, tex_a):
        out = run(ir.Swizzle(ir.TexFetch("a"), "wzyx"), {"a": tex_a})
        np.testing.assert_array_equal(out, tex_a[:, :, [3, 2, 1, 0]])

    def test_combine(self, tex_a, tex_b):
        out = run(ir.Combine(ir.TexFetch("a"), ir.TexFetch("b"),
                             ir.vec4(7.0), ir.TexFetch("a")),
                  {"a": tex_a, "b": tex_b})
        np.testing.assert_array_equal(out[:, :, 0], tex_a[:, :, 0])
        np.testing.assert_array_equal(out[:, :, 1], tex_b[:, :, 0])
        assert np.all(out[:, :, 2] == 7.0)

    def test_select(self, tex_a, tex_b):
        cond = ir.cmp_gt(ir.TexFetch("a"), ir.TexFetch("b"))
        out = run(ir.select(cond, ir.TexFetch("a"), ir.TexFetch("b")),
                  {"a": tex_a, "b": tex_b})
        np.testing.assert_array_equal(out, np.maximum(tex_a, tex_b))

    def test_fragcoord(self):
        out = run(ir.FragCoord(), {}, samplers=(), shape=(3, 4))
        np.testing.assert_array_equal(out[:, :, 0],
                                      np.tile(np.arange(4), (3, 1)))
        np.testing.assert_array_equal(out[:, :, 1],
                                      np.tile(np.arange(3)[:, None], (1, 4)))

    def test_uniform_broadcast(self, tex_a):
        out = run(ir.mul(ir.TexFetch("a"), ir.Uniform("g")),
                  {"a": tex_a}, uniforms={"g": np.float32(2.0)})
        np.testing.assert_array_equal(out, tex_a * 2)

    def test_uniform_vec4(self, tex_a):
        gain = np.array([1, 2, 3, 4], dtype=np.float32)
        out = run(ir.mul(ir.TexFetch("a"), ir.Uniform("g")),
                  {"a": tex_a}, uniforms={"g": gain})
        np.testing.assert_array_equal(out, tex_a * gain)


class TestAddressing:
    def test_offset_fetch_interior(self, tex_a):
        out = run(ir.TexFetch("a", 1, 0), {"a": tex_a})
        np.testing.assert_array_equal(out[:, :-1], tex_a[:, 1:])

    def test_clamp_to_edge_right(self, tex_a):
        out = run(ir.TexFetch("a", 2, 0), {"a": tex_a})
        np.testing.assert_array_equal(out[:, -1], tex_a[:, -1])
        np.testing.assert_array_equal(out[:, -2], tex_a[:, -1])

    def test_clamp_to_edge_top(self, tex_a):
        out = run(ir.TexFetch("a", 0, -3), {"a": tex_a})
        np.testing.assert_array_equal(out[0], tex_a[0])
        np.testing.assert_array_equal(out[2], tex_a[0])

    def test_dynamic_fetch_identity(self, tex_a):
        out = run(ir.TexFetchDyn("a", ir.FragCoord()), {"a": tex_a})
        np.testing.assert_array_equal(out, tex_a)

    def test_dynamic_fetch_constant_coord(self, tex_a):
        coord = ir.vec4(2.0, 3.0, 0.0, 0.0)  # column 2, row 3
        out = run(ir.TexFetchDyn("a", coord), {"a": tex_a})
        for y in range(5):
            for x in range(6):
                np.testing.assert_array_equal(out[y, x], tex_a[3, 2])

    def test_dynamic_fetch_clamped(self, tex_a):
        coord = ir.vec4(99.0, -5.0, 0.0, 0.0)
        out = run(ir.TexFetchDyn("a", coord), {"a": tex_a})
        np.testing.assert_array_equal(out[0, 0], tex_a[0, 5])


class TestLaunchValidation:
    def test_missing_texture(self, tex_a):
        shader = FragmentShader("k", ir.TexFetch("zzz"), samplers=("zzz",))
        with pytest.raises(ShaderError, match="missing texture"):
            execute(shader, 5, 6, {"a": tex_a})

    def test_missing_uniform(self, tex_a):
        shader = FragmentShader(
            "k", ir.mul(ir.TexFetch("a"), ir.Uniform("g")),
            samplers=("a",), uniforms=("g",))
        with pytest.raises(ShaderError, match="missing uniforms"):
            execute(shader, 5, 6, {"a": tex_a})

    def test_bad_texture_shape(self):
        shader = FragmentShader("k", ir.TexFetch("a"), samplers=("a",))
        with pytest.raises(ShaderError, match="must be"):
            execute(shader, 2, 2, {"a": np.ones((2, 2, 3),
                                                dtype=np.float32)})

    def test_bad_uniform_size(self, tex_a):
        shader = FragmentShader(
            "k", ir.mul(ir.TexFetch("a"), ir.Uniform("g")),
            samplers=("a",), uniforms=("g",))
        with pytest.raises(ShaderError, match="components"):
            execute(shader, 5, 6, {"a": tex_a},
                    {"g": np.ones(3, dtype=np.float32)})

    def test_constant_body_fills_target(self):
        shader = FragmentShader("k", ir.vec4(1.0, 2.0, 3.0, 4.0))
        out = execute(shader, 3, 2, {})
        assert out.shape == (3, 2, 4)
        np.testing.assert_array_equal(out[1, 1], [1, 2, 3, 4])


class TestStackedDot:
    def test_lane_sum_matches_reduction_bytes(self):
        """The stacked DP4 (a zero-seeded lane sum) against the plans'
        float32 reduction, over every 4-lane combination of signed
        zeros, denormals, overflow, infinities and NaN."""
        import itertools

        from repro.gpu.interpreter import _dot, _dot_stacked

        values = np.array([0.0, -0.0, 1.0, -1.5, 1e-40, -1e-40, 3e38,
                           -3e38, np.inf, -np.inf, np.nan],
                          dtype=np.float32)
        lanes = np.array(list(itertools.product(values, repeat=4)),
                         dtype=np.float32).reshape(-1, 11, 1, 4)
        ones = np.ones(4, dtype=np.float32)
        with np.errstate(all="ignore"):
            want = _dot(lanes, ones)
            got = np.broadcast_to(_dot_stacked(lanes, ones), want.shape)
        assert got.tobytes() == want.tobytes()
