"""Property-based fuzzing of the shader interpreter.

Hypothesis generates random IR trees; every tree is evaluated by the
interpreter's recursive evaluator (``execute``), by an independent,
recursive reference evaluator written here (no memoization, no
vectorized fetch shortcuts, plain float32 NumPy per node) and by the
device fast path production runs (``VirtualGPU.launch``: the shader's
compiled plan with strided fetches).  Any semantic divergence
(including in clamp-to-edge addressing and lane plumbing) fails the
property; the fast path must match ``execute`` byte for byte, over the
full opcode set and dependent fetches too.

A third property drives the device's command queue: random launch
sequences over a small texture pool (ping-pong reuse, targets re-bound
as samplers, shaders differing only in fetch offsets so they stack,
clears, frees and host reads and writes) must leave every texture byte
identical to a replay that runs each launch at once through
``execute``, with equal launch records.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShaderError
from repro.gpu import FragmentShader, VirtualGPU
from repro.gpu import shaderir as ir
from repro.gpu.interpreter import execute

H, W = 5, 4
_F32 = np.float32


def _reference_eval(node, textures, uniforms):
    """Straight-line recursive evaluation (independent of the
    interpreter's implementation choices)."""
    if isinstance(node, ir.Const):
        return np.broadcast_to(np.asarray(node.values, _F32),
                               (H, W, 4)).astype(_F32)
    if isinstance(node, ir.Uniform):
        return np.broadcast_to(uniforms[node.name], (H, W, 4)).astype(_F32)
    if isinstance(node, ir.FragCoord):
        out = np.zeros((H, W, 4), _F32)
        out[:, :, 0] = np.arange(W, dtype=_F32)
        out[:, :, 1] = np.arange(H, dtype=_F32)[:, None]
        return out
    if isinstance(node, ir.TexFetch):
        tex = textures[node.sampler]
        out = np.empty((H, W, 4), _F32)
        for y in range(H):
            for x in range(W):
                yy = min(max(y + node.dy, 0), H - 1)
                xx = min(max(x + node.dx, 0), W - 1)
                out[y, x] = tex[yy, xx]
        return out
    if isinstance(node, ir.Op):
        args = [_reference_eval(a, textures, uniforms) for a in node.args]
        fns = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
               "min": np.minimum, "max": np.maximum,
               "neg": lambda a: -a, "abs": np.abs, "floor": np.floor,
               "exp": np.exp}
        if node.op in fns:
            return fns[node.op](*args).astype(_F32)
        if node.op == "log":
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.log(args[0]).astype(_F32)
        if node.op == "cmp_gt":
            return (args[0] > args[1]).astype(_F32)
        if node.op == "cmp_ge":
            return (args[0] >= args[1]).astype(_F32)
        raise AssertionError(node.op)
    if isinstance(node, ir.Dot):
        a = _reference_eval(node.a, textures, uniforms)
        b = _reference_eval(node.b, textures, uniforms)
        s = (a * b).sum(axis=-1, dtype=_F32)
        return np.repeat(s[:, :, None], 4, axis=2).astype(_F32)
    if isinstance(node, ir.Swizzle):
        src = _reference_eval(node.source, textures, uniforms)
        return src[:, :, list(node.lane_indices())]
    if isinstance(node, ir.Combine):
        parts = [_reference_eval(p, textures, uniforms)[:, :, 0]
                 for p in (node.x, node.y, node.z, node.w)]
        return np.stack(parts, axis=-1).astype(_F32)
    if isinstance(node, ir.Select):
        c = _reference_eval(node.cond, textures, uniforms)
        t = _reference_eval(node.if_true, textures, uniforms)
        f = _reference_eval(node.if_false, textures, uniforms)
        return np.where(c != 0, t, f).astype(_F32)
    raise AssertionError(type(node))


# ---------------------------------------------------------------------------
# Random-tree strategy.  Values are kept in a range where float32
# arithmetic is exact enough that both evaluators agree bitwise for the
# closed ops ('log'/'exp' excluded from the bitwise set).
# ---------------------------------------------------------------------------

_SAMPLERS = ("t0", "t1")
_UNIFORMS = ("u0",)

finite = st.floats(-4.0, 4.0, allow_nan=False).map(
    lambda v: float(np.float32(v)))


def _leaf():
    return st.one_of(
        st.tuples(finite).map(lambda t: ir.vec4(t[0])),
        st.sampled_from([ir.Uniform(u) for u in _UNIFORMS]),
        st.builds(ir.TexFetch, st.sampled_from(_SAMPLERS),
                  st.integers(-3, 3), st.integers(-3, 3)),
        st.just(ir.FragCoord()),
    )


def _extend(children):
    binary = st.sampled_from(["add", "sub", "mul", "min", "max",
                              "cmp_gt", "cmp_ge"])
    return st.one_of(
        st.tuples(binary, children, children).map(
            lambda t: ir.Op(t[0], (t[1], t[2]))),
        st.tuples(st.sampled_from(["neg", "abs", "floor"]), children).map(
            lambda t: ir.Op(t[0], (t[1],))),
        st.tuples(children, children).map(lambda t: ir.Dot(*t)),
        st.tuples(children, st.sampled_from(["xyzw", "xxxx", "wzyx",
                                             "yyww"])).map(
            lambda t: ir.Swizzle(*t)),
        st.tuples(children, children, children, children).map(
            lambda t: ir.Combine(*t)),
        st.tuples(children, children, children).map(
            lambda t: ir.Select(*t)),
    )


trees = st.recursive(_leaf(), _extend, max_leaves=12)


def _extend_all(children):
    """Every opcode (transcendentals and division included) plus
    dependent fetches — for the byte-identity property only, where no
    tolerance is needed."""
    return st.one_of(
        _extend(children),
        st.tuples(st.sampled_from(sorted(ir.BINARY_OPS)), children,
                  children).map(lambda t: ir.Op(t[0], (t[1], t[2]))),
        st.tuples(st.sampled_from(sorted(ir.UNARY_OPS)), children).map(
            lambda t: ir.Op(t[0], (t[1],))),
        st.builds(ir.TexFetchDyn, st.sampled_from(_SAMPLERS), children),
    )


all_op_trees = st.recursive(_leaf(), _extend_all, max_leaves=12)


def _launch(shader, textures, uniforms):
    """Run ``shader`` through ``VirtualGPU.launch``; the target texels."""
    device = VirtualGPU()
    target = device.create_target(H, W)
    bound = {s: device.upload(t, label=s) for s, t in textures.items()}
    device.launch(shader, target, bound, uniforms)
    return target.data


def _bindings(seed):
    rng = np.random.default_rng(seed)
    textures = {s: rng.uniform(-2.0, 2.0, size=(H, W, 4)).astype(_F32)
                for s in _SAMPLERS}
    uniforms = {u: rng.uniform(-2.0, 2.0, size=4).astype(_F32)
                for u in _UNIFORMS}
    return textures, uniforms


def _wrap_used(body: ir.Expr) -> ir.Expr:
    """Ensure every declared sampler/uniform is used (validator rule):
    add 0 * (sum of everything) to the body."""
    total: ir.Expr = ir.vec4(0.0)
    for s in _SAMPLERS:
        total = ir.add(total, ir.TexFetch(s))
    for u in _UNIFORMS:
        total = ir.add(total, ir.Uniform(u))
    return ir.add(body, ir.mul(total, ir.vec4(0.0)))


@given(trees, st.integers(0, 2 ** 31 - 1))
@settings(max_examples=120, deadline=None)
def test_interpreter_matches_reference_evaluator(tree, seed):
    textures, uniforms = _bindings(seed)
    body = _wrap_used(tree)
    shader = FragmentShader("fuzz", body, samplers=_SAMPLERS,
                            uniforms=_UNIFORMS)
    got = execute(shader, H, W, textures, uniforms)
    want = _reference_eval(body, textures, uniforms)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)
    assert got.dtype == np.float32
    # The production path: compiled plan, strided fetches, launched.
    assert _launch(shader, textures, uniforms).tobytes() == got.tobytes()


@given(all_op_trees, st.integers(0, 2 ** 31 - 1))
@settings(max_examples=120, deadline=None)
def test_device_fast_path_bytes_match_oracle(tree, seed):
    textures, uniforms = _bindings(seed)
    shader = FragmentShader("fuzz", _wrap_used(tree), samplers=_SAMPLERS,
                            uniforms=_UNIFORMS)
    with np.errstate(all="ignore"):
        want = execute(shader, H, W, textures, uniforms).tobytes()
        assert _launch(shader, textures, uniforms).tobytes() == want


# ---------------------------------------------------------------------------
# The command queue against immediate execution
# ---------------------------------------------------------------------------

_POOL = 6
_offsets = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


def _queue_shader(kind, a, b, tree):
    """Shader families over samplers t0/t1 and uniform u0.  Kinds 0 and
    1 differ between launches only in fetch offsets, so they stack;
    kind 2 (Select) never stacks; kind 3 is the example's random tree."""
    t0a, t0b = ir.TexFetch("t0", *a), ir.TexFetch("t0", *b)
    t1a, t1b = ir.TexFetch("t1", *a), ir.TexFetch("t1", *b)
    if kind == 0:
        body = ir.add(ir.mul(t0a, ir.Uniform("u0")),
                      ir.add(t1b, ir.mul(ir.FragCoord(), ir.vec4(0.25))))
    elif kind == 1:
        cross = ir.dot4(t0a, t1b)
        body = ir.add(ir.TexFetch("t0"), ir.Swizzle(
            ir.add(cross, ir.dot4(cross, ir.dot4(t0b, t1a))), "wzyx"))
        body = ir.add(body, ir.mul(ir.Uniform("u0"), ir.vec4(0.0)))
    elif kind == 2:
        body = ir.select(ir.cmp_gt(t0a, t1b), t1a, ir.Uniform("u0"))
    else:
        body = _wrap_used(tree)
    return FragmentShader(f"q{kind}_{a}_{b}", body, samplers=_SAMPLERS,
                          uniforms=_UNIFORMS)


_slot = st.integers(0, _POOL - 1)
_launch_op = st.tuples(st.just("launch"), st.integers(0, 3), _offsets,
                       _offsets, _slot, _slot, _slot, finite)
_host_op = st.one_of(
    st.tuples(st.just("clear"), _slot),
    st.tuples(st.just("free"), _slot),
    st.tuples(st.just("read"), _slot),
    st.tuples(st.just("write"), _slot, st.integers(0, 2 ** 31 - 1)),
)
# Three launches in four ops, so independent launches of one family
# meet in a flush.
_queue_ops = st.lists(
    st.tuples(st.integers(0, 3), _launch_op, _host_op).map(
        lambda t: t[2] if t[0] == 0 else t[1]),
    min_size=8, max_size=40)


class _Replay:
    """One device and its texture pool, driven op by op.  With
    ``immediate``, every launch's target is overwritten at once by the
    recursive oracle ``execute`` run on the host copies of its inputs."""

    def __init__(self, immediate, seed):
        self.immediate = immediate
        self.device = VirtualGPU()
        rng = np.random.default_rng(seed)
        self.pool = [self.device.upload(
            rng.uniform(-2.0, 2.0, size=(H, W, 4)).astype(_F32))
            for _ in range(_POOL)]
        self.created = list(self.pool)

    def apply(self, op, tree):
        device, pool = self.device, self.pool
        if op[0] == "launch":
            _, kind, a, b, target, s0, s1, u = op
            shader = _queue_shader(kind, a, b, tree)
            bindings = {"t0": pool[s0], "t1": pool[s1]}
            uniforms = {"u0": np.full(4, u, dtype=_F32)}
            if target in (s0, s1):
                with pytest.raises(ShaderError, match="ping-pong"):
                    device.launch(shader, pool[target], bindings, uniforms)
                return
            device.launch(shader, pool[target], bindings, uniforms)
            if self.immediate:
                pool[target].data[...] = execute(
                    shader, H, W, {s: t.data for s, t in bindings.items()},
                    uniforms)
        elif op[0] == "clear":
            device.clear(pool[op[1]])
        elif op[0] == "free":
            device.free(pool[op[1]])
            pool[op[1]] = device.create_target(H, W)
            self.created.append(pool[op[1]])
        elif op[0] == "read":
            return pool[op[1]].data.tobytes()
        else:
            values = np.random.default_rng(op[2]).uniform(
                -2.0, 2.0, size=(H, W, 4)).astype(_F32)
            pool[op[1]].data[...] = values
        return None


@given(_queue_ops, all_op_trees, st.integers(0, 2 ** 31 - 1))
@settings(max_examples=150, deadline=None)
def test_queued_device_matches_immediate_replay(ops, tree, seed):
    queued, replay = _Replay(False, seed), _Replay(True, seed)
    with np.errstate(all="ignore"):
        for op in ops:
            assert queued.apply(op, tree) == replay.apply(op, tree), op
        got = [t.data.tobytes() for t in queued.created]
        want = [t.data.tobytes() for t in replay.created]
    assert got == want
    assert queued.device.counters.launches == replay.device.counters.launches
