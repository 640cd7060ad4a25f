"""Vectorized execution of fragment shaders.

The interpreter evaluates a shader body over the whole render target at
once: every IR node becomes one NumPy operation on (H, W, 4) float32
arrays, so the *data* computed is bit-comparable to what a real float32
fragment pipeline produces while remaining fast enough to process
realistic scenes on one CPU core.

Clamp-to-edge fixed-offset fetches (the overwhelmingly common case in
the AMC kernels) are strided interior copies with broadcast edge bands
(:func:`repro.core.shifts.shifted_copy`): texels byte-identical to a
clipped-index gather, several times faster.

Each shader is *compiled once*, the way the paper's Cg kernels are
compiled for the fp30 profile before any launch.  :func:`compile_plan`
turns the body into a straight-line :class:`Plan`: constants
pre-quantized to float32 registers, then one step per remaining
distinct subexpression in evaluation order, each naming the NumPy
operation and the register slots of its operands.  Subexpressions are
deduplicated *structurally* (IR nodes are immutable and hashable), so
equal-but-distinct subtrees — the kind mechanical graph builders emit —
share one register and evaluate once, mirroring the register allocation
a shader compiler performs.  The plan is cached on the shader
(:meth:`FragmentShader.compiled
<repro.gpu.shader.FragmentShader.compiled>`), so a launch through
:func:`execute_lazy` or :func:`execute_fused_lazy` is a loop over slots:
no IR walk, no per-node type dispatch, no structural hashing.

:func:`execute_stacked` runs B launches whose plans are equal up to
fetch offsets (the per-SE-offset-pair kernels of the AMC pipeline) as
one evaluation over a leading batch axis: each step is the NumPy
operation the plan issues, on (B, H, W, 4) operands, so every slice
holds one launch's texels byte for byte while the per-operation
overhead is paid once per stack instead of once per launch.  The shape
it compares, :func:`stack_signature`, is a compile product cached on
the shader like the plan.

:func:`execute` keeps the historical recursive evaluator with a
per-launch structural memo (:func:`_eval`) as the device's oracle: the
tests compare the compiled plans against it, and the host-side stream
executor runs unfused steps through it.  Both issue the same NumPy
operations in the same order, so their texels are byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.shifts import shifted_copy
from repro.errors import ShaderError
from repro.gpu import shaderir as ir
from repro.gpu.shader import FragmentShader

_F32 = np.float32


def _fetch_static(texture: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Clamp-to-edge fetch at constant offset; zero offset is a no-copy
    view.

    Both the compiled plans and the recursive oracle fetch through this
    module global, so a patched ``_fetch_static`` sees every fixed-offset
    fetch either path issues.  A stacked evaluation reads a texture all
    its launches bind from an edge-padded table instead
    (:func:`_offset_table`): the same texels."""
    return shifted_copy(texture, dy, dx)


class ShaderContext:
    """Bindings for one launch: textures, uniforms and the target size."""

    def __init__(self, height: int, width: int,
                 textures: dict[str, np.ndarray],
                 uniforms: dict[str, np.ndarray]):
        self.height = height
        self.width = width
        self.textures = textures
        self.uniforms = uniforms
        self._fragcoord: np.ndarray | None = None

    def fragcoord(self) -> np.ndarray:
        """(H, W, 4) float32 with lane x = column index, y = row index."""
        if self._fragcoord is None:
            coords = np.zeros((self.height, self.width, 4), dtype=_F32)
            coords[:, :, 0] = np.arange(self.width, dtype=_F32)[None, :]
            coords[:, :, 1] = np.arange(self.height, dtype=_F32)[:, None]
            self._fragcoord = coords
        return self._fragcoord


# ---------------------------------------------------------------------------
# Instruction semantics, shared by the recursive oracle and compiled plans
# ---------------------------------------------------------------------------

def _log(a):
    # fp30 LG2 returns -inf for 0 and NaN for negatives; the library's
    # kernels always clamp first, but the simulator must not crash on raw
    # hardware semantics either.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(a)


def _rcp(a):
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.float32(1.0) / a).astype(_F32, copy=False)


def _sqrt(a):
    with np.errstate(invalid="ignore"):
        return np.sqrt(a)


def _div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return a / b


def _cmp_gt(a, b):
    return (a > b).astype(_F32)


def _cmp_ge(a, b):
    return (a >= b).astype(_F32)


def _dot(a, b):
    prod = a * b
    summed = prod.sum(axis=-1, dtype=_F32, keepdims=True)
    return np.broadcast_to(summed, prod.shape if prod.ndim >= 3
                           else (4,)).astype(_F32, copy=False)


_ZERO = _F32(0.0)


def _dot_stacked(a, b):
    """:func:`_dot` as a zero-seeded lane sum, ``(((0 + x) + y) + z) + w``,
    returned as one lane (``(..., 1)``) for later operations to
    broadcast.

    NumPy's float32 reduction over four lanes starts from the additive
    identity and adds the lanes in order, so these are the same texels
    byte for byte — signed zeros included: an unseeded ``x + y`` start
    keeps a ``-0.0`` sum that the reduction turns into ``+0.0``.  On a
    stacked operand it costs a fraction of the reduction."""
    prod = a * b
    if prod.shape[-1] == 1:  # both operands one-lane DP4 results
        prod = np.broadcast_to(prod, (*prod.shape[:-1], 4))
    summed = _ZERO + prod[..., 0:1]
    for lane in range(1, 4):
        summed = summed + prod[..., lane:lane + 1]
    return summed


def _fetch_dyn(coord, tex, height, width):
    h, w = tex.shape[:2]
    coord = np.broadcast_to(coord, (height, width, 4))
    cols = np.clip(np.rint(coord[:, :, 0]).astype(np.intp), 0, w - 1)
    rows = np.clip(np.rint(coord[:, :, 1]).astype(np.intp), 0, h - 1)
    return tex[rows, cols]


def _combine(parts, height, width):
    shape = (height, width, 4)
    lanes = [np.broadcast_to(p, shape)[..., 0] for p in parts]
    return np.stack(lanes, axis=-1).astype(_F32, copy=False)


def _select(cond, t, f):
    return np.where(cond != 0, t, f).astype(_F32, copy=False)


#: Lane-wise opcodes -> their NumPy operation (``-a`` is ``np.negative``,
#: ``a + b`` is ``np.add``, ...).
_UNARY_IMPL = {"log": _log, "exp": np.exp, "neg": np.negative,
               "abs": np.abs, "floor": np.floor, "rcp": _rcp, "sqrt": _sqrt}
_BINARY_IMPL = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
                "div": _div, "min": np.minimum, "max": np.maximum,
                "cmp_gt": _cmp_gt, "cmp_ge": _cmp_ge}


# ---------------------------------------------------------------------------
# The recursive oracle
# ---------------------------------------------------------------------------

def _eval(node: ir.Expr, ctx: ShaderContext,
          memo: dict[ir.Expr, np.ndarray]) -> np.ndarray:
    # Structural key: IR nodes are frozen dataclasses, so equal subtrees
    # — even distinct objects built twice by a mechanical graph builder —
    # share one evaluation per launch.
    cached = memo.get(node)
    if cached is not None:
        return cached
    out = _eval_uncached(node, ctx, memo)
    memo[node] = out
    return out


def _eval_uncached(node: ir.Expr, ctx: ShaderContext,
                   memo: dict[ir.Expr, np.ndarray]) -> np.ndarray:
    if isinstance(node, ir.Const):
        return np.array(node.values, dtype=_F32)  # broadcasts over (H, W, 4)
    if isinstance(node, ir.Uniform):
        return ctx.uniforms[node.name]
    if isinstance(node, ir.FragCoord):
        return ctx.fragcoord()
    if isinstance(node, ir.TexFetch):
        return _fetch_static(ctx.textures[node.sampler], node.dx, node.dy)
    if isinstance(node, ir.TexFetchDyn):
        return _fetch_dyn(_eval(node.coord, ctx, memo),
                          ctx.textures[node.sampler], ctx.height, ctx.width)
    if isinstance(node, ir.Op):
        a = _eval(node.args[0], ctx, memo)
        if node.op in ir.UNARY_OPS:
            return _UNARY_IMPL[node.op](a)
        return _BINARY_IMPL[node.op](a, _eval(node.args[1], ctx, memo))
    if isinstance(node, ir.Dot):
        a = _eval(node.a, ctx, memo)
        return _dot(a, _eval(node.b, ctx, memo))
    if isinstance(node, ir.Swizzle):
        src = _eval(node.source, ctx, memo)
        return src[..., list(node.lane_indices())]
    if isinstance(node, ir.Combine):
        parts = [_eval(p, ctx, memo) for p in
                 (node.x, node.y, node.z, node.w)]
        return _combine(parts, ctx.height, ctx.width)
    if isinstance(node, ir.Select):
        cond = _eval(node.cond, ctx, memo)
        t = _eval(node.if_true, ctx, memo)
        return _select(cond, t, _eval(node.if_false, ctx, memo))
    raise ShaderError(f"unknown IR node type {type(node).__name__}")


# ---------------------------------------------------------------------------
# Compiled plans
# ---------------------------------------------------------------------------

# Step kinds.  A step is a flat ``(kind, op, a, b)`` tuple; its result
# is appended to the register file, so step i writes slot
# ``len(plan.consts) + i``.
_BINARY = 0   # op(regs[a], regs[b])
_FETCH = 1    # _fetch_static(textures[op], a, b) — op is the sampler
_UNARY = 2    # op(regs[a])
_CALL = 3     # op(ctx, regs, a, b)


def _step_uniform(ctx, regs, name, _):
    return ctx.uniforms[name]


def _step_fragcoord(ctx, regs, _a, _b):
    return ctx.fragcoord()


def _step_fetch_dyn(ctx, regs, coord, sampler):
    return _fetch_dyn(regs[coord], ctx.textures[sampler], ctx.height,
                      ctx.width)


def _step_swizzle(ctx, regs, source, lanes):
    return regs[source][..., lanes]


def _step_combine(ctx, regs, slots, _):
    return _combine([regs[s] for s in slots], ctx.height, ctx.width)


def _step_select(ctx, regs, slots, _):
    cond, t, f = slots
    return _select(regs[cond], regs[t], regs[f])


def _step_bind(ctx, regs, slot, name):
    # A fused launch's intermediate part: materialized to full extent and
    # registered as an in-launch texture under its stream name.
    part = np.empty((ctx.height, ctx.width, 4), dtype=_F32)
    part[...] = regs[slot]
    ctx.textures[name] = part
    return part


class Plan:
    """A compiled fragment program: straight-line steps over registers.

    Attributes
    ----------
    consts:
        The float32 constant registers (read-only), occupying the first
        slots.
    steps:
        ``(kind, op, a, b)`` tuples in evaluation order; step *i* fills
        slot ``len(consts) + i``.
    out:
        The slot holding the program's result.
    samplers, uniforms:
        The bindings a launch must supply (for a fused plan: the parts'
        external samplers and all their uniforms).
    """

    __slots__ = ("consts", "steps", "out", "samplers", "uniforms")

    def __init__(self, consts, steps, out, samplers, uniforms):
        self.consts = consts
        self.steps = steps
        self.out = out
        self.samplers = samplers
        self.uniforms = uniforms


def compile_plan(part_shaders, part_names=()) -> Plan:
    """Compile one shader — or a fused kernel's parts — into a :class:`Plan`.

    One structural common-subexpression pass over the bodies, visiting
    nodes in exactly the order the recursive evaluator first reaches
    them, so the plan issues the oracle's NumPy operations in the
    oracle's order.  With several parts, every non-final part is
    followed by a step materializing it as an in-launch texture named by
    ``part_names``; the subexpression table is shared across parts
    (a fetch appearing in several members evaluates once per launch).
    """
    order: list = []  # IR nodes, plus (body, name) part bindings
    seen: set[ir.Expr] = set()  # structural: equal subtrees compile once

    def visit(node: ir.Expr) -> None:
        if node in seen:
            return
        for child in ir.children(node):
            visit(child)
        seen.add(node)
        order.append(node)

    for index, shader in enumerate(part_shaders):
        visit(shader.body)
        if index < len(part_shaders) - 1:
            order.append((shader.body, part_names[index]))

    consts = [node for node in order if isinstance(node, ir.Const)]
    slot: dict[ir.Expr, int] = {node: i for i, node in enumerate(consts)}
    steps: list[tuple] = []
    for node in order:
        if isinstance(node, ir.Const):
            continue
        if isinstance(node, tuple):
            body, name = node
            step = (_CALL, _step_bind, slot[body], name)
        elif isinstance(node, ir.Op):
            args = [slot[a] for a in node.args]
            if node.op in ir.UNARY_OPS:
                step = (_UNARY, _UNARY_IMPL[node.op], args[0], None)
            else:
                step = (_BINARY, _BINARY_IMPL[node.op], args[0], args[1])
        elif isinstance(node, ir.TexFetch):
            step = (_FETCH, node.sampler, node.dx, node.dy)
        elif isinstance(node, ir.Dot):
            step = (_BINARY, _dot, slot[node.a], slot[node.b])
        elif isinstance(node, ir.Swizzle):
            step = (_CALL, _step_swizzle, slot[node.source],
                    list(node.lane_indices()))
        elif isinstance(node, ir.Uniform):
            step = (_CALL, _step_uniform, node.name, None)
        elif isinstance(node, ir.FragCoord):
            step = (_CALL, _step_fragcoord, None, None)
        elif isinstance(node, ir.TexFetchDyn):
            step = (_CALL, _step_fetch_dyn, slot[node.coord], node.sampler)
        elif isinstance(node, ir.Combine):
            step = (_CALL, _step_combine,
                    tuple(slot[p] for p in (node.x, node.y, node.z, node.w)),
                    None)
        elif isinstance(node, ir.Select):
            step = (_CALL, _step_select,
                    (slot[node.cond], slot[node.if_true],
                     slot[node.if_false]), None)
        else:
            raise ShaderError(
                f"unknown IR node type {type(node).__name__}")
        steps.append(step)
        if not isinstance(node, tuple):
            slot[node] = len(consts) + len(steps) - 1

    const_regs = []
    for node in consts:
        value = np.array(node.values, dtype=_F32)
        value.setflags(write=False)
        const_regs.append(value)

    part_set = set(part_names)
    samplers = tuple(dict.fromkeys(
        s for shader in part_shaders for s in shader.samplers
        if s not in part_set))
    uniforms = tuple(dict.fromkeys(
        u for shader in part_shaders for u in shader.uniforms))
    return Plan(tuple(const_regs), tuple(steps),
                slot[part_shaders[-1].body], samplers, uniforms)


def _compile_shader(shader: FragmentShader) -> Plan:
    return compile_plan((shader,))


def _run(plan: Plan, ctx: ShaderContext) -> np.ndarray:
    """Execute a compiled plan under one launch's bindings."""
    regs = list(plan.consts)
    append = regs.append
    textures = ctx.textures
    for kind, op, a, b in plan.steps:
        if kind == _BINARY:
            append(op(regs[a], regs[b]))
        elif kind == _FETCH:
            # Through the module global on every fetch, so a patched
            # _fetch_static sees each one.
            append(_fetch_static(textures[op], a, b))
        elif kind == _UNARY:
            append(op(regs[a]))
        else:
            append(op(ctx, regs, a, b))
    return regs[plan.out]


# ---------------------------------------------------------------------------
# Stacked evaluation: launches that share a plan shape
# ---------------------------------------------------------------------------

#: The ``_CALL`` steps whose results broadcast against a leading batch
#: axis.  Dependent fetches, Combine and Select build full-extent
#: (H, W, 4) values, so plans with them run launch by launch.
_STACKABLE_CALLS = (_step_uniform, _step_fragcoord, _step_swizzle)


class StackSignature:
    """A compiled plan's shape with its fixed fetch offsets factored out.

    Attributes
    ----------
    key:
        Hashable; two shaders with equal keys compile to plans issuing
        the same steps on the same register slots, differing at most in
        the offsets of their fixed-offset fetches.  ``None`` for a plan
        that cannot run stacked.
    offsets:
        The plan's ``(dx, dy)`` per fetch step, in step order.
    drops:
        Per step, the register slots whose last use it is.
    """

    __slots__ = ("key", "offsets", "drops")

    def __init__(self, key, offsets, drops):
        self.key = key
        self.offsets = offsets
        self.drops = drops


def _build_signature(shader: FragmentShader) -> StackSignature:
    plan = shader.compiled("plan", _compile_shader)
    shape: list[tuple] = []
    offsets: list[tuple[int, int]] = []
    last_use: dict[int, int] = {}
    for index, (kind, op, a, b) in enumerate(plan.steps):
        if kind == _FETCH:
            shape.append((kind, op))
            offsets.append((a, b))
            continue
        if kind == _CALL and op not in _STACKABLE_CALLS:
            return StackSignature(None, (), ())
        if kind == _BINARY:
            last_use[a] = last_use[b] = index
        elif kind == _UNARY or op is _step_swizzle:
            last_use[a] = index
        shape.append((kind, op, a, tuple(b) if isinstance(b, list) else b))
    drops: list[list[int]] = [[] for _ in plan.steps]
    for slot, index in last_use.items():
        if slot != plan.out:
            drops[index].append(slot)
    key = (tuple(c.tobytes() for c in plan.consts), tuple(shape), plan.out)
    return StackSignature(key, tuple(offsets),
                          tuple(tuple(d) for d in drops))


def stack_signature(shader: FragmentShader) -> StackSignature:
    """``shader``'s :class:`StackSignature`, a compile product cached on
    the shader like its plan."""
    return shader.compiled("stack", _build_signature)


def _shared_rows(plan: Plan, textures, fetch_offsets):
    """Which fetch steps of a stack read a texture every launch binds
    (a band group of the normalized stack, say), and at what offsets.

    Returns sampler -> (offset -> table row) for those samplers, and
    sampler -> index of its last fetch step.
    """
    rows_of: dict[str, dict[tuple[int, int], int]] = {}
    last: dict[str, int] = {}
    fetch = 0
    for kind, sampler, _, _ in plan.steps:
        if kind != _FETCH:
            continue
        ids = list(map(id, textures[sampler]))
        if ids.count(ids[0]) == len(ids):
            rows = rows_of.setdefault(sampler, {})
            for offset in fetch_offsets[fetch]:
                rows.setdefault(offset, len(rows))
            last[sampler] = fetch
        fetch += 1
    return rows_of, last


def _offset_table(texture: np.ndarray, rows) -> np.ndarray:
    """``texture`` at every offset of ``rows``, one per table row.

    The texture is edge-padded once and each window copied out:
    clamp-to-edge addressing, so the texels :func:`_fetch_static`
    copies, for all offsets at once.
    """
    height, width = texture.shape[:2]
    pad = max(max(abs(dx), abs(dy)) for dx, dy in rows)
    padded = np.pad(texture, ((pad, pad), (pad, pad), (0, 0)), mode="edge")
    return np.stack([
        padded[pad + dy:pad + dy + height, pad + dx:pad + dx + width]
        for dx, dy in rows])


def _fetch_stacked(sources, offsets, table, rows) -> np.ndarray:
    """One fixed-offset fetch step of every launch in a stack.

    ``table`` and ``rows`` hold the texture every launch binds at each
    offset, or are ``None`` when the launches bind different textures.
    (H, W, 4) when every launch reads the same texels, which broadcasts
    over the batch axis; else (B, H, W, 4).
    """
    if table is not None:
        index = [rows[offset] for offset in offsets]
        if index.count(index[0]) == len(index):
            return table[index[0]]
        return table[index]
    if offsets.count((0, 0)) == len(offsets):
        return np.stack(sources)
    return np.stack([_fetch_static(source, dx, dy)
                     for source, (dx, dy) in zip(sources, offsets)])


def execute_stacked(shader: FragmentShader, offsets,
                    height: int, width: int,
                    textures: dict[str, list[np.ndarray]],
                    uniforms: dict[str, list[np.ndarray]]) -> np.ndarray:
    """Run B launches of one plan shape as one evaluation.

    ``shader`` is any one of the launches' shaders (their
    :func:`stack_signature` keys are equal); ``offsets[j]`` is the
    fetch offsets of launch *j*'s shader; ``textures`` and ``uniforms``
    map each binding to its B per-launch values, textures of the
    target's extents and uniforms already coerced.  Every step is the
    NumPy operation :func:`_run` issues, over a leading batch axis (the
    DP4 as :func:`_dot_stacked`, its one-lane result broadcasting
    later), so slice *j* of the result (which broadcasts to
    (B, H, W, 4)) holds launch *j*'s texels byte for byte.  Registers
    are released at their last use.
    """
    plan = shader.compiled("plan", _compile_shader)
    signature = stack_signature(shader)
    regs = list(plan.consts)
    append = regs.append
    ctx = ShaderContext(height, width, {}, {})
    fetch_offsets = list(zip(*offsets))  # per fetch step, B offsets
    rows_of, last_fetch = _shared_rows(plan, textures, fetch_offsets)
    tables: dict[str, np.ndarray] = {}  # built at first use, dropped at last
    fetch = 0
    for (kind, op, a, b), drop in zip(plan.steps, signature.drops):
        if kind == _BINARY:
            append((_dot_stacked if op is _dot else op)(regs[a], regs[b]))
        elif kind == _FETCH:
            rows = rows_of.get(op)
            table = None
            if rows is not None:
                table = tables.get(op)
                if table is None:
                    table = tables[op] = _offset_table(textures[op][0], rows)
                if last_fetch[op] == fetch:
                    del tables[op]
            append(_fetch_stacked(textures[op], fetch_offsets[fetch], table,
                                  rows))
            fetch += 1
        elif kind == _UNARY:
            append(op(regs[a]))
        elif op is _step_uniform:
            append(np.stack(uniforms[a])[:, None, None, :])
        elif op is _step_swizzle and regs[a].shape[-1] == 1:
            append(regs[a])  # every lane of a DP4 result is the same
        else:
            append(op(ctx, regs, a, b))
        for slot in drop:
            regs[slot] = None
    return regs[plan.out]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def execute(shader: FragmentShader, height: int, width: int,
            textures: dict[str, np.ndarray],
            uniforms: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Run ``shader`` over an ``height x width`` render target.

    This is the recursive reference evaluator (the device's oracle):
    it walks the IR with a per-launch structural memo instead of
    running the compiled plan.

    Parameters
    ----------
    shader:
        A validated program.
    height, width:
        Render-target extents.
    textures:
        Sampler name -> (H', W', 4) float32 array.  Samplers with the
        target's extents are fetched with offsets; dependent fetches may
        target any extent.
    uniforms:
        Uniform name -> length-4 float vector.

    Returns
    -------
    numpy.ndarray
        The (height, width, 4) float32 render-target contents.

    Raises
    ------
    ShaderError
        If a binding is missing or a texture has the wrong shape for
        offset addressing.
    """
    tex_arrays = _coerce_textures(shader.name, shader.samplers, textures)
    uni_arrays = _coerce_uniforms(shader.name, shader.uniforms, uniforms)
    ctx = ShaderContext(height, width, tex_arrays, uni_arrays)
    result = _eval(shader.body, ctx, {})
    out = np.empty((height, width, 4), dtype=_F32)
    out[...] = result  # broadcasts constants / uniforms to full extent
    return out


def execute_lazy(shader: FragmentShader, height: int, width: int,
                 textures: dict[str, np.ndarray],
                 uniforms: dict[str, np.ndarray] | None = None
                 ) -> np.ndarray:
    """Like :func:`execute`, through the shader's compiled plan, returning
    the raw evaluation result.

    The values are the same float32 texels; the array may be smaller
    than the full target (a constant or uniform result broadcasts) and
    may *alias an input texture* (a zero-offset copy kernel) or a
    read-only constant register.  Callers own the final
    materialization — :meth:`VirtualGPU.flush
    <repro.gpu.device.VirtualGPU.flush>` broadcasts the result into a
    fresh version of the target texture directly, eliding the
    interpreter's scratch temporary.
    """
    plan = shader.compiled("plan", _compile_shader)
    tex_arrays = _coerce_textures(shader.name, plan.samplers, textures)
    uni_arrays = _coerce_uniforms(shader.name, plan.uniforms, uniforms)
    return _run(plan, ShaderContext(height, width, tex_arrays, uni_arrays))


def coerce_bindings(shader: FragmentShader,
                    textures: dict[str, np.ndarray],
                    uniforms: dict[str, np.ndarray] | None = None):
    """Check one launch's bindings against ``shader``'s compiled plan.

    Returns the float32 texture arrays and the coerced (copied) uniform
    4-vectors.

    Raises
    ------
    ShaderError
        If a binding is missing, a texture is not (H, W, 4) or a uniform
        has neither 1 nor 4 components.
    """
    plan = shader.compiled("plan", _compile_shader)
    return (_coerce_textures(shader.name, plan.samplers, textures),
            _coerce_uniforms(shader.name, plan.uniforms, uniforms))


def _coerce_textures(kernel: str, samplers, textures) -> dict[str, np.ndarray]:
    """Check and float32-coerce the texture bindings of one launch."""
    missing = [s for s in samplers if s not in textures]
    if missing:
        raise ShaderError(
            f"launch of {kernel!r} missing texture bindings {missing}")
    tex_arrays: dict[str, np.ndarray] = {}
    for name in samplers:
        arr = np.asarray(textures[name], dtype=_F32)
        if arr.ndim != 3 or arr.shape[2] != 4:
            raise ShaderError(
                f"texture {name!r} must be (H, W, 4), got {arr.shape}")
        tex_arrays[name] = arr
    return tex_arrays


def _coerce_uniforms(kernel: str, declared, uniforms) -> dict[str, np.ndarray]:
    """Check and 4-vector-coerce the uniform bindings of one launch."""
    missing = [u for u in declared
               if uniforms is None or u not in uniforms]
    if missing:
        raise ShaderError(
            f"launch of {kernel!r} missing uniforms {missing}")
    uni_arrays: dict[str, np.ndarray] = {}
    if uniforms:
        for name, value in uniforms.items():
            # A copy: a queued launch must not see later host writes.
            v = np.array(value, dtype=_F32).reshape(-1)
            if v.size == 1:
                v = np.repeat(v, 4)
            if v.size != 4:
                raise ShaderError(
                    f"uniform {name!r} must have 1 or 4 components, "
                    f"got {v.size}")
            uni_arrays[name] = v
    return uni_arrays


def _fused_plan(part_shaders, part_names) -> Plan:
    """The compiled plan of a fused kernel, cached on its final part.

    Part shaders are built fresh for each fused kernel, so the final
    part identifies the composite; the cached entry still checks the
    earlier parts by identity and recompiles (uncached) on a mismatch.
    """
    part_shaders = tuple(part_shaders)
    part_names = tuple(part_names)

    def build(_final):
        return part_shaders, compile_plan(part_shaders, part_names)

    cached_parts, plan = part_shaders[-1].compiled(
        ("fused", part_names), build)
    if len(cached_parts) != len(part_shaders) or any(
            a is not b for a, b in zip(cached_parts, part_shaders)):
        plan = compile_plan(part_shaders, part_names)
    return plan


def execute_fused_lazy(part_shaders, part_names, height: int, width: int,
                       textures: dict[str, np.ndarray],
                       uniforms: dict[str, np.ndarray] | None = None
                       ) -> np.ndarray:
    """Evaluate a fused kernel's parts under one shared context.

    ``part_shaders`` / ``part_names`` come from a
    :class:`~repro.stream.kernel.FusedKernel`: each part is evaluated
    in order, non-final parts materialized to full extent and
    registered as in-launch textures under their stream name (so later
    parts fetch them at fixed offsets with clamp-to-edge semantics
    identical to a real intermediate texture), and the final part's raw
    result returned as in :func:`execute_lazy`.

    The parts compile into *one* plan whose subexpression table spans
    all of them — a fetch or uniform-only subexpression appearing in
    several members evaluates once per fused launch instead of once per
    original pass (the hoisting the fusion compiler promises).
    """
    label = part_names[-1] if part_names else "fused"
    plan = _fused_plan(part_shaders, part_names)
    tex_arrays = _coerce_textures(label, plan.samplers, textures)
    uni_arrays = _coerce_uniforms(label, plan.uniforms, uniforms)
    return _run(plan, ShaderContext(height, width, tex_arrays, uni_arrays))


def execute_fused(part_shaders, part_names, height: int, width: int,
                  textures: dict[str, np.ndarray],
                  uniforms: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Like :func:`execute_fused_lazy`, materialized to (H, W, 4).

    The host-side (CPU executor) entry point; the device broadcasts the
    lazy result straight into its render target instead.
    """
    result = execute_fused_lazy(part_shaders, part_names, height, width,
                                textures, uniforms)
    out = np.empty((height, width, 4), dtype=_F32)
    out[...] = result
    return out
