"""The pass-fusion compiler for stage graphs.

A stage graph is data, so it can be transformed before execution.
:func:`fuse_elementwise` folds chains of single-consumer steps into one
:class:`~repro.stream.graph.FusedStep`, so the intermediate textures are
never materialized and the chain costs one render pass.  Intermediates
consumed only at zero offset are *inlined* (the producer's body
substituted at the fetch site); intermediates read at fixed offsets
become in-launch *parts*.  Because one fused launch evaluates every
member body under a single structurally-keyed memo, loop-invariant
fetches and uniform-only subexpressions shared between members are
hoisted automatically — they evaluate once per fused launch instead of
once per original pass.

Fusion blockers (a step starts a new group): multi-consumer
intermediates, declared graph outputs (their name is part of the
contract), kernels with dependent fetches (unbounded reach), and the
``max_group`` register-pressure bound.

Fusion preserves semantics exactly: the executors produce bit-identical
streams for the declared outputs (asserted by the test suite), and
:func:`repro.stream.chunked.graph_halo` of a fused graph equals the
dependency radius of the unfused chain.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StreamError
from repro.gpu import shaderir as ir
from repro.gpu.shader import FragmentShader
from repro.stream.graph import FusedStep, StageGraph, Step
from repro.stream.kernel import FusedKernel


def _canonical_uniform(value) -> np.ndarray:
    """A uniform as the float32 4-vector the interpreter will see."""
    v = np.asarray(value, dtype=np.float32).reshape(-1)
    if v.size == 1:
        v = np.repeat(v, 4)
    return v


def _zero_offset_only(step: Step, stream: str) -> bool:
    """True if ``step`` fetches ``stream`` only at offset (0, 0)."""
    samplers = {s for s, src in step.inputs.items() if src == stream}
    for node in ir.walk(step.kernel.shader.body):
        if isinstance(node, ir.TexFetch) and node.sampler in samplers \
                and (node.dx or node.dy):
            return False
    return True


def _merge_uniforms(group: list[Step]) -> tuple[dict, list[dict]]:
    """Merge member uniforms, deduping by value, renaming on conflict.

    Returns the fused step's uniform dict and one rename map per group
    member (empty when the member's names survive unchanged).  Two
    members binding the same name to the same float32 value share one
    slot; a clash gets a fresh ``name_f<i>``.
    """
    merged: dict[str, np.ndarray] = {}
    taken: dict[str, bytes] = {}
    renames: list[dict[str, str]] = []
    for index, step in enumerate(group):
        rename: dict[str, str] = {}
        for name in step.kernel.shader.uniforms:
            value = _canonical_uniform(step.uniforms[name])
            digest = value.tobytes()
            final = name
            if name in taken and taken[name] != digest:
                final = f"{name}_f{index}"
                while final in taken and taken[final] != digest:
                    final += "_"
                rename[name] = final
            if final not in taken:
                taken[final] = digest
                merged[final] = value
        renames.append(rename)
    return merged, renames


def _compile_group(group: list[Step]) -> FusedStep:
    """Fold a fusable chain of steps into one :class:`FusedStep`."""
    merged_uniforms, uniform_renames = _merge_uniforms(group)
    inline: dict[str, ir.Expr] = {}        # stream -> substituted body
    parts: list[tuple[str, ir.Expr]] = []  # materialized, in order
    part_names: set[str] = set()
    for index, step in enumerate(group):
        fetch_map: dict[str, tuple[str, object]] = {}
        for sampler, source in step.inputs.items():
            if source in inline:
                fetch_map[sampler] = ("inline", inline[source])
            elif sampler != source:
                fetch_map[sampler] = ("rename", source)
        body = ir.substitute(step.kernel.shader.body, fetch_map,
                             uniform_renames[index])
        if index + 1 < len(group) and _zero_offset_only(group[index + 1],
                                                        step.output):
            inline[step.output] = body
        else:
            parts.append((step.output, body))
            part_names.add(step.output)

    shaders = []
    external: list[str] = []
    for name, body in parts:
        samplers: list[str] = []
        uniforms: list[str] = []
        for node in ir.walk(body):
            if isinstance(node, (ir.TexFetch, ir.TexFetchDyn)):
                if node.sampler not in samplers:
                    samplers.append(node.sampler)
                if node.sampler not in part_names \
                        and node.sampler not in external:
                    external.append(node.sampler)
            elif isinstance(node, ir.Uniform) and node.name not in uniforms:
                uniforms.append(node.name)
        shaders.append(FragmentShader(name, body, samplers=tuple(samplers),
                                      uniforms=tuple(uniforms)))

    used = {u for s in shaders for u in s.uniforms}
    kernel = FusedKernel(
        name="+".join(s.kernel.name for s in group),
        part_shaders=tuple(shaders),
        part_names=tuple(name for name, _ in parts),
        external_inputs=tuple(external),
        fused_count=len(group))
    return FusedStep(kernel=kernel,
                     inputs={name: name for name in external},
                     output=group[-1].output,
                     uniforms={n: v for n, v in merged_uniforms.items()
                               if n in used})


def fuse_elementwise(graph: StageGraph, *,
                     max_group: int = 8) -> StageGraph:
    """Fuse chains of single-consumer steps into composite passes.

    Walks the steps in order, greedily growing a group: the next step
    joins when it is the *only* consumer of the previous member's
    output, that output is not a declared graph output, neither kernel
    performs dependent fetches, and the group is below ``max_group``
    (the register-pressure bound a real shader compiler hits).  Groups
    of one are emitted unchanged.
    """
    if max_group < 2:
        raise StreamError(f"max_group must be >= 2, got {max_group}")
    consumers: dict[str, int] = {}
    for step in graph.steps:
        for source in step.inputs.values():
            consumers[source] = consumers.get(source, 0) + 1
    outputs = set(graph.outputs)

    def fusable(step) -> bool:
        return isinstance(step, Step) \
            and step.kernel.shader.stats.dynamic_fetches == 0

    steps: list[Step | FusedStep] = []
    group: list[Step] = []

    def flush() -> None:
        if not group:
            return
        steps.append(group[0] if len(group) == 1
                     else _compile_group(group))
        group.clear()

    for step in graph.steps:
        if not fusable(step):
            flush()
            steps.append(step)
            continue
        if group:
            prev = group[-1]
            chained = prev.output in step.inputs.values() \
                and consumers.get(prev.output, 0) == 1 \
                and prev.output not in outputs \
                and len(group) < max_group
            if not chained:
                flush()
        group.append(step)
    flush()
    return StageGraph(graph.name, inputs=graph.inputs,
                      steps=tuple(steps), outputs=graph.outputs)

