"""Chunked execution of stage graphs (stream uploading for the framework).

The hand-tuned AMC pipeline manages its own chunking; this module gives
the same capability to *any* :class:`~repro.stream.graph.StageGraph`:
split the input streams into line-wise chunks with a halo wide enough
for every stencil in the graph, run the graph per chunk on any executor,
and stitch the output cores back together — producing results identical
to whole-image execution.

The required halo is derived from the shaders themselves: a chain of
steps with static fetch radii r1, r2, ... needs sum(ri) halo lines
(each stage's output pixel depends on inputs up to its radius, and the
dependencies compose).  Kernels with *dependent* fetches can address
arbitrarily far, so graphs containing them are rejected — exactly the
constraint that forced the paper's MEI stage to keep its whole chunk
resident.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StreamError
from repro.hsi.chunking import plan_chunks_by_lines
from repro.stream.graph import StageGraph
from repro.stream.stream import Stream


def graph_halo(graph: StageGraph) -> int:
    """Upper bound on the input halo the graph's output pixels need.

    Sum over steps of each kernel's maximum static fetch offset — exact
    for a linear chain, conservative (never too small) for DAGs.

    Raises
    ------
    StreamError
        If any kernel performs dependent fetches (unbounded reach).
    """
    halo = 0
    for step in graph.steps:
        stats = step.kernel.shader.stats
        if stats.dynamic_fetches:
            raise StreamError(
                f"kernel {step.kernel.name!r} uses dependent texture "
                f"fetches; its reach is data-dependent and cannot be "
                f"chunked safely")
        halo += stats.max_static_offset
    return halo


def run_chunked(graph: StageGraph, inputs: dict[str, Stream], executor, *,
                max_ext_lines: int,
                halo: int | None = None) -> dict[str, Stream]:
    """Run a stage graph chunk by chunk and stitch the outputs.

    Parameters
    ----------
    graph:
        The pipeline to execute.
    inputs:
        Full-size input streams (all the same shape).
    executor:
        Any object with ``run(graph, inputs) -> outputs`` —
        :class:`~repro.stream.executor.CpuExecutor` or
        :class:`~repro.stream.executor.GpuExecutor`.
    max_ext_lines:
        Chunk height budget including halos (the caller derives it from
        its device's memory and the graph's stream count).
    halo:
        Override the derived :func:`graph_halo` (must be >= it for
        correctness; exposed for tests and for callers that know their
        graph's true dependency radius).

    Returns
    -------
    dict of output streams, identical to unchunked execution.
    """
    if not inputs:
        raise StreamError("chunked execution needs at least one input")
    shapes = {s.shape for s in inputs.values()}
    if len(shapes) != 1:
        raise StreamError(f"input streams disagree on shape: {shapes}")
    (lines, samples), = shapes
    needed = graph_halo(graph) if halo is None else int(halo)
    plan = plan_chunks_by_lines(lines, samples, 1,
                                max_ext_lines=max_ext_lines, halo=needed)
    outputs: dict[str, np.ndarray] = {}
    for chunk in plan:
        chunk_inputs = {
            name: Stream(name, stream.data[chunk.ext_start:chunk.ext_stop])
            for name, stream in inputs.items()}
        result = executor.run(graph, chunk_inputs)
        for name, stream in result.items():
            if name not in outputs:
                outputs[name] = np.empty((lines, samples, 4),
                                         dtype=np.float32)
            outputs[name][chunk.core_start:chunk.core_stop] = \
                chunk.core_of(stream.data)
    return {name: Stream(name, data) for name, data in outputs.items()}
