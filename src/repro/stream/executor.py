"""Executors: run a stage graph on a backend.

Two backends implement the same contract — given input streams, return
the graph's declared output streams:

* :class:`CpuExecutor` evaluates each kernel with the shader interpreter
  directly on host arrays (the "reference" path, no device bookkeeping);
* :class:`GpuExecutor` uploads inputs as textures on a
  :class:`~repro.gpu.device.VirtualGPU`, runs each step as a
  render-to-texture pass, frees intermediates as soon as their last
  consumer has run (the register-allocation of texture memory a careful
  2006 implementation performs), and downloads only the outputs.

Both produce identical float32 results; the GPU executor additionally
leaves its cost-model accounting on the device's counters.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StreamError
from repro.gpu.device import VirtualGPU
from repro.gpu.interpreter import execute
from repro.gpu.spec import GEFORCE_7800GTX, GpuSpec
from repro.gpu.texture import Texture2D
from repro.stream.graph import StageGraph
from repro.stream.stream import Stream


def _check_inputs(graph: StageGraph, inputs: dict[str, Stream]) -> tuple[int, int]:
    missing = set(graph.inputs) - set(inputs)
    if missing:
        raise StreamError(f"graph {graph.name!r}: input streams "
                          f"{sorted(missing)} not provided")
    extra = set(inputs) - set(graph.inputs)
    if extra:
        raise StreamError(f"graph {graph.name!r}: unexpected inputs "
                          f"{sorted(extra)}")
    shapes = {s.shape for s in inputs.values()}
    if len(shapes) != 1:
        raise StreamError(
            f"graph {graph.name!r}: input streams disagree on shape: "
            f"{sorted(shapes)}")
    return shapes.pop()


class CpuExecutor:
    """Evaluate a stage graph on the host, stream by stream."""

    def run(self, graph: StageGraph,
            inputs: dict[str, Stream]) -> dict[str, Stream]:
        """Execute and return the graph's outputs."""
        height, width = _check_inputs(graph, inputs)
        env: dict[str, np.ndarray] = {n: s.data for n, s in inputs.items()}
        for step in graph.steps:
            textures = {sampler: env[source]
                        for sampler, source in step.inputs.items()}
            env[step.output] = execute(step.kernel.shader, height, width,
                                       textures, step.uniforms)
        return {name: Stream(name, env[name]) for name in graph.outputs}


class GpuExecutor:
    """Run a stage graph as render-to-texture passes on a virtual GPU."""

    def __init__(self, device: VirtualGPU | None = None,
                 spec: GpuSpec = GEFORCE_7800GTX):
        self.device = device if device is not None else VirtualGPU(spec)

    def run(self, graph: StageGraph,
            inputs: dict[str, Stream]) -> dict[str, Stream]:
        """Execute on the device and download the declared outputs."""
        height, width = _check_inputs(graph, inputs)
        gpu = self.device

        # Liveness: a stream can be freed after its last consuming step
        # (outputs stay alive until download).
        last_use: dict[str, int] = {}
        for index, step in enumerate(graph.steps):
            for source in step.inputs.values():
                last_use[source] = index
        keep = set(graph.outputs)

        resident: dict[str, Texture2D] = {
            name: gpu.upload(stream.data, label=name)
            for name, stream in inputs.items()}
        try:
            for index, step in enumerate(graph.steps):
                target = gpu.create_target(height, width, label=step.output)
                launched = False
                try:
                    bindings = {sampler: resident[source]
                                for sampler, source in step.inputs.items()}
                    gpu.launch(step.kernel.shader, target, bindings,
                               step.uniforms or None)
                    launched = True
                finally:
                    if not launched:
                        gpu.free(target)  # not yet tracked in `resident`
                resident[step.output] = target
                for source in set(step.inputs.values()):
                    if last_use.get(source) == index and source not in keep:
                        gpu.free(resident.pop(source))
            return {name: Stream(name, gpu.download(resident[name]))
                    for name in graph.outputs}
        finally:
            gpu.free(*resident.values())
