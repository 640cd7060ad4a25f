"""Stage graphs: validated DAGs of kernel applications.

A :class:`StageGraph` is the "application constructed by chaining
multiple kernels" of the stream model: a list of steps, each applying a
kernel to named streams and producing a named stream.  Validation (done
with :mod:`networkx`) guarantees:

* every input name is either a graph input or produced by an earlier
  step (no dangling references);
* no stream name is produced twice (single assignment);
* the dependency graph is acyclic (loops are expressed by *unrolled*
  steps, exactly like the multi-pass loops of the real implementation);
* the declared outputs all exist.

Executors can therefore run the steps in the given order without any
further checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.errors import StreamError
from repro.stream.kernel import StreamKernel


@dataclass(frozen=True)
class Step:
    """One kernel application: ``output = kernel(**inputs)``."""

    kernel: StreamKernel
    inputs: dict[str, str]          # sampler name -> stream name
    output: str
    uniforms: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = set(self.kernel.inputs) - set(self.inputs)
        if missing:
            raise StreamError(
                f"step {self.output!r}: kernel {self.kernel.name!r} inputs "
                f"{sorted(missing)} not bound")
        extra = set(self.inputs) - set(self.kernel.inputs)
        if extra:
            raise StreamError(
                f"step {self.output!r}: unknown kernel inputs "
                f"{sorted(extra)}")
        missing_u = set(self.kernel.shader.uniforms) - set(self.uniforms)
        if missing_u:
            raise StreamError(
                f"step {self.output!r}: uniforms {sorted(missing_u)} "
                f"not bound")


@dataclass(frozen=True)
class StageGraph:
    """A validated chain of kernel applications.

    Parameters
    ----------
    name:
        Pipeline name for error messages and profiles.
    inputs:
        Names of the streams the caller must provide.
    steps:
        Kernel applications, in execution order.
    outputs:
        Names of the streams :meth:`repro.stream.executor` calls return.
    """

    name: str
    inputs: tuple[str, ...]
    steps: tuple[Step, ...]
    outputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise StreamError(f"graph {self.name!r} has no steps")
        available = set(self.inputs)
        if len(available) != len(self.inputs):
            raise StreamError(f"graph {self.name!r}: duplicate input names")
        graph = nx.DiGraph()
        for step in self.steps:
            if step.output in available:
                raise StreamError(
                    f"graph {self.name!r}: stream {step.output!r} assigned "
                    f"more than once (single-assignment rule)")
            for source in step.inputs.values():
                if source not in available:
                    raise StreamError(
                        f"graph {self.name!r}: step {step.output!r} reads "
                        f"{source!r} before it exists")
                graph.add_edge(source, step.output)
            available.add(step.output)
        missing = set(self.outputs) - available
        if missing:
            raise StreamError(
                f"graph {self.name!r}: outputs {sorted(missing)} are never "
                f"produced")
        if not nx.is_directed_acyclic_graph(graph):
            raise StreamError(f"graph {self.name!r} contains a cycle")

    @property
    def stream_names(self) -> tuple[str, ...]:
        """All stream names, inputs first, then step outputs in order."""
        return self.inputs + tuple(s.output for s in self.steps)

    def step_count(self) -> int:
        return len(self.steps)

    def producers(self) -> dict[str, Step]:
        """Stream name -> the step that produces it."""
        return {s.output: s for s in self.steps}
