"""The stream programming model (paper §2).

The paper abstracts the GPU as a *stream processor*: data lives in
ordered collections (**streams**), computation happens in **kernels**
whose semantics "must not depend on the order in which output elements
are produced", and applications are **chains** of kernels (Brook [1] is
the canonical formulation).  This package provides that model as a
first-class, backend-independent API:

* :class:`~repro.stream.stream.Stream` — a named, typed 2-D collection
  of float4 records;
* :class:`~repro.stream.kernel.StreamKernel` — a fragment program plus
  its binding signature;
* :class:`~repro.stream.graph.StageGraph` — a DAG of kernel applications
  with named intermediate streams, validated for acyclicity and
  dangling references;
* :mod:`~repro.stream.executor` — executors that run a graph either on
  the CPU directly (:class:`~repro.stream.executor.CpuExecutor`) or on a
  :class:`~repro.gpu.device.VirtualGPU`
  (:class:`~repro.stream.executor.GpuExecutor`), where streams become
  textures and kernel applications become render-to-texture passes;
* :func:`~repro.stream.chunked.run_chunked` — line-wise chunked
  execution of a graph on either executor, with the halo
  :func:`~repro.stream.chunked.graph_halo` derives from its shaders.

The paper's Fig. 4 AMC pipeline has one encoding,
:mod:`repro.core.amc_gpu`, which specializes this model by hand (its
own ping-pongs, band-group batching and a K x 1 offset lookup texture
no stage graph can hold, since every stream of a graph shares one
shape).  The framework here is the general-purpose surface a user of
the library builds *other* hyperspectral pipelines with — see
``examples/stream_pipeline.py``.
"""

from repro.stream.chunked import graph_halo, run_chunked
from repro.stream.executor import CpuExecutor, GpuExecutor
from repro.stream.graph import StageGraph, Step
from repro.stream.kernel import StreamKernel
from repro.stream.stream import Stream

__all__ = [
    "CpuExecutor",
    "GpuExecutor",
    "StageGraph",
    "Step",
    "Stream",
    "StreamKernel",
    "graph_halo",
    "run_chunked",
]
