"""A virtual commodity GPU of the 2003-2005 era.

The paper runs Cg fragment shaders on an NVIDIA FX5950 Ultra (NV38) and a
7800 GTX (G70).  No GPU is available in this environment, so this package
implements the machine the paper programs against:

* :mod:`~repro.gpu.spec` — device descriptions parameterized exactly by
  the columns of paper Table 1 (pixel-shader count, core clock, memory
  bandwidth, bus generation, VRAM size), with presets for both boards.
* :mod:`~repro.gpu.texture` — 2-D RGBA float textures and the band-group
  packing of paper Fig. 3 (four consecutive spectral channels per texel).
* :mod:`~repro.gpu.shaderir` / :mod:`~repro.gpu.shader` — a small Cg-like
  fragment-shader IR (float4 arithmetic, swizzles, static and dependent
  texture fetches) with a structural validator.
* :mod:`~repro.gpu.interpreter` — vectorized NumPy execution of shader
  programs over whole render targets, in float32 like the real fragment
  pipelines.
* :mod:`~repro.gpu.cost` — the per-instruction cost tables and the
  kernel/transfer timing model that converts *counted* work into modeled
  milliseconds.
* :mod:`~repro.gpu.device` — :class:`~repro.gpu.device.VirtualGPU`, the
  programmer-facing object: upload, launch, download, counters, VRAM
  accounting, and capture/replay of a fixed command stream
  (:class:`~repro.gpu.device.CapturedProgram`).

Everything a benchmark reports is derived from work the interpreter
actually performed — the timing model multiplies counted fragments, ops,
fetches and bytes by spec-derived rates; no result is hard-coded.
"""

from repro.gpu.cost import CostModel, OP_COSTS
from repro.gpu.counters import GpuCounters, KernelLaunchRecord
from repro.gpu.device import CapturedProgram, VirtualGPU
from repro.gpu.memory import VramAllocator
from repro.gpu.shader import FragmentShader
from repro.gpu.shaderir import (
    Combine,
    Const,
    Dot,
    Expr,
    Floor,
    Op,
    Swizzle,
    TexFetch,
    TexFetchDyn,
    Uniform,
    add,
    cmp_ge,
    cmp_gt,
    div,
    dot4,
    log,
    max_,
    min_,
    mul,
    select,
    sub,
    vec4,
)
from repro.gpu.spec import (
    AGP8X_BANDWIDTH,
    PCIE_X16_BANDWIDTH,
    GEFORCE_7800GTX,
    GEFORCE_FX5950U,
    GpuSpec,
)
from repro.gpu.texture import Texture2D, pack_bands, unpack_bands

__all__ = [
    "AGP8X_BANDWIDTH",
    "CapturedProgram",
    "Combine",
    "Const",
    "CostModel",
    "Dot",
    "Expr",
    "Floor",
    "FragmentShader",
    "GEFORCE_7800GTX",
    "GEFORCE_FX5950U",
    "GpuCounters",
    "GpuSpec",
    "KernelLaunchRecord",
    "OP_COSTS",
    "Op",
    "PCIE_X16_BANDWIDTH",
    "Swizzle",
    "TexFetch",
    "TexFetchDyn",
    "Texture2D",
    "Uniform",
    "VirtualGPU",
    "VramAllocator",
    "add",
    "cmp_ge",
    "cmp_gt",
    "div",
    "dot4",
    "log",
    "max_",
    "min_",
    "mul",
    "pack_bands",
    "select",
    "sub",
    "unpack_bands",
    "vec4",
]
