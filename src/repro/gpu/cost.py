"""The GPU timing model: counted work -> modeled seconds.

The model is the standard bounded-by-compute-or-memory ("roofline") view
of a streaming processor, specialized to a 2003-2005 fragment pipeline:

* **Compute**: each IR instruction costs a number of shader cycles
  (:data:`OP_COSTS`); a launch over F fragments with C cycles/fragment on
  P pipes at clock f takes ``F * C / (P * f * issue_rate)`` seconds.
  Transcendentals (LG2/EX2/RCP) are near-single-cycle on these parts —
  the "fast and accurate transcendental functions" the paper calls out as
  a GPU advantage — so their cost is low but still above a MAD.
* **Memory**: texture fetches are served by the dedicated texture cache
  with a high hit rate for fixed-offset access (2-D blocked prefetching
  [7]); only misses and the render-target write consume board bandwidth.
  Dependent fetches miss far more often.
* A launch costs ``max(compute, memory) + launch_overhead`` — the deeply
  pipelined design overlaps the two streams almost perfectly.
* **Transfers** move ``bytes`` over the bus at its sustained bandwidth
  plus a fixed latency; AGP8x vs PCIe x16 is one of the two headline
  differences between the paper's boards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.gpu import shaderir as ir
from repro.gpu.shader import FragmentShader
from repro.gpu.spec import GpuSpec
from repro.gpu.texture import TEXEL_BYTES

#: Shader cycles per IR instruction (float4-wide).
OP_COSTS: dict[str, float] = {
    # lane-wise arithmetic — single-issue MAD class
    "add": 1.0, "sub": 1.0, "mul": 1.0, "min": 1.0, "max": 1.0,
    "cmp_gt": 1.0, "cmp_ge": 1.0, "neg": 1.0, "abs": 1.0, "floor": 1.0,
    # special-function unit: LG2/EX2/RCP are near full rate on NV3x/G7x —
    # the "fast and accurate transcendental functions" the paper credits
    # GPUs with (§1)
    "log": 1.0, "exp": 1.0, "rcp": 1.5, "sqrt": 1.5, "div": 2.0,
    # DP4 is one instruction
    "dot": 1.0,
    # blend / pack
    "select": 1.0, "combine": 1.0,
    # texture instructions: the dedicated, deeply pipelined texture units
    # run in parallel with the ALUs [7], so a fixed-offset fetch costs
    # only its issue slot; dependent fetches stall the pipeline
    "tex": 0.25, "tex_dyn": 1.0,
}


@dataclass(frozen=True)
class KernelCost:
    """Static per-fragment cost of a shader."""

    cycles_per_fragment: float
    static_fetches: int
    dynamic_fetches: int


@dataclass(frozen=True)
class LaunchTiming:
    """Timing breakdown of one launch."""

    compute_s: float
    memory_s: float
    total_s: float


def _static_cost(shader: FragmentShader) -> KernelCost:
    """Sum the per-instruction cycle costs of a shader body.

    Shared subtrees are counted once (they occupy one register).
    """
    cycles = 0.0
    for node in ir.walk(shader.body):
        if isinstance(node, ir.Op):
            cycles += OP_COSTS[node.op]
        elif isinstance(node, ir.Dot):
            cycles += OP_COSTS["dot"]
        elif isinstance(node, ir.Select):
            cycles += OP_COSTS["select"]
        elif isinstance(node, ir.Combine):
            cycles += OP_COSTS["combine"]
        elif isinstance(node, ir.TexFetch):
            cycles += OP_COSTS["tex"]
        elif isinstance(node, ir.TexFetchDyn):
            cycles += OP_COSTS["tex_dyn"]
        # Const / Uniform / Swizzle / FragCoord: register reads, free.
    stats = shader.stats
    return KernelCost(cycles_per_fragment=cycles,
                      static_fetches=stats.static_fetches,
                      dynamic_fetches=stats.dynamic_fetches)


class CostModel:
    """Evaluates kernel and transfer costs for one :class:`GpuSpec`."""

    def __init__(self, spec: GpuSpec):
        self.spec = spec

    # ------------------------------------------------------------- kernels
    @staticmethod
    def kernel_cost(shader: FragmentShader) -> KernelCost:
        """The static per-fragment cost of a shader.

        A pure function of the (immutable) shader, so it is computed by
        one IR walk per shader and cached on it
        (:meth:`FragmentShader.compiled
        <repro.gpu.shader.FragmentShader.compiled>`); every device and
        every launch after the first reads the cached value.
        """
        return shader.compiled("cost", _static_cost)

    def _timing(self, cost: KernelCost, width: int,
                height: int) -> LaunchTiming:
        """Roofline timing of one pass: max(compute, memory) + overhead."""
        fragments = width * height
        spec = self.spec
        compute_s = (fragments * cost.cycles_per_fragment
                     / (spec.n_fragment_pipes * spec.core_clock_hz
                        * spec.issue_rate))
        miss_bytes_per_fragment = TEXEL_BYTES * (
            cost.static_fetches * (1.0 - spec.texture_cache_hit_rate)
            + cost.dynamic_fetches * (1.0 - spec.dependent_fetch_hit_rate))
        # The render-target write always goes to board memory.
        bytes_per_fragment = miss_bytes_per_fragment + TEXEL_BYTES
        memory_s = fragments * bytes_per_fragment / spec.mem_bandwidth
        total = max(compute_s, memory_s) + spec.launch_overhead_s
        return LaunchTiming(compute_s=compute_s, memory_s=memory_s,
                            total_s=total)

    def launch_time(self, shader: FragmentShader, width: int,
                    height: int) -> tuple[KernelCost, LaunchTiming]:
        """Modeled wall time of one launch over ``width x height``."""
        cost = self.kernel_cost(shader)
        return cost, self._timing(cost, width, height)

    def fused_launch_time(self, shaders, width: int,
                          height: int) -> tuple[KernelCost, LaunchTiming]:
        """Modeled wall time of one *fused* launch.

        The constituent parts' compute cycles and fetch counts sum —
        every instruction of the original chain still executes — but
        the pass pays a single render-target write and a single launch
        overhead instead of one per member: exactly the savings pass
        fusion buys on hardware (intermediates stay in registers or
        launch-local storage, never in board memory).
        """
        cycles = 0.0
        static_fetches = 0
        dynamic_fetches = 0
        for shader in shaders:
            part = self.kernel_cost(shader)
            cycles += part.cycles_per_fragment
            static_fetches += part.static_fetches
            dynamic_fetches += part.dynamic_fetches
        cost = KernelCost(cycles_per_fragment=cycles,
                          static_fetches=static_fetches,
                          dynamic_fetches=dynamic_fetches)
        return cost, self._timing(cost, width, height)

    # ----------------------------------------------------------- transfers
    def transfer_time(self, nbytes: int) -> float:
        """Modeled host<->device transfer time for ``nbytes``."""
        if nbytes < 0:
            raise ValidationError(f"nbytes must be >= 0, got {nbytes}")
        return self.spec.transfer_latency_s + nbytes / self.spec.bus_bandwidth
