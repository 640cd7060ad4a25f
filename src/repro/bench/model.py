"""Analytic performance projection for the Tables 4-5 / Figure 6 benches.

The virtual GPU *executes* every kernel, so at sizes this host can hold
the modeled time comes straight from counters.  The paper's sizes
(68-547 MB) exceed this host's memory, so the benches project instead:
:func:`launch_catalogue` enumerates exactly the launches
:func:`repro.core.amc_gpu.gpu_morphological_stage` performs for a given
(bands, radius) configuration, prices each with the same
:class:`~repro.gpu.cost.CostModel`, and sums over the same chunk plan.
``tests/bench/test_model.py`` asserts the projection equals the executed
counters to float precision at small sizes — the projection *is* the
simulator minus the data movement.

CPU projection reuses :func:`repro.core.workload.morphological_workload`
priced by :func:`repro.cpu.spec.cpu_time_model`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.amc_gpu import VRAM_FRACTION, _batches, _kernels, _line_bytes
from repro.core.mei import se_offsets
from repro.core.workload import morphological_workload
from repro.cpu.spec import CompilerModel, CpuSpec, cpu_time_model
from repro.gpu.cost import CostModel
from repro.gpu.shader import FragmentShader
from repro.gpu.spec import GpuSpec
from repro.gpu.texture import CHANNELS, TEXEL_BYTES, band_group_count
from repro.hsi.chunking import plan_chunks_for_budget
from repro.spectral.normalize import SpectralEpsilon


@dataclass(frozen=True)
class GpuTimeBreakdown:
    """Projected GPU execution time and its components (seconds)."""

    kernel_s: float
    upload_s: float
    download_s: float
    launches: int
    chunks: int

    @property
    def transfer_s(self) -> float:
        return self.upload_s + self.download_s

    @property
    def total_s(self) -> float:
        return self.kernel_s + self.transfer_s


def launch_catalogue(bands: int, radius: int = 1, *,
                     fuse_groups: int = 6) -> list[tuple[FragmentShader, int]]:
    """(shader, launches-per-chunk) for one chunk of the AMC pipeline.

    Mirrors the launch sequence of
    :func:`repro.core.amc_gpu.gpu_morphological_stage` stage by stage,
    including the band-group fusion batching; any change there must be
    reflected here (the counter-equality test catches divergence).
    """
    groups = band_group_count(bands)
    batches = _batches(groups, fuse_groups)
    widths = tuple(sorted({w for _, w in batches}))
    shaders = _kernels(radius, SpectralEpsilon.get(), widths)
    k_count = len(se_offsets(radius))
    pairs = k_count * (k_count - 1) // 2
    # launches per fusion width across one reduction sweep
    width_counts: dict[int, int] = {}
    for _, w in batches:
        width_counts[w] = width_counts.get(w, 0) + 1

    catalogue: list[tuple[FragmentShader, int]] = []
    for w, n in width_counts.items():
        catalogue.append((shaders[f"bandsum_w{w}"], n))
    catalogue.append((shaders["normalize"], groups))
    catalogue.append((shaders["logstream"], groups))
    for w, n in width_counts.items():
        catalogue.append((shaders[f"entropy_w{w}"], n))
    # Cumulative-distance stage: per pair, one cross launch per batch,
    # one SID-map combine and two accumulations.  All pair shaders share
    # a cost structure, so one representative of each kind is priced.
    for w, n in width_counts.items():
        catalogue.append((shaders[f"cross_0_1_w{w}"], pairs * n))
    catalogue.append((shaders["sid_0_1"], pairs))
    catalogue.append((shaders["accum"], pairs * 2))
    catalogue.append((shaders["mm_init"], 1))
    catalogue.append((shaders["mm_step"], k_count - 1))
    for w, n in width_counts.items():
        catalogue.append((shaders[f"mei_cross_w{w}"], n))
    catalogue.append((shaders["mei_final"], 1))
    return catalogue


def project_gpu_time(spec: GpuSpec, lines: int, samples: int, bands: int,
                     radius: int = 1, *,
                     fuse_groups: int = 6) -> GpuTimeBreakdown:
    """Modeled device time for the AMC morphological stage.

    Parameters mirror :func:`gpu_morphological_stage`; the result is what
    the virtual device's counters would report after running the image,
    computed without allocating the image.
    """
    plan = plan_chunks_for_budget(
        lines, samples, bands, line_bytes=_line_bytes(samples, bands, radius),
        budget_bytes=int(spec.vram_bytes * VRAM_FRACTION), halo=radius,
        budget_name=f"{spec.name} VRAM budget")
    cost_model = CostModel(spec)
    catalogue = launch_catalogue(bands, radius, fuse_groups=fuse_groups)
    groups = band_group_count(bands)

    kernel_s = 0.0
    upload_s = 0.0
    download_s = 0.0
    launches = 0
    # The K x 1 offset LUT is uploaded once per image.
    k_count = len(se_offsets(radius))
    upload_s += cost_model.transfer_time(k_count * TEXEL_BYTES)
    for chunk in plan:
        h, w = chunk.ext_lines, samples
        for shader, count in catalogue:
            _, timing = cost_model.launch_time(shader, w, h)
            kernel_s += count * timing.total_s
            launches += count
        chunk_texels = h * w * TEXEL_BYTES
        upload_s += groups * cost_model.transfer_time(chunk_texels)
        # stage 6: the max/min state (full RGBA) and the scalar MEI.
        download_s += cost_model.transfer_time(chunk_texels)
        download_s += cost_model.transfer_time(chunk_texels // CHANNELS)
    return GpuTimeBreakdown(kernel_s=kernel_s, upload_s=upload_s,
                            download_s=download_s, launches=launches,
                            chunks=len(plan))


def project_cpu_time(spec: CpuSpec, compiler: CompilerModel, lines: int,
                     samples: int, bands: int,
                     radius: int = 1) -> dict[str, float]:
    """Modeled CPU time (seconds) for one platform x build."""
    workload = morphological_workload(lines, samples, bands, radius)
    return cpu_time_model(workload.flops, workload.traffic_bytes,
                          spec, compiler)
