"""GPU unmixing and classification — the extension stages.

The paper's stream pipeline ends at the MEI download; AMC steps 3-4
(abundance estimation and per-pixel argmax) run on the host.  Both map
perfectly onto the same kernel shapes the morphological stage already
uses, so this module implements them as an optional device-side
extension:

* **Unmixing** (unconstrained LSU): with the endmember matrix ``E``
  (c, N), the abundance of endmember j at pixel x is ``(M x)_j`` with
  ``M = (E E^T)^{-1} E`` computed once on the host.  Per endmember this
  is a band reduction with *constant* per-band weights — exactly the
  ``bandsum`` kernel with the weight vec4s bound as uniforms, fused over
  band groups like every other reduction in the pipeline.
* **Classification** (step 4): an argmax fold over the c abundance
  streams using the same running ``(max value, max index)`` state
  encoding as the erosion/dilation stage.

The outputs match :func:`repro.core.unmixing.unmix_lsu` +
:func:`repro.core.unmixing.classify_abundances` to float32 tolerance
(enforced by ``tests/core/test_unmix_gpu.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.amc_gpu import VRAM_FRACTION, _PingPong, _batches, _kernels
from repro.errors import ShapeError
from repro.gpu.device import VirtualGPU
from repro.gpu.spec import GEFORCE_7800GTX, GpuSpec
from repro.gpu.texture import (
    CHANNELS,
    TEXEL_BYTES,
    band_group_count,
    pack_bands,
)
from repro.hsi.chunking import plan_chunks_for_budget
from repro.spectral.normalize import SpectralEpsilon


@dataclass(frozen=True)
class GpuUnmixOutput:
    """Device-side unmixing + classification results."""

    winner_index: np.ndarray        # (H, W) 0-based endmember index
    winner_abundance: np.ndarray    # (H, W) the winning abundance value
    abundances: np.ndarray | None   # (H, W, c) if requested
    chunk_count: int
    modeled_time_s: float
    counters: dict[str, float]


def _weight_uniforms(row: np.ndarray, start: int, width: int
                     ) -> dict[str, np.ndarray]:
    """Slice an M row into per-group vec4 mask uniforms (zero padded)."""
    uniforms = {}
    n = row.shape[0]
    for i in range(width):
        lo = (start + i) * CHANNELS
        chunk = np.zeros(CHANNELS, dtype=np.float32)
        take = max(min(CHANNELS, n - lo), 0)
        if take:
            chunk[:take] = row[lo:lo + take]
        uniforms[f"mask{i}"] = chunk
    return uniforms


def gpu_unmix_classify(cube_bip: np.ndarray, endmembers: np.ndarray, *,
                       spec: GpuSpec = GEFORCE_7800GTX,
                       device: VirtualGPU | None = None,
                       fuse_groups: int = 6,
                       return_abundances: bool = False) -> GpuUnmixOutput:
    """Estimate LSU abundances and classify by argmax, on the device.

    Parameters
    ----------
    cube_bip:
        (H, W, N) raw radiance cube.
    endmembers:
        (c, N) endmember matrix (e.g. ``AMCResult.endmembers.spectra``).
    return_abundances:
        Also download every abundance stream (c extra transfers).

    Returns
    -------
    GpuUnmixOutput
    """
    cube_bip = np.asarray(cube_bip)
    endmembers = np.asarray(endmembers, dtype=np.float64)
    if cube_bip.ndim != 3:
        raise ShapeError(f"expected (H, W, N) cube, got {cube_bip.shape}")
    if endmembers.ndim != 2 or endmembers.shape[1] != cube_bip.shape[2]:
        raise ShapeError(
            f"endmembers {endmembers.shape} incompatible with cube bands "
            f"{cube_bip.shape[2]}")
    c = endmembers.shape[0]
    lines, samples, bands = cube_bip.shape

    # Host-side: the unmixing matrix M = (E E^T)^{-1} E, one row per
    # endmember (tiny: c x N).
    gram = endmembers @ endmembers.T
    unmix_matrix = np.linalg.solve(gram, endmembers).astype(np.float32)

    gpu = device if device is not None else VirtualGPU(spec)
    groups = band_group_count(bands)
    batches = _batches(groups, fuse_groups)
    widths = tuple(sorted({w for _, w in batches}))
    shaders = _kernels(1, SpectralEpsilon.get(), widths)

    # chunking: per extended line we hold the source stack, c abundance
    # streams (x2 for ping-pong) and the argmax state.
    plan = plan_chunks_for_budget(
        lines, samples, bands,
        line_bytes=samples * TEXEL_BYTES * (groups + 2 * c + 6),
        budget_bytes=int(gpu.spec.vram_bytes * VRAM_FRACTION), halo=0,
        budget_name=f"{gpu.spec.name} VRAM budget")

    winner_index = np.empty((lines, samples), dtype=np.int64)
    winner_abundance = np.empty((lines, samples), dtype=np.float32)
    abundances = (np.empty((lines, samples, c), dtype=np.float32)
                  if return_abundances else None)
    start_time = gpu.counters.total_time_s

    for chunk in plan:
        h, w = chunk.ext_lines, samples
        src = [gpu.upload(t, label=f"src{g}")
               for g, t in enumerate(pack_bands(chunk.extract(cube_bip)))]

        # --- abundance reduction per endmember -------------------------
        abundance_tex = []
        scratch = _PingPong(gpu, h, w, "abundance")
        for j in range(c):
            gpu.clear(scratch.current)
            for start, width in batches:
                bindings = {"acc": scratch.current}
                for i in range(width):
                    bindings[f"src{i}"] = src[start + i]
                gpu.launch(shaders[f"bandsum_w{width}"], scratch.target,
                           bindings,
                           _weight_uniforms(unmix_matrix[j], start, width))
                scratch.swap()
            final = gpu.create_target(h, w, label=f"abundance{j}")
            gpu.launch(shaders["copy"], final, {"value": scratch.current})
            abundance_tex.append(final)
        scratch.free()
        gpu.free(*src)

        # --- argmax fold (mm kernels, max half) -------------------------
        state = _PingPong(gpu, h, w, "argmax")
        gpu.launch(shaders["mm_init"], state.target,
                   {"d": abundance_tex[0]})
        state.swap()
        for j in range(1, c):
            gpu.launch(shaders["mm_step"], state.target,
                       {"state": state.current, "d": abundance_tex[j]},
                       {"kidx": np.full(4, float(j), dtype=np.float32)})
            state.swap()

        state_host = gpu.download(state.current)
        core = slice(chunk.core_start, chunk.core_stop)
        winner_abundance[core] = chunk.core_of(state_host[:, :, 0])
        winner_index[core] = chunk.core_of(
            np.rint(state_host[:, :, 1]).astype(np.int64))
        if abundances is not None:
            for j, tex in enumerate(abundance_tex):
                abundances[core, :, j] = chunk.core_of(
                    gpu.download_scalar(tex))
        gpu.free(*abundance_tex)
        state.free()

    return GpuUnmixOutput(
        winner_index=winner_index,
        winner_abundance=winner_abundance,
        abundances=abundances,
        chunk_count=len(plan),
        modeled_time_s=gpu.counters.total_time_s - start_time,
        counters=gpu.counters.summary())
