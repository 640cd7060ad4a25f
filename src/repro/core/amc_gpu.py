"""Stream-based GPU implementation of the AMC morphological stage.

This is the implementation of paper Fig. 4, kernel for kernel:

1. **Stream uploading** — the cube is split into line-wise chunks sized
   to the board's VRAM (each chunk "incorporates all the spectral
   information on a localized spatial region", Fig. 3), band-packed into
   RGBA textures and uploaded.
2. **Normalization** — reduction kernels accumulate the per-pixel band
   sum across the texture stack (ping-pong targets), then per-group
   kernels divide and take logarithms (eqs. 3-4 plus the log stream the
   SID decomposition needs).
3. **Cumulative distance** — for every unordered pair of SE offsets, a
   chain of accumulation kernels computes the cross-entropy terms over
   the stack, a combine kernel produces the pair's SID map, and two
   accumulation kernels add it into the pair's two cumulative-distance
   streams (``accum_k`` in Fig. 4).
4. **Maximum and minimum** — a running-reduction kernel folds the K
   cumulative streams into a single RGBA state texture holding
   ``(max value, max index, min value, min index)`` per pixel, the classic
   GPGPU argmax/argmin encoding.
5. **Compute SID** — dependent texture fetches read the normalized and
   log spectra of the pixels the max/min stage selected (via a K x 1
   offset lookup texture) and evaluate their SID: the MEI.
6. **Stream downloading** — the MEI (and the argmin/argmax indices)
   are read back; chunk cores are stitched into the full-size outputs.

The arithmetic is float32 throughout — the precision of the fp30/G70
pipelines — so results match the float64 reference to float32 tolerance,
which the test-suite cross-checks enforce.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.core.mei import se_offsets
from repro.errors import ShapeError, StreamError
from repro.gpu import shaderir as ir
from repro.gpu.device import VirtualGPU
from repro.gpu.shader import FragmentShader
from repro.gpu.spec import GEFORCE_7800GTX, GpuSpec
from repro.gpu.texture import (
    CHANNELS,
    TEXEL_BYTES,
    Texture2D,
    band_group_count,
    group_masks,
    pack_bands,
)
from repro.hsi.chunking import plan_chunks_for_budget
from repro.spectral.normalize import SpectralEpsilon


def sum_time_dicts(a: dict[str, float],
                   b: dict[str, float]) -> dict[str, float]:
    """Key-wise sum of two counter/time dictionaries."""
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0.0) + value
    return out


@dataclass(frozen=True)
class GpuAmcOutput:
    """Results of the GPU morphological stage.

    ``modeled_time_s`` is the device time predicted by the cost model for
    the recorded kernel launches and transfers; ``counters`` is the full
    aggregate summary.
    """

    mei: np.ndarray
    erosion_index: np.ndarray
    dilation_index: np.ndarray
    radius: int
    chunk_count: int
    modeled_time_s: float
    counters: dict[str, float]
    time_by_kernel: dict[str, float]

    def with_accounting(self, counters, *, add: bool = False
                        ) -> "GpuAmcOutput":
        """A copy whose accounting is refreshed from a device's counters.

        Both tail-stage aggregation paths go through here:

        * ``add=False`` — ``counters`` belong to the *same* device that
          produced this output (e.g. serial morphology + GPU unmixing on
          one board), so the device totals already include this output's
          launches and simply replace the recorded accounting;
        * ``add=True`` — ``counters`` belong to a *separate* device
          (e.g. per-worker morphological boards plus a tail board), so
          its activity is summed into the existing accounting.
        """
        if add:
            modeled = self.modeled_time_s + counters.total_time_s
            summary = sum_time_dicts(self.counters, counters.summary())
            kernels = sum_time_dicts(self.time_by_kernel,
                                     counters.time_by_kernel())
        else:
            modeled = counters.total_time_s
            summary = counters.summary()
            kernels = counters.time_by_kernel()
        return replace(self, modeled_time_s=modeled, counters=summary,
                       time_by_kernel=kernels)


# --------------------------------------------------------------------------
# Kernel construction (cached per (radius, epsilon) configuration)
# --------------------------------------------------------------------------

def _x(e: ir.Expr) -> ir.Expr:
    return ir.Swizzle(e, "xxxx")


#: Texture image units a 2005-era fragment program can bind at once; the
#: fusion width of the reduction kernels is chosen against this limit.
MAX_TEXTURE_UNITS: int = 16


def _batches(groups: int, fuse: int) -> list[tuple[int, int]]:
    """Split ``groups`` band groups into (start, width) fusion batches."""
    if fuse < 1:
        raise StreamError(f"fuse width must be >= 1, got {fuse}")
    return [(start, min(fuse, groups - start))
            for start in range(0, groups, fuse)]


@lru_cache(maxsize=32)
def _kernels(radius: int, eps: float,
             widths: tuple[int, ...] = (1,)) -> dict[str, FragmentShader]:
    """Build every fragment program of the Fig. 4 pipeline.

    ``widths`` lists the fusion widths the reduction kernels are needed
    at: a width-w kernel binds w band-group textures (of each stream) and
    folds their contributions in a single pass, the way a real fp30
    implementation amortizes pass overheads until it runs out of texture
    units.
    """
    offsets = se_offsets(radius)
    shaders: dict[str, FragmentShader] = {}
    for w in widths:
        if w < 1:
            raise StreamError(f"fusion width must be >= 1, got {w}")
        if 3 + 2 * w > MAX_TEXTURE_UNITS:
            raise StreamError(
                f"fusion width {w} needs {3 + 2 * w} texture units; the "
                f"hardware has {MAX_TEXTURE_UNITS}")

    # --- normalization stage ---------------------------------------------
    # acc' = acc + sum_i dot(src_i, mask_i): band-sum reduction.
    for w in widths:
        body: ir.Expr = ir.TexFetch("acc")
        for i in range(w):
            body = ir.add(body, ir.dot4(ir.TexFetch(f"src{i}"),
                                        ir.Uniform(f"mask{i}")))
        shaders[f"bandsum_w{w}"] = FragmentShader(
            f"bandsum_w{w}", body,
            samplers=("acc", *(f"src{i}" for i in range(w))),
            uniforms=tuple(f"mask{i}" for i in range(w)))
    # norm = (src / total.x) * mask  — eq. 3-4 plus padded-lane zeroing.
    shaders["normalize"] = FragmentShader(
        "normalize",
        ir.mul(ir.div(ir.TexFetch("src"), _x(ir.TexFetch("total"))),
               ir.Uniform("mask")),
        samplers=("src", "total"), uniforms=("mask",))
    # logt = log(max(norm, eps)) — the log stream of the decomposition.
    shaders["logstream"] = FragmentShader(
        "logstream",
        ir.log(ir.max_(ir.TexFetch("norm"), ir.vec4(eps))),
        samplers=("norm",))
    # h' = h + sum_i dot(norm_i, logt_i): self-entropy reduction.
    for w in widths:
        body = ir.TexFetch("acc")
        for i in range(w):
            body = ir.add(body, ir.dot4(ir.TexFetch(f"norm{i}"),
                                        ir.TexFetch(f"logt{i}")))
        shaders[f"entropy_w{w}"] = FragmentShader(
            f"entropy_w{w}", body,
            samplers=("acc", *(f"norm{i}" for i in range(w)),
                      *(f"logt{i}" for i in range(w))))

    # --- cumulative distance stage -----------------------------------------
    # One cross-term accumulator (per fusion width) and one SID-map kernel
    # per unordered pair of SE offsets — the offsets are compile-time
    # constants of the fragment program, exactly like a #define'd Cg
    # kernel variant.
    k_count = len(offsets)
    for ka in range(k_count):
        ady, adx = offsets[ka]
        for kb in range(ka + 1, k_count):
            bdy, bdx = offsets[kb]
            for w in widths:
                body = ir.TexFetch("acc")
                for i in range(w):
                    body = ir.add(body, ir.add(
                        ir.dot4(ir.TexFetch(f"norm{i}", adx, ady),
                                ir.TexFetch(f"logt{i}", bdx, bdy)),
                        ir.dot4(ir.TexFetch(f"norm{i}", bdx, bdy),
                                ir.TexFetch(f"logt{i}", adx, ady))))
                shaders[f"cross_{ka}_{kb}_w{w}"] = FragmentShader(
                    f"cross_{ka}_{kb}_w{w}", body,
                    samplers=("acc", *(f"norm{i}" for i in range(w)),
                              *(f"logt{i}" for i in range(w))))
            # sid = max(h(x+a) + h(x+b) - cross, 0)
            shaders[f"sid_{ka}_{kb}"] = FragmentShader(
                f"sid_{ka}_{kb}",
                ir.max_(ir.sub(ir.add(ir.TexFetch("h", adx, ady),
                                      ir.TexFetch("h", bdx, bdy)),
                               ir.TexFetch("cross")),
                        ir.vec4(0.0)),
                samplers=("h", "cross"))
    # acc' = acc + value: adds a pair's SID map into a cumulative stream.
    shaders["accum"] = FragmentShader(
        "accum",
        ir.add(ir.TexFetch("acc"), ir.TexFetch("value")),
        samplers=("acc", "value"))
    # out = value: retires a ping-pong stream into a named texture.
    shaders["copy"] = FragmentShader(
        "copy", ir.TexFetch("value"), samplers=("value",))

    # --- maximum and minimum stage ----------------------------------------
    # state = (max value, max index, min value, min index); the first
    # cumulative stream initializes it, the rest fold in via CMP selects.
    first = _x(ir.TexFetch("d"))
    shaders["mm_init"] = FragmentShader(
        "mm_init",
        ir.Combine(first, ir.vec4(0.0), first, ir.vec4(0.0)),
        samplers=("d",))
    state = ir.TexFetch("state")
    value = _x(ir.TexFetch("d"))
    is_max = ir.cmp_gt(value, ir.Swizzle(state, "xxxx"))
    is_min = ir.cmp_gt(ir.Swizzle(state, "zzzz"), value)
    shaders["mm_step"] = FragmentShader(
        "mm_step",
        ir.Combine(
            ir.select(is_max, value, ir.Swizzle(state, "xxxx")),
            ir.select(is_max, ir.Uniform("kidx"), ir.Swizzle(state, "yyyy")),
            ir.select(is_min, value, ir.Swizzle(state, "zzzz")),
            ir.select(is_min, ir.Uniform("kidx"), ir.Swizzle(state, "wwww"))),
        samplers=("state", "d"), uniforms=("kidx",))

    # --- compute SID stage (dependent fetches) ------------------------------
    # The K x 1 lookup texture maps a neighbour index to its (dx, dy).
    coord_max = ir.add(ir.FragCoord(), ir.TexFetchDyn(
        "lut", ir.Combine(ir.Swizzle(ir.TexFetch("state"), "yyyy"),
                          ir.vec4(0.0), ir.vec4(0.0), ir.vec4(0.0))))
    coord_min = ir.add(ir.FragCoord(), ir.TexFetchDyn(
        "lut", ir.Combine(ir.Swizzle(ir.TexFetch("state"), "wwww"),
                          ir.vec4(0.0), ir.vec4(0.0), ir.vec4(0.0))))
    for w in widths:
        body = ir.TexFetch("acc")
        for i in range(w):
            body = ir.add(body, ir.add(
                ir.dot4(ir.TexFetchDyn(f"norm{i}", coord_max),
                        ir.TexFetchDyn(f"logt{i}", coord_min)),
                ir.dot4(ir.TexFetchDyn(f"norm{i}", coord_min),
                        ir.TexFetchDyn(f"logt{i}", coord_max))))
        shaders[f"mei_cross_w{w}"] = FragmentShader(
            f"mei_cross_w{w}", body,
            samplers=("acc", *(f"norm{i}" for i in range(w)),
                      *(f"logt{i}" for i in range(w)), "state", "lut"))
    shaders["mei_final"] = FragmentShader(
        "mei_final",
        ir.max_(ir.sub(ir.add(ir.TexFetchDyn("h", coord_max),
                              ir.TexFetchDyn("h", coord_min)),
                       ir.TexFetch("cross")),
                ir.vec4(0.0)),
        samplers=("h", "cross", "state", "lut"))
    return shaders


class _PingPong:
    """A pair of render targets alternating as source and destination —
    framebuffer-object ping-ponging."""

    def __init__(self, gpu: VirtualGPU, height: int, width: int, label: str):
        self._gpu = gpu
        self._a = gpu.create_target(height, width, label=f"{label}.a")
        self._b = gpu.create_target(height, width, label=f"{label}.b")

    @property
    def current(self) -> Texture2D:
        """The texture holding the latest result (bind as input)."""
        return self._a

    @property
    def target(self) -> Texture2D:
        """The texture to render into next."""
        return self._b

    def swap(self) -> None:
        self._a, self._b = self._b, self._a

    def free(self) -> None:
        self._gpu.free(self._a, self._b)


#: Share of a board's VRAM the GPU chunk planners may fill.
VRAM_FRACTION = 0.85


def _line_bytes(samples: int, bands: int, radius: int) -> int:
    """Device bytes one extended line of the working set occupies.

    Per extended line the pipeline holds: the source stack, the
    normalized stack and the log stack (3G group textures), K cumulative
    streams, and ~10 scratch targets (sum/entropy/cross ping-pongs,
    max/min state, MEI).
    """
    k_count = (2 * radius + 1) ** 2
    textures_per_line = 3 * band_group_count(bands) + k_count + 10
    return samples * TEXEL_BYTES * textures_per_line


def gpu_morphological_stage(cube_bip: np.ndarray, radius: int = 1, *,
                            spec: GpuSpec = GEFORCE_7800GTX,
                            device: VirtualGPU | None = None,
                            fuse_groups: int = 6) -> GpuAmcOutput:
    """Run stages 1-6 of the stream AMC pipeline on a virtual GPU.

    Parameters
    ----------
    cube_bip:
        (H, W, N) raw radiance cube (host memory).
    radius:
        SE radius (paper: 1 — a 3x3 window).
    spec:
        Board to simulate (ignored when ``device`` is given).
    device:
        Reuse an existing :class:`VirtualGPU` (its counters keep
        accumulating, which lets a caller time a whole workload).
    fuse_groups:
        How many band groups the reduction kernels fold per pass (capped
        by the 16-texture-unit budget; 6 is the maximum for the widest
        kernel).  1 reproduces the unfused one-group-per-pass pipeline —
        the configuration the fusion ablation bench compares against.

    Returns
    -------
    GpuAmcOutput
    """
    cube_bip = np.asarray(cube_bip)
    if cube_bip.ndim != 3:
        raise ShapeError(f"expected (H, W, N), got ndim={cube_bip.ndim}")
    lines, samples, bands = cube_bip.shape
    gpu = device if device is not None else VirtualGPU(spec)
    eps = SpectralEpsilon.get()
    offsets = se_offsets(radius)
    k_count = len(offsets)
    masks = group_masks(bands)
    groups = band_group_count(bands)
    batches = _batches(groups, fuse_groups)
    widths = tuple(sorted({w for _, w in batches}))
    shaders = _kernels(radius, eps, widths)

    plan = plan_chunks_for_budget(
        lines, samples, bands, line_bytes=_line_bytes(samples, bands, radius),
        budget_bytes=int(gpu.spec.vram_bytes * VRAM_FRACTION), halo=radius,
        budget_name=f"{gpu.spec.name} VRAM budget")

    mei = np.empty((lines, samples), dtype=np.float32)
    erosion = np.empty((lines, samples), dtype=np.int64)
    dilation = np.empty((lines, samples), dtype=np.int64)

    start_time = gpu.counters.total_time_s

    # The offset lookup texture is tiny and persists across chunks.
    lut_img = np.zeros((1, k_count, CHANNELS), dtype=np.float32)
    for k, (dy, dx) in enumerate(offsets):
        lut_img[0, k, 0] = dx
        lut_img[0, k, 1] = dy
    lut = gpu.upload(lut_img, label="offset-lut")

    for chunk in plan:
        h = chunk.ext_lines
        w = samples
        # ---- stage 1: stream uploading --------------------------------
        src = [gpu.upload(t, label=f"src{g}")
               for g, t in enumerate(pack_bands(chunk.extract(cube_bip)))]

        # ---- stage 2: normalization ------------------------------------
        total = _PingPong(gpu, h, w, "bandsum")
        for start, width in batches:
            bindings = {"acc": total.current}
            uniforms = {}
            for i in range(width):
                bindings[f"src{i}"] = src[start + i]
                uniforms[f"mask{i}"] = masks[start + i]
            gpu.launch(shaders[f"bandsum_w{width}"], total.target,
                       bindings, uniforms)
            total.swap()
        norm = [gpu.create_target(h, w, label=f"norm{g}")
                for g in range(groups)]
        logt = [gpu.create_target(h, w, label=f"log{g}")
                for g in range(groups)]
        for g in range(groups):
            gpu.launch(shaders["normalize"], norm[g],
                       {"src": src[g], "total": total.current},
                       {"mask": masks[g]})
            gpu.launch(shaders["logstream"], logt[g], {"norm": norm[g]})
        gpu.free(*src)
        total.free()

        entropy = _PingPong(gpu, h, w, "entropy")
        for start, width in batches:
            bindings = {"acc": entropy.current}
            for i in range(width):
                bindings[f"norm{i}"] = norm[start + i]
                bindings[f"logt{i}"] = logt[start + i]
            gpu.launch(shaders[f"entropy_w{width}"], entropy.target,
                       bindings)
            entropy.swap()

        # ---- stage 3: cumulative distances -----------------------------
        cumulative = [gpu.create_target(h, w, label=f"accum{k}")
                      for k in range(k_count)]
        cum_scratch = gpu.create_target(h, w, label="accum-scratch")
        cross = _PingPong(gpu, h, w, "cross")
        sid_map = gpu.create_target(h, w, label="sidmap")
        for ka in range(k_count):
            for kb in range(ka + 1, k_count):
                # cross terms over the whole stack (ping-pong reduce)
                cross.current.data[...] = 0.0
                for start, width in batches:
                    bindings = {"acc": cross.current}
                    for i in range(width):
                        bindings[f"norm{i}"] = norm[start + i]
                        bindings[f"logt{i}"] = logt[start + i]
                    gpu.launch(shaders[f"cross_{ka}_{kb}_w{width}"],
                               cross.target, bindings)
                    cross.swap()
                gpu.launch(shaders[f"sid_{ka}_{kb}"], sid_map,
                           {"h": entropy.current, "cross": cross.current})
                # accumulate into both neighbours' cumulative streams
                for k in (ka, kb):
                    gpu.launch(shaders["accum"], cum_scratch,
                               {"acc": cumulative[k], "value": sid_map})
                    cumulative[k], cum_scratch = cum_scratch, cumulative[k]
        cross.free()
        gpu.free(sid_map, cum_scratch)

        # ---- stage 4: maximum and minimum ------------------------------
        state = _PingPong(gpu, h, w, "mmstate")
        gpu.launch(shaders["mm_init"], state.target, {"d": cumulative[0]})
        state.swap()
        for k in range(1, k_count):
            gpu.launch(shaders["mm_step"], state.target,
                       {"state": state.current, "d": cumulative[k]},
                       {"kidx": np.full(4, float(k), dtype=np.float32)})
            state.swap()
        gpu.free(*cumulative)

        # ---- stage 5: compute SID (the MEI) -----------------------------
        mei_cross = _PingPong(gpu, h, w, "meicross")
        for start, width in batches:
            bindings = {"acc": mei_cross.current, "state": state.current,
                        "lut": lut}
            for i in range(width):
                bindings[f"norm{i}"] = norm[start + i]
                bindings[f"logt{i}"] = logt[start + i]
            gpu.launch(shaders[f"mei_cross_w{width}"], mei_cross.target,
                       bindings)
            mei_cross.swap()
        mei_tex = gpu.create_target(h, w, label="mei")
        gpu.launch(shaders["mei_final"], mei_tex,
                   {"h": entropy.current, "cross": mei_cross.current,
                    "state": state.current, "lut": lut})
        mei_cross.free()

        # ---- stage 6: stream downloading --------------------------------
        state_host = gpu.download(state.current)
        mei_host = gpu.download_scalar(mei_tex)

        core = slice(chunk.core_start, chunk.core_stop)
        mei[core] = chunk.core_of(mei_host)
        dilation[core] = chunk.core_of(
            np.rint(state_host[:, :, 1]).astype(np.int64))
        erosion[core] = chunk.core_of(
            np.rint(state_host[:, :, 3]).astype(np.int64))

        gpu.free(*norm, *logt, mei_tex)
        entropy.free()
        state.free()

    gpu.free(lut)

    return GpuAmcOutput(
        mei=mei, erosion_index=erosion, dilation_index=dilation,
        radius=radius, chunk_count=len(plan),
        modeled_time_s=gpu.counters.total_time_s - start_time,
        counters=gpu.counters.summary(),
        time_by_kernel=gpu.counters.time_by_kernel())
