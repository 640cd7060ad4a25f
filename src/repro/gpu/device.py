"""The virtual GPU device: the object application code programs against.

:class:`VirtualGPU` owns a VRAM allocator, a cost model and a set of
counters; it exposes the four verbs of GPGPU programming circa 2005:

* :meth:`~VirtualGPU.upload` — create a device texture from host data
  (counted as a bus transfer, charged against VRAM);
* :meth:`~VirtualGPU.create_target` — allocate an empty render target;
* :meth:`~VirtualGPU.launch` — run a fragment shader over a render
  target with bound textures and uniforms (render-to-texture);
* :meth:`~VirtualGPU.download` — read a texture back to host memory.

Launch results are written into a target texture, so ping-pong chains
(output of one kernel feeding the next) work the way they do with
framebuffer objects on real hardware.

Every launch runs the shader's compiled plan with strided fixed-offset
fetches and broadcasts the result straight into the target, so the
interpreter's scratch temporary is elided.  The recursive evaluator
:func:`repro.gpu.interpreter.execute` is the oracle the tests compare
this path against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShaderError
from repro.gpu.cost import CostModel
from repro.gpu.counters import GpuCounters, KernelLaunchRecord, TransferRecord
from repro.gpu.interpreter import execute_fused_lazy, execute_lazy
from repro.gpu.memory import VramAllocator
from repro.gpu.shader import FragmentShader
from repro.gpu.spec import GEFORCE_7800GTX, GpuSpec
from repro.gpu.texture import Texture2D


class VirtualGPU:
    """A simulated commodity GPU.

    Parameters
    ----------
    spec:
        The board to simulate; defaults to the paper's flagship
        (GeForce 7800 GTX).

    Notes
    -----
    The device keeps *modeled* time (derived from the cost model) separate
    from host wall-clock time, which belongs to the caller's benchmark
    harness.  ``counters.total_time_s`` is the number a real board of the
    given spec would take for the recorded work.
    """

    def __init__(self, spec: GpuSpec = GEFORCE_7800GTX):
        self.spec = spec
        self.vram = VramAllocator(spec.vram_bytes)
        self.cost_model = CostModel(spec)
        self.counters = GpuCounters()

    # ------------------------------------------------------------ textures
    def upload(self, data: np.ndarray, *, label: str = "") -> Texture2D:
        """Transfer host data into a new device texture.

        ``data`` must be (H, W, 4); it is converted to float32 (the only
        texel format the simulated pipeline renders to).
        """
        tex = Texture2D(np.array(data, dtype=np.float32, copy=True),
                        label=label)
        tex.handle = self.vram.allocate(tex.nbytes, label=label or "upload")
        self.counters.record_transfer(TransferRecord(
            direction="upload", nbytes=tex.nbytes,
            modeled_time_s=self.cost_model.transfer_time(tex.nbytes)))
        return tex

    def upload_scalar(self, image: np.ndarray, *, label: str = "") -> Texture2D:
        """Upload a scalar (H, W) map into the x channel of a texture."""
        tex = Texture2D.from_scalar_image(image, label=label)
        tex.handle = self.vram.allocate(tex.nbytes, label=label or "upload")
        self.counters.record_transfer(TransferRecord(
            direction="upload", nbytes=tex.nbytes,
            modeled_time_s=self.cost_model.transfer_time(tex.nbytes)))
        return tex

    def create_target(self, height: int, width: int, *,
                      label: str = "") -> Texture2D:
        """Allocate a zero-initialized render target (no bus traffic)."""
        tex = Texture2D.zeros(height, width, label=label)
        tex.handle = self.vram.allocate(tex.nbytes, label=label or "target")
        return tex

    def free(self, *textures: Texture2D) -> None:
        """Release textures' VRAM.  Safe to call once per texture."""
        for tex in textures:
            if tex.handle >= 0:
                self.vram.release(tex.handle)
                tex.handle = -1

    # -------------------------------------------------------------- launch
    def launch(self, shader: FragmentShader, target: Texture2D,
               textures: dict[str, Texture2D],
               uniforms: dict[str, np.ndarray] | None = None) -> Texture2D:
        """Run a fragment program over ``target``'s extents.

        All bound textures must be device-resident (uploaded or rendered
        on this device).  The shader runs as its compiled plan
        (:func:`~repro.gpu.interpreter.execute_lazy`); the result
        overwrites ``target.data`` and the launch is appended to the
        counters.
        """
        self._check_bindings(shader.name, target, textures)
        arrays = {name: tex.data for name, tex in textures.items()}
        # The plan's raw result broadcasts straight into the target — the
        # interpreter's full-extent scratch copy never exists.
        target.data[...] = execute_lazy(shader, target.height, target.width,
                                        arrays, uniforms)
        self.counters.record_fusion(temporaries_elided=1)

        cost, timing = self.cost_model.launch_time(
            shader, target.width, target.height)
        self.counters.record_launch(KernelLaunchRecord(
            kernel=shader.name,
            width=target.width,
            height=target.height,
            cycles_per_fragment=cost.cycles_per_fragment,
            static_fetches=cost.static_fetches,
            dynamic_fetches=cost.dynamic_fetches,
            modeled_time_s=timing.total_s,
            compute_time_s=timing.compute_s,
            memory_time_s=timing.memory_s))
        return target

    def _check_bindings(self, kernel_name: str, target: Texture2D,
                        textures: dict[str, Texture2D]) -> None:
        """Residency and hazard checks shared by all launch forms."""
        for name, tex in textures.items():
            if not isinstance(tex, Texture2D):
                raise ShaderError(
                    f"binding {name!r} is {type(tex).__name__}, "
                    f"expected Texture2D")
            if tex.handle < 0:
                raise ShaderError(
                    f"binding {name!r} ({tex.label or 'unnamed'}) is not "
                    f"device-resident; upload it first")
        if target.handle < 0:
            raise ShaderError("render target is not device-resident")
        if any(t is target for t in textures.values()):
            raise ShaderError(
                f"launch of {kernel_name!r} binds its own render target as "
                f"an input — read-write hazards are undefined on real "
                f"hardware; use ping-pong targets")

    def launch_fused(self, kernel, target: Texture2D,
                     textures: dict[str, Texture2D],
                     uniforms: dict[str, np.ndarray] | None = None
                     ) -> Texture2D:
        """Run a :class:`~repro.stream.kernel.FusedKernel` as ONE pass.

        The composite's parts run as one compiled plan under a single
        shared context — intermediate streams of the original chain
        never become textures, never touch VRAM and never pay a
        render-target write.  One launch record is appended, whose
        cycle and fetch counts sum the members' (the work still
        happens) while timing charges a single target write and launch
        overhead.
        """
        self._check_bindings(kernel.name, target, textures)
        arrays = {name: tex.data for name, tex in textures.items()}
        target.data[...] = execute_fused_lazy(
            kernel.part_shaders, kernel.part_names, target.height,
            target.width, arrays, uniforms)
        # fused_count - 1 intermediate textures never materialized, plus
        # the interpreter scratch.
        self.counters.record_fusion(
            passes_fused=kernel.fused_count - 1,
            temporaries_elided=kernel.fused_count)

        cost, timing = self.cost_model.fused_launch_time(
            kernel.part_shaders, target.width, target.height)
        self.counters.record_launch(KernelLaunchRecord(
            kernel=kernel.name,
            width=target.width,
            height=target.height,
            cycles_per_fragment=cost.cycles_per_fragment,
            static_fetches=cost.static_fetches,
            dynamic_fetches=cost.dynamic_fetches,
            modeled_time_s=timing.total_s,
            compute_time_s=timing.compute_s,
            memory_time_s=timing.memory_s))
        return target

    # ------------------------------------------------------------ download
    def download(self, texture: Texture2D) -> np.ndarray:
        """Read a texture back to the host (counted as a bus transfer)."""
        self.counters.record_transfer(TransferRecord(
            direction="download", nbytes=texture.nbytes,
            modeled_time_s=self.cost_model.transfer_time(texture.nbytes)))
        return texture.data.copy()

    def download_scalar(self, texture: Texture2D) -> np.ndarray:
        """Read back only the x channel as an (H, W) array.

        Modeled as a quarter-size transfer: real implementations read a
        single-channel framebuffer for scalar results.
        """
        nbytes = texture.nbytes // 4
        self.counters.record_transfer(TransferRecord(
            direction="download", nbytes=nbytes,
            modeled_time_s=self.cost_model.transfer_time(nbytes)))
        return texture.data[:, :, 0].copy()

    # ------------------------------------------------------------- control
    def reset_counters(self) -> None:
        """Clear counters (VRAM allocations are untouched)."""
        self.counters.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"VirtualGPU({self.spec.name!r}, "
                f"{self.vram.used}/{self.vram.capacity} B VRAM, "
                f"{self.counters.kernel_launch_count} launches)")
