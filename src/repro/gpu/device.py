"""The virtual GPU device: the object application code programs against.

:class:`VirtualGPU` owns a VRAM allocator, a cost model and a set of
counters; it exposes the verbs of GPGPU programming circa 2005:

* :meth:`~VirtualGPU.upload` — create a device texture from host data
  (counted as a bus transfer, charged against VRAM);
* :meth:`~VirtualGPU.create_target` — allocate an empty render target;
* :meth:`~VirtualGPU.launch` — run a fragment shader over a render
  target with bound textures and uniforms (render-to-texture);
* :meth:`~VirtualGPU.clear` — zero-fill a render target (``glClear``);
* :meth:`~VirtualGPU.download` — read a texture back to host memory.

Launch results are written into a target texture, so ping-pong chains
(output of one kernel feeding the next) work the way they do with
framebuffer objects on real hardware.

Like a real driver, the device queues work and runs it later.
:meth:`~VirtualGPU.launch` checks its bindings and appends its launch
record at call time, then queues a command instead of evaluating.
Each command reads the *version* every bound texture has at that point
in program order and writes a fresh version of its target, so reusing
a ping-pong target or a scratch texture orders nothing but true
data dependencies.  :meth:`~VirtualGPU.flush` runs the queue level by
level in dependency order; at each level, launches whose compiled plans
are equal up to fetch offsets run as one stacked NumPy evaluation
(:func:`~repro.gpu.interpreter.execute_stacked`), and the rest through
their compiled plan one by one.  Downloads flush, and so does any host
access to a queued texture's ``data``, the way ``glReadPixels``
synchronises.  The texels equal those of the recursive evaluator
:func:`repro.gpu.interpreter.execute`, byte for byte, which is the
oracle the tests compare this path against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShaderError
from repro.gpu.cost import CostModel
from repro.gpu.counters import GpuCounters, KernelLaunchRecord, TransferRecord
from repro.gpu.interpreter import (
    coerce_bindings,
    execute_lazy,
    execute_stacked,
    stack_signature,
)
from repro.gpu.memory import VramAllocator
from repro.gpu.shader import FragmentShader
from repro.gpu.spec import GEFORCE_7800GTX, GpuSpec
from repro.gpu.texture import CHANNELS, Texture2D

#: Texels of queued launch outputs past which a launch flushes the queue
#: first (2 MiB of float32 RGBA).  Every queued launch renders into a
#: fresh host array, so this bounds the memory renaming holds; a stacked
#: evaluation, a subset of one flush, covers at most this many texels
#: too.  A chunk of 20x20 targets flushes about every 330 launches,
#: which still stacks the per-pair kernels 50 or more at a time; larger
#: queues held more memory and ran no faster.
QUEUE_TEXELS: int = 1 << 17

_CLEARED = np.zeros(CHANNELS, dtype=np.float32)
_CLEARED.setflags(write=False)


class _Version:
    """One value of a texture in program order.

    ``array`` is filled when the producing command runs (a texture's
    value at queue time is its own array) and dropped once the version
    is superseded and its last reader has run.  A version references no
    command, so commands and versions form no reference cycles.
    """

    __slots__ = ("array", "level", "readers", "live")

    def __init__(self, array: np.ndarray | None, level: int):
        self.array = array
        self.level = level    # dependency depth of its producer; -1: ready
        self.readers = 0      # queued commands still to read it
        self.live = True      # still its texture's latest version


class _Command:
    """One queued launch: the versions it reads and the one it writes.

    ``level`` is one more than the deepest producer level it reads;
    ``key`` groups launches that can run as one stacked evaluation
    (``None``: run alone).
    """

    __slots__ = ("shader", "height", "width", "inputs", "uniforms",
                 "output", "level", "key")

    def __init__(self, shader, height, width, inputs, uniforms, output,
                 level, key):
        self.shader = shader
        self.height = height
        self.width = width
        self.inputs = inputs
        self.uniforms = uniforms
        self.output = output
        self.level = level
        self.key = key


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
        self._commands: list[_Command] = []
        self._touched: list[Texture2D] = []
        self._queued_texels = 0

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
        """Queue a fragment program over ``target``'s extents.

        All bound textures must be device-resident (uploaded or rendered
        on this device).  Bindings are checked and the launch is
        appended to the counters now; the shader runs as its compiled
        plan when the queue flushes, and its result then overwrites
        ``target.data``.

        Raises
        ------
        ShaderError
            At call time, if a binding is missing, not resident, the
            target itself, or of the wrong shape, or a uniform has the
            wrong size.  A refused launch leaves nothing queued.
        """
        self._check_bindings(shader.name, target, textures)
        _, uniforms = coerce_bindings(
            shader, {name: tex._data for name, tex in textures.items()},
            uniforms)
        height, width = target.height, target.width
        cost, timing = self.cost_model.launch_time(shader, width, height)
        self.counters.record_launch(KernelLaunchRecord(
            kernel=shader.name,
            width=width,
            height=height,
            cycles_per_fragment=cost.cycles_per_fragment,
            static_fetches=cost.static_fetches,
            dynamic_fetches=cost.dynamic_fetches,
            modeled_time_s=timing.total_s,
            compute_time_s=timing.compute_s,
            memory_time_s=timing.memory_s))

        if self._queued_texels + height * width > QUEUE_TEXELS:
            self.flush()
        self._queued_texels += height * width

        inputs = {}
        level = 0
        shape = target._data.shape
        stackable = True
        for name, tex in textures.items():
            version = inputs[name] = self._read(tex)
            level = max(level, version.level + 1)
            stackable = stackable and tex._data.shape == shape
        key = stack_signature(shader).key
        self._commands.append(_Command(
            shader, height, width, inputs, uniforms,
            self._write(target, None, level), level,
            (key, height, width) if stackable and key else None))
        return target

    # Only perfbench/layers.py needs this alias: it wraps it by name.
    launch_fused = launch

    def clear(self, texture: Texture2D) -> Texture2D:
        """Queue a zero-fill of ``texture`` (``glClear``).

        Like a host write of zeros it is not modeled and adds no launch
        record; unlike one, it does not flush the queue.
        """
        self._write(texture, np.broadcast_to(
            _CLEARED, (texture.height, texture.width, CHANNELS)), -1)
        return texture

    def _claim(self, tex: Texture2D) -> None:
        """Track ``tex`` in this device's queue (flushing another
        device's queue that still holds it)."""
        pending = tex._pending
        if pending is not self:
            if pending is not None:
                pending.flush()
            tex._pending = self
            self._touched.append(tex)

    def _read(self, tex: Texture2D) -> _Version:
        self._claim(tex)
        version = tex._version
        if version is None:
            version = tex._version = _Version(tex._data, -1)
        version.readers += 1
        return version

    def _write(self, tex: Texture2D, array: np.ndarray | None,
               level: int) -> _Version:
        self._claim(tex)
        old = tex._version
        if old is not None:
            old.live = False
            if not old.readers:
                old.array = None
        version = tex._version = _Version(array, level)
        return version

    def flush(self) -> None:
        """Run every queued launch (``glFinish``).

        Commands run level by level: a command's level is one more than
        that of the deepest producer it reads, so each runs after the
        launches it depends on, and accumulation chains keep their
        float order.  Within a level, launches with equal stack keys run
        as one stacked evaluation; the rest run one by one.  Each touched texture's last version is
        then copied into its ``data`` in place.
        """
        commands, touched = self._commands, self._touched
        if not touched:
            return
        self._commands, self._touched, self._queued_texels = [], [], 0
        try:
            levels: dict[int, list[_Command]] = {}
            for cmd in commands:
                levels.setdefault(cmd.level, []).append(cmd)
            del commands
            for level in sorted(levels):
                groups: dict[tuple, list[_Command]] = {}
                for cmd in levels.pop(level):
                    if cmd.key is None:
                        self._run_one(cmd)
                    else:
                        groups.setdefault(cmd.key, []).append(cmd)
                for group in groups.values():
                    self._run_stack(group)
        finally:
            for tex in touched:
                version = tex._version
                tex._pending = tex._version = None
                if version.array is not None and version.array is not tex._data:
                    tex._data[...] = version.array

    def _run_one(self, cmd: _Command) -> None:
        out = np.empty((cmd.height, cmd.width, CHANNELS), dtype=np.float32)
        out[...] = execute_lazy(
            cmd.shader, cmd.height, cmd.width,
            {name: v.array for name, v in cmd.inputs.items()}, cmd.uniforms)
        self._retire(cmd, out)

    def _run_stack(self, group: list[_Command]) -> None:
        if len(group) == 1:
            self._run_one(group[0])
            return
        first = group[0]
        plan_textures = {name: [cmd.inputs[name].array for cmd in group]
                         for name in first.shader.samplers}
        plan_uniforms = {name: [cmd.uniforms[name] for cmd in group]
                         for name in first.shader.uniforms}
        shape = (len(group), first.height, first.width, CHANNELS)
        result = execute_stacked(
            first.shader, [stack_signature(cmd.shader).offsets for cmd in group],
            first.height, first.width, plan_textures, plan_uniforms)
        # A fresh writable (B, H, W, 4) result is this evaluation's own;
        # anything else (a broadcast, a view) is copied out.
        if (result.shape != shape or not result.flags.writeable
                or not result.flags.c_contiguous):
            out = np.empty(shape, dtype=np.float32)
            out[...] = result
            result = out
        for j, cmd in enumerate(group):
            self._retire(cmd, result[j])

    @staticmethod
    def _retire(cmd: _Command, array: np.ndarray) -> None:
        output = cmd.output
        output.array = array if output.live or output.readers else None
        for version in cmd.inputs.values():
            version.readers -= 1
            if not version.readers and not version.live:
                version.array = None

    def _check_bindings(self, kernel_name: str, target: Texture2D,
                        textures: dict[str, Texture2D]) -> None:
        """Residency and hazard checks of one launch."""
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

    # ------------------------------------------------------------ download
    def download(self, texture: Texture2D) -> np.ndarray:
        """Read a texture back to the host (counted as a bus transfer).

        Flushes the queue first.
        """
        self.flush()
        self.counters.record_transfer(TransferRecord(
            direction="download", nbytes=texture.nbytes,
            modeled_time_s=self.cost_model.transfer_time(texture.nbytes)))
        return texture.data.copy()

    def download_scalar(self, texture: Texture2D) -> np.ndarray:
        """Read back only the x channel as an (H, W) array.

        Modeled as a quarter-size transfer: real implementations read a
        single-channel framebuffer for scalar results.  Flushes the queue
        first.
        """
        self.flush()
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
