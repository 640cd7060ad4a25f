"""Fragment shader programs: declaration + validation.

A :class:`FragmentShader` is the unit the device launches: a named body
expression over declared samplers and uniforms.  Validation happens at
construction (the moment a real Cg program would fail to compile), so a
launch can assume a structurally sound program and only has to check the
*bindings* it receives.

A shader is immutable, so everything derived from its body — the
interpreter's straight-line plan, the cost model's static cycle count —
is built once per shader object by :meth:`FragmentShader.compiled` and
cached on the shader: compiled once, launched many times, on any device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ShaderValidationError
from repro.gpu import shaderir as ir


@dataclass(frozen=True)
class ShaderStats:
    """Static instruction statistics of a validated shader."""

    instruction_count: int
    static_fetches: int
    dynamic_fetches: int
    transcendental_count: int
    max_static_offset: int  # Chebyshev radius of constant fetch offsets


@dataclass(frozen=True)
class FragmentShader:
    """A validated fragment program.

    Parameters
    ----------
    name:
        Kernel name (appears in counter records and profiles).
    body:
        The output expression — the float4 written to the render target.
    samplers:
        Texture unit names the body may fetch from, in binding order.
    uniforms:
        Parameter names the body may reference.
    """

    name: str
    body: ir.Expr
    samplers: tuple[str, ...] = ()
    uniforms: tuple[str, ...] = ()
    _stats: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ShaderValidationError("shader needs a non-empty name")
        if len(set(self.samplers)) != len(self.samplers):
            raise ShaderValidationError(
                f"duplicate sampler names in {self.samplers}")
        if len(set(self.uniforms)) != len(self.uniforms):
            raise ShaderValidationError(
                f"duplicate uniform names in {self.uniforms}")
        sampler_set = set(self.samplers)
        uniform_set = set(self.uniforms)
        used_samplers: set[str] = set()
        used_uniforms: set[str] = set()

        n_instr = 0
        n_static = 0
        n_dyn = 0
        n_trans = 0
        max_off = 0
        for node in ir.walk(self.body):
            if isinstance(node, ir.TexFetch):
                if node.sampler not in sampler_set:
                    raise ShaderValidationError(
                        f"shader {self.name!r} fetches undeclared sampler "
                        f"{node.sampler!r}")
                used_samplers.add(node.sampler)
                n_static += 1
                n_instr += 1
                max_off = max(max_off, abs(node.dx), abs(node.dy))
            elif isinstance(node, ir.TexFetchDyn):
                if node.sampler not in sampler_set:
                    raise ShaderValidationError(
                        f"shader {self.name!r} fetches undeclared sampler "
                        f"{node.sampler!r}")
                used_samplers.add(node.sampler)
                n_dyn += 1
                n_instr += 1
            elif isinstance(node, ir.Uniform):
                if node.name not in uniform_set:
                    raise ShaderValidationError(
                        f"shader {self.name!r} references undeclared uniform "
                        f"{node.name!r}")
                used_uniforms.add(node.name)
            elif isinstance(node, ir.Op):
                n_instr += 1
                if node.op in ("log", "exp", "rcp", "sqrt", "div"):
                    n_trans += 1
            elif isinstance(node, (ir.Dot, ir.Select, ir.Combine)):
                n_instr += 1
            # Const / Uniform / FragCoord / Swizzle are free register reads.

        unused_samplers = sampler_set - used_samplers
        if unused_samplers:
            raise ShaderValidationError(
                f"shader {self.name!r} declares unused samplers "
                f"{sorted(unused_samplers)}")
        unused_uniforms = uniform_set - used_uniforms
        if unused_uniforms:
            raise ShaderValidationError(
                f"shader {self.name!r} declares unused uniforms "
                f"{sorted(unused_uniforms)}")
        self._stats["stats"] = ShaderStats(
            instruction_count=n_instr,
            static_fetches=n_static,
            dynamic_fetches=n_dyn,
            transcendental_count=n_trans,
            max_static_offset=max_off,
        )

    @property
    def stats(self) -> ShaderStats:
        """Static statistics computed at validation time."""
        return self._stats["stats"]

    def compiled(self, product, build):
        """The compile product ``product``, built by ``build(self)`` once.

        The result is cached on the shader, so every later launch — on
        any :class:`~repro.gpu.device.VirtualGPU`, in any job — reuses
        it instead of re-walking the IR.
        """
        value = self._stats.get(product)
        if value is None:
            value = self._stats[product] = build(self)
        return value
