"""Stream kernels: fragment programs with a stream-level signature.

A :class:`StreamKernel` wraps a validated
:class:`~repro.gpu.shader.FragmentShader` and names which of its samplers
are stream inputs (the uniforms pass through).  The order-independence
requirement of the stream model — *"their semantic must not depend on the
order in which output elements are produced"* — is structural here: the
shader IR has no way to express cross-fragment communication, so any
expressible kernel satisfies it by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StreamError
from repro.gpu import shaderir as ir
from repro.gpu.shader import FragmentShader


@dataclass(frozen=True)
class StreamKernel:
    """A kernel in the stream model.

    Attributes
    ----------
    shader:
        The fragment program that computes one output record.
    inputs:
        Sampler names, in the order callers pass streams.  Must cover the
        shader's declared samplers exactly.
    """

    shader: FragmentShader
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if set(self.inputs) != set(self.shader.samplers):
            raise StreamError(
                f"kernel {self.shader.name!r}: inputs {self.inputs} do not "
                f"cover samplers {self.shader.samplers}")
        if len(set(self.inputs)) != len(self.inputs):
            raise StreamError(
                f"kernel {self.shader.name!r}: duplicate input names")

    @property
    def name(self) -> str:
        return self.shader.name

    @classmethod
    def from_expression(cls, name: str, body: ir.Expr,
                        inputs: tuple[str, ...],
                        uniforms: tuple[str, ...] = ()) -> "StreamKernel":
        """Build and validate a kernel from an IR expression."""
        shader = FragmentShader(name, body, samplers=inputs,
                                uniforms=uniforms)
        return cls(shader=shader, inputs=inputs)


# ---------------------------------------------------------------------------
# A small standard library of kernels, enough to build the example
# pipelines without touching the IR directly.
# ---------------------------------------------------------------------------

def map_binary(name: str, op: str) -> StreamKernel:
    """Element-wise binary kernel: ``out = a <op> b``."""
    body = ir.Op(op, (ir.TexFetch("a"), ir.TexFetch("b")))
    return StreamKernel.from_expression(name, body, inputs=("a", "b"))


def map_scale_bias(name: str) -> StreamKernel:
    """``out = a * scale + bias`` with uniform scale/bias."""
    body = ir.add(ir.mul(ir.TexFetch("a"), ir.Uniform("scale")),
                  ir.Uniform("bias"))
    return StreamKernel.from_expression(name, body, inputs=("a",),
                                        uniforms=("scale", "bias"))


def reduce_dot(name: str) -> StreamKernel:
    """``out = acc + dot(a, b)`` — the accumulation step of a band-wise
    reduction chain."""
    body = ir.add(ir.TexFetch("acc"),
                  ir.dot4(ir.TexFetch("a"), ir.TexFetch("b")))
    return StreamKernel.from_expression(name, body, inputs=("acc", "a", "b"))


def stencil_sum(name: str, offsets: tuple[tuple[int, int], ...]) -> StreamKernel:
    """``out = sum over offsets of a(x + o)`` — a fixed-window stencil."""
    if not offsets:
        raise StreamError("stencil needs at least one offset")
    body: ir.Expr = ir.TexFetch("a", offsets[0][1], offsets[0][0])
    for dy, dx in offsets[1:]:
        body = ir.add(body, ir.TexFetch("a", dx, dy))
    return StreamKernel.from_expression(name, body, inputs=("a",))


def convolve2d(name: str, weights) -> StreamKernel:
    """Fixed-coefficient 2-D convolution (correlation) kernel.

    ``weights`` is a small 2-D array of odd extents; each non-zero
    coefficient becomes one fetch+MAD.  Coefficients are compile-time
    constants of the fragment program, the way small filters were
    unrolled into 2005-era shaders.
    """
    import numpy as np

    # Filter design happens host-side at shader-compile time; the
    # coefficients become float32 IR constants below.
    weights = np.asarray(weights, dtype=np.float64)  # reprolint: disable=dtype-discipline
    if weights.ndim != 2 or weights.size == 0:
        raise StreamError(f"weights must be a non-empty 2-D array, got "
                          f"shape {weights.shape}")
    if weights.shape[0] % 2 == 0 or weights.shape[1] % 2 == 0:
        raise StreamError(f"weights extents must be odd, got "
                          f"{weights.shape}")
    cy, cx = weights.shape[0] // 2, weights.shape[1] // 2
    body: ir.Expr | None = None
    for y in range(weights.shape[0]):
        for x in range(weights.shape[1]):
            w = float(weights[y, x])  # reprolint: disable=dtype-discipline
            if w == 0.0:
                continue
            term = ir.mul(ir.TexFetch("a", x - cx, y - cy), ir.vec4(w))
            body = term if body is None else ir.add(body, term)
    if body is None:
        raise StreamError("weights are all zero")
    return StreamKernel.from_expression(name, body, inputs=("a",))


def gaussian_blur(name: str, radius: int = 1,
                  sigma: float | None = None) -> StreamKernel:
    """An unrolled (2r+1)^2 Gaussian blur, weights normalized to 1."""
    import numpy as np

    if radius < 1:
        raise StreamError(f"radius must be >= 1, got {radius}")
    if sigma is None:
        sigma = radius / 1.5
    # Gaussian weight design in host precision, quantized by convolve2d.
    axis = np.arange(-radius, radius + 1, dtype=np.float64)  # reprolint: disable=dtype-discipline
    one_d = np.exp(-0.5 * (axis / sigma) ** 2)
    weights = np.outer(one_d, one_d)
    weights /= weights.sum()
    return convolve2d(name, weights)


def sobel_magnitude(name: str) -> StreamKernel:
    """Gradient-magnitude-squared of lane x (edge detector).

    ``out = gx^2 + gy^2`` with the 3x3 Sobel operators — squared rather
    than rooted so the kernel stays a pure MAD chain (fp30 idiom: defer
    the sqrt to whoever needs calibrated units).
    """
    gx = convolve2d(f"{name}_gx", [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]])
    gy = convolve2d(f"{name}_gy", [[-1, -2, -1], [0, 0, 0], [1, 2, 1]])
    body = ir.add(ir.mul(gx.shader.body, gx.shader.body),
                  ir.mul(gy.shader.body, gy.shader.body))
    return StreamKernel.from_expression(name, body, inputs=("a",))
