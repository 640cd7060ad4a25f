"""Compiled plans vs the recursive oracle, over every production kernel.

Each fragment program :mod:`repro.core.amc_gpu` builds (radii 1-3 at
fusion widths ``(1, 6)``) and each one :mod:`repro.core.unmix_gpu`
launches is run through its compiled plan (``execute_lazy``, the path
``VirtualGPU.launch`` takes) and through ``execute``, the recursive
evaluator, with every fixed-offset fetch of the oracle run swapped for
the clamped-index gather; the texels must agree byte for byte.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.amc_gpu import _kernels
from repro.core.shifts import clamped_shift
from repro.core.unmix_gpu import gpu_unmix_classify
from repro.gpu import VirtualGPU, interpreter
from repro.gpu.interpreter import execute, execute_lazy
from repro.spectral.normalize import SpectralEpsilon

H, W = 6, 7


def _bindings(shader, rng):
    textures = {s: rng.uniform(-1.0, 2.0, size=(H, W, 4)).astype(np.float32)
                for s in shader.samplers}
    uniforms = {u: rng.uniform(-2.0, 2.0, size=4).astype(np.float32)
                for u in shader.uniforms}
    return textures, uniforms


@contextmanager
def _gather_fetches(monkeypatch):
    """Fixed-offset fetches as a fancy-indexing gather, so the oracle
    shares no fetch code with the plans' strided copies."""
    with monkeypatch.context() as patch:
        patch.setattr(interpreter, "_fetch_static",
                      lambda texture, dx, dy: clamped_shift(texture, dy, dx))
        yield


def _assert_plan_matches_oracle(shaders, rng, monkeypatch):
    for shader in shaders:
        textures, uniforms = _bindings(shader, rng)
        with _gather_fetches(monkeypatch):
            want = execute(shader, H, W, textures, uniforms).tobytes()
        got = np.empty((H, W, 4), dtype=np.float32)
        got[...] = execute_lazy(shader, H, W, textures, uniforms)
        assert got.tobytes() == want, shader.name


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_amc_kernel_set_matches_oracle(radius, monkeypatch):
    shaders = _kernels(radius, SpectralEpsilon.get(), (1, 6)).values()
    _assert_plan_matches_oracle(shaders, np.random.default_rng(radius),
                                monkeypatch)


def test_unmix_kernel_set_matches_oracle(monkeypatch):
    launched = {}
    real_launch = VirtualGPU.launch

    def recording(self, shader, *args, **kwargs):
        launched[shader.name] = shader
        return real_launch(self, shader, *args, **kwargs)

    monkeypatch.setattr(VirtualGPU, "launch", recording)
    rng = np.random.default_rng(5)
    cube = rng.uniform(0.05, 1.0, size=(5, 4, 21))
    gpu_unmix_classify(cube, rng.uniform(0.05, 1.0, size=(3, 21)))
    assert {"copy", "mm_init", "mm_step"} <= set(launched)
    assert any(name.startswith("bandsum_w") for name in launched)
    _assert_plan_matches_oracle(launched.values(), rng, monkeypatch)
