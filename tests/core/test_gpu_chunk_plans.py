"""Pinned chunk plans of the GPU morphology and unmixing planners.

Both planners size line-wise chunks against the board's VRAM through
:func:`repro.hsi.chunking.plan_chunks_for_budget`.  The expected plans
were captured from the per-module sizing code that rule replaced, so any
change to the budget arithmetic or the per-line footprints shows up
here as a changed chunk geometry.  Each case pins the chunk count and
the ``(ext_start, ext_stop, core_start, core_stop)`` bounds of the first
three chunks and the last one.
"""

import numpy as np
import pytest

import repro.core.amc_gpu as amc_gpu
import repro.core.unmix_gpu as unmix_gpu
from repro.bench.model import project_gpu_time
from repro.gpu import GEFORCE_7800GTX


class _Planned(Exception):
    """Carries the plan out of the pipeline before anything is allocated."""


def _captured_plan(monkeypatch, module, run):
    real = module.plan_chunks_for_budget

    def capture(*args, **kwargs):
        raise _Planned(real(*args, **kwargs))

    monkeypatch.setattr(module, "plan_chunks_for_budget", capture)
    with pytest.raises(_Planned) as planned:
        run()
    return planned.value.args[0]


def _geometry(plan):
    bounds = [(c.ext_start, c.ext_stop, c.core_start, c.core_stop)
              for c in plan]
    return len(plan), bounds[:3], bounds[-1]


def _cube(lines, samples, bands):
    # A read-only broadcast view: planning needs only the shape.
    return np.broadcast_to(np.float32(0.5), (lines, samples, bands))


@pytest.mark.parametrize("lines, samples, bands, radius, vram, expected", [
    (40, 8, 12, 1, 32 << 10,
     (8, [(0, 6, 0, 5), (4, 11, 5, 10), (9, 16, 10, 15)], (34, 40, 35, 40))),
    (37, 6, 21, 2, 64 << 10,
     (7, [(0, 8, 0, 6), (4, 14, 6, 12), (10, 20, 12, 18)], (34, 37, 36, 37))),
    (50, 5, 9, 3, 128 << 10,
     (4, [(0, 17, 0, 14), (11, 31, 14, 28), (25, 45, 28, 42)],
      (39, 50, 42, 50))),
    (30, 8, 12, 1, 256 << 20,
     (1, [(0, 30, 0, 30)], (0, 30, 0, 30))),
    (2166, 614, 216, 1, 256 << 20,
     (18, [(0, 127, 0, 126), (125, 253, 126, 252), (251, 379, 252, 378)],
      (2141, 2166, 2142, 2166))),
    (1500, 512, 224, 2, 128 << 20,
     (24, [(0, 66, 0, 64), (62, 130, 64, 128), (126, 194, 128, 192)],
      (1470, 1500, 1472, 1500))),
])
def test_morphology_plan_pinned(monkeypatch, lines, samples, bands, radius,
                                vram, expected):
    spec = GEFORCE_7800GTX.with_(vram_bytes=vram)
    plan = _captured_plan(
        monkeypatch, amc_gpu,
        lambda: amc_gpu.gpu_morphological_stage(
            _cube(lines, samples, bands), radius, spec=spec))
    assert _geometry(plan) == expected
    monkeypatch.undo()
    projected = project_gpu_time(spec, lines, samples, bands, radius)
    assert projected.chunks == expected[0]


@pytest.mark.parametrize("lines, samples, bands, classes, vram, expected", [
    (40, 8, 21, 3, 16 << 10,
     (7, [(0, 6, 0, 6), (6, 12, 6, 12), (12, 18, 12, 18)], (36, 40, 36, 40))),
    (25, 10, 24, 5, 32 << 10,
     (4, [(0, 7, 0, 7), (7, 14, 7, 14), (14, 21, 14, 21)], (21, 25, 21, 25))),
    (9, 7, 5, 2, 4 << 10,
     (5, [(0, 2, 0, 2), (2, 4, 2, 4), (4, 6, 4, 6)], (8, 9, 8, 9))),
    (2166, 614, 216, 16, 256 << 20,
     (9, [(0, 252, 0, 252), (252, 504, 252, 504), (504, 756, 504, 756)],
      (2016, 2166, 2016, 2166))),
])
def test_unmixing_plan_pinned(monkeypatch, lines, samples, bands, classes,
                              vram, expected):
    spec = GEFORCE_7800GTX.with_(vram_bytes=vram)
    endmembers = np.random.default_rng(classes).uniform(
        0.1, 1.0, size=(classes, bands))
    plan = _captured_plan(
        monkeypatch, unmix_gpu,
        lambda: unmix_gpu.gpu_unmix_classify(
            _cube(lines, samples, bands), endmembers, spec=spec))
    assert _geometry(plan) == expected
