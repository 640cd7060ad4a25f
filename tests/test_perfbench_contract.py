"""The benchmark harness's hold on the package, checked in tier-1.

``perfbench/`` is frozen between benchmark changes, and two of its
lines reach into ``repro`` by name: ``layers.install`` wraps
``VirtualGPU.launch_fused`` and ``layers.job_counts`` reads the
``passes_fused`` and ``temporaries_elided`` keys of the GPU counter
summary.  This test imports the harness as it is, without editing it,
so removing either name fails here and not only in the benchmark's
smoke runs.
"""

import sys
from pathlib import Path

import pytest

from repro.core import AMCConfig, run_amc
from repro.gpu.device import VirtualGPU

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HARNESS_MODULES = ("layers", "spans", "spec")


@pytest.fixture()
def harness(monkeypatch):
    """``(layers, spans)`` imported from ``perfbench/``, then unloaded."""
    preloaded = {name for name in HARNESS_MODULES if name in sys.modules}
    assert not preloaded, f"harness module names taken: {preloaded}"
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    import spans

    yield layers, spans
    for name in HARNESS_MODULES:
        sys.modules.pop(name, None)


def test_harness_installs_and_reads_gpu_counts(harness, tiny_cube):
    layers, spans = harness
    launch = vars(VirtualGPU)["launch"]
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        tracer.active = True
        result = run_amc(tiny_cube, AMCConfig(n_classes=2, backend="gpu"))
    finally:
        tracer.active = False
        tracer.unwrap_all()
    assert vars(VirtualGPU)["launch"] is launch
    assert any(span.name == "gpu.launch" for span in tracer.spans)

    counts = layers.job_counts(result)
    summary = result.gpu_output.counters
    assert counts["gpu.launches"] == summary["kernel_launches"] > 0.0
    assert counts["gpu.passes_fused"] == 0.0
    assert counts["gpu.temporaries_elided"] == 0.0
