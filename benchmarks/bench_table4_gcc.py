"""Table 4 — execution time (ms) for CPU and GPU implementations, gcc
builds, over the six image sizes.

Paper (gcc 4.0): four platforms x six sizes; headline observations:
linear scaling with size, GPU speedup "close to 55" over the P4, ~400%
between GPU generations, <10% between CPU generations.

Here: the six paper-size rows come from the analytic projection (which
the test suite proves equal to the simulator's counters), and a measured
CPU-time sweep of the *actual implementations* (vectorized CPU code
and the full GPU simulator) at reduced scale verifies the linear-scaling
claim on real executions.

Note on absolute values: the paper's own table is internally inconsistent
(547 MB in 12 ms exceeds the 7800 GTX's memory bandwidth; the text says
"12 seconds" for the same configuration), so this reproduction matches
*ratios and scaling*, not milliseconds — see EXPERIMENTS.md.
"""

import time

import numpy as np
import pytest

from repro.bench import format_table, paper_size_points, platform_matrix
from repro.bench.paper_data import (
    PAPER_TABLE4_GCC_MS,
    paper_scaling_slopes,
    paper_speedups,
)
from repro.bench.scaling import speedup_summary
from repro.core.amc_gpu import gpu_morphological_stage
from repro.cpu import GCC40, cpu_morphological_stage


def _modeled_table():
    points = paper_size_points()
    columns = platform_matrix(points, cpu_build=GCC40)
    rows = []
    for i, point in enumerate(points):
        rows.append([f"{point.size_mb:.0f}",
                     columns["P4 C"][i], columns["Prescott"][i],
                     columns["FX5950 U"][i], columns["7800 GTX"][i]])
    return columns, rows


def test_table4_modeled(benchmark, report):
    columns, rows = benchmark.pedantic(_modeled_table, rounds=1,
                                       iterations=1, warmup_rounds=0)
    table = format_table(
        "Table 4 — execution time (ms), gcc builds (modeled, paper sizes)",
        ["Size (MB)", "P4 C", "Prescott", "FX5950 U", "7800 GTX"], rows)
    ratios = speedup_summary(columns)
    paper = paper_speedups(PAPER_TABLE4_GCC_MS)
    table += ("\n\nheadline ratios, modeled vs the paper's own table "
              "(mean over sizes):"
              f"\n  P4/7800 GTX     = {ratios['p4_over_7800']:.1f}x"
              f"   (paper: {paper['p4_over_7800']:.1f}x, text: ~55x)"
              f"\n  FX5950/7800 GTX = {ratios['fx5950_over_7800']:.1f}x"
              f"   (paper: {paper['fx5950_over_7800']:.1f}x)"
              f"\n  P4/FX5950       = {ratios['p4_over_fx5950']:.1f}x"
              f"   (paper: {paper['p4_over_fx5950']:.1f}x)"
              f"\n  P4/Prescott     = {ratios['p4_over_prescott']:.2f}x"
              f"   (paper: {paper['p4_over_prescott']:.2f}x)"
              "\nscaling slope time(547)/time(68), modeled vs paper:"
              + "".join(
                  f"\n  {label:<10} {columns[label][-1] / columns[label][0]:.2f}"
                  f"  (paper: {slope:.2f})"
                  for label, slope in
                  paper_scaling_slopes(PAPER_TABLE4_GCC_MS).items()))
    report("table4_gcc", table)

    # Linear scaling: time(547)/time(68) must track the size ratio (~8x).
    for label in ("P4 C", "Prescott", "FX5950 U", "7800 GTX"):
        col = columns[label]
        assert col[-1] / col[0] == pytest.approx(8.0, rel=0.15), label
    # Ordering: every GPU beats every CPU at every size; 7800 beats FX.
    for i in range(6):
        assert columns["7800 GTX"][i] < columns["FX5950 U"][i] \
            < columns["P4 C"][i]


# Measured sweep sizes (lines of a 64-sample, 64-band scene).
_MEASURED_LINES = (32, 64, 128)
#: Runs per size; the fastest counts.
_MEASURED_REPEATS = 3


def _measured_sweep(device: str):
    """Process CPU time of each size, best of ``_MEASURED_REPEATS``.

    CPU time leaves out what the host gives other processes, and the
    best of a few runs leaves out a slow stretch, so the size ratio the
    scaling check reads is the code's, not the host's.
    """
    rng = np.random.default_rng(5)
    cube = rng.uniform(0.05, 1.0, size=(max(_MEASURED_LINES), 64, 64))
    times = []
    for lines in _MEASURED_LINES:
        sub = cube[:lines]
        best = float("inf")
        for _ in range(_MEASURED_REPEATS):
            start = time.process_time()
            if device == "cpu":
                cpu_morphological_stage(sub, compiler=GCC40)
            else:
                gpu_morphological_stage(sub)
            best = min(best, time.process_time() - start)
        times.append(best)
    return times


def test_table4_measured_cpu_scaling(benchmark, report):
    times = benchmark.pedantic(_measured_sweep, args=("cpu",), rounds=1,
                               iterations=1, warmup_rounds=0)
    rows = [[lines, t * 1e3] for lines, t in zip(_MEASURED_LINES, times)]
    report("table4_measured_cpu",
           format_table("Table 4 (measured) — CPU time of the scalar-"
                        "structured CPU build, reduced scale (best of "
                        f"{_MEASURED_REPEATS})",
                        ["lines", "cpu ms"], rows))
    # Linear scaling on real executions between the two largest sizes
    # (the smallest run is distorted by interpreter fixed costs and by
    # the working set dropping into cache).
    assert times[2] / times[1] == pytest.approx(2.0, rel=0.35)


def test_table4_measured_gpu_scaling(benchmark, report):
    times = benchmark.pedantic(_measured_sweep, args=("gpu",), rounds=1,
                               iterations=1, warmup_rounds=0)
    rows = [[lines, t * 1e3] for lines, t in zip(_MEASURED_LINES, times)]
    report("table4_measured_gpu",
           format_table("Table 4 (measured) — CPU time of the GPU "
                        "simulator, reduced scale (best of "
                        f"{_MEASURED_REPEATS})",
                        ["lines", "cpu ms"], rows))
    assert times[2] > times[0]  # monotone in problem size
