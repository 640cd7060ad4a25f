"""Scaling — serial vs multi-core chunked execution of the AMC
morphological stage.

The paper's argument is that the streaming decomposition lets
data-parallel hardware eat the morphological stage; `repro.parallel`
makes the same argument on the host by dispatching halo-carrying chunks
across a process pool.  This bench records the serial-vs-parallel wall
time of the morphological stage (the runtime-dominant stage) over a
worker sweep, reports the speedup and the redundant halo lines each
configuration pays, and asserts the parallel results stay bit-identical
to serial — the property that makes the whole exercise legitimate.

Absolute speedups are host-dependent (core count, pool start-up); the
recorded artefact is the measurement, not a pass/fail threshold.
"""

import os
import time

import numpy as np

from repro.bench import format_table
from repro.core.mei import mei_reference
from repro.parallel import parallel_morphological_stage
from repro.profiling import Profiler

WORKERS = (1, 2, 4)
LINES, SAMPLES, BANDS = 96, 32, 32
RADIUS = 1


def _sweep(cube):
    outs = {}
    for workers in WORKERS:
        profiler = Profiler()
        start = time.perf_counter()
        mei, ero, dil, _ = parallel_morphological_stage(
            cube, RADIUS, backend="reference", n_workers=workers,
            profiler=profiler)
        wall = time.perf_counter() - start
        outs[workers] = (wall, mei, ero, dil, profiler.chunk_records)
    return outs


def test_parallel_scaling(benchmark, report):
    cube = np.random.default_rng(42).uniform(
        0.05, 1.0, size=(LINES, SAMPLES, BANDS))
    outs = benchmark.pedantic(_sweep, args=(cube,), rounds=1,
                              iterations=1, warmup_rounds=0)

    serial_wall = outs[WORKERS[0]][0]
    rows = []
    for workers in WORKERS:
        wall, _, _, _, records = outs[workers]
        ext = sum(r.ext_lines for r in records)
        halo_pct = 100.0 * (ext / LINES - 1.0)
        rows.append([workers, len(records), f"{wall * 1e3:.1f}",
                     f"{serial_wall / wall:.2f}x", f"{halo_pct:.1f}"])
    rows.append([f"(cores: {os.cpu_count()})", "", "", "", ""])
    report("parallel_scaling", format_table(
        f"Scaling — morphological stage, {LINES}x{SAMPLES}x{BANDS} cube, "
        f"reference backend",
        ["workers", "chunks", "wall ms", "speedup", "halo overhead %"],
        rows))

    # Correctness is worker-count-invariant — bit for bit.
    whole = mei_reference(cube, RADIUS)
    for workers in WORKERS:
        _, mei, ero, dil, _ = outs[workers]
        np.testing.assert_array_equal(mei, whole.mei)
        np.testing.assert_array_equal(ero, whole.erosion_index)
        np.testing.assert_array_equal(dil, whole.dilation_index)
