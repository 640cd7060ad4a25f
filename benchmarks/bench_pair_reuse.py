"""Pair reuse — all-pairs loop vs the shift-reuse engine.

The morphological stage evaluates one SID map per unordered SE-offset
pair: ``K(K-1)/2`` full-image band reductions.  The shift-reuse engine
(:mod:`repro.core.pairreuse`) exploits the translation invariance of
``SID(f(x + a), f(x + b))`` to pay only one reduction per *unique
offset difference* (plus the direct zero-offset pairs and the border
bands) — the "maximize computation reuse" hand-tuning principle the
paper applies to its CPU codes.  This bench times the all-pairs oracle
(``mei_all_pairs``) against the engine (``mei_reference``) over a
radius/size sweep, reports the wall times, the measured reuse ratio,
and the border-recompute overhead, and asserts the outputs stay
bit-identical — the property that lets the engine replace the loop.

Absolute speedups are host-dependent; the recorded artefact is the
measurement.
"""

import time

import numpy as np

from repro.bench import format_table
from repro.core.mei import mei_all_pairs, mei_reference

CASES = (
    # (lines, samples, bands, radius)
    (64, 64, 32, 1),
    (96, 96, 32, 2),
    (64, 64, 32, 3),
)


def _measure(cube, radius):
    start = time.perf_counter()
    pairs, _ = mei_all_pairs(cube, radius)
    pairs_s = time.perf_counter() - start
    start = time.perf_counter()
    shift = mei_reference(cube, radius)
    shift_s = time.perf_counter() - start
    return pairs, pairs_s, shift, shift_s


def _sweep():
    rng = np.random.default_rng(20060815)
    outs = []
    for lines, samples, bands, radius in CASES:
        cube = rng.uniform(0.05, 1.0, size=(lines, samples, bands))
        outs.append((cube.shape, radius, *_measure(cube, radius)))
    return outs


def test_pair_reuse(benchmark, report):
    outs = benchmark.pedantic(_sweep, rounds=1, iterations=1,
                              warmup_rounds=0)

    rows = []
    for shape, radius, pairs, pairs_s, shift, shift_s in outs:
        stats = shift.stats
        border_pct = 100.0 * stats.border_pixels \
            / (stats.total_pixels * max(stats.pair_maps, 1))
        rows.append([
            "x".join(str(n) for n in shape), radius,
            f"{pairs_s * 1e3:.1f}", f"{shift_s * 1e3:.1f}",
            f"{pairs_s / shift_s:.2f}x",
            f"{stats.reuse_ratio:.2f}",
            f"{border_pct:.2f}",
        ])
    report("pair_reuse", format_table(
        "Pair reuse — cumulative SID maps, all-pairs vs shift-reuse",
        ["cube", "radius", "pairs ms", "shift ms", "speedup",
         "reuse ratio", "border %"],
        rows))

    # The fast path is only legitimate because it is bit-identical.
    for shape, radius, pairs, pairs_s, shift, shift_s in outs:
        np.testing.assert_array_equal(shift.mei, pairs.mei)
        np.testing.assert_array_equal(shift.cumulative, pairs.cumulative)
