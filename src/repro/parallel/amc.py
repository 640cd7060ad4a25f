"""Chunk-parallel execution of the AMC morphological stage.

The morphological stage dominates AMC's runtime (paper Table 4/5: it is
*the* stage worth porting to the GPU), and it is local: every output
pixel depends only on its SE neighbourhood, so the line-wise chunk plan
of :mod:`repro.hsi.chunking` with ``halo = se_radius`` splits the image
into fully independent pieces.  This module fans those pieces out
through the chunk driver :func:`repro.parallel.map.run_chunked` and
stitches MEI / erosion / dilation maps bit-identically to whole-image
execution:

* normalization is per-pixel (each pixel vector sums to 1), so it
  commutes with chunking;
* every core pixel's SE window lies inside its chunk's extended region,
  so clamp-to-edge addressing only ever fires at true image borders —
  which coincide with extended-region borders on the first/last chunk;
* erosion/dilation indices are *SE-neighbour* indices (row-major into
  :func:`repro.core.mei.se_offsets`), positions relative to each pixel,
  so they stitch without translation.

Backends are resolved through :mod:`repro.backends`: each worker calls
:meth:`~repro.backends.MorphologicalBackend.run_chunk` on its chunk's
extended region — any registered backend (including custom ones) is
chunk-parallel for free.  With the built-in ``"gpu"`` backend each
chunk runs the full stream pipeline on its own
:class:`~repro.gpu.device.VirtualGPU` — the multi-board reading of the
paper's decomposition — and the per-board accounting is summed into one
:class:`~repro.core.amc_gpu.GpuAmcOutput` (``modeled_time_s`` is total
device work, not the parallel makespan).
"""

from __future__ import annotations

import numpy as np

from repro.backends import get_backend
from repro.core.pairreuse import sum_reuse_counters
from repro.gpu.spec import GEFORCE_7800GTX, GpuSpec
from repro.parallel.map import as_cube, run_chunked
# Only perfbench/layers.py needs this name: it wraps it by name.
from repro.parallel.pool import run_tasks  # noqa: F401
from repro.profiling.profiler import Profiler
from repro.resilience import RetryPolicy


def _morph_run(sub: np.ndarray, chunk, radius: int, backend, spec: GpuSpec,
               maps: tuple):
    """Run the morphological stage on one chunk's extended region and
    write its core rows into ``maps`` (mei, erosion, dilation); returns
    ``((accounting, stats), split)``."""
    piece = backend.run_chunk(sub, radius, spec=spec)
    core = slice(chunk.core_start, chunk.core_stop)
    for out, full in zip(maps, (piece.mei, piece.erosion_index,
                                piece.dilation_index)):
        out[core] = chunk.core_of(full)
    return (piece.accounting, piece.stats), piece.split


def parallel_morphological_stage(bip: np.ndarray, radius: int = 1, *,
                                 backend="reference",
                                 n_workers: int = 0,
                                 n_chunks: int | None = None,
                                 gpu_spec: GpuSpec = GEFORCE_7800GTX,
                                 profiler: Profiler | None = None,
                                 policy: RetryPolicy | None = None):
    """Run the morphological stage chunk-parallel across processes.

    Parameters
    ----------
    bip:
        (H, W, N) radiance cube, band-interleaved-by-pixel.
    radius:
        SE radius; doubles as the chunk halo.
    backend:
        A registered backend name (built-in: "reference" | "naive" |
        "gpu") or a :class:`~repro.backends.MorphologicalBackend`
        instance — which morphological implementation each worker runs.
    n_workers:
        Pool size (0 = all cores, 1 = serial in-process).
    n_chunks:
        How many chunks to split into (default: one per worker).  More
        chunks than workers improves load balance at the price of more
        redundant halo lines.
    gpu_spec:
        Board each worker simulates for ``backend="gpu"``.
    profiler:
        Optional profiler; receives one chunk record per chunk, plus
        resilience events (retries, recoveries, degradations).
    policy:
        Optional :class:`~repro.resilience.RetryPolicy` — per-chunk
        retry budget and deadline (see
        :func:`~repro.parallel.pool.run_tasks`).

    A :class:`~repro.errors.GpuOutOfMemoryError` from any chunk (a
    simulated board too small for its extended region) triggers
    graceful degradation: the image is re-planned with halved per-chunk
    core lines — down to single-line chunks — and retried.  Chunk
    geometry never changes the stitched values, so degraded runs stay
    bit-identical.

    Returns
    -------
    (mei, erosion_index, dilation_index, gpu_output)
        Stitched full-image maps, bit-identical to the serial
        implementations; ``gpu_output`` is the summed
        :class:`~repro.core.amc_gpu.GpuAmcOutput` for device backends,
        else ``None``.
    """
    bip = as_cube(bip)
    backend = get_backend(backend)
    lines, samples, _ = bip.shape
    maps = (np.empty((lines, samples), dtype=backend.mei_dtype),
            np.empty((lines, samples), dtype=np.int64),
            np.empty((lines, samples), dtype=np.int64))
    values = run_chunked(bip, _morph_run,
                         (radius, backend, gpu_spec, maps), halo=radius,
                         n_workers=n_workers, n_chunks=n_chunks,
                         outputs=maps, profiler=profiler, policy=policy)
    accountings = [acc for acc, _ in values if acc is not None]
    stats_dicts = [stats for _, stats in values if stats is not None]
    if profiler is not None and stats_dicts:
        # Sum the per-chunk shift-reuse counters into the morphology
        # stage record (the ratio is recomputed from the summed totals).
        profiler.record_stage_counters("morphology",
                                       sum_reuse_counters(stats_dicts))
    mei, erosion, dilation = maps
    gpu_output = backend.stitched_accounting(mei, erosion, dilation,
                                             radius, accountings)
    return mei, erosion, dilation, gpu_output
