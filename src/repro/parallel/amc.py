"""Chunk-parallel execution of the AMC morphological stage.

The morphological stage dominates AMC's runtime (paper Table 4/5: it is
*the* stage worth porting to the GPU), and it is local: every output
pixel depends only on its SE neighbourhood, so the line-wise chunk plan
of :mod:`repro.hsi.chunking` with ``halo = se_radius`` splits the image
into fully independent pieces.  This module fans those pieces out over
the worker pool machinery of :mod:`repro.parallel.pool` and stitches
MEI / erosion / dilation maps bit-identically to whole-image execution:

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

import os
import time

import numpy as np

from repro.backends import MorphologicalBackend, get_backend
from repro.core.pairreuse import sum_reuse_counters
from repro.errors import GpuOutOfMemoryError, ShapeError
from repro.faults import maybe_inject
from repro.gpu.spec import GEFORCE_7800GTX, GpuSpec
from repro.hsi.chunking import plan_chunks_by_lines
from repro.parallel.pool import record_outcome, resolve_workers, run_tasks
from repro.profiling.profiler import ChunkRecord, Profiler
from repro.resilience import RetryPolicy

# Worker-side state, installed once per pool process by _init_worker.
# Plain module global: multiprocessing initializers cannot return state.
_STATE: dict = {}


def _init_worker(bip: np.ndarray, radius: int,
                 backend: MorphologicalBackend, spec: GpuSpec) -> None:
    _STATE["bip"] = bip
    _STATE["radius"] = radius
    _STATE["backend"] = backend
    _STATE["spec"] = spec


def _morph_chunk(chunk):
    """Run the morphological stage on one chunk's extended region."""
    maybe_inject("chunk", index=chunk.index, ext_lines=chunk.ext_lines)
    bip, radius = _STATE["bip"], _STATE["radius"]
    backend, spec = _STATE["backend"], _STATE["spec"]
    sub = bip[chunk.ext_start:chunk.ext_stop]
    start = time.perf_counter()
    piece = backend.run_chunk(sub, radius, spec=spec)
    wall = time.perf_counter() - start
    if piece.split is None:
        upload, compute, download = 0.0, wall, 0.0
    else:
        upload, compute, download = piece.split
    record = ChunkRecord(index=chunk.index, core_lines=chunk.core_lines,
                         ext_lines=chunk.ext_lines, halo=radius,
                         wall_s=wall, upload_s=upload, compute_s=compute,
                         download_s=download, worker=os.getpid())
    cores = tuple(np.ascontiguousarray(chunk.core_of(a))
                  for a in (piece.mei, piece.erosion_index,
                            piece.dilation_index))
    return chunk.index, cores, record, piece.accounting, piece.stats


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
    bip = np.asarray(bip)
    if bip.ndim != 3:
        raise ShapeError(f"expected (H, W, N), got ndim={bip.ndim}")
    backend = get_backend(backend)
    lines, samples, bands = bip.shape
    workers = resolve_workers(n_workers)
    pieces = workers if n_chunks is None else int(n_chunks)
    pieces = max(1, min(pieces, lines))
    core_lines = -(-lines // pieces)               # ceil division
    while True:
        plan = plan_chunks_by_lines(lines, samples, bands,
                                    max_ext_lines=core_lines + 2 * radius,
                                    halo=radius)
        try:
            results = run_tasks(plan, _morph_chunk, _init_worker,
                                (bip, radius, backend, gpu_spec), workers,
                                state=_STATE, policy=policy,
                                profiler=profiler)
            break
        except GpuOutOfMemoryError as exc:
            if core_lines <= 1:
                raise
            smaller = max(1, core_lines // 2)
            if profiler is not None:
                detail = f"core lines per chunk {core_lines} -> {smaller}"
                if exc.requested is not None:
                    detail += (f" (requested={exc.requested}, "
                               f"free={exc.free})")
                profiler.record_event("oom_degrade", detail)
            core_lines = smaller

    mei = np.empty((lines, samples), dtype=backend.mei_dtype)
    erosion = np.empty((lines, samples), dtype=np.int64)
    dilation = np.empty((lines, samples), dtype=np.int64)
    accountings = []
    stats_dicts = []
    for outcome in results:
        index, cores, record, accounting, stats = outcome.value
        chunk = plan.chunks[index]
        core = slice(chunk.core_start, chunk.core_stop)
        mei[core], erosion[core], dilation[core] = cores
        record_outcome(profiler, outcome, index, record)
        if accounting is not None:
            accountings.append(accounting)
        if stats is not None:
            stats_dicts.append(stats)

    if profiler is not None and stats_dicts:
        # Sum the per-chunk shift-reuse counters into the morphology
        # stage record (the ratio is recomputed from the summed totals).
        profiler.record_stage_counters("morphology",
                                       sum_reuse_counters(stats_dicts))
    gpu_output = backend.stitched_accounting(mei, erosion, dilation,
                                             radius, accountings)
    return mei, erosion, dilation, gpu_output
