"""Chunk-parallel execution of per-pixel kernels (any workload's map
stage).

The morphological stage got its own parallel driver
(:func:`~repro.parallel.amc.parallel_morphological_stage`) because it
stitches three maps and sums device accounting.  Every *other* workload
stage this repo runs — SAM / CEM / RX scoring, PCA projection — is a
plain per-pixel map: one kernel, fixed global payload (a target
spectrum, an inverse covariance, fitted components), one output plane
(or a (H, W, K) stack).  :func:`parallel_pixel_map` is the shared
driver for that shape, built on the same machinery and with the same
guarantees:

* the line-wise chunk plan of :mod:`repro.hsi.chunking` (halo 0 for
  point kernels; a stencil kernel declares its halo);
* the worker pool of :mod:`repro.parallel.pool` with its bounded
  retries, per-chunk deadlines and in-process recovery — including the
  ``"chunk"`` fault-injection site, so the chaos tests exercise these
  stages exactly like the morphological one;
* per-chunk :class:`~repro.profiling.profiler.ChunkRecord` and retry
  events on the caller's profiler;
* bit-identical stitching: the serial path (``n_workers <= 1``) runs
  the *same* kernel over the whole image, and the kernels this repo
  registers are per-pixel independent (non-optimized einsum, fixed
  reduction order), so chunk geometry cannot change a single bit.
"""

from __future__ import annotations

import os
import time
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import ShapeError
from repro.faults import maybe_inject
from repro.hsi.chunking import plan_chunks_by_lines
from repro.parallel.pool import record_outcome, resolve_workers, run_tasks
from repro.profiling.profiler import ChunkRecord, Profiler
from repro.resilience import RetryPolicy


class _MapJob(NamedTuple):
    """One map's state, as each worker holds it."""

    bip: np.ndarray
    kernel: Callable
    payload: tuple
    halo: int


def _map_chunk(job: _MapJob, chunk):
    """Run the kernel on one chunk's extended region; return its core."""
    maybe_inject("chunk", index=chunk.index, ext_lines=chunk.ext_lines)
    sub = job.bip[chunk.ext_start:chunk.ext_stop]
    start = time.perf_counter()
    out = job.kernel(sub, *job.payload)
    wall = time.perf_counter() - start
    record = ChunkRecord(index=chunk.index, core_lines=chunk.core_lines,
                         ext_lines=chunk.ext_lines, halo=job.halo,
                         wall_s=wall, upload_s=0.0, compute_s=wall,
                         download_s=0.0, worker=os.getpid())
    return np.ascontiguousarray(chunk.core_of(out)), record


def parallel_pixel_map(bip: np.ndarray, kernel, payload: tuple = (), *,
                       halo: int = 0, n_workers: int = 0,
                       n_chunks: int | None = None,
                       profiler: Profiler | None = None,
                       policy: RetryPolicy | None = None) -> np.ndarray:
    """Map a per-pixel kernel over an image, chunk-parallel.

    Parameters
    ----------
    bip:
        (H, W, N) radiance cube, band-interleaved-by-pixel.
    kernel:
        A picklable callable ``kernel(sub_bip, *payload)`` returning an
        array whose first axis is the sub-image's line axis — an
        (h, W) score plane or an (h, W, K) stack.  Must be per-pixel
        independent within its declared ``halo`` for the chunked result
        to equal the whole-image call (every kernel this repo registers
        is; a property test pins it).
    payload:
        Global, read-only kernel arguments (precomputed statistics),
        shipped to each worker once per call, in the job's state.
    halo:
        Lines of context each chunk carries per interior edge (0 for
        point kernels).
    n_workers:
        Pool size (0 = all cores, 1 = serial in-process: the same
        kernel runs once over the whole image).
    n_chunks:
        Chunk count (default: one per worker).
    profiler:
        Optional profiler; receives one chunk record per chunk plus
        resilience events.
    policy:
        Optional :class:`~repro.resilience.RetryPolicy` — per-chunk
        retry budget and deadline.

    Returns
    -------
    numpy.ndarray
        The stitched (H, W[, K]) result, bit-identical to
        ``kernel(bip, *payload)``.
    """
    bip = np.asarray(bip)
    if bip.ndim != 3:
        raise ShapeError(f"expected (H, W, N), got ndim={bip.ndim}")
    lines, samples, bands = bip.shape
    workers = resolve_workers(n_workers)
    if n_workers == 1:
        return np.asarray(kernel(bip, *payload))
    pieces = workers if n_chunks is None else int(n_chunks)
    pieces = max(1, min(pieces, lines))
    core_lines = -(-lines // pieces)               # ceil division
    plan = plan_chunks_by_lines(lines, samples, bands,
                                max_ext_lines=core_lines + 2 * halo,
                                halo=halo)
    results = run_tasks(plan, _map_chunk, _MapJob,
                        (bip, kernel, tuple(payload), halo), workers,
                        policy=policy, profiler=profiler)

    out: np.ndarray | None = None
    for index, outcome in enumerate(results):
        core, record = outcome.value
        chunk = plan.chunks[index]
        if out is None:
            out = np.empty((lines, *core.shape[1:]), dtype=core.dtype)
        out[chunk.core_start:chunk.core_stop] = core
        record_outcome(profiler, outcome, index, record)
    return out
