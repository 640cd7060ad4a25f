"""The chunk-parallel driver, and the per-pixel map built on it.

Every chunked stage of this repo has the same shape: split the image
into halo-carrying line chunks (:mod:`repro.hsi.chunking`), run one
function per chunk on the worker pool of :mod:`repro.parallel.pool`,
and stitch the chunk outputs in plan order.  :func:`run_chunked` is
that shape, once:

* the line-wise chunk plan (one chunk per worker by default; a stencil
  stage declares its halo);
* one task per chunk, with the ``"chunk"`` fault-injection site, the
  pool's bounded retries, per-chunk deadlines and in-process recovery;
* graceful degradation: a :class:`~repro.errors.GpuOutOfMemoryError`
  re-plans the image with halved per-chunk core lines;
* one :class:`~repro.profiling.profiler.ChunkRecord` (and retry event)
  per chunk on the caller's profiler.

A stage plugs in a ``run(sub, chunk, *args)`` function:
:func:`~repro.parallel.amc.parallel_morphological_stage` writes each
chunk's core rows into shared maps, and :func:`parallel_pixel_map`
returns each chunk's core of a per-pixel kernel.  The serial path of
the map (``n_workers == 1``) runs the *same* kernel over the whole
image, and the kernels this repo registers are per-pixel independent
(non-optimized einsum, fixed reduction order), so chunk geometry cannot
change a single bit.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import GpuOutOfMemoryError, ShapeError
from repro.faults import maybe_inject
from repro.hsi.chunking import plan_chunks_by_lines
from repro.parallel.pool import resolve_workers, run_tasks
from repro.profiling.profiler import ChunkRecord, Profiler
from repro.resilience import RetryPolicy


def as_cube(bip) -> np.ndarray:
    """``bip`` as an (H, W, N) array; anything else is a ShapeError."""
    bip = np.asarray(bip)
    if bip.ndim != 3:
        raise ShapeError(f"expected (H, W, N), got ndim={bip.ndim}")
    return bip


class _ChunkJob(NamedTuple):
    """One chunked run's state, as each worker holds it."""

    bip: np.ndarray
    run: Callable
    args: tuple
    halo: int


def _chunk_task(job: _ChunkJob, chunk):
    """Run ``job.run`` on one chunk's extended region; returns
    ``(value, record)``.

    ``run`` returns ``(value, split)``: ``split`` is the chunk's
    ``(upload_s, compute_s, download_s)`` stream-phase split, or None
    to book the whole wall time as compute.
    """
    maybe_inject("chunk", index=chunk.index, ext_lines=chunk.ext_lines)
    start = time.perf_counter()
    value, split = job.run(chunk.extract(job.bip), chunk, *job.args)
    wall = time.perf_counter() - start
    upload, compute, download = (0.0, wall, 0.0) if split is None else split
    record = ChunkRecord(index=chunk.index, core_lines=chunk.core_lines,
                         ext_lines=chunk.ext_lines, halo=job.halo,
                         wall_s=wall, upload_s=upload, compute_s=compute,
                         download_s=download, worker=os.getpid())
    return value, record


def run_chunked(bip, run: Callable, args: tuple, *, halo: int,
                n_workers: int, n_chunks: int | None = None,
                outputs: tuple = (), profiler: Profiler | None = None,
                policy: RetryPolicy | None = None) -> list:
    """Run ``run(sub, chunk, *args)`` once per chunk of ``bip``.

    ``sub`` is the chunk's extended region (core plus ``halo`` lines
    per interior edge).  ``run``, ``args`` and what ``run`` returns
    must pickle; ``outputs`` names the arrays among ``args`` that
    ``run`` fills in place (see :func:`~repro.parallel.pool.run_tasks`).
    ``n_workers`` is the pool size (0 = all cores, 1 = in-process) and
    ``n_chunks`` the chunk count (default: one per worker).

    Returns the ``value`` of each chunk's ``(value, split)``, in plan
    order, after putting the chunk records on ``profiler``.
    """
    bip = as_cube(bip)
    lines, samples, bands = bip.shape
    workers = resolve_workers(n_workers)
    pieces = workers if n_chunks is None else int(n_chunks)
    core_lines = -(-lines // max(1, min(pieces, lines)))   # ceil division
    while True:
        plan = plan_chunks_by_lines(lines, samples, bands,
                                    max_ext_lines=core_lines + 2 * halo,
                                    halo=halo)
        try:
            outcomes = run_tasks(plan, _chunk_task, _ChunkJob,
                                 (bip, run, args, halo), workers,
                                 outputs=outputs, policy=policy,
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

    values = []
    for index, outcome in enumerate(outcomes):
        value, record = outcome.value
        values.append(value)
        if profiler is None:
            continue
        if outcome.retries:
            record = replace(record, retries=outcome.retries)
            profiler.record_event(
                "retry", f"chunk took {outcome.retries} extra attempt(s)"
                + (" (recovered in-process)" if outcome.recovered else ""),
                chunk_index=index)
        profiler.record_chunk(record)
    return values


def _kernel_core(sub: np.ndarray, chunk, kernel, payload: tuple):
    """A per-pixel kernel's output on one chunk, cut to its core."""
    return np.ascontiguousarray(chunk.core_of(kernel(sub, *payload))), None


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
        kernel runs once over the whole image, with no chunk record).
        Workload stages pass their config's ``n_workers``, so this is
        the one place a stage chooses between the two.
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
    bip = as_cube(bip)
    if n_workers == 1:
        return np.asarray(kernel(bip, *payload))
    return np.concatenate(run_chunked(
        bip, _kernel_core, (kernel, tuple(payload)), halo=halo,
        n_workers=n_workers, n_chunks=n_chunks, profiler=profiler,
        policy=policy))
