"""Multi-core execution of chunked pipelines (chunk = unit of work).

The chunk plans of :mod:`repro.hsi.chunking` decompose an image into
independent halo-carrying pieces — the paper's streaming decomposition.
This package dispatches those pieces across a :mod:`multiprocessing`
worker pool, producing results bit-identical to serial execution:

* :func:`parallel_morphological_stage` — chunk-parallel AMC
  morphological stage over any of the three backends (one virtual GPU
  per worker for ``backend="gpu"``), wired into
  :func:`repro.core.amc.run_amc` via ``AMCConfig(n_workers=...)`` and
  the CLI via ``repro classify --workers N``;
* :func:`parallel_pixel_map` — the generic chunk-parallel per-pixel
  map every non-morphological workload stage (SAM / CEM / RX scoring,
  PCA projection — see :mod:`repro.workloads`) runs through;
* :func:`resolve_workers` / :func:`run_tasks` — the shared pool
  machinery (0 = all cores; serial in-process fallback when the pool is
  unavailable or pointless).

Both stages are one chunk driver,
:func:`repro.parallel.map.run_chunked` — chunk plan, chunk task (the
``"chunk"`` fault site and the chunk record), OOM re-plan and
plan-order collection — with a different per-chunk function plugged
in.

See ``docs/parallel.md`` for the architecture and the correctness
argument.
"""

from repro.parallel.amc import parallel_morphological_stage
from repro.parallel.map import parallel_pixel_map
from repro.parallel.pool import resolve_workers, run_tasks

__all__ = [
    "parallel_morphological_stage",
    "parallel_pixel_map",
    "resolve_workers",
    "run_tasks",
]
