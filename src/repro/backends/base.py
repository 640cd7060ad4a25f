"""The morphological-backend contract.

A :class:`MorphologicalBackend` is a small adapter around one
implementation of the AMC morphological stage (paper Fig. 4, stages
1-6: upload, normalize, cumulative SID, min/max, MEI, download).  The
three built-in adapters wrap :func:`repro.core.mei.mei_reference`,
:func:`repro.core.naive.mei_naive` and
:func:`repro.core.amc_gpu.gpu_morphological_stage`; anything else that
honours the contract — same SE semantics, clamp-to-edge addressing,
first-occurrence tie-breaking — can be registered alongside them
(:mod:`repro.backends.registry`) and becomes runnable through
:func:`repro.core.amc.run_amc`, the chunk-parallel executor and the CLI
without touching any of those layers.

The contract has two entry points:

* :meth:`MorphologicalBackend.run` — whole-image execution, returning a
  :class:`MorphologyResult` (float64 MEI plus the erosion/dilation
  index maps, optional device accounting, and — for device backends —
  the live device so the unmixing tail can keep accumulating on it);
* :meth:`MorphologicalBackend.run_chunk` — one halo-extended chunk for
  the worker pool, returning a :class:`ChunkResult` whose MEI keeps the
  backend's native dtype (:attr:`MorphologicalBackend.mei_dtype`) so
  that stitching is bit-identical to whole-image execution.

This module imports nothing from :mod:`repro.core` at module level (the
concrete adapters defer their implementation imports), so
``repro.backends`` can be imported from any layer without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True)
class MorphologyResult:
    """Whole-image output of a backend's morphological stage.

    Attributes
    ----------
    mei:
        (H, W) float64 morphological eccentricity index.
    erosion_index / dilation_index:
        (H, W) SE-neighbour indices (row-major into
        :func:`repro.core.mei.se_offsets`) of the per-pixel argmin /
        argmax of the cumulative distance.
    accounting:
        A :class:`repro.core.amc_gpu.GpuAmcOutput` for device backends
        (modeled time, counter summary, per-kernel profile), ``None``
        for host backends.
    device:
        The live device the stage ran on, when the backend keeps one
        (the GPU unmixing tail reuses it so one counter set covers the
        whole algorithm); ``None`` otherwise.
    stats:
        Plain-float work-counter dict for the profiler's stage records
        (e.g. the reference backend's shift-reuse accounting — see
        :meth:`repro.core.pairreuse.PairReuseStats.as_counters`),
        ``None`` when the backend records none.
    """

    mei: np.ndarray
    erosion_index: np.ndarray
    dilation_index: np.ndarray
    accounting: Any | None = None
    device: Any | None = None
    stats: dict | None = None


@dataclass(frozen=True)
class ChunkResult:
    """One halo-extended chunk's output, as the worker pool ships it.

    Attributes
    ----------
    mei / erosion_index / dilation_index:
        Extended-region maps in the backend's native dtypes (the
        stitcher extracts the core rows).
    split:
        ``(upload_s, compute_s, download_s)`` stream-phase split for
        device backends, ``None`` when no bus was crossed (the caller
        then books the measured wall time as compute).
    accounting:
        ``(modeled_time_s, chunk_count, counter_summary,
        time_by_kernel)`` for device backends, ``None`` otherwise;
        summed across chunks by
        :meth:`MorphologicalBackend.stitched_accounting`.
    stats:
        Plain-float work-counter dict (pickle-friendly across the pool
        boundary), summed over chunks into the morphology stage record
        by the chunk-parallel executor; ``None`` when the backend
        records none.
    """

    mei: np.ndarray
    erosion_index: np.ndarray
    dilation_index: np.ndarray
    split: tuple[float, float, float] | None = None
    accounting: tuple | None = None
    stats: dict | None = None


class MorphologicalBackend:
    """Base class for morphological-stage backends.

    Subclasses set :attr:`name` (the registry key) and implement
    :meth:`run`; everything else has working defaults for host
    backends.  Device backends additionally override :meth:`run_chunk`
    and :meth:`stitched_accounting` and flip the capability flags.
    """

    #: Registry key (``AMCConfig.backend``, CLI ``--backend``).
    name: str = ""
    #: dtype the chunk-parallel stitcher allocates for the MEI plane —
    #: the backend's *native* MEI precision, so stitched maps are
    #: bit-identical to whole-image runs.
    mei_dtype: type = np.float64
    #: Whether the unmixing/classification tail can run on this
    #: backend's device (``AMCConfig.gpu_unmixing``).
    supports_device_unmixing: bool = False
    #: Whether the CLI ``--trace`` device timeline applies.
    supports_trace: bool = False
    #: Whether :meth:`run_chunk` accepts a ``halo_margins=(top,
    #: bottom)`` keyword — the chunk-parallel executor then tells the
    #: backend which extended-region rows are discarded halo, so the
    #: cross-chunk shift-reuse can skip border corrections a
    #: neighbouring chunk already owns.
    accepts_halo_margins: bool = False

    def run(self, bip: np.ndarray, radius: int, *, spec=None,
            device=None) -> MorphologyResult:
        """Run the morphological stage on a whole (H, W, N) image.

        ``spec`` configures device backends (ignored by host ones);
        ``device`` lets a caller thread one live device through several
        calls so its accounting accumulates.
        """
        raise NotImplementedError

    def run_chunk(self, bip: np.ndarray, radius: int, *,
                  spec=None) -> ChunkResult:
        """Run the stage on one halo-extended chunk (worker-pool entry).

        The default wraps :meth:`run`; device backends override it to
        give each chunk its own board and report the stream-phase
        split.
        """
        res = self.run(bip, radius, spec=spec)
        return ChunkResult(mei=res.mei.astype(self.mei_dtype, copy=False),
                           erosion_index=res.erosion_index,
                           dilation_index=res.dilation_index,
                           stats=res.stats)

    def stitched_accounting(self, mei: np.ndarray, erosion: np.ndarray,
                            dilation: np.ndarray, radius: int,
                            pieces: list):
        """Aggregate per-chunk accounting tuples after stitching.

        ``pieces`` holds the non-``None`` :attr:`ChunkResult.accounting`
        values in plan order.  Host backends have nothing to aggregate
        and return ``None``.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
