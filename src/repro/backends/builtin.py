"""The three built-in morphological backends.

Adapters over the implementations the library has always had — the
vectorized float64 reference, the per-pixel loop oracle, and the
stream-programming pipeline on the virtual GPU.  Implementation imports
are deferred into the methods so that importing :mod:`repro.backends`
never drags in (or cycles with) :mod:`repro.core`.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import (
    ChunkResult,
    MorphologicalBackend,
    MorphologyResult,
)


class ReferenceBackend(MorphologicalBackend):
    """``reference`` — the vectorized float64 NumPy implementation
    (:func:`repro.core.mei.mei_reference`), the production CPU path.

    Runs the shift-reuse engine (one SID map per unique offset
    difference — see :mod:`repro.core.pairreuse`), bit-identical to the
    all-pairs oracle :func:`repro.core.mei.mei_all_pairs`; the reuse
    accounting rides along in
    :attr:`~repro.backends.base.MorphologyResult.stats`.
    """

    name = "reference"

    def run(self, bip, radius, *, spec=None, device=None):
        """Whole-image morphological stage via the vectorized pair
        maps."""
        from repro.core.mei import mei_reference

        out = mei_reference(bip, radius)
        stats = None if out.stats is None else out.stats.as_counters()
        return MorphologyResult(mei=out.mei,
                                erosion_index=out.erosion_index,
                                dilation_index=out.dilation_index,
                                stats=stats)


class NaiveBackend(MorphologicalBackend):
    """``naive`` — the literal per-pixel loop oracle
    (:func:`repro.core.naive.mei_naive`) the test suite grounds on."""

    name = "naive"

    def run(self, bip, radius, *, spec=None, device=None):
        """Whole-image morphological stage via the per-pixel loops."""
        from repro.core.naive import mei_naive

        out = mei_naive(bip, radius)
        return MorphologyResult(mei=out.mei,
                                erosion_index=out.erosion_index,
                                dilation_index=out.dilation_index)


class GpuBackend(MorphologicalBackend):
    """``gpu`` — the stream implementation of paper Fig. 4 on a virtual
    board (:func:`repro.core.amc_gpu.gpu_morphological_stage`)."""

    name = "gpu"
    mei_dtype = np.float32
    supports_device_unmixing = True
    supports_trace = True

    def _resolve_device(self, spec, device):
        if device is not None:
            return device
        from repro.gpu.device import VirtualGPU
        from repro.gpu.spec import GEFORCE_7800GTX

        return VirtualGPU(GEFORCE_7800GTX if spec is None else spec)

    def run(self, bip, radius, *, spec=None, device=None):
        """Whole-image stream pipeline on one virtual board.

        The MEI is converted to float64 for the host tail; the raw
        float32 map stays in ``accounting.mei``.  The live device rides
        along in :attr:`MorphologyResult.device` so the GPU unmixing
        tail (or an AMEE iteration) can keep accumulating on it.
        """
        from repro.core.amc_gpu import gpu_morphological_stage

        dev = self._resolve_device(spec, device)
        out = gpu_morphological_stage(bip, radius, device=dev)
        return MorphologyResult(mei=out.mei.astype(np.float64),
                                erosion_index=out.erosion_index,
                                dilation_index=out.dilation_index,
                                accounting=out, device=dev)

    def run_chunk(self, bip, radius, *, spec=None):
        """One chunk on its own board — the multi-board reading of the
        paper's decomposition; ships the upload/compute/download split
        and the board's accounting for summation."""
        from repro.core.amc_gpu import gpu_morphological_stage

        device = self._resolve_device(spec, None)
        out = gpu_morphological_stage(bip, radius, device=device)
        counters = device.counters
        split = (counters.upload_time_s, counters.kernel_time_s,
                 counters.download_time_s)
        accounting = (out.modeled_time_s, out.chunk_count,
                      counters.summary(), counters.time_by_kernel())
        return ChunkResult(mei=out.mei, erosion_index=out.erosion_index,
                           dilation_index=out.dilation_index,
                           split=split, accounting=accounting)

    def stitched_accounting(self, mei, erosion, dilation, radius, pieces):
        """Sum per-board accounting into one
        :class:`~repro.core.amc_gpu.GpuAmcOutput` (``modeled_time_s`` is
        total device work, not the parallel makespan)."""
        from repro.core.amc_gpu import GpuAmcOutput, sum_time_dicts

        total_time = 0.0
        total_chunks = 0
        counters: dict[str, float] = {}
        by_kernel: dict[str, float] = {}
        for time_s, chunk_count, summary, kernels in pieces:
            total_time += time_s
            total_chunks += chunk_count
            counters = sum_time_dicts(counters, summary)
            by_kernel = sum_time_dicts(by_kernel, kernels)
        return GpuAmcOutput(
            mei=mei, erosion_index=erosion, dilation_index=dilation,
            radius=radius, chunk_count=total_chunks,
            modeled_time_s=total_time, counters=counters,
            time_by_kernel=by_kernel)
