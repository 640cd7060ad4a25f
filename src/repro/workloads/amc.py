"""The AMC classify workload: the paper's algorithm as a registry entry.

This module is where the body of the historical
:func:`~repro.pipeline.amc.execute_amc` now lives; that function (and
:func:`~repro.core.amc.run_amc` above it) is a thin facade over
``get_workload("amc").run(...)`` — same signature, bit-identical
results, golden-pinned by the pipeline test suite.  Nothing about the
execution changed: the same five stages, the same profiling records,
the same chunk-parallel morphological stage with its halo, faults,
retries and reuse counters.
"""

from __future__ import annotations

import numpy as np

from repro.backends import get_backend
from repro.core.amc import AMCConfig, AMCResult
from repro.pipeline.amc import AMC_STAGE_NAMES, build_amc_pipeline
from repro.pipeline.runner import Pipeline
from repro.profiling.profiler import Profiler
from repro.workloads.base import Workload


class AMCWorkload(Workload):
    """Automated Morphological Classification, end to end.

    The only ``"classify"``-kind built-in: morphology → endmembers →
    unmixing → classification → evaluation over any registered
    morphological backend, with the chunk planner honouring the SE
    radius as halo.
    """

    name = "amc"
    kind = "classify"
    stage_names = AMC_STAGE_NAMES
    config_type = AMCConfig

    def build_pipeline(self) -> Pipeline:
        """The canonical five-stage AMC pipeline."""
        return build_amc_pipeline()

    def halo(self, config) -> int:
        """The SE radius — every morphological output pixel reads an
        ``se_radius``-neighbourhood."""
        return self.as_config(config).se_radius

    def result_arrays(self, result: AMCResult) -> tuple[np.ndarray, ...]:
        """Labels, MEI, abundances — the digest order the serving
        layer's golden tests have always pinned."""
        return (result.labels, result.mei, result.abundances)

    def result_nbytes(self, result: AMCResult) -> int:
        """Retained payload of one cached AMC result (all ndarray
        fields, matching the historical serving accounting)."""
        arrays = [result.mei, result.erosion_index,
                  result.dilation_index, result.abundances, result.labels,
                  result.endmembers.spectra, result.endmembers.normalized]
        if result.endmember_labels is not None:
            arrays.append(result.endmember_labels)
        return int(sum(np.asarray(a).nbytes for a in arrays))

    def run(self, bip: np.ndarray, config=None, *, ground_truth=None,
            class_names=None, profiler: Profiler | None = None,
            pipeline: Pipeline | None = None) -> AMCResult:
        """Run one (H, W, N) image through the AMC pipeline.

        The historical ``execute_amc`` body: validate, build the
        context, run the (possibly caller-provided) pipeline, assemble
        the :class:`~repro.core.amc.AMCResult`.
        """
        config = self.as_config(config)
        if pipeline is None:
            pipeline = self.build_pipeline()
        bip = self.check_inputs(bip)
        ctx = {
            "bip": bip,
            "config": config,
            "backend": get_backend(config.backend),
            "ground_truth": ground_truth,
            "class_names": class_names,
        }
        pipeline.run(ctx, profiler=profiler)
        return AMCResult(config=config, mei=ctx["mei"],
                         erosion_index=ctx["erosion_index"],
                         dilation_index=ctx["dilation_index"],
                         endmembers=ctx["endmembers"],
                         abundances=ctx["abundances"],
                         endmember_labels=ctx["endmember_labels"],
                         labels=ctx["labels"], report=ctx["report"],
                         gpu_output=ctx["gpu_output"])
