"""The PCA band-reduction workload: a composable preprocessing step.

The paper's pipeline (and [11] before it) front-loads a spectral
reduction before the heavy morphological processing.  This module
exposes that reduction through the same workload machinery as every
other algorithm: a *statistics* stage fits the principal components on
the whole pixel cloud (:func:`repro.spectral.pca` — one global
eigendecomposition, identical on every execution path), then a
*project* stage maps the fitted linear projection over the image as a
per-pixel kernel — chunk-parallel through
:func:`~repro.parallel.parallel_pixel_map` with the standard retry
policy, or the very same kernel whole-image when ``n_workers == 1``,
so the two paths are bit-identical.

Both stages are ordinary :class:`~repro.pipeline.Stage` objects, so a
custom pipeline can splice :class:`ProjectStage` in front of other
work (fit once, project per chunk) without going through
:meth:`PcaWorkload.run`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.pipeline.runner import Pipeline
from repro.pipeline.stages import Stage
from repro.profiling.profiler import Profiler
from repro.resilience import ExecutionKnobs
from repro.spectral.reduction import pca
from repro.workloads.base import Workload, run_pixel_kernel

#: Stage labels the reduction pipeline emits, in execution order.
REDUCTION_STAGE_NAMES = ("statistics", "project")


@dataclass(frozen=True)
class ReductionConfig(ExecutionKnobs):
    """Inputs of one band-reduction request.

    ``n_components`` is the number of leading components to keep (its
    upper bound — the band count — is checked against the cube at fit
    time); the inherited execution knobs drive the project stage.
    """

    n_components: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_components < 1:
            raise ValidationError(
                f"n_components must be >= 1, got {self.n_components}")


@dataclass(frozen=True)
class ReductionResult:
    """Everything one band-reduction run produces."""

    config: ReductionConfig
    workload: str           # registry name of the reducer
    transformed: np.ndarray  # (H, W, K) reduced cube
    components: np.ndarray   # (K, N) projection rows
    scores: np.ndarray       # (K,) per-component variance
    mean: np.ndarray         # (N,) spectral mean removed before projecting


def project_components(cube_bip: np.ndarray, mean: np.ndarray,
                       components: np.ndarray) -> np.ndarray:
    """The projection kernel: center and project each pixel.

    A per-pixel einsum with fixed reduction order along the spectral
    axis only — chunked evaluation is bit-identical to whole-image.
    """
    centered = np.asarray(cube_bip, dtype=np.float64) - mean
    return np.einsum("hwn,kn->hwk", centered, components)


class FitStage(Stage):
    """Fit the projection on the whole pixel cloud (one global pass)."""

    name = "statistics"

    def run(self, ctx: dict) -> None:
        projection = pca(ctx["bip"], ctx["config"].n_components)
        ctx["fit"] = projection
        ctx["payload"] = (projection.mean, projection.components)


class ProjectStage(Stage):
    """Map the fitted projection over the image (chunk-parallel).

    Expects ``ctx["payload"] = (mean, components)`` — normally from
    :class:`FitStage`, but any producer works, which is what makes
    this a composable preprocessing stage.
    """

    name = "project"

    def run(self, ctx: dict) -> None:
        ctx["transformed"] = run_pixel_kernel(
            ctx["bip"], project_components, ctx["payload"],
            config=ctx["config"], profiler=ctx.get("profiler"))


class PcaWorkload(Workload):
    """Principal-component band reduction as a registered workload."""

    name = "pca"
    kind = "reduction"
    stage_names = REDUCTION_STAGE_NAMES
    config_type = ReductionConfig

    def build_pipeline(self) -> Pipeline:
        """statistics (fit) → project."""
        return Pipeline((FitStage(), ProjectStage()))

    def result_arrays(self, result: ReductionResult
                      ) -> tuple[np.ndarray, ...]:
        """Reduced cube first, then the fit (components, variances,
        mean) — everything a consumer needs to invert or extend the
        projection."""
        return (result.transformed, result.components, result.scores,
                result.mean)

    def run(self, bip: np.ndarray, config=None, *, ground_truth=None,
            class_names=None, profiler: Profiler | None = None,
            pipeline: Pipeline | None = None) -> ReductionResult:
        """Reduce one (H, W, N) image to its leading components.

        ``ground_truth`` and ``class_names`` are accepted for signature
        uniformity and unused by reductions.
        """
        config = self.as_config(config)
        if pipeline is None:
            pipeline = self.build_pipeline()
        bip = self.check_inputs(bip)
        ctx = {"bip": bip, "config": config, "workload": self}
        pipeline.run(ctx, profiler=profiler)
        fit = ctx["fit"]
        return ReductionResult(config=config, workload=self.name,
                               transformed=ctx["transformed"],
                               components=fit.components,
                               scores=fit.scores, mean=fit.mean)
