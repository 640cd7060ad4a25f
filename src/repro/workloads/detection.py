"""Detection workloads: SAM and CEM target detection, RX anomalies.

Each detector follows the paper's streaming-processor shape (Fig. 4)
without being AMC: a *statistics* stage makes one global pass over the
scene (a target spectrum needs none; CEM inverts the scene correlation;
RX inverts the scene covariance), then a *scores* stage maps a
per-pixel kernel over the image — chunk-parallel through
:func:`~repro.parallel.parallel_pixel_map` when ``n_workers != 1``,
with the same profiling records, fault sites and retry machinery as
the AMC morphological stage — and an *evaluation* stage scores the map
against an optional target mask
(:func:`~repro.core.detection.detection_curve`).

Bit-identity holds by construction: statistics are computed once on
the whole image on every path, and the kernels
(:func:`sam_scores` / :func:`~repro.core.detection.cem_scores` /
:func:`~repro.core.detection.rx_scores`) are per-pixel independent
with fixed reduction order, so the serial path (the same kernel over
the whole image) and any chunking produce identical bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.detection import (
    DetectionCurve,
    cem_scores,
    cem_statistics,
    detection_curve,
    rx_scores,
    rx_statistics,
)
from repro.errors import ValidationError
from repro.pipeline.runner import Pipeline
from repro.pipeline.stages import Stage
from repro.profiling.profiler import Profiler
from repro.resilience import ExecutionKnobs
from repro.spectral.distances import sam
from repro.workloads.base import Workload, run_pixel_kernel

#: Stage labels every detection pipeline emits, in execution order.
DETECTION_STAGE_NAMES = ("statistics", "scores", "evaluation")


@dataclass(frozen=True)
class DetectionConfig(ExecutionKnobs):
    """Inputs of one detection request.

    Attributes
    ----------
    target:
        (N,) spectrum of the material to detect, as a tuple of floats
        (JSON-canonicalizable, hence part of the cache key).  Required
        by the matched filters (SAM, CEM); ignored by RX.
    regularization:
        Ridge factor on the scene second-moment matrix (CEM, RX).
    max_alarms:
        Detection-curve horizon when a target mask is supplied
        (default: 10% of the scene).

    The inherited execution knobs drive the chunk-parallel scores
    stage.
    """

    target: tuple[float, ...] | None = None
    regularization: float = 1e-6
    max_alarms: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.target is not None:
            coerced = tuple(float(v) for v in np.asarray(self.target,
                                                         dtype=np.float64))
            object.__setattr__(self, "target", coerced)
        if self.regularization <= 0:
            raise ValidationError(f"regularization must be positive, got "
                             f"{self.regularization}")
        if self.max_alarms is not None and self.max_alarms < 1:
            raise ValidationError(f"max_alarms must be >= 1, got "
                             f"{self.max_alarms}")


@dataclass(frozen=True)
class DetectionResult:
    """Everything one detection run produces."""

    config: DetectionConfig
    workload: str               # registry name of the detector
    scores: np.ndarray          # (H, W), higher = more target-like
    curve: DetectionCurve | None   # scored when a target mask was given

    @property
    def auc(self) -> float | None:
        """Area under the detection curve, when a mask was supplied."""
        return None if self.curve is None else self.curve.auc


def sam_scores(cube_bip: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The SAM per-pixel kernel: negated spectral angle to ``target``.

    Negated so "higher = more target-like" holds across all detectors
    (the angle itself shrinks with similarity).  Per-pixel sums along
    the spectral axis only, so chunked evaluation is bit-identical to
    whole-image.
    """
    return -sam(np.asarray(cube_bip, dtype=np.float64), target)


class StatisticsStage(Stage):
    """One global pass: the detector's fixed per-pixel-kernel payload."""

    name = "statistics"

    def run(self, ctx: dict) -> None:
        workload = ctx["workload"]
        ctx["payload"] = workload.statistics(ctx["bip"], ctx["config"])


class ScoreStage(Stage):
    """Map the detector's kernel over the image (chunk-parallel)."""

    name = "scores"

    def run(self, ctx: dict) -> None:
        workload, config, bip = ctx["workload"], ctx["config"], ctx["bip"]
        ctx["scores"] = run_pixel_kernel(
            bip, workload.kernel, ctx["payload"], config=config,
            halo=workload.halo(config), profiler=ctx.get("profiler"))


class DetectionEvaluationStage(Stage):
    """Score the map against a target mask, when one was supplied."""

    name = "evaluation"

    def run(self, ctx: dict) -> None:
        mask = ctx.get("ground_truth")
        curve = None
        if mask is not None:
            curve = detection_curve(
                ctx["scores"], np.asarray(mask).astype(bool),
                max_alarms=ctx["config"].max_alarms)
        ctx["curve"] = curve


class DetectionWorkload(Workload):
    """Shared machinery of the three built-in detectors.

    Subclasses declare the registry name, the per-pixel ``kernel``
    (a picklable module-level function) and implement
    :meth:`statistics`; everything else — pipeline shape, config
    coercion, canonicalization, execution — is common.
    """

    kind = "detection"
    stage_names = DETECTION_STAGE_NAMES
    config_type = DetectionConfig

    #: The per-pixel scoring kernel ``kernel(sub_bip, *payload)``.
    kernel = None

    def build_pipeline(self) -> Pipeline:
        """statistics → scores → evaluation."""
        return Pipeline((StatisticsStage(), ScoreStage(),
                         DetectionEvaluationStage()))

    def statistics(self, bip: np.ndarray, config: DetectionConfig):
        """The kernel payload: one whole-image pass, identical on the
        serial and chunk-parallel paths."""
        raise NotImplementedError

    def result_arrays(self, result: DetectionResult
                      ) -> tuple[np.ndarray, ...]:
        """The score map — the detection decision surface (the curve
        derives deterministically from it and the mask, which is
        already in the job key)."""
        return (result.scores,)

    def run(self, bip: np.ndarray, config=None, *, ground_truth=None,
            class_names=None, profiler: Profiler | None = None,
            pipeline: Pipeline | None = None) -> DetectionResult:
        """Run one (H, W, N) image through the detection pipeline.

        ``ground_truth`` is the (H, W) boolean target mask (anything
        array-like coercible to bool); when given, the evaluation stage
        produces a :class:`~repro.core.detection.DetectionCurve`.
        ``class_names`` is accepted for signature uniformity and
        unused.
        """
        config = self.as_config(config)
        if self.requires_target and config.target is None:
            raise ValidationError(
                f"workload {self.name!r} needs a target spectrum: pass "
                f"target=(...) in its parameters")
        if pipeline is None:
            pipeline = self.build_pipeline()
        bip = self.check_inputs(bip)
        ctx = {
            "bip": bip,
            "config": config,
            "workload": self,
            "ground_truth": ground_truth,
            "class_names": class_names,
        }
        pipeline.run(ctx, profiler=profiler)
        return DetectionResult(config=config, workload=self.name,
                               scores=ctx["scores"], curve=ctx["curve"])


class SamWorkload(DetectionWorkload):
    """Spectral Angle Mapper target detection.

    Scale-invariant matched filter: score = negated angle between each
    pixel and the target spectrum.  Needs no scene statistics — the
    statistics stage just fixes the target vector.
    """

    name = "sam"
    requires_target = True
    kernel = staticmethod(sam_scores)

    def statistics(self, bip: np.ndarray, config: DetectionConfig):
        """The target spectrum, as the kernel's single payload entry."""
        return (np.asarray(config.target, dtype=np.float64),)


class CemWorkload(DetectionWorkload):
    """Constrained energy minimization target detection.

    Statistics: the CEM filter weights from the scene correlation
    (:func:`~repro.core.detection.cem_statistics`); kernel: the filter
    response ``w^T x`` per pixel.
    """

    name = "cem"
    requires_target = True
    kernel = staticmethod(cem_scores)

    def statistics(self, bip: np.ndarray, config: DetectionConfig):
        """The filter weight vector (one correlation inverse, global)."""
        return (cem_statistics(bip, np.asarray(config.target,
                                               dtype=np.float64),
                               regularization=config.regularization),)


class RxWorkload(DetectionWorkload):
    """Reed-Xiaoli global anomaly detection.

    Statistics: scene mean + inverse covariance
    (:func:`~repro.core.detection.rx_statistics`); kernel: the
    Mahalanobis quadratic form per pixel.  Needs no target.
    """

    name = "rx"
    kernel = staticmethod(rx_scores)

    def statistics(self, bip: np.ndarray, config: DetectionConfig):
        """``(mean, inverse covariance)`` of the whole scene."""
        return rx_statistics(bip, regularization=config.regularization)
