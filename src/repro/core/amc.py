"""The full Automated Morphological Classification algorithm (paper §3.1).

:func:`run_amc` chains the four AMC steps over any registered
morphological backend:

1. morphological stage → MEI image (built-in backends: ``"reference"``
   vectorized CPU, ``"gpu"`` stream implementation on a virtual board,
   or ``"naive"`` loop oracle — see :mod:`repro.backends`);
2. endmember selection — the c highest-MEI pixels (with the diversity
   guards of :mod:`repro.core.endmembers`);
3. linear spectral unmixing → per-pixel abundances;
4. classification — argmax abundance, mapped to ground-truth labels when
   a ground truth is supplied (each endmember inherits the label of the
   pixel it came from).

Since the stage-pipeline refactor, :func:`run_amc` is a thin façade
over :mod:`repro.pipeline`: the steps are
:class:`~repro.pipeline.Stage` objects executed by the
:class:`~repro.pipeline.Pipeline` runner, and backends are resolved
through the :mod:`repro.backends` registry — results are identical to
the historical monolith (the pipeline test suite pins them
bit-for-bit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.amc_gpu import GpuAmcOutput
from repro.core.endmembers import EndmemberSet
from repro.core.metrics import ClassificationReport
from repro.core.unmixing import UNMIXERS
from repro.errors import ShapeError, ValidationError
from repro.gpu.spec import GEFORCE_7800GTX, GpuSpec
from repro.hsi.cube import HyperCube
from repro.profiling.profiler import Profiler
from repro.resilience import ExecutionKnobs


@dataclass(frozen=True)
class AMCConfig(ExecutionKnobs):
    """Inputs of the AMC algorithm (paper: f, B, c) plus implementation
    knobs.

    The inherited execution knobs drive the morphological stage (the
    runtime-dominant one); with the "gpu" backend each chunk worker
    simulates its own board and the accounting is summed.

    Attributes
    ----------
    n_classes:
        c — how many endmembers / classes to extract.
    se_radius:
        Structuring-element radius (1 = the paper's 3x3 window).
    backend:
        Any name registered in :mod:`repro.backends` (built-in:
        "reference" | "gpu" | "naive").
    unmixing:
        "lsu" | "sclsu" | "nnls" | "fcls".
    gpu_spec:
        Board to simulate for the "gpu" backend.
    endmember_min_sid / endmember_min_spatial:
        Diversity guards for endmember selection.
    """

    n_classes: int = 30
    se_radius: int = 1
    backend: str = "reference"
    unmixing: str = "sclsu"
    gpu_spec: GpuSpec = field(default=GEFORCE_7800GTX)
    endmember_min_sid: float = 0.05
    endmember_min_spatial: int = 2
    #: "dilation" nominates the spectrally-purest pixel of each window
    #: (the AMEE rationale); "center" takes the literal top-MEI pixels.
    endmember_source: str = "dilation"
    #: Diversity strategy among the high-MEI candidates: "atgp" or "sid"
    #: (see :func:`repro.core.endmembers.select_endmembers`).
    endmember_strategy: str = "atgp"
    #: Spatial box radius for denoising candidate spectra.
    endmember_smooth_radius: int = 1
    #: Spatial box radius applied to pixels before unmixing (0 = none).
    #: AMC is a joint spatial/spectral technique; the window average is
    #: the simplest spatial regularization of the abundance estimate and
    #: roughly halves the classification noise on this generator.
    classify_smooth_radius: int = 1
    #: How endmembers are mapped to ground-truth classes when a ground
    #: truth is supplied: "position" labels each endmember with the class
    #: of the pixel it was extracted from; "majority" labels each
    #: endmember cluster with the majority ground-truth class among the
    #: pixels assigned to it (the standard unsupervised-classification
    #: evaluation protocol, robust when c exceeds the class count).
    label_mapping: str = "majority"
    #: On a backend whose device can run the tail (the built-in "gpu"),
    #: also run unmixing + argmax classification on the device (the
    #: extension stages of repro.core.unmix_gpu) — both stages then
    #: share one VirtualGPU, so the result's counters cover the whole
    #: algorithm.  Implies unconstrained LSU and no classify-time
    #: smoothing (the device path has neither).
    gpu_unmixing: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.endmember_source not in ("dilation", "center"):
            raise ValidationError(
                f"endmember_source must be 'dilation' or 'center', got "
                f"{self.endmember_source!r}")
        if self.label_mapping not in ("majority", "position"):
            raise ValidationError(
                f"label_mapping must be 'majority' or 'position', got "
                f"{self.label_mapping!r}")
        # deferred import: repro.backends defers its implementation
        # imports, but validating here at construction keeps errors
        # early and lists whatever is registered *now*.
        from repro.backends import get_backend

        get_backend(self.backend)
        if self.unmixing not in UNMIXERS:
            raise ValidationError(
                f"unknown unmixing {self.unmixing!r}; pick from "
                f"{sorted(UNMIXERS)}")
        if self.n_classes < 1:
            raise ValidationError("n_classes must be >= 1")
        if self.se_radius < 1:
            raise ValidationError("se_radius must be >= 1")


@dataclass(frozen=True)
class AMCResult:
    """Everything AMC produces for one scene."""

    config: AMCConfig
    mei: np.ndarray
    erosion_index: np.ndarray
    dilation_index: np.ndarray
    endmembers: EndmemberSet
    abundances: np.ndarray          # (H, W, c)
    endmember_labels: np.ndarray | None   # (c,) 1-based, if ground truth
    labels: np.ndarray              # (H, W): 1-based class labels if
                                    # ground truth was given, else 1-based
                                    # endmember indices
    report: ClassificationReport | None
    gpu_output: GpuAmcOutput | None

    @property
    def overall_accuracy(self) -> float | None:
        """Overall accuracy (%) when a ground truth was supplied."""
        return None if self.report is None else self.report.overall_accuracy


def _as_bip(cube) -> np.ndarray:
    if isinstance(cube, HyperCube):
        return cube.as_bip()
    cube = np.asarray(cube)
    if cube.ndim != 3:
        raise ShapeError(f"cube must be 3-D (H, W, N), got {cube.shape}")
    return cube


def run_amc(cube, config: AMCConfig = AMCConfig(), *,
            ground_truth: np.ndarray | None = None,
            class_names: tuple[str, ...] | None = None,
            profiler: Profiler | None = None) -> AMCResult:
    """Run the complete AMC algorithm.

    Parameters
    ----------
    cube:
        A :class:`~repro.hsi.cube.HyperCube` or an (H, W, N) array of raw
        radiance.
    config:
        Algorithm inputs and backend selection.
    ground_truth:
        Optional (H, W) 1-based label map.  When given, endmembers are
        mapped to ground-truth classes and a
        :class:`~repro.core.metrics.ClassificationReport` is produced.
    class_names:
        Names for the report (defaults to "class-1"... when omitted).
    profiler:
        Optional :class:`~repro.profiling.Profiler`; receives one timed
        record per algorithm stage (morphology, endmembers, unmixing,
        classification, evaluation) and, on chunk-parallel runs, one
        record per chunk.

    Returns
    -------
    AMCResult
    """
    # import deferred: repro.pipeline sits above this package (it
    # composes core, backends and — through the morphology stage —
    # parallel); same pattern the monolith used for repro.parallel.
    from repro.pipeline import execute_amc

    return execute_amc(_as_bip(cube), config, ground_truth=ground_truth,
                       class_names=class_names, profiler=profiler)
