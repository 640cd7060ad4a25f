"""Composable algorithm registry: the workloads the pipeline can run.

The execution core (:mod:`repro.pipeline`, :mod:`repro.parallel`,
:mod:`repro.serving`) is generic over a :class:`Workload` — an
algorithm that declares its stages, halo, config schema,
cache-key-relevant parameters and result arrays, and knows how to run
one image through one :class:`~repro.pipeline.Pipeline`.  Five
built-ins register at import:

===========  ===========  ====================================
name         kind         algorithm
===========  ===========  ====================================
``amc``      classify     the paper's morphological classifier
``sam``      detection    spectral-angle target detection
``cem``      detection    constrained-energy-minimization
``rx``       detection    Reed-Xiaoli anomaly detection
``pca``      reduction    principal-component band reduction
===========  ===========  ====================================

(FNNLS unmixing rides inside AMC as ``AMCConfig(unmixing="fnnls")`` —
see :mod:`repro.core.fnnls`.)  Resolution goes through
:func:`get_workload`; comparing workload names with ``==`` anywhere
else in the tree is flagged by the ``workload-dispatch`` reprolint
rule, exactly as ``backend-dispatch`` protects the backend registry.

See ``docs/workloads.md`` for the contract and a worked example of
registering a new algorithm.
"""

from repro.workloads.amc import AMCWorkload
from repro.workloads.base import DEFAULT_EXECUTION_KNOBS, Workload
from repro.workloads.detection import (
    DETECTION_STAGE_NAMES,
    CemWorkload,
    DetectionConfig,
    DetectionResult,
    DetectionWorkload,
    RxWorkload,
    SamWorkload,
    sam_scores,
)
from repro.workloads.reduction import (
    REDUCTION_STAGE_NAMES,
    PcaWorkload,
    ProjectStage,
    ReductionConfig,
    ReductionResult,
    project_components,
)
from repro.workloads.registry import (
    get_workload,
    register_workload,
    unregister_workload,
    workload_names,
)

register_workload(AMCWorkload())
register_workload(SamWorkload())
register_workload(CemWorkload())
register_workload(RxWorkload())
register_workload(PcaWorkload())

__all__ = [
    "AMCWorkload",
    "CemWorkload",
    "DEFAULT_EXECUTION_KNOBS",
    "DETECTION_STAGE_NAMES",
    "DetectionConfig",
    "DetectionResult",
    "DetectionWorkload",
    "PcaWorkload",
    "ProjectStage",
    "REDUCTION_STAGE_NAMES",
    "ReductionConfig",
    "ReductionResult",
    "RxWorkload",
    "SamWorkload",
    "Workload",
    "get_workload",
    "project_components",
    "register_workload",
    "sam_scores",
    "unregister_workload",
    "workload_names",
]
