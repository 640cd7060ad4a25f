"""AMC as composable pipeline stages.

Each :class:`Stage` is one named step of the algorithm (the names are
exactly the five stage records ``run_amc`` has always profiled:
``morphology``, ``endmembers``, ``unmixing``, ``classification``,
``evaluation``).  Stages communicate through a shared context dict; the
:class:`~repro.pipeline.runner.Pipeline` runner owns the profiling
spans, so every path — host tail, device tail, chunk-parallel — emits
all five records.

Context keys (set by the caller): ``bip`` (H, W, N float array),
``config`` (:class:`~repro.core.amc.AMCConfig`), ``backend`` (a resolved
:class:`~repro.backends.MorphologicalBackend`), ``ground_truth``,
``class_names``, ``profiler``.  Stages add: ``mei``, ``erosion_index``,
``dilation_index``, ``gpu_output``, ``device``, ``endmembers``,
``abundances``, ``winner``, ``endmember_labels``, ``labels``,
``report``, and ``smoothed`` from endmember selection to unmixing.
"""

from __future__ import annotations

import numpy as np

from repro.core.endmembers import (
    dilation_candidates,
    select_endmembers,
    smooth_cube,
)
from repro.core.metrics import (
    evaluate_classification,
    map_endmembers_to_classes,
)
from repro.core.unmix_gpu import gpu_unmix_classify
from repro.core.unmixing import UNMIXERS, classify_abundances
from repro.errors import ShapeError


class Stage:
    """One named, profiled step of a :class:`~repro.pipeline.Pipeline`.

    Subclasses set :attr:`name` (the profiler's stage-record label) and
    implement :meth:`run`, which reads and writes the shared context
    dict.
    """

    #: Stage-record label the pipeline runner profiles this stage under.
    name: str = "stage"

    def run(self, ctx: dict) -> None:
        """Execute the stage against the shared context."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class MorphologyStage(Stage):
    """Steps 1-2: morphological stage → MEI + erosion/dilation indices.

    Serial runs go straight through the backend adapter; with
    ``config.n_workers != 1`` the image is split into halo-carrying line
    chunks executed by the worker pool (bit-identical to serial).
    """

    name = "morphology"

    def run(self, ctx: dict) -> None:
        config, bip, backend = ctx["config"], ctx["bip"], ctx["backend"]
        device = None
        if config.n_workers != 1:
            # import deferred: repro.parallel sits above this package
            from repro.parallel import parallel_morphological_stage

            mei, ero, dil, gpu_output = parallel_morphological_stage(
                bip, config.se_radius, backend=backend,
                n_workers=config.n_workers, gpu_spec=config.gpu_spec,
                profiler=ctx.get("profiler"), policy=config.retry_policy())
            mei = mei.astype(np.float64)
        else:
            res = backend.run(bip, config.se_radius, spec=config.gpu_spec)
            mei, ero, dil = (res.mei, res.erosion_index,
                             res.dilation_index)
            gpu_output, device = res.accounting, res.device
            profiler = ctx.get("profiler")
            if profiler is not None and res.stats is not None:
                # Shift-reuse accounting of the morphological stage —
                # attached to this stage's record when the span closes.
                profiler.record_stage_counters(self.name, res.stats)
        ctx.update(mei=mei, erosion_index=ero, dilation_index=dil,
                   gpu_output=gpu_output, device=device)


def _host_unmixing(config, backend) -> bool:
    """Whether the unmixing stage runs on the host (not the device)."""
    return not (config.gpu_unmixing and backend.supports_device_unmixing)


class EndmemberStage(Stage):
    """Step 3a: select the c most spectrally pure, diverse pixels.

    When host unmixing smooths the cube with the same radius as the
    candidate spectra, the smoothed cube is computed once, here, and
    left in ``ctx["smoothed"]`` for :class:`UnmixingStage`.
    """

    name = "endmembers"

    def run(self, ctx: dict) -> None:
        config, bip = ctx["config"], ctx["bip"]
        radius = config.endmember_smooth_radius
        smoothed = None
        if radius > 0 and radius == config.classify_smooth_radius \
                and _host_unmixing(config, ctx["backend"]):
            smoothed = ctx["smoothed"] = smooth_cube(bip, radius)
        candidates = None
        if config.endmember_source == "dilation":
            candidates = dilation_candidates(ctx["mei"],
                                             ctx["dilation_index"],
                                             config.se_radius)
        ctx["endmembers"] = select_endmembers(
            bip, ctx["mei"], config.n_classes,
            strategy=config.endmember_strategy,
            min_sid=config.endmember_min_sid,
            min_spatial=config.endmember_min_spatial,
            candidates=candidates,
            smooth_radius=radius, smoothed=smoothed)


class UnmixingStage(Stage):
    """Step 3b: linear spectral unmixing → per-pixel abundances.

    With ``config.gpu_unmixing`` on a backend that supports a device
    tail, unmixing (and the argmax the device computes alongside it)
    runs on the virtual board — reusing the morphological stage's
    device when it is live, so one counter set covers the whole
    algorithm; otherwise the accounting of a fresh tail board is summed
    in.  Both aggregations go through
    :meth:`~repro.core.amc_gpu.GpuAmcOutput.with_accounting`.
    """

    name = "unmixing"

    def run(self, ctx: dict) -> None:
        config, bip, backend = ctx["config"], ctx["bip"], ctx["backend"]
        endmembers = ctx["endmembers"]
        smoothed = ctx.pop("smoothed", None)
        if not _host_unmixing(config, backend):
            device = ctx["device"]
            shared = device is not None
            if device is None:
                # the morphological stage ran on per-worker boards; the
                # tail gets its own device and the accounting is summed
                from repro.gpu.device import VirtualGPU

                device = VirtualGPU(config.gpu_spec)
            unmix_out = gpu_unmix_classify(bip, endmembers.spectra,
                                           device=device,
                                           return_abundances=True)
            ctx["gpu_output"] = ctx["gpu_output"].with_accounting(
                device.counters, add=not shared)
            ctx["abundances"] = unmix_out.abundances.astype(np.float64)
            ctx["device_winner"] = unmix_out.winner_index
        else:
            pixels = smoothed
            if pixels is None:
                pixels = smooth_cube(bip, config.classify_smooth_radius) \
                    if config.classify_smooth_radius > 0 else bip
            ctx["abundances"] = UNMIXERS[config.unmixing](
                pixels, endmembers.spectra)


class ClassificationStage(Stage):
    """Step 4: argmax abundance → 0-based winner endmember index.

    When the device tail already computed the argmax, this stage just
    adopts it — but the stage (and its profiling record) exists on
    every path.
    """

    name = "classification"

    def run(self, ctx: dict) -> None:
        winner = ctx.pop("device_winner", None)
        if winner is None:
            winner = classify_abundances(ctx["abundances"])
        ctx["winner"] = winner


class EvaluationStage(Stage):
    """Map endmembers to ground-truth classes and score the result."""

    name = "evaluation"

    def run(self, ctx: dict) -> None:
        config, bip = ctx["config"], ctx["bip"]
        winner = ctx["winner"]
        ground_truth = ctx.get("ground_truth")
        endmember_labels = None
        report = None
        if ground_truth is not None:
            ground_truth = np.asarray(ground_truth)
            if ground_truth.shape != bip.shape[:2]:
                raise ShapeError(
                    f"ground truth {ground_truth.shape} does not match "
                    f"image {bip.shape[:2]}")
            endmember_labels = map_endmembers_to_classes(
                ctx["endmembers"].positions, ground_truth)
            if config.label_mapping == "majority":
                for k in range(config.n_classes):
                    assigned = ground_truth[winner == k]
                    assigned = assigned[assigned >= 1]
                    if assigned.size:
                        values, counts = np.unique(assigned,
                                                   return_counts=True)
                        endmember_labels[k] = values[np.argmax(counts)]
            labels = endmember_labels[winner]
            n_classes = int(ground_truth.max())
            class_names = ctx.get("class_names")
            if class_names is None:
                class_names = tuple(f"class-{i + 1}"
                                    for i in range(n_classes))
            report = evaluate_classification(ground_truth, labels,
                                             class_names)
        else:
            labels = winner + 1
        ctx.update(endmember_labels=endmember_labels, labels=labels,
                   report=report)
