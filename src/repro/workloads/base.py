"""The :class:`Workload` contract: what a registered algorithm declares.

A workload is the unit the execution core is generic over.  Where a
:class:`~repro.backends.MorphologicalBackend` answers "how do I run the
morphological kernel", a workload answers "what algorithm is this
request" — it declares:

* ``stage_names`` — the ordered stage labels its pipeline emits (the
  profiling contract: a profiled run yields exactly one record per
  stage, in this order, on every execution path);
* :meth:`halo` — the per-chunk context its stencil widest stage needs,
  which the chunk planner honours (AMC: the SE radius; the per-pixel
  detectors and PCA: 0);
* ``config_type`` — the frozen dataclass its parameters coerce into
  (so invalid requests fail at admission, not in a worker);
* ``execution_knobs`` — the config fields that select *how* a result
  is computed, never *what*; excluded from cache keys by
  :meth:`canonical_params` (sound under the repo-wide bit-identity
  discipline);
* :meth:`result_arrays` — the result's decision arrays in digest
  order, which define its bit-identity fingerprint and its cache
  accounting;
* :meth:`run` — one image through one (possibly caller-provided,
  long-lived) :class:`~repro.pipeline.Pipeline`.

Implementations live beside this module (``amc``, ``detection``,
``reduction``) and register in :mod:`repro.workloads.registry`.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from repro.errors import ReproError
from repro.pipeline.runner import Pipeline
from repro.profiling.profiler import Profiler

#: Config fields that select an execution strategy, not a result: the
#: fields of :class:`~repro.resilience.ExecutionKnobs` (and the
#: historical ``repro.serving.EXECUTION_KNOBS``).  Spelled out as a
#: literal because reprolint's cache-key-soundness rule reads it
#: statically.
DEFAULT_EXECUTION_KNOBS = frozenset(
    {"n_workers", "max_retries", "chunk_timeout_s"})


class Workload:
    """One registered algorithm the generic pipeline can execute.

    Subclasses set the class attributes, implement
    :meth:`build_pipeline` and :meth:`run`, and usually inherit the
    param/canonicalization plumbing unchanged.
    """

    #: Registry name (the CLI's ``--algo`` / the serving protocol's
    #: ``workload`` field).
    name: str = ""

    #: Coarse family: ``"classify"`` | ``"detection"`` | ``"reduction"``
    #: — what the CLI groups subcommand choices by.
    kind: str = "classify"

    #: Ordered stage labels the workload's pipeline emits.
    stage_names: tuple[str, ...] = ()

    #: Frozen dataclass the workload's parameters coerce into.
    config_type: type | None = None

    #: Config fields excluded from cache keys (execution strategy only).
    execution_knobs: frozenset[str] = DEFAULT_EXECUTION_KNOBS

    #: Whether :meth:`run` needs a target spectrum in its config
    #: (SAM/CEM matched filters do; anomaly detectors and classify
    #: workloads do not).  Capability flag, so callers never compare
    #: workload names.
    requires_target: bool = False

    #: Heartbeat-age limit (seconds) before the serving watchdog deems
    #: a running job of this workload stuck; None defers to the
    #: server-wide default.  Override for workloads whose healthy
    #: attempts legitimately run long between heartbeats.
    watchdog_deadline_s: float | None = None

    def build_pipeline(self) -> Pipeline:
        """A fresh pipeline of this workload's stages (reusable across
        runs — the serving layer keeps one per executor thread)."""
        raise NotImplementedError

    def halo(self, config) -> int:
        """Lines of per-chunk context the chunk planner must provide."""
        return 0

    def as_config(self, params):
        """Coerce ``params`` (None | mapping | config_type) to a config.

        A mapping is splatted into the dataclass constructor, so
        unknown keys and invalid values fail here — at admission —
        rather than inside a worker.
        """
        if self.config_type is None:  # pragma: no cover - abstract use
            raise NotImplementedError(f"workload {self.name!r} declares "
                                      f"no config_type")
        if params is None:
            return self.config_type()
        if isinstance(params, self.config_type):
            return params
        return self.config_type(**dict(params))

    def canonical_params(self, params) -> dict:
        """The result-affecting parameters of ``params``, as a plain
        dict.

        Fields are the ``config_type`` fields minus
        :attr:`execution_knobs`, sorted; nested dataclasses flatten to
        dicts, so the output is JSON-serializable and
        order-independent.  This is the workload's *declared param
        list* — the only thing of a request that reaches the cache key
        besides the input arrays and the workload name.
        """
        fields = asdict(self.as_config(params))
        return {name: value for name, value in sorted(fields.items())
                if name not in self.execution_knobs}

    def check_inputs(self, bip: np.ndarray) -> np.ndarray:
        """Validate the input cube; returns it coerced to an (H, W, N)
        BIP array.

        Accepts a :class:`~repro.hsi.cube.HyperCube` or any 3-D array.
        The default rejects empty cubes — any zero-sized dimension —
        with :class:`~repro.errors.InvalidCubeError` naming the shape,
        and non-finite cubes
        (:class:`~repro.errors.NonFiniteInputError` naming the first
        bad pixel/band) — the serving layer calls this at submit time,
        so a poisoned cube never occupies a queue slot.
        """
        # imports deferred: repro.core/.pipeline sit beside/above this
        # package and import it back through the AMC facade
        from repro.core.amc import _as_bip
        from repro.errors import InvalidCubeError
        from repro.pipeline.amc import check_finite_cube

        bip = _as_bip(bip)
        if bip.size == 0:
            raise InvalidCubeError(
                f"cube has a zero-sized dimension (shape "
                f"{tuple(bip.shape)}); nothing to process")
        return check_finite_cube(bip)

    def adapt_sidecar(self, cube, ground_truth, params, target_class):
        """Shape a cube's label-map sidecar into this workload's inputs;
        returns ``(params, ground_truth)``.

        ``target_class`` turns the label map into detection inputs: the
        class's footprint becomes the evaluation mask and, when the
        workload :attr:`requires_target`, the class's mean spectrum
        becomes the ``target`` parameter.  Without it, only classify
        workloads keep the label map — every other kind interprets
        ground truth differently (or not at all), and a label map is
        neither.  A missing sidecar or an empty class is a
        :class:`~repro.errors.ReproError`.
        """
        if target_class is None:
            if self.kind != "classify":
                ground_truth = None
            return params, ground_truth
        target_class = int(target_class)
        if ground_truth is None:
            raise ReproError(
                f"target class {target_class} needs a ground-truth "
                f"sidecar (<cube>.gt.npy) to derive the target from")
        # import deferred: repro.core sits beside this package
        from repro.core.amc import _as_bip

        mask = np.asarray(ground_truth) == target_class
        if not mask.any():
            raise ReproError(
                f"ground truth has no pixels of class {target_class}")
        if self.requires_target:
            params = dict(params or {})
            spectrum = _as_bip(cube)[mask].mean(axis=0)
            params.setdefault("target", tuple(float(v) for v in spectrum))
        return params, mask

    def result_arrays(self, result) -> tuple[np.ndarray, ...]:
        """The result's decision arrays, in digest order.

        Defines both the bit-identity fingerprint
        (:func:`~repro.serving.api.result_digest`) and the default
        cache accounting (:meth:`result_nbytes`).
        """
        raise NotImplementedError

    def result_nbytes(self, result) -> int:
        """Approximate retained size of one cached result, in bytes."""
        return int(sum(np.asarray(a).nbytes
                       for a in self.result_arrays(result)))

    def run(self, bip: np.ndarray, config=None, *, ground_truth=None,
            class_names=None, profiler: Profiler | None = None,
            pipeline: Pipeline | None = None):
        """Run one (H, W, N) image through this workload's pipeline.

        ``ground_truth`` is workload-interpreted: a label map for
        classify workloads, a boolean target mask for detection
        workloads (scored into a
        :class:`~repro.core.detection.DetectionCurve`), unused by
        reductions.  ``pipeline`` lets a caller supply a prebuilt —
        possibly long-lived — pipeline of this workload's stages.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} ({self.kind})>"
