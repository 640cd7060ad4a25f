"""Batch AMC: many cubes through one pipeline / one worker pool.

The first consumer the monolithic ``run_amc`` could not support: a
sensor downlink (or a load test) hands over *many* scenes, and spinning
a fresh pipeline — or worse, a fresh process pool — per cube wastes the
setup cost ``run_amc`` pays once.  :func:`run_amc_batch` amortizes
both:

* ``config.n_workers == 1`` — one :class:`~repro.pipeline.Pipeline`
  instance (and the kernel caches it warms) is reused across every
  cube, sequentially;
* ``config.n_workers != 1`` — one process pool serves the whole batch,
  one task per cube; each worker builds its pipeline once (pool
  initializer) and reuses it for every cube it is handed.  Workers run
  the serial per-cube path — chunk- and batch-level parallelism do not
  nest — which is bit-identical to chunk-parallel execution anyway.

Either way the results are exactly what per-cube
:func:`~repro.core.amc.run_amc` calls would produce (the batch test
pins this).

Error isolation: one corrupt scene must not kill a downlink batch, so
every cube runs isolated (:func:`repro.resilience.run_isolated` — on
both the sequential and the pool path) and the ``on_error`` policy
decides what a failure means: ``"raise"`` (the default) re-raises the
first failing cube's exception, ``"skip"`` drops failed cubes from the
result list, ``"collect"`` keeps one entry per cube — the
:class:`~repro.core.amc.AMCResult` or a :class:`BatchItemError`
wrapping the exception.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.amc import AMCConfig, AMCResult, _as_bip
from repro.errors import ValidationError
from repro.faults import maybe_inject
from repro.pipeline.amc import build_amc_pipeline, execute_amc
from repro.profiling.profiler import Profiler
from repro.resilience import run_isolated

#: The accepted ``on_error`` policies.
ON_ERROR_POLICIES = ("raise", "skip", "collect")


@dataclass(frozen=True)
class BatchItemError:
    """One failed cube of a batch run (``on_error="collect"``).

    Attributes
    ----------
    index:
        The cube's position in the input sequence.
    error:
        The exception that cube's AMC run raised.
    """

    index: int
    error: Exception

    def __str__(self) -> str:
        return (f"cube {self.index} failed: "
                f"{type(self.error).__name__}: {self.error}")


# Worker-side state (see repro.parallel.amc for the pattern).
_STATE: dict = {}


def _init_batch_worker(config: AMCConfig, class_names, bips,
                       ground_truths) -> None:
    # The bips ride in the initializer — not the task queue — so fork
    # inherits them with their memory layout intact; pickling through
    # the queue would force them C-contiguous, and numpy's pairwise
    # summation is layout-sensitive at the last bit.
    _STATE["config"] = config
    _STATE["class_names"] = class_names
    _STATE["bips"] = bips
    _STATE["ground_truths"] = ground_truths
    _STATE["pipeline"] = build_amc_pipeline()


def _compute_batch_cube(index, profiler: Profiler | None = None):
    maybe_inject("cube", index=index)
    return execute_amc(_STATE["bips"][index], _STATE["config"],
                       ground_truth=_STATE["ground_truths"][index],
                       class_names=_STATE["class_names"],
                       profiler=profiler,
                       pipeline=_STATE["pipeline"])


def _run_batch_cube(index):
    """Run one cube through the worker's long-lived pipeline, isolated.

    Failures are *returned*, not raised — ``(index, result, error)`` —
    so the parent can apply the ``on_error`` policy; an exception
    crossing the pool boundary would otherwise abort result collection
    for every cube behind it.
    """
    result, error = run_isolated(_compute_batch_cube, index)
    return index, result, error


def _apply_on_error(items, on_error: str, config: AMCConfig,
                    profiler: Profiler | None):
    """Turn (index, result, error) triples into the caller's result list."""
    results: list[AMCResult | BatchItemError] = []
    for index, result, error in items:
        if error is None:
            # restore the caller's config (workers ran n_workers=1)
            results.append(replace(result, config=config))
            continue
        if on_error == "raise":
            raise error
        if profiler is not None:
            profiler.record_event(
                "batch_error", f"{type(error).__name__}: {error}",
                chunk_index=index)
        if on_error == "collect":
            results.append(BatchItemError(index, error))
    return results


def run_amc_batch(cubes, config: AMCConfig = AMCConfig(), *,
                  ground_truths=None, class_names=None,
                  profiler: Profiler | None = None,
                  on_error: str = "raise"
                  ) -> list[AMCResult | BatchItemError]:
    """Run AMC over a sequence of cubes, reusing pipeline and pool.

    Parameters
    ----------
    cubes:
        Sequence of :class:`~repro.hsi.cube.HyperCube` / (H, W, N)
        arrays (shapes may differ between cubes).
    config:
        One configuration applied to every cube.  ``n_workers != 1``
        parallelizes *across cubes* through a single process pool kept
        for the whole batch.
    ground_truths:
        Optional sequence of per-cube (H, W) label maps (``None``
        entries allowed), same length as ``cubes``.
    class_names:
        Shared class names for the reports.
    profiler:
        Optional profiler; on the sequential path it receives the five
        stage records per cube, in batch order.  The pool path keeps
        its stage records worker-side and records nothing — but
        ``"batch_error"`` and pool-recovery events are recorded on
        every path.
    on_error:
        Per-cube failure policy — ``"raise"`` re-raises the first
        failing cube's exception (the historical behavior), ``"skip"``
        omits failed cubes from the result list, ``"collect"`` returns
        a :class:`BatchItemError` in the failed cube's position.

    Returns
    -------
    list of :class:`~repro.core.amc.AMCResult` (one per cube, in input
    order — each equal to an independent ``run_amc(cube, config)``
    call), with failed cubes dropped (``"skip"``) or represented by
    :class:`BatchItemError` entries (``"collect"``).
    """
    if on_error not in ON_ERROR_POLICIES:
        raise ValidationError(f"on_error must be one of {ON_ERROR_POLICIES}, "
                         f"got {on_error!r}")
    cubes = list(cubes)
    if ground_truths is None:
        ground_truths = [None] * len(cubes)
    else:
        ground_truths = list(ground_truths)
        if len(ground_truths) != len(cubes):
            raise ValidationError(
                f"got {len(cubes)} cubes but {len(ground_truths)} ground "
                f"truths")
    bips = [_as_bip(cube) for cube in cubes]

    if config.n_workers != 1 and len(bips) > 1:
        # import deferred: repro.parallel sits above repro.core but
        # below this package; the pool machinery is shared.
        from repro.parallel.pool import resolve_workers, run_tasks
        from repro.resilience import RetryPolicy

        serial_config = replace(config, n_workers=1)
        policy = RetryPolicy(max_retries=config.max_retries,
                             chunk_timeout_s=config.chunk_timeout_s)
        outcomes = run_tasks(range(len(bips)), _run_batch_cube,
                             _init_batch_worker,
                             (serial_config, class_names, bips,
                              ground_truths),
                             resolve_workers(config.n_workers),
                             state=_STATE, policy=policy,
                             profiler=profiler)
        items = sorted((outcome.value for outcome in outcomes),
                       key=lambda item: item[0])
        return _apply_on_error(items, on_error, config, profiler)

    _init_batch_worker(config, class_names, bips, ground_truths)
    try:
        items = [(index, *run_isolated(_compute_batch_cube, index, profiler))
                 for index in range(len(bips))]
        return _apply_on_error(items, on_error, config, profiler)
    finally:
        _STATE.clear()
