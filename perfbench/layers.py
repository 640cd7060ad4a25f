"""Per-layer measurement: where the traced run's wrappers go, and the
per-layer metrics and ledger computed from spans, job reports and
server counters.

Layers are named after the package's modules: ``serving``,
``pipeline``/``workloads``, ``core`` (morphology), ``gpu``,
``parallel`` and ``resilience``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from spans import resolve_jobs, self_times
from spec import PER_LAYER, STAGES

#: Spans that perform durable I/O in the serving layer.
DURABLE_SPANS = ("serving.journal_append", "serving.spill",
                 "serving.journal_drop", "serving.disk_put")


def _job_from_profiler(span, args, kwargs):
    profiler = kwargs.get("profiler")
    if profiler is not None:
        span.job = profiler.meta.get("job")
    span.attrs = {"workload": args[0].name}


def _job_from_kwarg(span, args, kwargs):
    if span.job is None:
        span.job = kwargs.get("job_id")


def _job_from_arg(span, args, kwargs):
    span.job = args[1].job_id


def _job_from_result(span, args, kwargs, result):
    if result is not None:
        span.job = result.job_id


def _kernel_record(span, args, kwargs, result):
    launch = args[0].counters.launches[-1]
    span.attrs = {"kernel": launch.kernel,
                  "modeled_s": launch.modeled_time_s}


def install(tracer) -> None:
    """Wrap the public entry points of every layer (see module doc)."""
    import repro.parallel.amc
    import repro.parallel.map
    import repro.serving.server
    from repro.backends.builtin import GpuBackend, ReferenceBackend
    from repro.gpu.device import VirtualGPU
    from repro.pipeline.runner import Pipeline
    from repro.serving import (AMCServer, DiskCacheTier, JobJournal,
                               ResultCache)
    from repro.workloads import get_workload, workload_names

    wrap = tracer.wrap
    wrap(AMCServer, "submit", "serving.submit", on_exit=_job_from_result)
    # the completion path: digest, cache fill, journal, disk write
    wrap(AMCServer, "_finish", "serving.finish", on_enter=_job_from_arg)
    wrap(repro.serving.server, "job_key", "serving.job_key")
    wrap(repro.serving.server, "result_digest", "serving.result_digest")
    wrap(ResultCache, "get", "serving.memory_get")
    wrap(ResultCache, "put", "serving.memory_put")
    wrap(DiskCacheTier, "get", "serving.disk_get")
    wrap(DiskCacheTier, "put", "serving.disk_put")
    wrap(JobJournal, "append", "serving.journal_append",
         on_enter=_job_from_kwarg)
    wrap(JobJournal, "spill_payload", "serving.spill")
    wrap(JobJournal, "drop_payload", "serving.journal_drop")

    run_owners, stage_types = {}, {}
    for name in workload_names():
        workload = get_workload(name)
        owner = next(c for c in type(workload).__mro__ if "run" in vars(c))
        run_owners[owner] = True
        for stage in workload.build_pipeline().stages:
            stage_types[type(stage)] = True
    for owner in run_owners:
        wrap(owner, "run", "workload.run", on_enter=_job_from_profiler)
    wrap(Pipeline, "run", "pipeline.run")
    for stage_type in stage_types:
        wrap(stage_type, "run", f"stage.{stage_type.name}")

    for backend in (ReferenceBackend, GpuBackend):
        wrap(backend, "run", "core.morphology")
        wrap(backend, "run_chunk", "core.morphology")
    wrap(VirtualGPU, "launch", "gpu.launch", on_exit=_kernel_record)
    wrap(VirtualGPU, "launch_fused", "gpu.launch", on_exit=_kernel_record)
    for verb in ("upload", "upload_scalar", "download", "download_scalar"):
        wrap(VirtualGPU, verb, "gpu.transfer")
    wrap(repro.parallel.amc, "run_tasks", "parallel.run_tasks")
    wrap(repro.parallel.map, "run_tasks", "parallel.run_tasks")


class Record(NamedTuple):
    """One completed request: its index in the request sequence, its
    scene/workload label, the server's final status and the
    submit-to-result latency."""

    index: int
    label: str
    workload: str
    status: object
    latency_s: float


@dataclass
class Window:
    """Everything one timed window produced.

    ``records`` holds one :class:`Record` per completed request;
    ``jobs`` maps the job id of every job executed in the window to its
    server-side :class:`~repro.serving.Job`; ``counters`` is the change
    of the server's counters over the window; ``paused_s`` is the input
    generation time the window's clock left out.
    """

    records: list
    rejected: int
    wall_s: float
    counters: dict
    evictions: int
    jobs: dict
    peak_rss_mb: float
    spans: list = field(default_factory=list)
    paused_s: float = 0.0

    @property
    def jobs_per_s(self) -> float:
        return len(self.records) / self.wall_s


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def job_counts(result, report=None) -> dict[str, float]:
    """The timing-independent counts of one execution, from its result
    and (when given) its ProfileReport."""
    out: dict[str, float] = {}
    gpu = getattr(result, "gpu_output", None)
    if gpu is not None:
        c = gpu.counters
        out.update({
            "gpu.launches": c["kernel_launches"],
            "gpu.fragments_shaded": c["fragments_shaded"],
            "gpu.texture_fetches": c["texture_fetches"],
            "gpu.bytes_uploaded": c["bytes_uploaded"],
            "gpu.bytes_downloaded": c["bytes_downloaded"],
            "gpu.passes_fused": c["passes_fused"],
            "gpu.temporaries_elided": c["temporaries_elided"],
            "gpu.modeled_kernel_ms": 1e3 * c["kernel_time_s"],
            "gpu.modeled_transfer_ms": 1e3 * c["transfer_time_s"],
            "modeled_device_ms": 1e3 * c["total_time_s"],
        })
    if report is not None:
        for stage in report.stages:
            if stage.name == "morphology":
                for key in ("pair_maps", "difference_maps",
                            "border_pixels_shared"):
                    out[f"core.{key}"] = stage.counters.get(key, 0.0)
        if report.chunks:
            out["parallel.chunks"] = float(len(report.chunks))
    return out


def layer_names(spans) -> dict[int, str]:
    """Span id -> layer name.  Stage spans are named
    ``pipeline.<workload>.<stage>`` after the workload that ran them."""
    runs = {span.sid: span for span in spans if span.name == "workload.run"}
    parents = {span.sid: span.parent for span in spans}
    out = {}
    for span in spans:
        name = span.name
        if name.startswith("stage."):
            node = span.parent
            while node and node not in runs:
                node = parents.get(node, 0)
            workload = runs[node].attrs["workload"] if node else "unknown"
            name = f"pipeline.{workload}.{name[len('stage.'):]}"
        out[span.sid] = name
    return out


def per_layer(window: Window, untraced_jobs_per_s: float) -> dict:
    """Every per-layer metric of a traced window (see ``spec.PER_LAYER``)."""
    spans = window.spans
    resolve_jobs(spans)
    selfs = self_times(spans)
    n_req = len(window.records)
    executed = window.jobs
    by_workload: dict[str, list] = defaultdict(list)
    for job in executed.values():
        by_workload[job.workload.name].append(job)
    names = layer_names(spans)
    total: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        total[names[span.sid]] += selfs[span.sid]
        counts[names[span.sid]] += 1

    declared = {name for name, _ in PER_LAYER}
    unknown = {n for n in total if n.startswith("pipeline.")
               and n.count(".") == 2 and f"{n}_ms" not in declared}
    if unknown:
        raise RuntimeError(f"stages missing from spec.STAGES: "
                           f"{sorted(unknown)}")

    def per_req(*names):
        return 1e3 * sum(total[n] for n in names) / n_req

    def per_job(n_jobs, *names):
        return 1e3 * sum(total[n] for n in names) / n_jobs if n_jobs else 0.0

    out = {
        "serving.submit_ms": per_req("serving.submit"),
        "serving.job_key_ms": per_req("serving.job_key"),
        "serving.result_digest_ms": per_req("serving.result_digest"),
        "serving.journal_append_ms": per_req("serving.journal_append"),
        "serving.journal_appends": float(counts["serving.journal_append"]),
        "serving.spill_ms": per_req("serving.spill"),
        "serving.disk_put_ms": per_req("serving.disk_put"),
        "serving.disk_get_ms": per_req("serving.disk_get"),
        "serving.memory_cache_ms": per_req("serving.memory_get",
                                           "serving.memory_put"),
        "serving.finish_ms": per_req("serving.finish"),
        "serving.durable_share": sum(total[n] for n in DURABLE_SPANS)
        / window.wall_s,
    }
    c = window.counters
    out.update({
        "serving.memory_hits": float(c["cache_hits"]),
        "serving.disk_hits": float(c["disk_cache_hits"]),
        "serving.coalesced": float(c["coalesced"]),
        "serving.executions": float(c["executed"]),
        "serving.rejected": float(window.rejected),
        "serving.memory_evictions": float(window.evictions),
        "serving.hit_ratio": (c["cache_hits"] + c["disk_cache_hits"]
                              + c["coalesced"]) / max(c["submitted"], 1),
    })
    out["serving.queue_wait_ms"] = _mean(queue_waits(spans).values())

    n_exec = len(executed)
    out["pipeline.workload_ms"] = per_job(n_exec, "workload.run")
    out["pipeline.run_ms"] = per_job(n_exec, "pipeline.run")
    for workload, stages in STAGES:
        n_wl = len(by_workload.get(workload, ()))
        for stage in stages:
            out[f"pipeline.{workload}.{stage}_ms"] = per_job(
                n_wl, f"pipeline.{workload}.{stage}")

    amc_jobs = by_workload.get("amc", [])
    chunk_wall = sum(ch.wall_s for job in amc_jobs
                     for ch in job.report.chunks)
    out["core.morphology_ms"] = (
        1e3 * (total["core.morphology"] + chunk_wall) / len(amc_jobs)
        if amc_jobs else 0.0)
    exact = [job_counts(job.result, job.report)
             for job in executed.values()]
    for key in ("core.pair_maps", "core.difference_maps",
                "core.border_pixels_shared"):
        out[key] = _mean(e[key] for e in exact if key in e)
    out["core.reuse_ratio"] = (out["core.pair_maps"]
                               / out["core.difference_maps"]
                               if out["core.difference_maps"] else 0.0)

    gpu_jobs = [e for e in exact if "gpu.launches" in e]
    for key in ("gpu.launches", "gpu.fragments_shaded",
                "gpu.texture_fetches", "gpu.bytes_uploaded",
                "gpu.bytes_downloaded", "gpu.passes_fused",
                "gpu.temporaries_elided", "gpu.modeled_kernel_ms",
                "gpu.modeled_transfer_ms", "modeled_device_ms"):
        out[key] = _mean(e[key] for e in gpu_jobs)
    out["gpu.launch_ms"] = per_job(len(gpu_jobs), "gpu.launch")
    out["gpu.transfer_ms"] = per_job(len(gpu_jobs), "gpu.transfer")
    out["gpu.wall_per_modeled"] = (out["gpu.launch_ms"]
                                   / out["gpu.modeled_kernel_ms"]
                                   if out["gpu.modeled_kernel_ms"] else 0.0)

    out.update(parallel_metrics(executed, spans))
    out["resilience.retries"] = float(
        sum(job.retries for job in executed.values())
        + sum(ch.retries for job in executed.values()
              for ch in job.report.chunks))
    out["resilience.events"] = float(
        sum(len(job.report.events) for job in executed.values()))
    out["trace.overhead_pct"] = (100.0 * (untraced_jobs_per_s
                                          - window.jobs_per_s)
                                 / untraced_jobs_per_s)
    if set(out) != declared:
        raise RuntimeError(f"per-layer metrics differ from spec.PER_LAYER: "
                           f"{sorted(set(out) ^ declared)}")
    return out


def queue_waits(spans) -> dict:
    """Per executed job: first submit return -> first ``Workload.run``
    entry, in ms (the join key is the profiler's ``meta["job"]``)."""
    submitted, started = {}, {}
    for span in spans:
        if span.job is None:
            continue
        if span.name == "serving.submit":
            submitted[span.job] = min(submitted.get(span.job, span.end),
                                      span.end)
        elif span.name == "workload.run":
            started[span.job] = min(started.get(span.job, span.start),
                                    span.start)
    return {job: 1e3 * (started[job] - submitted[job])
            for job in started if job in submitted}


def parallel_metrics(executed, spans) -> dict:
    """Chunk-plan metrics from the jobs' ProfileReport chunk records
    (spans inside forked workers are lost, the records are not)."""
    dispatch = {span.job: span.duration for span in spans
                if span.name == "parallel.run_tasks"}
    chunked = [job for job in executed.values() if job.report.chunks]
    walls = [ch.wall_s for job in chunked for ch in job.report.chunks]
    ext = sum(ch.ext_lines for job in chunked for ch in job.report.chunks)
    core = sum(ch.core_lines for job in chunked for ch in job.report.chunks)
    imbalance, overhead = [], []
    for job in chunked:
        w = [ch.wall_s for ch in job.report.chunks]
        imbalance.append(max(w) / _mean(w))
        if job.job_id in dispatch:
            overhead.append(dispatch[job.job_id] - max(w))
    return {
        "parallel.chunks": _mean(len(job.report.chunks) for job in chunked),
        "parallel.halo_ratio": ext / core if core else 0.0,
        "parallel.chunk_ms": 1e3 * _mean(walls),
        "parallel.imbalance": _mean(imbalance),
        "parallel.dispatch_ms": 1e3 * _mean(overhead),
    }


def closure_errors(spans) -> list[float]:
    """Per ``Workload.run`` span: |sum of self times in its subtree -
    its duration|, in seconds.  Zero up to rounding when every layer's
    span nests inside its parent on one thread."""
    selfs = self_times(spans)
    children = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append(span.sid)
    errors = []
    for span in spans:
        if span.name != "workload.run":
            continue
        acc, todo = 0.0, [span.sid]
        while todo:
            sid = todo.pop()
            acc += selfs[sid]
            todo.extend(children[sid])
        errors.append(abs(acc - span.duration))
    return errors


def ledger(window: Window) -> dict:
    """The three ledger answers of the traced window.

    * ``per_request``: mean self ms by span name for cold executions,
      memory hits and disk hits, per workload;
    * ``durable``: the share of window wall owned by journal, spill and
      disk writes;
    * ``kernels``: host ms per modeled ms per kernel name.
    """
    spans = window.spans
    resolve_jobs(spans)
    selfs = self_times(spans)
    names = layer_names(spans)
    by_job: dict = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span.job is not None:
            by_job[span.job][names[span.sid]] += selfs[span.sid]
    waits = queue_waits(spans)
    kinds: dict = defaultdict(list)
    seen = set()
    for record in window.records:
        status = record.status
        if status.job_id in seen:
            continue
        seen.add(status.job_id)
        layers = dict(by_job.get(status.job_id, {}))
        if status.job_id in window.jobs:
            kind = "cold"
            layers["serving.queue_wait"] = waits.get(status.job_id, 0.0) / 1e3
        elif "serving.disk_get" in layers and \
                "serving.memory_put" in layers:
            kind = "disk_hit"
        else:
            kind = "memory_hit"
        kinds[(record.workload, kind)].append(layers)
    per_request = {}
    for (workload, kind), rows in sorted(kinds.items()):
        seen_layers = sorted({n for row in rows for n in row})
        per_request.setdefault(workload, {})[kind] = {
            "n": len(rows),
            "total_ms": round(1e3 * _mean(sum(r.values()) for r in rows), 4),
            "self_ms": {n: round(1e3 * _mean(r.get(n, 0.0) for r in rows), 4)
                        for n in seen_layers}}

    durable = {name: sum(selfs[s.sid] for s in spans if s.name == name)
               / window.wall_s for name in DURABLE_SPANS}
    durable["total"] = sum(durable.values())

    kernels: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        if span.name == "gpu.launch":
            row = kernels[span.attrs["kernel"]]
            row[0] += 1
            row[1] += span.duration
            row[2] += span.attrs["modeled_s"]
    kernel_rows = {
        name: {"launches": n, "host_ms": round(1e3 * host, 3),
               "modeled_ms": round(1e3 * modeled, 3),
               "host_per_modeled": round(host / modeled, 3)
               if modeled else None}
        for name, (n, host, modeled) in sorted(
            kernels.items(), key=lambda kv: -kv[1][1])}
    return {"per_request": per_request,
            "durable_share_of_wall": {k: round(v, 5)
                                      for k, v in durable.items()},
            "kernels": kernel_rows}
