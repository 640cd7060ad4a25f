"""What the benchmark measures: workloads and metrics, one definition.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-config``), and every run checks that
it reports exactly the metrics declared here.
"""

from __future__ import annotations

import json

#: (name, why) of every workload, in the order they are listed.
WORKLOADS = (
    ("amc-gpu",
     "1 client, workers=1: AMC on the virtual GPU (se_radius 2) over a "
     "distinct 20x20x28 scene per request, all cold; the gpu "
     "interpreter/device/cost layers do nearly all the work"),
    ("mix-durable",
     "2 clients, workers=2, durable state_dir: drifting Zipf popularity "
     "over 200 live (32x32x28 scene, workload) keys of all 5 workloads; "
     "memory hits, disk hits, journal and disk writes interleave"),
    ("amc-chunked",
     "1 client, workers=1: AMC on the reference backend, n_workers=2, "
     "se_radius 2, distinct 224x224x28 scenes, all cold; the parallel "
     "pool and pair-reuse morphology do the work"),
)

#: End-to-end metrics: (name, unit, better, bound).  ``bound`` is the
#: share of the parent's median by which the metric may worsen.
END_TO_END = (
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
)

#: Pipeline stages of every registered workload, as the per-stage
#: metric names spell them.
STAGES = (
    ("amc", ("morphology", "endmembers", "unmixing", "classification",
             "evaluation")),
    ("sam", ("statistics", "scores", "evaluation")),
    ("cem", ("statistics", "scores", "evaluation")),
    ("rx", ("statistics", "scores", "evaluation")),
    ("pca", ("statistics", "project")),
)

#: Per-layer metrics of the traced run: (name, unit).  ``ms/req`` is
#: self time per completed request; ``ms/job`` self time per execution
#: of the workload that runs the layer; ``count/job`` a count per such
#: execution; ``count`` a total over the traced window.
PER_LAYER = (
    ("serving.submit_ms", "ms/req"),
    ("serving.job_key_ms", "ms/req"),
    ("serving.result_digest_ms", "ms/req"),
    ("serving.queue_wait_ms", "ms"),
    ("serving.journal_append_ms", "ms/req"),
    ("serving.journal_appends", "count"),
    ("serving.spill_ms", "ms/req"),
    ("serving.disk_put_ms", "ms/req"),
    ("serving.disk_get_ms", "ms/req"),
    ("serving.memory_cache_ms", "ms/req"),
    ("serving.finish_ms", "ms/req"),
    ("serving.durable_share", "ratio"),
    ("serving.memory_hits", "count"),
    ("serving.disk_hits", "count"),
    ("serving.coalesced", "count"),
    ("serving.executions", "count"),
    ("serving.rejected", "count"),
    ("serving.memory_evictions", "count"),
    ("serving.hit_ratio", "ratio"),
    ("pipeline.workload_ms", "ms/job"),
    ("pipeline.run_ms", "ms/job"),
    *((f"pipeline.{workload}.{stage}_ms", "ms/job")
      for workload, stages in STAGES for stage in stages),
    ("core.morphology_ms", "ms/job"),
    ("core.pair_maps", "count/job"),
    ("core.difference_maps", "count/job"),
    ("core.reuse_ratio", "ratio"),
    ("core.border_pixels_shared", "count/job"),
    ("gpu.launch_ms", "ms/job"),
    ("gpu.transfer_ms", "ms/job"),
    ("gpu.launches", "count/job"),
    ("gpu.fragments_shaded", "count/job"),
    ("gpu.texture_fetches", "count/job"),
    ("gpu.bytes_uploaded", "count/job"),
    ("gpu.bytes_downloaded", "count/job"),
    ("gpu.passes_fused", "count/job"),
    ("gpu.temporaries_elided", "count/job"),
    ("gpu.modeled_kernel_ms", "modeled-ms/job"),
    ("gpu.modeled_transfer_ms", "modeled-ms/job"),
    ("gpu.wall_per_modeled", "ratio"),
    ("modeled_device_ms", "modeled-ms/job"),
    ("parallel.chunks", "count/job"),
    ("parallel.halo_ratio", "ratio"),
    ("parallel.chunk_ms", "ms"),
    ("parallel.imbalance", "ratio"),
    ("parallel.dispatch_ms", "ms/job"),
    ("resilience.retries", "count"),
    ("resilience.events", "count"),
    ("trace.overhead_pct", "%"),
)

#: Per-layer counts that do not depend on thread timing: every executed
#: job of one workload reports the same value, and two runs of one seed
#: report identical values.
EXACT = ("gpu.launches", "gpu.texture_fetches", "gpu.fragments_shaded",
         "core.pair_maps", "core.difference_maps", "parallel.chunks",
         "modeled_device_ms")

#: Per-layer metrics where a larger value is the better one (work
#: avoided or shared); every other per-layer metric is better lower.
HIGHER = frozenset({
    "serving.memory_hits", "serving.disk_hits", "serving.coalesced",
    "serving.hit_ratio", "core.reuse_ratio", "core.border_pixels_shared",
    "gpu.passes_fused", "gpu.temporaries_elided"})

#: Seconds one run measures.
RUN_SECONDS = 30


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit,
                       "better": "higher" if name in HIGHER else "lower"}
                      for name, unit in PER_LAYER],
    }


def render() -> str:
    """``BENCHMARK.json`` as written to disk."""
    return json.dumps(benchmark_json(), indent=2) + "\n"
