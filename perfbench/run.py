"""The repository benchmark: closed-loop clients against an in-process
:class:`repro.serving.AMCServer`, end-to-end metrics from untraced runs,
per-layer metrics from a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload amc-gpu --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload mix-durable --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --write-config      # regenerate BENCHMARK.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric with its unit and sample count.  A traced run also
writes its spans (JSON lines and Chrome trace-event format) and a
ledger report to ``.perfbench_out/`` in the repository root.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import random
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7


def _import_program():
    """Put the repository's ``src`` on the path and import what the
    benchmark drives; exit non-zero, printing no result, when the
    program is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src}; run from a full "
                 f"checkout of the repository")
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import repro.serving  # noqa: F401
        import repro.workloads  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program: {exc}")


class RssSampler:
    """Peak resident set size of this process while running, sampled
    from ``/proc/self/statm``."""

    def __init__(self, period_s: float = 0.02) -> None:
        self.period_s = period_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _read(self) -> int:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * self._page

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self.peak = max(self.peak, self._read())

    def __enter__(self) -> "RssSampler":
        self.peak = self._read()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._read())


async def setup(scenario, state_root: Path):
    """Start a fresh server and run the warm-up requests on it.

    Returns ``(server, seconds)``; the warm-up requests run
    concurrently so every executor thread builds its pipelines.
    """
    from repro.serving import AMCServer

    start = time.perf_counter()
    state_dir = (tempfile.mkdtemp(prefix="state-", dir=state_root)
                 if scenario.durable else None)
    server = AMCServer(workers=scenario.workers, state_dir=state_dir)
    await server.start()
    jobs = [await server.submit(r.cube, r.params, workload=r.workload)
            for r in scenario.warmup]
    for job in jobs:
        status = await server.wait(job.job_id)
        if status.state != "done":
            raise RuntimeError(f"warm-up request failed: {status.error}")
    return server, time.perf_counter() - start


async def run_window(server, scenario, seconds: float, tracer=None):
    """Drive ``scenario.clients`` closed-loop clients for ``seconds``.

    Each client submits one request, waits for its result, and only then
    sends the next.  A client starts no new request after the deadline;
    the window's wall time runs until the last one completes.
    """
    from layers import Record, Window
    from repro.errors import ServerBusyError

    source = scenario.source
    source.reset()
    before = server.counters.as_dict()
    evictions = server.cache.stats.evictions
    records, rejected, paused = [], [0], [0.0]
    if scenario.generates_inputs and scenario.clients != 1:
        raise ValueError("the clock can stop for input generation only "
                         "with a single client")

    async def client():
        while time.perf_counter() - paused[0] < deadline:
            drawn = time.perf_counter()
            index, request = source.next()
            if scenario.generates_inputs:
                paused[0] += time.perf_counter() - drawn
            sent = time.perf_counter()
            try:
                job = await server.submit(request.cube, request.params,
                                          workload=request.workload)
            except ServerBusyError:
                rejected[0] += 1
                continue
            status = await server.wait(job.job_id)
            records.append(Record(index, request.label, request.workload,
                                  status, time.perf_counter() - sent))

    with RssSampler() as rss:
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        deadline = start + seconds
        try:
            await asyncio.gather(*(client()
                                   for _ in range(scenario.clients)))
        finally:
            wall = time.perf_counter() - start - paused[0]
            if tracer is not None:
                tracer.active = False
    after = server.counters.as_dict()
    jobs = {}
    for *_, status, _ in records:
        if (status.state == "done" and not status.from_cache
                and status.job_id not in jobs):
            jobs[status.job_id] = server.job(status.job_id)
    return Window(records, rejected[0], wall,
                  {k: after[k] - before[k] for k in after},
                  server.cache.stats.evictions - evictions, jobs,
                  rss.peak / 2**20,
                  [] if tracer is None else tracer.spans, paused[0])


def check_results(windows, scenario, seed: int) -> dict:
    """Correctness of every request the windows served.

    * each request must end ``done``;
    * every repeat of a key must return the digest of its first result;
    * a seeded sample of executed requests is re-run directly through
      ``get_workload(name).run`` (serially, outside the server) and must
      give the served digest — and, where the served run was serial too,
      the same device counts.
    """
    from layers import job_counts
    from repro.serving import result_digest
    from repro.workloads import get_workload

    failed = wrong = 0
    first: dict[str, str] = {}
    executed = []
    for window in windows:
        for record in window.records:
            status = record.status
            if status.state != "done":
                failed += 1
                continue
            digest = first.setdefault(status.key, status.result_sha256)
            if digest != status.result_sha256:
                wrong += 1
            if status.job_id in window.jobs and not status.from_cache:
                executed.append((record.index, window.jobs[status.job_id]))
    unique = list({job.key: (i, job) for i, job in executed}.values())
    sample = random.Random(seed).sample(unique,
                                        min(scenario.sample, len(unique)))
    count_mismatch = []
    for index, job in sample:
        request = scenario.source.make(index)
        params = dict(request.params, n_workers=1)
        result = get_workload(request.workload).run(request.cube, params)
        if result_digest(result, workload=request.workload) \
                != job.result_sha256:
            wrong += 1
        if job.config.n_workers == 1:
            gpu = getattr(result, "gpu_output", None)
            if gpu is not None and (job_counts(result)
                                    != job_counts(job.result)):
                count_mismatch.append(request.label)
    return {"failed": failed, "wrong_digest": wrong,
            "rerun": len(sample), "count_mismatch": count_mismatch}


def exact_counts(windows) -> tuple[dict, list[str]]:
    """The timing-independent counts of every executed request, keyed by
    its scene/workload label, plus every disagreement between two
    executions of one label (the traced and untraced halves of a run
    execute the same requests)."""
    from layers import job_counts
    from spec import EXACT

    seen: dict[str, dict] = {}
    problems = []
    for window in windows:
        for record in window.records:
            job = window.jobs.get(record.status.job_id)
            if job is None or record.status.from_cache:
                continue
            counts = {k: v for k, v in
                      job_counts(job.result, job.report).items()
                      if k in EXACT}
            ref = seen.setdefault(record.label, counts)
            if counts != ref:
                problems.append(f"{record.label}: {counts} != {ref}")
    return seen, problems


def compare_counts_across_runs(workload: str, seed: int,
                               counts: dict) -> list[str]:
    """Compare with the counts an earlier run of this seed recorded in
    this checkout; the first run records them."""
    path = OUT / f"exact-{workload}-seed{seed}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, sort_keys=True, indent=1))
        return []
    earlier = json.loads(path.read_text())
    problems = []
    for name in set(earlier) & set(counts):
        if earlier[name] != counts[name]:
            problems.append(f"{name}: {counts[name]} != earlier "
                            f"{earlier[name]}")
    return problems


def end_to_end(window, setup_times) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced window, and their sample
    counts and tail percentile."""
    from stats import median, tail

    latencies = [1e3 * record.latency_s for record in window.records]
    n = len(latencies)
    try:
        tail_ms, tail_pct, n = tail(latencies)
    except ValueError:                   # too few requests for a tail
        tail_ms, tail_pct = float("nan"), float("nan")
    metrics = {
        "jobs_per_s": window.jobs_per_s,
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": window.peak_rss_mb,
        "setup_s": median(setup_times),
    }
    samples = {"requests": n, "tail_percentile": round(tail_pct, 2),
               "wall_s": window.wall_s, "setups": len(setup_times),
               "input_generation_s": window.paused_s}
    return metrics, samples


async def measure(args, scenario) -> dict:
    """Set up, run the window(s) and return the raw outcome."""
    from layers import install
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    state_root = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        setup_times = []
        server = None
        for _ in range(SETUPS):
            if server is not None:
                await server.stop()
            server, setup_s = await setup(scenario, state_root)
            setup_times.append(setup_s)
        windows = []
        span_seconds = args.seconds / 2 if args.trace else args.seconds
        try:
            windows.append(await run_window(server, scenario, span_seconds))
        finally:
            await server.stop()
        if args.trace:
            # A fresh server sees the same request stream, so the traced
            # and untraced halves differ only by the tracing.
            server, _ = await setup(scenario, state_root)
            tracer = Tracer()
            install(tracer)
            try:
                windows.append(await run_window(server, scenario,
                                                span_seconds, tracer))
            finally:
                tracer.unwrap_all()
                await server.stop()
        return {"setup_times": setup_times, "windows": windows}
    finally:
        shutil.rmtree(state_root, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-config", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spec

    if args.write_config:
        (ROOT / "BENCHMARK.json").write_text(spec.render())
        return 0
    names = [name for name, _ in spec.WORKLOADS]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.seconds is None:
        args.seconds = spec.RUN_SECONDS
    _import_program()
    import numpy

    import layers
    import scenarios
    from stats import failed_frac

    scenario = scenarios.build(args.workload, args.seed, args.seconds)
    outcome = asyncio.run(measure(args, scenario))
    windows = outcome["windows"]
    checks = check_results(windows, scenario, args.seed)
    counts, problems = exact_counts(windows)
    problems += compare_counts_across_runs(args.workload, args.seed, counts)
    problems += [f"device counts of re-run {label} differ from the server's"
                 for label in checks["count_mismatch"]]

    attempted = sum(len(w.records) + w.rejected for w in windows)
    rejected = sum(w.rejected for w in windows)
    failed = checks["failed"] + rejected + checks["wrong_digest"]
    metrics_e2e, samples = end_to_end(windows[0], outcome["setup_times"])
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "clients": scenario.clients, "workers": scenario.workers,
        "cube": list(scenario.shape), "scenario": scenario.notes,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "samples": samples, "checks": checks, "exact_counts": counts,
        "count_problems": problems,
        "failed_frac": failed_frac(attempted, checks["failed"], rejected,
                                   checks["wrong_digest"]),
    }
    units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    print(f"workload {args.workload}  seed {args.seed}  cube "
          f"{'x'.join(map(str, scenario.shape))}  clients "
          f"{scenario.clients}  workers {scenario.workers}  nproc "
          f"{os.cpu_count()}  python {platform.python_version()}  numpy "
          f"{numpy.__version__}")
    print(f"  requests {samples['requests']}  setups {samples['setups']}"
          f"  direct re-runs {checks['rerun']}  input generation "
          f"{samples['input_generation_s']:.2f} s (clock stopped)")
    for name, value in metrics_e2e.items():
        extra = ""
        if name == "jobs_per_s":
            extra = (f"  (n={samples['requests']} over "
                     f"{samples['wall_s']:.2f} s)")
        elif name == "latency_tail_ms":
            extra = (f"  (p{samples['tail_percentile']}, "
                     f"n={samples['requests']})")
        elif name.startswith("latency"):
            extra = f"  (n={samples['requests']})"
        elif name == "setup_s":
            extra = f"  (median of {samples['setups']})"
        elif name == "peak_rss_mb":
            extra = "  (sampled every 20 ms)"
        print(f"  {name} {value:.6g} {units[name]}{extra}")
    print(f"  failed_frac {report['failed_frac']:.6g} ratio  "
          f"({failed} of {attempted})")

    metrics = {name: {"value": value if value == value else None,
                      "unit": units[name]}
               for name, value in metrics_e2e.items()}
    if not args.trace and samples["tail_percentile"] != \
            samples["tail_percentile"]:
        problems.append(f"{samples['requests']} requests are too few for "
                        f"a tail percentile")
    if args.trace:
        traced = windows[1]
        closure = layers.closure_errors(traced.spans)
        if closure and max(closure) > 1e-6:
            problems.append(f"self times miss a Workload.run span by up to "
                            f"{max(closure) * 1e3:.4f} ms")
        layer_units = dict(spec.PER_LAYER)
        values = layers.per_layer(traced, windows[0].jobs_per_s)
        metrics = {name: {"value": value, "unit": layer_units[name]}
                   for name, value in values.items()}
        report["traced"] = {"requests": len(traced.records),
                            "wall_s": traced.wall_s,
                            "spans": len(traced.spans),
                            "closure_max_error_s": max(closure, default=0.0),
                            "ledger": layers.ledger(traced)}
        stem = OUT / f"{args.workload}-seed{args.seed}"
        from spans import write_chrome, write_jsonl
        write_jsonl(traced.spans, f"{stem}.spans.jsonl")
        write_chrome(traced.spans, f"{stem}.chrome.json")
        for name, value in values.items():
            print(f"  {name} {value:.6g} {layer_units[name]}")
        print(f"  spans {len(traced.spans)} -> {stem}.spans.jsonl, "
              f"{stem}.chrome.json")
    report["metrics"] = {k: v["value"] for k, v in metrics.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1, default=str))
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
