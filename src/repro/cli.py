"""Command-line interface.

Eight subcommands cover the library's day-to-day uses::

    repro generate  out.raw --lines 128 --samples 128    # synthesize a scene
    repro classify  out.raw --classes 45 --backend gpu   # run AMC
    repro classify  out.raw --workers 4 --profile        # multi-core + report
    repro detect    out.raw --algo sam --target-class 2  # target detection
    repro reduce    out.raw --components 4               # PCA band reduction
    repro serve     --socket /tmp/amc.sock               # job server
    repro submit    out.raw --socket /tmp/amc.sock       # client mode
    repro bench     --table 4                            # modeled tables
    repro info                                           # platform specs

``generate`` writes an ENVI-style cube (``<path>`` + ``<path>.hdr``)
plus ground truth as ``<path>.gt.ppm`` (color map) and ``<path>.gt.npy``
(label array); ``classify`` accepts any ENVI cube (not only generated
ones) and writes the MEI image (``<path>.mei.pgm``) and classification
map (``<path>.classes.ppm``) next to it.

``classify --workers N`` runs the morphological stage chunk-parallel
across N worker processes (0 = all cores) with results identical to
serial; ``--profile`` prints a stage/chunk timing report, or writes it
as JSON when given a path (``--profile report.json``).

Robustness knobs (see ``docs/robustness.md``): ``--retries`` and
``--chunk-timeout-s`` configure the per-chunk retry budget and deadline
of the parallel paths; ``classify`` accepts *multiple* cube paths (a
batch through one pool) and ``--on-error raise|skip|collect`` decides
whether one corrupt scene aborts, is skipped, or is reported alongside
the successes.

``detect`` and ``reduce`` run the non-AMC workloads of
:mod:`repro.workloads` (see ``docs/workloads.md``): their ``--algo``
choices come straight from the registry, so a newly registered
detector or reducer appears in the CLI without touching this module.
``detect --target-class K`` derives the target spectrum (mean of the
ground-truth class-K pixels) and the evaluation mask from the
``.gt.npy`` sidecar.

``serve`` runs the :mod:`repro.serving` job server on a unix socket;
``submit`` is the matching client — it ships a cube *reference* (a
path) plus parameters (and optionally ``--workload`` /
``--target-class``), and duplicate submissions are deduped server-side
through in-flight coalescing and the content-addressed result cache
(see ``docs/serving.md``).  ``serve --state-dir DIR`` turns on the
durable tier (crash-safe job journal + disk result cache; interrupted
jobs replay on restart) and ``--watchdog-deadline-s`` the stuck-job
watchdog; ``submit --retry-budget-s`` rides through busy rejections
and restarts with exponential backoff, and ``submit --health`` prints
the server's self-diagnosis snapshot (see ``docs/robustness.md``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.hsi import generate_indian_pines_like
    from repro.hsi.envi import write_cube
    from repro.viz import write_class_map_ppm

    scene = generate_indian_pines_like(args.lines, args.samples,
                                       band_count=args.bands,
                                       seed=args.seed)
    data_path, hdr_path = write_cube(scene.cube, args.path)
    gt_path = write_class_map_ppm(scene.ground_truth,
                                  args.path + ".gt.ppm",
                                  n_classes=scene.n_classes)
    np.save(args.path + ".gt.npy", scene.ground_truth)
    print(f"scene:        {scene.cube}")
    print(f"cube:         {data_path} (+ {hdr_path})")
    print(f"ground truth: {gt_path} (labels in {args.path}.gt.npy)")
    return 0


def _load_scene(path: str):
    """Read one ENVI cube plus its optional ``.gt.npy`` ground truth."""
    from repro.hsi.envi import read_cube

    cube = read_cube(path)
    print(f"loaded {cube}")
    ground_truth = None
    try:
        ground_truth = np.load(path + ".gt.npy")
        print("found ground truth; accuracy will be reported")
    except FileNotFoundError:
        pass
    return cube, ground_truth


def _write_outputs(result, path: str) -> None:
    """Write one cube's MEI image and classification map next to it."""
    from repro.viz import write_class_map_ppm, write_pgm

    mei_path = write_pgm(result.mei, path + ".mei.pgm")
    cls_path = write_class_map_ppm(
        result.labels, path + ".classes.ppm",
        n_classes=int(result.labels.max()))
    print(f"MEI image:          {mei_path}")
    print(f"classification map: {cls_path}")
    if result.report is not None:
        print(f"overall accuracy:   "
              f"{result.report.overall_accuracy:.2f}%  "
              f"(kappa {result.report.kappa:.3f})")


def _knob_params(args: argparse.Namespace, *, workers: bool = True
                 ) -> dict:
    """The execution-knob params of a command's parsed flags.

    ``workers=False`` is for ``serve``/``submit``, whose ``--workers``
    (if any) is not a knob.  ``--workers 0`` (all cores) resolves here.
    """
    params = {"max_retries": args.retries,
              "chunk_timeout_s": args.chunk_timeout_s}
    if workers:
        from repro.parallel import resolve_workers

        params["n_workers"] = resolve_workers(args.workers)
    return params


def _classify_batch(args: argparse.Namespace, config) -> int:
    """Batch mode of ``classify``: many cubes through one pool."""
    from repro.pipeline import BatchItemError, run_amc_batch

    scenes = [_load_scene(path) for path in args.path]
    profiler = None
    if args.profile is not None:
        from repro.profiling import Profiler

        profiler = Profiler(meta={"cubes": len(scenes),
                                  "backend": args.backend,
                                  "workers": config.n_workers,
                                  "on_error": args.on_error})
    # run "skip" as "collect" so failures keep their cube index — the
    # CLI applies the skip (no outputs) while still naming the cube
    effective = "collect" if args.on_error == "skip" else args.on_error
    results = run_amc_batch([cube for cube, _ in scenes], config,
                            ground_truths=[gt for _, gt in scenes],
                            profiler=profiler, on_error=effective)
    failed = 0
    for path, result in zip(args.path, results):
        if isinstance(result, BatchItemError):
            failed += 1
            verb = "skipped" if args.on_error == "skip" else "failed"
            print(f"{path}: {verb} — {type(result.error).__name__}: "
                  f"{result.error}", file=sys.stderr)
            continue
        _write_outputs(result, path)
    if profiler is not None:
        _print_profile(profiler, args.profile)
    return 1 if failed == len(results) and failed else 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.backends import get_backend
    from repro.core import AMCConfig, run_amc

    config = AMCConfig(n_classes=args.classes, se_radius=args.radius,
                       backend=args.backend, **_knob_params(args))
    if len(args.path) > 1:
        if args.trace:
            print("--trace requires a single cube path",
                  file=sys.stderr)
            return 2
        return _classify_batch(args, config)
    args.path = args.path[0]

    cube, ground_truth = _load_scene(args.path)
    backend = get_backend(args.backend)
    device = None
    if args.trace:
        if not backend.supports_trace:
            print(f"--trace requires a device backend "
                  f"(--backend {args.backend} has no timeline)",
                  file=sys.stderr)
            return 2
        from repro.gpu import VirtualGPU

        device = VirtualGPU(config.gpu_spec)
    profiler = None
    if args.profile is not None:
        from repro.profiling import Profiler

        profiler = Profiler(meta={"image": f"{cube.lines}x{cube.samples}x"
                                           f"{cube.bands}",
                                  "backend": args.backend,
                                  "workers": config.n_workers})
    result = run_amc(cube, config, ground_truth=ground_truth,
                     profiler=profiler)
    if args.trace:
        # re-run the device stage on a fresh device to capture a clean
        # timeline (run_amc manages its own device internally)
        from repro.gpu.trace import export_chrome_trace

        backend.run(cube.as_bip(), config.se_radius, device=device)
        trace_path = export_chrome_trace(device.counters, args.trace)
        print(f"device timeline:    {trace_path} "
              f"(open in chrome://tracing or Perfetto)")

    _write_outputs(result, args.path)
    if result.gpu_output is not None:
        out = result.gpu_output
        print(f"modeled GPU time:   {out.modeled_time_s * 1e3:.2f} ms "
              f"({out.chunk_count} chunk(s), "
              f"{out.counters['kernel_launches']:.0f} launches)")
    if profiler is not None:
        _print_profile(profiler, args.profile)
    return 0


def _print_profile(profiler, destination) -> None:
    """Emit a finished profiler's report per the ``--profile`` flag."""
    report = profiler.report()
    if destination == "-":
        print(report.to_text())
    else:
        print(f"profile report:     {report.save(destination)}")


def _cmd_detect(args: argparse.Namespace) -> int:
    """Run a detection workload (SAM/CEM/RX) on an ENVI cube."""
    from repro.viz import write_pgm
    from repro.workloads import get_workload

    cube, ground_truth = _load_scene(args.path)
    wl = get_workload(args.algo)
    params = {"regularization": args.regularization, **_knob_params(args)}
    if args.max_alarms is not None:
        params["max_alarms"] = args.max_alarms
    mask = None
    if args.target_class is not None:
        if ground_truth is None:
            print("--target-class needs a ground-truth sidecar "
                  f"({args.path}.gt.npy)", file=sys.stderr)
            return 2
        mask = ground_truth == args.target_class
        if not mask.any():
            print(f"ground truth has no pixels of class "
                  f"{args.target_class}", file=sys.stderr)
            return 2
        if wl.requires_target:
            spectrum = cube.as_bip()[mask].mean(axis=0)
            params["target"] = tuple(float(v) for v in spectrum)
    elif wl.requires_target:
        print(f"--algo {wl.name} needs a target spectrum: pass "
              f"--target-class K (with a .gt.npy sidecar)",
              file=sys.stderr)
        return 2
    profiler = None
    if args.profile is not None:
        from repro.profiling import Profiler

        profiler = Profiler(meta={
            "image": f"{cube.lines}x{cube.samples}x{cube.bands}",
            "workload": wl.name, "workers": params["n_workers"]})
    result = wl.run(cube, params, ground_truth=mask, profiler=profiler)
    scores_path = write_pgm(result.scores, f"{args.path}.{wl.name}.pgm")
    print(f"score map:          {scores_path}")
    if result.auc is not None:
        curve = result.curve
        print(f"detection AUC:      {result.auc:.4f}  "
              f"(recall {curve.recall[-1]:.0%} within "
              f"{int(curve.alarms[-1])} alarms)")
    if profiler is not None:
        _print_profile(profiler, args.profile)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    """Run a band-reduction workload (PCA) on an ENVI cube."""
    from repro.viz import write_pgm
    from repro.workloads import get_workload

    cube, _ = _load_scene(args.path)
    wl = get_workload(args.algo)
    params = {"n_components": args.components, **_knob_params(args)}
    profiler = None
    if args.profile is not None:
        from repro.profiling import Profiler

        profiler = Profiler(meta={
            "image": f"{cube.lines}x{cube.samples}x{cube.bands}",
            "workload": wl.name, "workers": params["n_workers"]})
    result = wl.run(cube, params, profiler=profiler)
    out_path = f"{args.path}.{wl.name}.npy"
    np.save(out_path, result.transformed)
    total = float(result.scores.sum())
    shares = (result.scores / total if total > 0
              else result.scores)
    print(f"reduced cube:       {out_path} "
          f"({cube.bands} -> {result.transformed.shape[2]} band(s))")
    print("component variance: "
          + ", ".join(f"{s:.1%}" for s in shares))
    first_pc = write_pgm(result.transformed[:, :, 0],
                         f"{args.path}.{wl.name}1.pgm")
    print(f"first component:    {first_pc}")
    if profiler is not None:
        _print_profile(profiler, args.profile)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the AMC job server on a unix socket until ``shutdown``."""
    import asyncio

    from repro.serving import AMCServer, UnixSocketFrontend

    default_params = {"n_classes": args.classes, "se_radius": args.radius,
                      "backend": args.backend,
                      "n_workers": args.job_workers,
                      **_knob_params(args, workers=False)}

    async def _serve() -> None:
        server = AMCServer(workers=args.workers,
                           queue_size=args.queue_size,
                           cache_bytes=args.cache_mb << 20,
                           state_dir=args.state_dir,
                           watchdog_deadline_s=args.watchdog_deadline_s,
                           default_params=default_params)
        async with server:
            frontend = await UnixSocketFrontend(server,
                                                args.socket).start()
            durable = ("" if args.state_dir is None
                       else f", durable state in {args.state_dir}")
            print(f"serving on {args.socket} "
                  f"({args.workers} worker(s), queue {args.queue_size}, "
                  f"cache {args.cache_mb} MiB{durable})")
            recovered = server.counters.recovered
            if recovered:
                print(f"journal replay re-enqueued {recovered} "
                      f"interrupted job(s)")
            print("stop with: repro submit --shutdown "
                  f"--socket {args.socket}")
            sys.stdout.flush()
            await frontend.serve_until_shutdown()
            stats = server.stats()
        counters = stats["counters"]
        cache = stats["cache"]
        print(f"served {counters['submitted']} submission(s): "
              f"{counters['executed']} executed, "
              f"{counters['coalesced']} coalesced, "
              f"{counters['cache_hits']} cache hit(s), "
              f"{counters['rejected']} rejected "
              f"({cache['evictions']} eviction(s))")

    asyncio.run(_serve())
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Client mode: submit a cube reference to a running server."""
    import json
    import os

    from repro.serving import request, submit_with_retry

    if args.shutdown:
        response = request(args.socket, {"op": "shutdown"})
        if response.get("ok"):
            print("server stopping")
            return 0
        print(f"error: {response.get('message')}", file=sys.stderr)
        return 1

    if args.health:
        response = request(args.socket, {"op": "health"})
        if not response.get("ok"):
            print(f"error: {response.get('message')}", file=sys.stderr)
            return 1
        print(json.dumps(response["health"], indent=2, sort_keys=True))
        return 0

    if args.path is None:
        print("a cube path is required (or --shutdown/--health)",
              file=sys.stderr)
        return 2
    params = {"n_classes": args.classes, "se_radius": args.radius,
              "backend": args.backend, **_knob_params(args, workers=False)}
    payload = {
        "op": "submit", "cube": args.path, "params": params,
        "wait": not args.no_wait, "profile": args.profile,
        "write_outputs": args.write_outputs}
    if args.workload is not None:
        import dataclasses

        from repro.workloads import get_workload

        # the AMC flag values above speak AMCConfig; keep only the
        # fields the chosen workload's config schema actually declares
        wl = get_workload(args.workload)
        declared = {f.name for f in dataclasses.fields(wl.config_type)}
        payload["params"] = {name: value for name, value in params.items()
                             if name in declared}
        payload["workload"] = wl.name
    if args.target_class is not None:
        payload["target_class"] = args.target_class
    # pid-seeded jitter: deterministic per process, decorrelated
    # across the concurrent clients that matter for herd avoidance
    response = submit_with_retry(args.socket, payload,
                                 retry_budget_s=args.retry_budget_s,
                                 jitter_seed=os.getpid())
    if not response.get("ok"):
        message = f"{response.get('error')}: {response.get('message')}"
        if "retry_after_s" in response:
            message += (f" (busy — retry in "
                        f"{response['retry_after_s']:.1f}s)")
        print(message, file=sys.stderr)
        return 3 if "retry_after_s" in response else 1
    job = response["job"]
    origin = ("cache" if job["from_cache"]
              else f"executed (+{job['coalesced']} coalesced)")
    label = job.get("workload") or "job"
    print(f"{label} job {job['job_id']}: {job['state']} [{origin}]")
    if job.get("result_sha256"):
        print(f"result sha256:      {job['result_sha256']}")
    if job.get("overall_accuracy") is not None:
        print(f"overall accuracy:   {job['overall_accuracy']:.2f}%")
    if job.get("error"):
        print(f"error:              {job['error']}", file=sys.stderr)
    for kind, path in (response.get("outputs") or {}).items():
        print(f"{kind + ':':<20}{path}")
    if args.profile and response.get("profile"):
        from repro.profiling import ProfileReport

        print(ProfileReport.from_dict(response["profile"]).to_text())
    return 0 if job["state"] != "failed" else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import format_table, paper_size_points, platform_matrix
    from repro.bench.scaling import speedup_summary
    from repro.cpu import GCC40, ICC90

    build = GCC40 if args.table == 4 else ICC90
    points = paper_size_points()
    columns = platform_matrix(points, cpu_build=build)
    rows = [[f"{p.size_mb:.0f}", columns["P4 C"][i],
             columns["Prescott"][i], columns["FX5950 U"][i],
             columns["7800 GTX"][i]]
            for i, p in enumerate(points)]
    print(format_table(
        f"Table {args.table} — modeled execution time (ms), "
        f"{build.name} builds",
        ["Size (MB)", "P4 C", "Prescott", "FX5950 U", "7800 GTX"], rows))
    ratios = speedup_summary(columns)
    print(f"\nP4 / 7800 GTX speedup: {ratios['p4_over_7800']:.1f}x")
    return 0


def _cmd_info(_: argparse.Namespace) -> int:
    from repro.cpu import PENTIUM4_NORTHWOOD, PRESCOTT_660
    from repro.gpu import GEFORCE_7800GTX, GEFORCE_FX5950U

    print("GPU platforms (paper Table 1):")
    for spec in (GEFORCE_FX5950U, GEFORCE_7800GTX):
        print(f"  {spec.name} ({spec.year}, {spec.architecture}): "
              f"{spec.n_fragment_pipes} pipes @ "
              f"{spec.core_clock_hz / 1e6:.0f} MHz, "
              f"{spec.mem_bandwidth / 1e9:.1f} GB/s, "
              f"{spec.vram_bytes >> 20} MiB VRAM")
    print("CPU platforms (paper Table 2):")
    for spec in (PENTIUM4_NORTHWOOD, PRESCOTT_660):
        print(f"  {spec.name} ({spec.year}): "
              f"{spec.clock_hz / 1e9:.1f} GHz, "
              f"FSB {spec.fsb_bandwidth / 1e9:.1f} GB/s, "
              f"L2 {spec.l2_bytes >> 10} KiB")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AMC hyperspectral classification on a simulated "
                    "commodity GPU (ICPPW 2006 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize an ENVI scene")
    gen.add_argument("path", help="output path for the raw cube")
    gen.add_argument("--lines", type=int, default=128)
    gen.add_argument("--samples", type=int, default=128)
    gen.add_argument("--bands", type=int, default=224)
    gen.add_argument("--seed", type=int, default=2006)
    gen.set_defaults(func=_cmd_generate)

    from repro.backends import backend_names
    from repro.workloads import workload_names

    def add_knob_flags(cmd, *, workers: bool = True) -> None:
        """The execution knobs (read back by :func:`_knob_params`);
        ``workers=False`` where ``--workers`` is not a knob."""
        if workers:
            cmd.add_argument("--workers", type=int, default=1, metavar="N",
                             help="worker processes for the chunk-"
                                  "parallel stage (0 = all cores; results "
                                  "are identical to serial)")
        cmd.add_argument("--retries", type=int, default=0, metavar="N",
                         help="extra attempts per chunk before the run "
                              "fails (chunk independence makes retries "
                              "bit-identical)")
        cmd.add_argument("--chunk-timeout-s", type=float, default=None,
                         metavar="S",
                         help="per-chunk deadline when collecting pool "
                              "results; needed to detect crashed workers "
                              "(lost chunks are recomputed in-process)")

    def add_profile_flag(cmd) -> None:
        cmd.add_argument("--profile", nargs="?", const="-", default=None,
                         metavar="PATH",
                         help="emit a stage/chunk timing report: text "
                              "to stdout, or JSON to PATH when given")

    cls = sub.add_parser("classify", help="run AMC on an ENVI cube")
    cls.add_argument("path", nargs="+",
                     help="path(s) to raw cube(s) (with .hdr); several "
                          "paths run as a batch through one pool")
    cls.add_argument("--classes", type=int, default=45)
    cls.add_argument("--radius", type=int, default=1)
    cls.add_argument("--backend", choices=backend_names(),
                     default="reference")
    cls.add_argument("--trace", metavar="PATH", default=None,
                     help="with --backend gpu: write a Chrome-trace "
                          "timeline of the device work to PATH")
    add_knob_flags(cls)
    add_profile_flag(cls)
    cls.add_argument("--on-error", choices=("raise", "skip", "collect"),
                     default="raise",
                     help="batch mode: what one failing cube does — "
                          "abort the batch, skip the cube, or report "
                          "it alongside the successes")
    cls.set_defaults(func=_cmd_classify)

    det = sub.add_parser(
        "detect", help="run a detection workload on an ENVI cube")
    det.add_argument("path", help="path to a raw cube (with .hdr)")
    det.add_argument("--algo", choices=workload_names(kind="detection"),
                     default="sam",
                     help="registered detection workload")
    det.add_argument("--target-class", type=int, default=None,
                     metavar="K",
                     help="ground-truth class whose mean spectrum is "
                          "the target and whose footprint is the "
                          "evaluation mask (needs <path>.gt.npy)")
    det.add_argument("--regularization", type=float, default=1e-6,
                     metavar="X",
                     help="ridge factor on the scene second-moment "
                          "matrix (CEM/RX)")
    det.add_argument("--max-alarms", type=int, default=None, metavar="N",
                     help="detection-curve horizon (default: 10%% of "
                          "the scene)")
    add_knob_flags(det)
    add_profile_flag(det)
    det.set_defaults(func=_cmd_detect)

    red = sub.add_parser(
        "reduce", help="run a band-reduction workload on an ENVI cube")
    red.add_argument("path", help="path to a raw cube (with .hdr)")
    red.add_argument("--algo", choices=workload_names(kind="reduction"),
                     default="pca",
                     help="registered reduction workload")
    red.add_argument("--components", type=int, default=3, metavar="K",
                     help="number of leading components to keep")
    add_knob_flags(red)
    add_profile_flag(red)
    red.set_defaults(func=_cmd_reduce)

    def add_param_flags(cmd) -> None:
        """The shared AMC parameter flags of serve/submit."""
        cmd.add_argument("--classes", type=int, default=45)
        cmd.add_argument("--radius", type=int, default=1)
        cmd.add_argument("--backend", choices=backend_names(),
                         default="reference")
        add_knob_flags(cmd, workers=False)

    srv = sub.add_parser(
        "serve", help="run the AMC job server on a unix socket")
    srv.add_argument("--socket", default="/tmp/repro-amc.sock",
                     metavar="PATH", help="unix socket path to bind")
    srv.add_argument("--workers", type=int, default=2, metavar="N",
                     help="concurrent server worker threads (each owns "
                          "a persistent pipeline)")
    srv.add_argument("--job-workers", type=int, default=1, metavar="N",
                     help="chunk-parallel worker processes *inside* "
                          "each job (AMCConfig.n_workers)")
    srv.add_argument("--queue-size", type=int, default=16, metavar="N",
                     help="admission bound: waiting jobs beyond this "
                          "are rejected with a retry-after hint")
    srv.add_argument("--cache-mb", type=int, default=256, metavar="MB",
                     help="result-cache payload budget: the finished "
                          "results the server keeps alive")
    srv.add_argument("--state-dir", default=None, metavar="DIR",
                     help="enable the durable tier: write-ahead job "
                          "journal + disk result cache here; on "
                          "restart the journal replays (interrupted "
                          "jobs re-enqueue, finished ones are not "
                          "re-executed)")
    srv.add_argument("--watchdog-deadline-s", type=float, default=None,
                     metavar="S",
                     help="enable the stuck-job watchdog: running jobs "
                          "whose executor heartbeat is older than this "
                          "are requeued under their retry budget")
    add_param_flags(srv)
    srv.set_defaults(func=_cmd_serve)

    sbm = sub.add_parser(
        "submit", help="submit a cube to a running job server")
    sbm.add_argument("path", nargs="?", default=None,
                     help="path to a raw cube (with .hdr); the server "
                          "loads it, so the path must be visible to the "
                          "server process")
    sbm.add_argument("--socket", default="/tmp/repro-amc.sock",
                     metavar="PATH", help="unix socket of the server")
    sbm.add_argument("--no-wait", action="store_true",
                     help="return the job id immediately instead of "
                          "waiting for completion")
    sbm.add_argument("--profile", action="store_true",
                     help="print the job's stage/chunk timing report")
    sbm.add_argument("--write-outputs", action="store_true",
                     help="server writes .mei.pgm / .classes.ppm next "
                          "to the cube")
    sbm.add_argument("--shutdown", action="store_true",
                     help="ask the server to stop instead of submitting")
    sbm.add_argument("--health", action="store_true",
                     help="print the server's health snapshot (queue, "
                          "caches, journal, watchdog) instead of "
                          "submitting")
    sbm.add_argument("--retry-budget-s", type=float, default=0.0,
                     metavar="S",
                     help="retry busy rejections and connection "
                          "failures with exponential backoff + jitter "
                          "for up to this many seconds (0 = single "
                          "attempt, the historical exit-3-on-busy "
                          "behavior)")
    sbm.add_argument("--workload", choices=workload_names(),
                     default=None,
                     help="registered workload to run (default: the "
                          "server's default, normally amc)")
    sbm.add_argument("--target-class", type=int, default=None,
                     metavar="K",
                     help="for detection workloads: derive the target "
                          "spectrum and evaluation mask from ground-"
                          "truth class K (server-side)")
    add_param_flags(sbm)
    sbm.set_defaults(func=_cmd_submit)

    bench = sub.add_parser("bench", help="print a modeled paper table")
    bench.add_argument("--table", type=int, choices=(4, 5), default=4)
    bench.set_defaults(func=_cmd_bench)

    info = sub.add_parser("info", help="list the simulated platforms")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point (console script ``repro``)."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
