"""Record acceptance measurements to ``BENCH_*.json`` at the repo root.

Five targets:

``morph`` (the default, preserving the historical invocation)
    Measures the reference-backend morphological stage at radius 2:
    the all-pairs oracle (``mei_all_pairs``) against the shift-reuse
    engine (``mei_reference``).  It takes the best of a few repeats of
    each and writes the speedup plus the engine's reuse accounting to
    ``BENCH_morph.json``.  The acceptance bar is a >= 2x measured
    speedup with bit-identical output (asserted here and pinned by the
    test suite).

``serving``
    Drives an in-process :class:`~repro.serving.AMCServer` with 1, 4
    and 16 concurrent clients, recording jobs/sec plus cold vs
    cache-hit latency to ``BENCH_serving.json``.  The warm pass is
    asserted to add *zero* pipeline executions with digests identical
    to the cold pass — the serving acceptance criterion, measured.

``workloads``
    Submits one job per registered workload (amc, sam, cem, rx, pca)
    through an in-process server — cold, then resubmitted — recording
    per-workload cold vs cache-hit latency to ``BENCH_workloads.json``.
    Asserts the warm pass adds zero pipeline executions per workload
    with identical digests, and that the five keys never collided
    (exactly five executions total for ten submissions).

``recovery``
    Measures the durable tier: per-job cost of journaling + payload
    spill + disk write-through (durable vs plain server, same jobs),
    journal replay time against journal length, restart-recovery time
    for a server with completed history, and the warm disk-cache hit
    latency after a restart.  Asserts the recovery properties inside
    the measurement: every replayed job is terminal without
    re-execution and a post-restart resubmission is a disk hit with
    the original digest.  Written to ``BENCH_recovery.json``.  The
    non-durable serving path is unchanged by the durability feature
    (``state_dir=None`` servers build no journal — the only added work
    is `is None` checks), which keeps ``BENCH_serving.json`` the
    regression reference for the historical path.

``lint``
    Times the reprolint analyzer itself on the real repository: the
    per-file tier alone, the whole-program tier cold (index built from
    scratch) and warm (memoized index), and the full two-tier run that
    CI gates on.  Asserts inside the measurement that every pass comes
    back clean and that the two-tier run fits the 10-second acceptance
    budget.  Written to ``BENCH_LINT.json``.

Run from the repository root::

    PYTHONPATH=src python -m tools.bench_record [morph|serving|workloads|recovery|lint]
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time

import numpy as np

from repro.core.mei import mei_all_pairs, mei_reference

LINES, SAMPLES, BANDS = 96, 96, 32
RADIUS = 2
REPEATS = 3
SEED = 20060815

#: Concurrency levels of the serving measurement.
SERVING_CLIENTS = (1, 4, 16)


def _best_of(fn, repeats: int = REPEATS):
    best_s, out = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best_s = min(best_s, time.perf_counter() - start)
    return best_s, out


def measure() -> dict:
    """Run the measurement and return the record dict."""
    cube = np.random.default_rng(SEED).uniform(
        0.05, 1.0, size=(LINES, SAMPLES, BANDS))
    pairs_s, (pairs, _) = _best_of(lambda: mei_all_pairs(cube, RADIUS))
    shift_s, shift = _best_of(lambda: mei_reference(cube, RADIUS))
    np.testing.assert_array_equal(shift.mei, pairs.mei)
    np.testing.assert_array_equal(shift.cumulative, pairs.cumulative)

    stats = shift.stats
    return {
        "bench": "morphological stage, reference backend, "
                 "all-pairs vs shift-reuse",
        "cube": [LINES, SAMPLES, BANDS],
        "radius": RADIUS,
        "repeats": REPEATS,
        "pairs_wall_s": round(pairs_s, 6),
        "shift_wall_s": round(shift_s, 6),
        "speedup": round(pairs_s / shift_s, 3),
        "bit_identical": True,
        "reuse": stats.as_counters(),
    }


async def _serving_level(server, cube, clients: int) -> dict:
    """One concurrency level: cold pass, then the identical warm pass."""

    async def one_request(params):
        start = time.perf_counter()
        job = await server.submit(cube, params)
        await server.wait(job.job_id)
        return time.perf_counter() - start, job

    param_sets = [{"n_classes": 3 + i} for i in range(clients)]

    start = time.perf_counter()
    cold = await asyncio.gather(*(one_request(p) for p in param_sets))
    cold_wall = time.perf_counter() - start
    runs_after_cold = server.pipeline_runs

    start = time.perf_counter()
    warm = await asyncio.gather(*(one_request(p) for p in param_sets))
    warm_wall = time.perf_counter() - start

    # the acceptance criterion, measured: zero extra executions and
    # bit-identical digests on the warm pass
    assert server.pipeline_runs == runs_after_cold
    assert all(w.result_sha256 == c.result_sha256
               for (_, c), (_, w) in zip(cold, warm))

    def mean_ms(latencies):
        return round(1e3 * sum(latencies) / len(latencies), 3)

    return {
        "clients": clients,
        "cold_jobs_per_s": round(clients / cold_wall, 3),
        "cache_hit_jobs_per_s": round(clients / warm_wall, 3),
        "cold_latency_ms": mean_ms([s for s, _ in cold]),
        "cache_hit_latency_ms": mean_ms([s for s, _ in warm]),
        "pipeline_runs": runs_after_cold,
    }


def measure_serving() -> dict:
    """Run the serving throughput measurement; return the record dict."""
    from repro.hsi import SceneParams, generate_scene
    from repro.serving import AMCServer

    scene = generate_scene(SceneParams(lines=32, samples=32,
                                       band_count=32, seed=SEED % 9973,
                                       min_field=5))
    cube = scene.cube

    async def sweep():
        levels = []
        for clients in SERVING_CLIENTS:
            async with AMCServer(workers=2,
                                 queue_size=max(16, clients)) as server:
                levels.append(await _serving_level(server, cube, clients))
        return levels

    return {
        "bench": "serving throughput: jobs/sec and cold vs cache-hit "
                 "latency under concurrent clients",
        "cube": [32, 32, 32],
        "workers": 2,
        "zero_duplicate_executions": True,
        "levels": asyncio.run(sweep()),
    }


def measure_workloads() -> dict:
    """Per-workload cold vs cache-hit timing; return the record dict."""
    from repro.hsi import SceneParams, generate_scene
    from repro.serving import AMCServer
    from repro.workloads import get_workload, workload_names

    scene = generate_scene(SceneParams(lines=32, samples=32,
                                       band_count=32, seed=SEED % 9973,
                                       min_field=5))
    cube = scene.cube.as_bip()
    target = tuple(float(v) for v in
                   cube.reshape(-1, cube.shape[-1])[:16].mean(axis=0))

    def params_for(workload):
        params = {}
        if workload.requires_target:
            params["target"] = target
        if workload.name == "amc":
            params["n_classes"] = 4
        return params

    async def sweep():
        rows = []
        async with AMCServer(workers=1) as server:
            for name in workload_names():
                workload = get_workload(name)
                params = params_for(workload)

                async def one_pass():
                    start = time.perf_counter()
                    job = await server.submit(cube, params,
                                              workload=name)
                    status = await server.wait(job.job_id)
                    return time.perf_counter() - start, status

                runs_before = server.pipeline_runs
                cold_s, cold = await one_pass()
                assert server.pipeline_runs == runs_before + 1
                warm_s, warm = await one_pass()
                # the acceptance criterion, measured: the resubmission
                # is a pure cache hit with the cold result's bytes
                assert server.pipeline_runs == runs_before + 1
                assert warm.from_cache
                assert warm.result_sha256 == cold.result_sha256
                rows.append({
                    "workload": name,
                    "kind": workload.kind,
                    "cold_ms": round(1e3 * cold_s, 3),
                    "cache_hit_ms": round(1e3 * warm_s, 3),
                })
            total_runs = server.pipeline_runs
        # five workloads, one cube: the keys never collided
        assert total_runs == len(rows)
        return rows

    return {
        "bench": "per-workload serving latency: cold execution vs "
                 "content-addressed cache hit, one cube, all "
                 "registered workloads",
        "cube": [32, 32, 32],
        "workers": 1,
        "zero_duplicate_executions": True,
        "distinct_keys_per_workload": True,
        "workloads": asyncio.run(sweep()),
    }


#: Jobs per sweep and journal sizes of the recovery measurement.
RECOVERY_JOBS = 8
REPLAY_SIZES = (100, 1000)


def measure_recovery() -> dict:
    """Durable-tier cost and recovery timing; return the record dict."""
    import tempfile

    from repro.hsi import SceneParams, generate_scene
    from repro.serving import AMCServer, JobJournal

    scene = generate_scene(SceneParams(lines=32, samples=32,
                                       band_count=32, seed=SEED % 9973,
                                       min_field=5))
    cube = scene.cube

    def sweep(state_dir=None):
        async def go():
            async with AMCServer(workers=2,
                                 state_dir=state_dir) as server:
                start = time.perf_counter()
                for i in range(RECOVERY_JOBS):
                    job = await server.submit(cube, {"n_classes": 3 + i})
                    status = await server.wait(job.job_id)
                    assert status.state == "done"
                return time.perf_counter() - start
        return asyncio.run(go())

    sweep()                                  # warm pipelines and caches
    plain_s = min(sweep() for _ in range(REPEATS))
    durable_runs = []
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as state:
            durable_runs.append(sweep(state))
    durable_s = min(durable_runs)
    per_job_ms = 1e3 * (durable_s - plain_s) / RECOVERY_JOBS

    # journal replay scaling: synthetic queued/running/done histories
    replay = []
    for size in REPLAY_SIZES:
        with tempfile.TemporaryDirectory() as state:
            journal = JobJournal(state)
            states = ("queued", "running", "done")
            for seq in range(size):
                journal.append(states[seq % 3], job_id=seq // 3,
                               key=f"k{seq // 3}")
            journal.close()
            replay_s, report = _best_of(journal.replay)
            assert report.records == size
            replay.append({"records": size,
                           "replay_ms": round(1e3 * replay_s, 3)})

    # restart recovery: a server with completed history comes back with
    # every job terminal, and a resubmission is a pure disk-cache hit
    with tempfile.TemporaryDirectory() as state:
        async def first_life():
            async with AMCServer(workers=2, state_dir=state) as server:
                digests = []
                for i in range(RECOVERY_JOBS):
                    job = await server.submit(cube, {"n_classes": 3 + i})
                    await server.wait(job.job_id)
                    digests.append(job.result_sha256)
                return digests

        async def second_life():
            start = time.perf_counter()
            async with AMCServer(workers=2, state_dir=state) as server:
                restart_s = time.perf_counter() - start
                replayed = [server.status(i + 1)
                            for i in range(RECOVERY_JOBS)]
                hit_start = time.perf_counter()
                job = await server.submit(cube, {"n_classes": 3})
                await server.wait(job.job_id)
                hit_s = time.perf_counter() - hit_start
                # the acceptance criterion, measured: nothing
                # re-executed, the digest survived the restart
                assert server.pipeline_runs == 0
                assert job.from_cache
                return restart_s, hit_s, replayed, job

        digests = asyncio.run(first_life())
        restart_s, hit_s, replayed, resubmit = asyncio.run(second_life())
        assert all(r.state == "done" and r.recovered for r in replayed)
        assert [r.result_sha256 for r in replayed] == digests
        assert resubmit.result_sha256 == digests[0]

    return {
        "bench": "durable serving: journal+spill+disk-tier cost per "
                 "job, replay scaling, restart recovery and warm "
                 "disk-cache hits",
        "cube": [32, 32, 32],
        "jobs": RECOVERY_JOBS,
        "plain_wall_s": round(plain_s, 6),
        "durable_wall_s": round(durable_s, 6),
        "durable_cost_per_job_ms": round(per_job_ms, 3),
        "durable_overhead_pct": round(
            1e2 * (durable_s - plain_s) / plain_s, 1),
        "replay": replay,
        "restart_recovery_ms": round(1e3 * restart_s, 3),
        "disk_cache_hit_ms": round(1e3 * hit_s, 3),
        "recovered_without_reexecution": True,
        "digests_survive_restart": True,
    }


#: The whole-program acceptance budget, seconds (see ISSUE gate and
#: ``tests/reprolint/test_program_rules.py``).
LINT_BUDGET_S = 10.0


def measure_lint() -> dict:
    """Time the analyzer tiers on the repo; return the record dict."""
    from tools.reprolint import all_rules, run
    from tools.reprolint.program import _INDEX_CACHE

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    file_ids = [r.rule_id for r in all_rules() if r.tier == "file"]
    program_ids = [r.rule_id for r in all_rules() if r.tier == "program"]

    def clean(result):
        assert result.findings == [], [
            f"{f.rule_id} {f.path}:{f.line}" for f in result.findings]
        return result

    per_file_s, per_file = _best_of(
        lambda: clean(run(root=root, rules=file_ids)))

    def program_cold():
        _INDEX_CACHE.clear()
        return clean(run(root=root, rules=program_ids))

    program_cold_s, _ = _best_of(program_cold)
    # warm: the memoized index is reused, only the rules re-run
    program_warm_s, _ = _best_of(
        lambda: clean(run(root=root, rules=program_ids)))

    def two_tier():
        _INDEX_CACHE.clear()
        return clean(run(root=root))

    two_tier_s, _ = _best_of(two_tier)
    assert two_tier_s < LINT_BUDGET_S

    return {
        "bench": "reprolint analyzer: per-file tier vs whole-program "
                 "tier (cold and memoized index) vs the gated "
                 "two-tier run, on the real repository",
        "files_scanned": per_file.files_scanned,
        "file_rules": len(file_ids),
        "program_rules": len(program_ids),
        "repeats": REPEATS,
        "per_file_wall_s": round(per_file_s, 6),
        "program_cold_wall_s": round(program_cold_s, 6),
        "program_warm_wall_s": round(program_warm_s, 6),
        "two_tier_wall_s": round(two_tier_s, 6),
        "budget_s": LINT_BUDGET_S,
        "within_budget": True,
        "clean": True,
    }


def _write(record: dict, filename: str) -> str:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, filename)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    target = argv[0] if argv else "morph"
    if target == "morph":
        record = measure()
        path = _write(record, "BENCH_morph.json")
        print(f"speedup {record['speedup']}x "
              f"(pairs {record['pairs_wall_s']}s -> "
              f"shift {record['shift_wall_s']}s, "
              f"reuse ratio {record['reuse']['reuse_ratio']:.2f})")
    elif target == "serving":
        record = measure_serving()
        path = _write(record, "BENCH_serving.json")
        for level in record["levels"]:
            print(f"{level['clients']:>2} client(s): "
                  f"cold {level['cold_jobs_per_s']} jobs/s "
                  f"({level['cold_latency_ms']} ms), "
                  f"cache-hit {level['cache_hit_jobs_per_s']} jobs/s "
                  f"({level['cache_hit_latency_ms']} ms)")
    elif target == "workloads":
        record = measure_workloads()
        path = _write(record, "BENCH_workloads.json")
        for row in record["workloads"]:
            print(f"{row['workload']:>4} ({row['kind']}): "
                  f"cold {row['cold_ms']} ms, "
                  f"cache-hit {row['cache_hit_ms']} ms")
    elif target == "recovery":
        record = measure_recovery()
        path = _write(record, "BENCH_recovery.json")
        print(f"durable cost {record['durable_cost_per_job_ms']} ms/job "
              f"({record['durable_overhead_pct']}% on this geometry); "
              f"restart recovery {record['restart_recovery_ms']} ms, "
              f"disk hit {record['disk_cache_hit_ms']} ms")
        for row in record["replay"]:
            print(f"replay {row['records']:>5} records: "
                  f"{row['replay_ms']} ms")
    elif target == "lint":
        record = measure_lint()
        path = _write(record, "BENCH_LINT.json")
        print(f"per-file tier {record['per_file_wall_s']}s, "
              f"program tier cold {record['program_cold_wall_s']}s / "
              f"warm {record['program_warm_wall_s']}s, "
              f"two-tier {record['two_tier_wall_s']}s "
              f"(budget {record['budget_s']}s) over "
              f"{record['files_scanned']} files")
    else:
        raise SystemExit(f"unknown bench target {target!r}; "
                         f"pick from: morph, serving, workloads, "
                         f"recovery, lint")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
