"""Tests for the worker pool (repro.parallel.pool) under its drivers.

The pool's fallback, retry and profiling behaviours are exercised
through :func:`~repro.parallel.parallel_morphological_stage`, the
driver production runs; every result must equal the serial
whole-image stage bit for bit.
"""

import os

import numpy as np
import pytest

from repro import faults
from repro.core.amc_gpu import gpu_morphological_stage
from repro.core.mei import mei_reference
from repro.errors import GpuOutOfMemoryError, StreamError, \
    TransientFaultError
from repro.faults import FaultInjector, FaultSpec
from repro.parallel import parallel_morphological_stage, resolve_workers
from repro.parallel import pool as pool_mod
from repro.profiling import Profiler
from repro.resilience import RetryPolicy


def _assert_matches(maps, whole):
    mei, erosion, dilation, _ = maps
    np.testing.assert_array_equal(mei, whole.mei)
    np.testing.assert_array_equal(erosion, whole.erosion_index)
    np.testing.assert_array_equal(dilation, whole.dilation_index)


class TestResolveWorkers:
    def test_zero_means_all_cores(self):
        assert resolve_workers(0) >= 1

    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(StreamError, match="n_workers"):
            resolve_workers(-1)


class TestFallback:
    def test_pool_unavailable_falls_back_to_serial(self, small_cube,
                                                   monkeypatch):
        """A host without working pools still gets correct results."""
        def broken_pool(*args, **kwargs):
            raise OSError("no process spawning here")

        monkeypatch.setattr(pool_mod, "_make_pool", broken_pool)
        _assert_matches(parallel_morphological_stage(small_cube, 1,
                                                     n_workers=4),
                        mei_reference(small_cube, 1))

    def test_pool_unavailable_records_recovery_event(self, small_cube,
                                                     monkeypatch):
        monkeypatch.setattr(
            pool_mod, "_make_pool",
            lambda *a, **k: (_ for _ in ()).throw(OSError("nope")))
        profiler = Profiler()
        parallel_morphological_stage(small_cube, 1, n_workers=4,
                                     profiler=profiler)
        events = [e for e in profiler.event_records
                  if e.kind == "pool_recovery"]
        assert len(events) == 1
        assert events[0].chunk_index == -1      # whole-pool failure
        assert "OSError" in events[0].detail


@pytest.fixture()
def _clean_faults():
    faults.uninstall()
    faults.set_attempt(0)
    yield
    faults.uninstall()
    faults.set_attempt(0)


class TestResilience:
    """Injected faults must never change results — only the schedule.

    The injector is installed in the parent; fork-based pool workers
    inherit it, so worker-side execution sees the same fault plan.
    ``small_cube`` has 10 lines; five chunks give 2 core lines each.
    """

    def test_worker_crash_recovers_bit_identical(self, small_cube,
                                                 _clean_faults):
        """A worker dying mid-task (os._exit) loses only its chunk."""
        faults.install(FaultInjector(
            [FaultSpec(kind="worker_crash", index=0, attempt=0)]))
        profiler = Profiler()
        maps = parallel_morphological_stage(
            small_cube, 1, n_workers=2, profiler=profiler,
            policy=RetryPolicy(chunk_timeout_s=2.0))
        _assert_matches(maps, mei_reference(small_cube, 1))
        assert any(e.kind == "pool_recovery" and e.chunk_index == 0
                   for e in profiler.event_records)
        recovered = [r for r in profiler.chunk_records if r.index == 0]
        assert recovered[0].worker == os.getpid()   # recomputed in-process
        assert recovered[0].retries >= 1

    def test_injected_timeout_recovers_bit_identical(self, small_cube,
                                                     _clean_faults):
        """A stalled chunk trips the deadline and is recomputed."""
        faults.install(FaultInjector(
            [FaultSpec(kind="timeout", index=1, attempt=0, sleep_s=20.0)]))
        profiler = Profiler()
        maps = parallel_morphological_stage(
            small_cube, 1, n_workers=2, profiler=profiler,
            policy=RetryPolicy(chunk_timeout_s=1.0))
        _assert_matches(maps, mei_reference(small_cube, 1))
        assert any(e.kind == "pool_recovery" and e.chunk_index == 1
                   for e in profiler.event_records)

    def test_transient_fault_retried_worker_side(self, small_cube,
                                                 _clean_faults):
        faults.install(FaultInjector(
            [FaultSpec(kind="transient", index=2, attempt=0)]))
        profiler = Profiler()
        maps = parallel_morphological_stage(
            small_cube, 1, n_workers=2, n_chunks=5, profiler=profiler,
            policy=RetryPolicy(max_retries=1))
        _assert_matches(maps, mei_reference(small_cube, 1))
        retried = [r for r in profiler.chunk_records if r.index == 2]
        assert retried[0].retries == 1
        assert retried[0].worker != os.getpid()     # stayed in the pool

    def test_transient_fault_retried_serially(self, small_cube,
                                              _clean_faults):
        """The serial path runs the same retry loop in-process."""
        faults.install(FaultInjector(
            [FaultSpec(kind="transient", index=2, attempt=0)]))
        profiler = Profiler()
        maps = parallel_morphological_stage(
            small_cube, 1, n_workers=1, n_chunks=5, profiler=profiler,
            policy=RetryPolicy(max_retries=1))
        _assert_matches(maps, mei_reference(small_cube, 1))
        retried = [r for r in profiler.chunk_records if r.index == 2]
        assert retried[0].retries == 1

    def test_exhausted_retries_raise(self, small_cube, _clean_faults):
        faults.install(FaultInjector(
            [FaultSpec(kind="transient", index=0, attempt=None)]))
        with pytest.raises(TransientFaultError):
            parallel_morphological_stage(
                small_cube, 1, n_workers=1, n_chunks=5,
                policy=RetryPolicy(max_retries=2))

    def test_oom_degrades_and_stays_bit_identical(self, small_cube,
                                                  _clean_faults):
        """Injected OOM forces a smaller-chunk re-plan, same results."""
        faults.install(FaultInjector(
            [FaultSpec(kind="gpu_oom", attempt=None, ext_lines_above=4)]))
        profiler = Profiler()
        maps = parallel_morphological_stage(
            small_cube, 1, n_workers=1, n_chunks=2, profiler=profiler)
        _assert_matches(maps, mei_reference(small_cube, 1))
        degrades = [e for e in profiler.event_records
                    if e.kind == "oom_degrade"]
        assert len(degrades) == 1
        # 5 core lines (6 extended) -> 2 core lines (at most 4 extended)
        assert "5 -> 2" in degrades[0].detail

    def test_oom_below_floor_raises(self, small_cube, _clean_faults):
        """Degradation bottoms out at one core line per chunk."""
        faults.install(FaultInjector(
            [FaultSpec(kind="gpu_oom", attempt=None, ext_lines_above=2)]))
        with pytest.raises(GpuOutOfMemoryError):
            parallel_morphological_stage(small_cube, 1, n_workers=1,
                                         n_chunks=2)


class TestProfiling:
    def test_one_record_per_chunk(self, small_cube):
        profiler = Profiler()
        parallel_morphological_stage(small_cube, 1, n_workers=2,
                                     n_chunks=5, profiler=profiler)
        records = profiler.chunk_records
        assert len(records) == 5  # 10 lines / 2 core lines
        assert sorted(r.index for r in records) == list(range(5))
        assert sum(r.core_lines for r in records) == 10
        for r in records:
            assert r.ext_lines >= r.core_lines
            assert r.halo == 1
            assert r.wall_s >= 0.0

    def test_gpu_records_carry_transfer_split(self, small_cube):
        profiler = Profiler()
        maps = parallel_morphological_stage(small_cube, 1, backend="gpu",
                                            n_workers=2, profiler=profiler)
        _assert_matches(maps, gpu_morphological_stage(small_cube, 1))
        assert len(profiler.chunk_records) == 2
        for r in profiler.chunk_records:
            assert r.upload_s > 0.0
            assert r.compute_s > 0.0
            assert r.download_s > 0.0

    def test_cpu_records_have_no_bus_time(self, small_cube):
        profiler = Profiler()
        parallel_morphological_stage(small_cube, 1, n_workers=1,
                                     n_chunks=3, profiler=profiler)
        assert len(profiler.chunk_records) == 3
        for r in profiler.chunk_records:
            assert r.upload_s == 0.0 and r.download_s == 0.0
            assert r.compute_s > 0.0
