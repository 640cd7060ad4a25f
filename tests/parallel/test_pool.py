"""Tests for the worker pool (repro.parallel.pool) under its drivers.

The pool's fallback, retry, reuse and profiling behaviours are
exercised through the entry points production runs.  The fallback,
resilience and per-chunk-record cases run against both chunk drivers:
:func:`~repro.parallel.parallel_morphological_stage` and
:func:`~repro.parallel.parallel_pixel_map` (the RX kernel with its
statistics payload).  Every result must equal the serial whole-image
call bit for bit.
"""

import multiprocessing
import os
from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro import faults
from repro.core.amc_gpu import gpu_morphological_stage
from repro.core.detection import rx_scores, rx_statistics
from repro.core.mei import mei_reference
from repro.errors import GpuOutOfMemoryError, StreamError, \
    TransientFaultError
from repro.faults import FaultInjector, FaultSpec
from repro.parallel import parallel_morphological_stage, \
    parallel_pixel_map, resolve_workers
from repro.parallel import pool as pool_mod
from repro.profiling import Profiler
from repro.resilience import RetryPolicy
from repro.spectral import SpectralEpsilon


def _assert_matches(maps, whole):
    mei, erosion, dilation, _ = maps
    np.testing.assert_array_equal(mei, whole.mei)
    np.testing.assert_array_equal(erosion, whole.erosion_index)
    np.testing.assert_array_equal(dilation, whole.dilation_index)


class _Driver(NamedTuple):
    """One chunk driver, as the shared cases call it."""

    run: Callable            # run(cube, **driver kwargs) -> result
    check: Callable          # check(result, cube): equals whole image
    plan_workers: int        # fewest workers that run a chunk plan


def _morphology(cube, **kwargs):
    return parallel_morphological_stage(cube, 1, **kwargs)


def _check_morphology(maps, cube):
    _assert_matches(maps, mei_reference(cube, 1))


def _rx_map(cube, **kwargs):
    # halo 1, like the SE radius above, so both drivers plan alike
    return parallel_pixel_map(cube, rx_scores, rx_statistics(cube),
                              halo=1, **kwargs)


def _check_rx_map(scores, cube):
    np.testing.assert_array_equal(scores,
                                  rx_scores(cube, *rx_statistics(cube)))


_MORPHOLOGY = _Driver(_morphology, _check_morphology, 1)
# The map's n_workers=1 is one whole-image call with no chunk plan, so
# its in-process cases run the plan on two workers instead.
_RX_MAP = _Driver(_rx_map, _check_rx_map, 2)


class TestResolveWorkers:
    def test_zero_means_all_cores(self):
        assert resolve_workers(0) >= 1

    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(StreamError, match="n_workers"):
            resolve_workers(-1)


@pytest.fixture()
def _no_idle_pools(monkeypatch):
    """Hide the idle pools earlier tests left, so a job must create one
    through ``_make_pool``."""
    monkeypatch.setattr(pool_mod, "_IDLE", [])


class TestFallback:
    driver = _MORPHOLOGY

    def test_pool_unavailable_falls_back_to_serial(self, small_cube,
                                                   monkeypatch,
                                                   _no_idle_pools):
        """A host without working pools still gets correct results."""
        calls = []

        def broken_pool(*args, **kwargs):
            calls.append(args)
            raise OSError("no process spawning here")

        monkeypatch.setattr(pool_mod, "_make_pool", broken_pool)
        self.driver.check(self.driver.run(small_cube, n_workers=4),
                          small_cube)
        assert calls

    def test_pool_unavailable_records_recovery_event(self, small_cube,
                                                     monkeypatch,
                                                     _no_idle_pools):
        monkeypatch.setattr(
            pool_mod, "_make_pool",
            lambda *a, **k: (_ for _ in ()).throw(OSError("nope")))
        profiler = Profiler()
        self.driver.run(small_cube, n_workers=4, profiler=profiler)
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

    The injector is installed in the parent; every job ships the
    parent's current injector to the pool, so worker-side execution
    sees the same fault plan.  ``small_cube`` has 10 lines; five chunks
    give 2 core lines each.
    """

    driver = _MORPHOLOGY

    def test_worker_crash_recovers_bit_identical(self, small_cube,
                                                 _clean_faults):
        """A worker dying mid-task (os._exit) loses only its chunk."""
        faults.install(FaultInjector(
            [FaultSpec(kind="worker_crash", index=0, attempt=0)]))
        profiler = Profiler()
        result = self.driver.run(
            small_cube, n_workers=2, profiler=profiler,
            policy=RetryPolicy(chunk_timeout_s=2.0))
        self.driver.check(result, small_cube)
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
        result = self.driver.run(
            small_cube, n_workers=2, profiler=profiler,
            policy=RetryPolicy(chunk_timeout_s=1.0))
        self.driver.check(result, small_cube)
        assert any(e.kind == "pool_recovery" and e.chunk_index == 1
                   for e in profiler.event_records)

    def test_transient_fault_retried_worker_side(self, small_cube,
                                                 _clean_faults):
        faults.install(FaultInjector(
            [FaultSpec(kind="transient", index=2, attempt=0)]))
        profiler = Profiler()
        result = self.driver.run(
            small_cube, n_workers=2, n_chunks=5, profiler=profiler,
            policy=RetryPolicy(max_retries=1))
        self.driver.check(result, small_cube)
        retried = [r for r in profiler.chunk_records if r.index == 2]
        assert retried[0].retries == 1
        assert retried[0].worker != os.getpid()     # stayed in the pool

    def test_transient_fault_retried_serially(self, small_cube,
                                              _clean_faults):
        """The serial path runs the same retry loop in-process."""
        faults.install(FaultInjector(
            [FaultSpec(kind="transient", index=2, attempt=0)]))
        profiler = Profiler()
        result = self.driver.run(
            small_cube, n_workers=self.driver.plan_workers, n_chunks=5,
            profiler=profiler, policy=RetryPolicy(max_retries=1))
        self.driver.check(result, small_cube)
        retried = [r for r in profiler.chunk_records if r.index == 2]
        assert retried[0].retries == 1

    def test_exhausted_retries_raise(self, small_cube, _clean_faults):
        faults.install(FaultInjector(
            [FaultSpec(kind="transient", index=0, attempt=None)]))
        with pytest.raises(TransientFaultError):
            self.driver.run(
                small_cube, n_workers=self.driver.plan_workers, n_chunks=5,
                policy=RetryPolicy(max_retries=2))

    def test_oom_degrades_and_stays_bit_identical(self, small_cube,
                                                  _clean_faults):
        """Injected OOM forces a smaller-chunk re-plan, same results."""
        faults.install(FaultInjector(
            [FaultSpec(kind="gpu_oom", attempt=None, ext_lines_above=4)]))
        profiler = Profiler()
        result = self.driver.run(
            small_cube, n_workers=self.driver.plan_workers, n_chunks=2,
            profiler=profiler)
        self.driver.check(result, small_cube)
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
            self.driver.run(small_cube,
                            n_workers=self.driver.plan_workers, n_chunks=2)


class TestProfiling:
    driver = _MORPHOLOGY

    def test_one_record_per_chunk(self, small_cube):
        profiler = Profiler()
        self.driver.run(small_cube, n_workers=2, n_chunks=5,
                        profiler=profiler)
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


class TestPixelMapFallback(TestFallback):
    driver = _RX_MAP


class TestPixelMapResilience(TestResilience):
    """The map's crash, timeout and OOM re-plan run through the same
    chunk driver as the morphological stage's."""

    driver = _RX_MAP


class TestPixelMapProfiling:
    driver = _RX_MAP

    test_one_record_per_chunk = TestProfiling.test_one_record_per_chunk

    def test_serial_map_is_one_whole_image_call(self, small_cube,
                                                _clean_faults):
        """``n_workers=1`` plans no chunks: the chunk fault site never
        fires and no chunk record is made."""
        faults.install(FaultInjector(
            [FaultSpec(kind="transient", index=0, attempt=None)]))
        profiler = Profiler()
        self.driver.check(self.driver.run(small_cube, n_workers=1,
                                          profiler=profiler), small_cube)
        assert profiler.chunk_records == []


def _band_stride(sub):
    """Per-pixel map kernel: the band stride the worker sees."""
    return np.full(sub.shape[:2], sub.strides[2])


def _pool_workers() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _chunk_workers(profiler: Profiler) -> set[int]:
    return {r.worker for r in profiler.chunk_records}


class TestLongLivedPool:
    def test_jobs_reuse_one_pool(self, small_cube):
        """A second job runs on the workers the first one left idle."""
        parallel_morphological_stage(small_cube, 1, n_workers=2)
        existing = _pool_workers()
        profiler = Profiler()
        maps = parallel_morphological_stage(small_cube, 1, n_workers=2,
                                            n_chunks=4, profiler=profiler)
        _assert_matches(maps, mei_reference(small_cube, 1))
        assert os.getpid() not in _chunk_workers(profiler)
        assert _chunk_workers(profiler) <= existing

    def test_pool_that_lost_a_task_is_dropped(self, small_cube,
                                              _clean_faults):
        """A stalled chunk's workers are terminated, not reused."""
        faults.install(FaultInjector(
            [FaultSpec(kind="timeout", index=0, attempt=0, sleep_s=20.0)]))
        profiler = Profiler()
        maps = parallel_morphological_stage(
            small_cube, 1, n_workers=2, n_chunks=4, profiler=profiler,
            policy=RetryPolicy(chunk_timeout_s=1.0))
        _assert_matches(maps, mei_reference(small_cube, 1))
        pool_side = _chunk_workers(profiler) - {os.getpid()}
        assert pool_side
        assert not pool_side & _pool_workers()

    def test_workers_see_the_callers_strides(self, small_cube):
        """A band-sequential cube viewed as BIP keeps its strides in the
        workers: the job segment does not make it C-contiguous."""
        bip = np.ascontiguousarray(small_cube.transpose(2, 0, 1)) \
            .transpose(1, 2, 0)
        strides = parallel_pixel_map(bip, _band_stride, n_workers=2)
        assert (strides == bip.strides[2]).all()
        assert bip.strides[2] != bip.itemsize


class TestJobSettings:
    """Process-wide settings changed after a pool exists reach its
    workers with the next job, bit-identical to the serial run."""

    @pytest.fixture(autouse=True)
    def _pool_exists(self, small_cube, _clean_faults):
        parallel_morphological_stage(small_cube, 1, n_workers=2)

    def _retried_in_pool(self, small_cube) -> bool:
        profiler = Profiler()
        maps = parallel_morphological_stage(
            small_cube, 1, n_workers=2, profiler=profiler,
            policy=RetryPolicy(max_retries=1))
        _assert_matches(maps, mei_reference(small_cube, 1))
        (record,) = [r for r in profiler.chunk_records if r.index == 1]
        assert record.worker != os.getpid()
        return record.retries == 1

    def test_installed_injector(self, small_cube):
        faults.install(FaultInjector(
            [FaultSpec(kind="transient", index=1, attempt=0)]))
        assert self._retried_in_pool(small_cube)
        faults.uninstall()
        assert not self._retried_in_pool(small_cube)

    def test_environment_injector(self, small_cube, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, FaultInjector(
            [FaultSpec(kind="transient", index=1, attempt=0)]).to_json())
        assert self._retried_in_pool(small_cube)
        monkeypatch.delenv(faults.ENV_VAR)
        assert not self._retried_in_pool(small_cube)

    def test_spectral_epsilon(self, small_cube):
        default = mei_reference(small_cube, 1)
        SpectralEpsilon.set(0.05)
        try:
            whole = mei_reference(small_cube, 1)
            maps = parallel_morphological_stage(small_cube, 1, n_workers=2)
        finally:
            SpectralEpsilon.reset()
        assert not np.array_equal(whole.mei, default.mei)
        _assert_matches(maps, whole)
