"""Tests for the shift-reuse pair-map engine (repro.core.pairreuse).

The engine's contract is **bit-identity**: :func:`mei_reference` must
produce byte-for-byte the same cumulative distances, indices and MEI as
the historical all-pairs oracle (:func:`mei_all_pairs`) and — within
the established float tolerance — the naive per-pixel oracle.  The goldens
below were captured on the all-pairs implementation *before* the engine
existed, so they pin the reuse path against the pre-engine history, not
against itself.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core.mei import (
    cumulative_distances,
    mei_all_pairs,
    mei_reference,
    se_offsets,
)
from repro.core.naive import mei_naive
from repro.core.pairreuse import (
    PairReuseEngine,
    PairReuseStats,
    gather_mei,
    sum_reuse_counters,
    unique_difference_offsets,
)
from repro.core.shifts import (
    clamped_indices,
    clamped_shift,
    shifted_copy,
)
from repro.faults import FaultInjector, FaultSpec
from repro.hsi import SceneParams, generate_scene
from repro.parallel import parallel_morphological_stage
from repro.profiling import Profiler
from repro.resilience import RetryPolicy
from repro.spectral.distances import sid_self_entropy
from repro.spectral.normalize import normalize_image, safe_log


def _sha(array) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


#: mei_reference goldens captured on the pre-engine all-pairs code for
#: ``default_rng(1234).uniform(0.05, 1.0, (14, 11, 6))``.
GOLDEN_CUBE_SHAPE = (14, 11, 6)
GOLDEN_MEI = {
    0: "0abe90866c4fbc89",
    1: "46a078f8811cafbe",
    2: "d5e7147524d69160",
    3: "36ccb4656e965f00",
}
GOLDEN_CUMULATIVE = {
    0: "0abe90866c4fbc89",
    1: "928e1df7b6613fd8",
    2: "9d68a350fa3e65bd",
    3: "a94ab0b07e280afb",
}


@pytest.fixture()
def golden_cube():
    return np.random.default_rng(1234).uniform(
        0.05, 1.0, GOLDEN_CUBE_SHAPE)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.uninstall()
    faults.set_attempt(0)
    yield
    faults.uninstall()
    faults.set_attempt(0)


class TestShiftHelpers:
    def test_clamped_indices_values(self):
        np.testing.assert_array_equal(clamped_indices(5, 2),
                                      [2, 3, 4, 4, 4])
        np.testing.assert_array_equal(clamped_indices(5, -2),
                                      [0, 0, 0, 1, 2])
        np.testing.assert_array_equal(clamped_indices(4, 0), [0, 1, 2, 3])

    def test_clamped_indices_cached_and_readonly(self):
        first = clamped_indices(7, 1)
        assert clamped_indices(7, 1) is first
        assert not first.flags.writeable

    def test_clamped_shift_zero_is_identity(self, rng):
        arr = rng.uniform(size=(4, 5))
        assert clamped_shift(arr, 0, 0) is arr

    @pytest.mark.parametrize("shape", [(5, 7), (5, 7, 3), (2, 9, 4),
                                       (1, 1, 2)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shifted_copy_matches_gather(self, rng, shape, dtype):
        """The strided fetch behind the engine and every device launch
        is byte-identical to the fancy-indexing gather, including
        shifts wider than the image."""
        arr = rng.uniform(size=shape).astype(dtype)
        for dy in range(-3, 4):
            for dx in range(-3, 4):
                got = shifted_copy(arr, dy, dx)
                assert got.flags["C_CONTIGUOUS"]
                assert got.tobytes() == clamped_shift(arr, dy, dx).tobytes()

    def test_clamped_shift_replicates_edges(self, rng):
        arr = rng.uniform(size=(4, 5, 3))
        out = clamped_shift(arr, 2, -1)
        assert np.array_equal(out[0, 0], arr[2, 0])
        assert np.array_equal(out[3, 4], arr[3, 3])  # rows clamp at 3


class TestUniqueDifferences:
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 4])
    def test_count_closed_form(self, radius):
        """Smoke test: U = ((4r+1)^2 - 1) / 2 unique differences."""
        diffs = unique_difference_offsets(se_offsets(radius))
        assert len(diffs) == ((4 * radius + 1) ** 2 - 1) // 2

    def test_no_duplicates_no_zero(self):
        diffs = unique_difference_offsets(se_offsets(2))
        assert len(set(diffs)) == len(diffs)
        assert (0, 0) not in diffs


class TestBitIdentityShiftVsPairs:
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_golden_cube(self, golden_cube, radius):
        shift = mei_reference(golden_cube, radius)
        pairs, _ = mei_all_pairs(golden_cube, radius)
        assert _sha(shift.mei) == _sha(pairs.mei)
        assert _sha(shift.cumulative) == _sha(pairs.cumulative)
        np.testing.assert_array_equal(shift.erosion_index,
                                      pairs.erosion_index)
        np.testing.assert_array_equal(shift.dilation_index,
                                      pairs.dilation_index)

    @pytest.mark.parametrize("shape", [
        (3, 3, 4),      # H == W == 2r + 1 at radius 1
        (2, 9, 4),      # H < 2r + 1: the SE is taller than the image
        (9, 2, 4),      # W < 2r + 1
        (1, 1, 3),      # single pixel
        (1, 8, 4),      # single line
        (5, 12, 4),     # non-square, wide
        (12, 5, 4),     # non-square, tall
        (6, 6, 3),      # H == W == 2r at radius 3
    ])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_degenerate_shapes(self, shape, radius):
        cube = np.random.default_rng(hash(shape) % 2**32).uniform(
            0.05, 1.0, shape)
        shift = mei_reference(cube, radius)
        pairs, _ = mei_all_pairs(cube, radius)
        assert _sha(shift.mei) == _sha(pairs.mei)
        assert _sha(shift.cumulative) == _sha(pairs.cumulative)

    def test_noncontiguous_input(self, rng):
        """Band-sequential storage viewed as BIP — the layout that
        makes einsum's reduction operand-sensitive."""
        bsq = rng.uniform(0.05, 1.0, size=(7, 9, 8))
        cube = bsq.transpose(2, 0, 1).copy().transpose(1, 2, 0)
        assert not cube.flags["C_CONTIGUOUS"]
        shift = mei_reference(cube, 1)
        pairs, _ = mei_all_pairs(cube, 1)
        assert _sha(shift.mei) == _sha(pairs.mei)
        assert _sha(shift.cumulative) == _sha(pairs.cumulative)
        # the 8 zero-offset pairs had to re-create the historical
        # (raw, non-contiguous) einsum operands
        assert shift.stats.direct_pairs == 8
        assert shift.stats.difference_maps == 12 + 8

    @pytest.mark.parametrize("seed", range(5))
    def test_property_random_cubes(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(4, 12)), int(rng.integers(4, 12)),
                 int(rng.integers(3, 9)))
        cube = rng.uniform(0.05, 1.0, shape)
        normalized = normalize_image(cube)
        shift = cumulative_distances(normalized, 1)
        pairs, _ = mei_all_pairs(normalized, 1, prenormalized=True)
        assert _sha(shift) == _sha(pairs.cumulative)

    def test_pair_maps_bit_equal(self, tiny_cube):
        normalized = np.asarray(normalize_image(tiny_cube),
                                dtype=np.float64)
        offsets = se_offsets(1)
        log_img = safe_log(normalized)
        entropy = sid_self_entropy(normalized)
        engine = PairReuseEngine(normalized, offsets, log_img=log_img,
                                 entropy=entropy)
        _, maps = mei_all_pairs(normalized, 1, prenormalized=True)
        for (ka, kb), expected in maps.items():
            np.testing.assert_array_equal(engine.pair_map(ka, kb),
                                          expected,
                                          err_msg=f"pair ({ka}, {kb})")


class TestGoldens:
    @pytest.mark.parametrize("radius", sorted(GOLDEN_MEI))
    def test_pre_engine_goldens(self, golden_cube, radius):
        out = mei_reference(golden_cube, radius)
        assert _sha(out.mei) == GOLDEN_MEI[radius]
        assert _sha(out.cumulative) == GOLDEN_CUMULATIVE[radius]


class TestAgainstNaiveOracle:
    def test_mei_matches_oracle(self, tiny_cube):
        shift = mei_reference(tiny_cube, 1)
        oracle = mei_naive(tiny_cube, 1)
        np.testing.assert_allclose(shift.mei, oracle.mei,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(shift.erosion_index,
                                      oracle.erosion_index)
        np.testing.assert_array_equal(shift.dilation_index,
                                      oracle.dilation_index)


class TestStats:
    def test_counts_radius_one(self, tiny_cube):
        out = mei_reference(tiny_cube, 1)
        stats = out.stats
        assert isinstance(stats, PairReuseStats)
        # 36 cumulative pair maps + one per MEI-gathered pair
        assert stats.pair_maps == 36 + stats.mei_pairs_gathered
        # contiguous input: one evaluation per unique difference and
        # no direct zero-offset pairs
        assert stats.difference_maps == 12
        assert stats.direct_pairs == 0
        assert stats.reuse_ratio > 1.0

    def test_pairs_method_has_no_stats(self, tiny_cube):
        assert mei_all_pairs(tiny_cube, 1)[0].stats is None

    def test_as_counters_and_sum(self, tiny_cube):
        stats = mei_reference(tiny_cube, 1).stats
        counters = stats.as_counters()
        assert counters["pair_maps"] == float(stats.pair_maps)
        assert counters["reuse_ratio"] == stats.reuse_ratio
        total = sum_reuse_counters([counters, counters])
        assert total["pair_maps"] == 2.0 * stats.pair_maps
        # ratio is recomputed from the summed totals, not summed
        assert total["reuse_ratio"] == pytest.approx(stats.reuse_ratio)

    def test_stats_reach_profiler_stage_record(self, tiny_cube):
        from repro.core import AMCConfig, run_amc

        profiler = Profiler()
        run_amc(tiny_cube, AMCConfig(n_classes=2), profiler=profiler)
        morph = next(s for s in profiler.stage_records
                     if s.name == "morphology")
        assert morph.counters["pair_maps"] >= 36.0
        assert morph.counters["reuse_ratio"] > 1.0


class TestGatherMei:
    def test_matches_mask_scan(self, tiny_cube):
        normalized = np.asarray(normalize_image(tiny_cube),
                                dtype=np.float64)
        pairs, maps = mei_all_pairs(normalized, 1, prenormalized=True)
        cumulative = pairs.cumulative
        ero = np.argmin(cumulative, axis=2)
        dil = np.argmax(cumulative, axis=2)
        mei, gathered = gather_mei(
            ero, dil, lambda ka, kb: maps[(ka, kb)], len(se_offsets(1)))
        # oracle: the literal per-pixel lookup
        expected = np.zeros_like(mei)
        for y in range(mei.shape[0]):
            for x in range(mei.shape[1]):
                lo, hi = sorted((ero[y, x], dil[y, x]))
                if lo != hi:
                    expected[y, x] = maps[(lo, hi)][y, x]
        np.testing.assert_array_equal(mei, expected)
        assert 0 < gathered <= 36

    def test_flat_image_gathers_nothing(self):
        flat = np.full((4, 4, 3), 0.2)
        out = mei_reference(flat, 1)
        assert np.all(out.mei == 0.0)
        assert out.stats.mei_pairs_gathered == 0


class TestParallelBitIdentity:
    def test_chunked_with_faults_matches_serial(self, small_cube):
        """Shift-reuse through the chunk pool, with a worker crash and
        a stalled chunk injected, stays bit-identical to serial."""
        serial = mei_reference(small_cube, 1)
        faults.install(FaultInjector([
            FaultSpec(kind="worker_crash", index=0, attempt=0),
            FaultSpec(kind="timeout", index=1, attempt=0, sleep_s=30.0),
        ]))
        profiler = Profiler()
        with profiler.stage("morphology"):
            mei, ero, dil, _ = parallel_morphological_stage(
                small_cube, 1, backend="reference", n_workers=2,
                profiler=profiler,
                policy=RetryPolicy(max_retries=1, chunk_timeout_s=2.0))
        assert _sha(mei) == _sha(serial.mei)
        np.testing.assert_array_equal(ero, serial.erosion_index)
        np.testing.assert_array_equal(dil, serial.dilation_index)
        # per-chunk reuse counters were summed onto the morphology stage
        morph = next(s for s in profiler.stage_records
                     if s.name == "morphology")
        assert morph.counters["pair_maps"] >= 72.0  # two chunks
        assert morph.counters["reuse_ratio"] > 1.0

    def test_chunks_shorter_than_the_se_match_all_pairs(self, small_cube):
        """Single-line chunks at radii 1-3: the edge chunks' extended
        regions (r + 1 lines) are shorter than the SE, so padding alone
        supplies the clamped rows — still bit-identical to the serial
        all-pairs oracle."""
        for radius in (1, 2, 3):
            serial, _ = mei_all_pairs(small_cube, radius)
            mei, ero, dil, _ = parallel_morphological_stage(
                small_cube, radius, backend="reference", n_workers=2,
                n_chunks=small_cube.shape[0])
            assert _sha(mei) == _sha(serial.mei), radius
            np.testing.assert_array_equal(ero, serial.erosion_index)
            np.testing.assert_array_equal(dil, serial.dilation_index)


def _layout(cube, dtype, bsq):
    """``cube`` cast to ``dtype``, optionally stored band-sequential and
    viewed as BIP (non-contiguous)."""
    cube = cube.astype(dtype)
    if bsq:
        cube = cube.transpose(2, 0, 1).copy().transpose(1, 2, 0)
    return cube


class TestFlatOffsetEdges:
    """Difference maps are evaluated as flat offsets into the
    pixel-flattened padded cube; these pin them sha-equal to the
    all-pairs oracle where the flat and 2-D neighbours differ most:
    images no wider or taller than the SE, single lines, float32 and
    non-contiguous storage."""

    @given(radius=st.integers(1, 3),
           height=st.integers(1, 7), width=st.integers(1, 7),
           bands=st.integers(1, 5),
           dtype=st.sampled_from([np.float32, np.float64]),
           bsq=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_all_pairs(self, radius, height, width, bands, dtype,
                               bsq, seed):
        cube = _layout(np.random.default_rng(seed).uniform(
            0.05, 1.0, (height, width, bands)), dtype, bsq)
        shift = mei_reference(cube, radius)
        pairs, _ = mei_all_pairs(cube, radius)
        assert _sha(shift.mei) == _sha(pairs.mei)
        assert _sha(shift.cumulative) == _sha(pairs.cumulative)

    @given(radius=st.integers(1, 2), height=st.integers(1, 6),
           width=st.integers(1, 6), bsq=st.booleans(),
           seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_non_canonical_difference(self, radius, height, width, bsq,
                                      seed):
        """``D_{a-b}`` read at ``r + b`` is pair ``(a, b)`` too: both
        cross terms and both entropies meet in swapped order, and
        addition commutes exactly."""
        cube = _layout(np.random.default_rng(seed).uniform(
            0.05, 1.0, (height, width, 3)), np.float64, bsq)
        normalized = np.ascontiguousarray(normalize_image(cube),
                                          dtype=np.float64)
        offsets = se_offsets(radius)
        engine = PairReuseEngine(normalized, offsets)
        _, maps = mei_all_pairs(normalized, radius, prenormalized=True)
        for (ka, kb), expected in maps.items():
            (ay, ax), (by, bx) = offsets[ka], offsets[kb]
            base = engine.difference_map((ay - by, ax - bx))
            got = base[radius + by:radius + by + height,
                       radius + bx:radius + bx + width]
            assert _sha(got) == _sha(expected), (ka, kb)


class TestDifferenceMapAllocations:
    def test_no_cube_sized_temporary(self, rng):
        """Evaluating every unique difference map allocates the cached
        (Hp, Wp) maps and at most one more map's worth — never a
        shifted copy of the (Hp, Wp, N) cube."""
        radius, bands = 2, 8
        normalized = normalize_image(rng.uniform(0.05, 1.0,
                                                 (60, 60, bands)))
        offsets = se_offsets(radius)
        engine = PairReuseEngine(normalized, offsets)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            maps = [engine.difference_map(d)
                    for d in unique_difference_offsets(offsets)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a shifted cube copy is ``bands`` maps' worth
        assert peak - before <= sum(m.nbytes for m in maps) \
            + maps[0].nbytes
