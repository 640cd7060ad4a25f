"""Tests for the spatial chunk planner (halo correctness is the crux)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.hsi import HyperCube, plan_chunks, plan_chunks_by_lines
from repro.hsi.chunking import Chunk, plan_chunks_for_budget


def _cube(lines=20, samples=8, bands=4, dtype=np.float32):
    return HyperCube(np.zeros((lines, samples, bands), dtype=dtype))


class TestChunkGeometry:
    def test_single_chunk_when_it_fits(self):
        plan = plan_chunks(_cube(), max_chunk_bytes=10 ** 9, halo=2)
        assert len(plan) == 1
        only = plan.chunks[0]
        assert only.ext_start == 0 and only.ext_stop == 20
        assert only.core_lines == 20

    def test_core_regions_tile_exactly(self):
        plan = plan_chunks(_cube(lines=23), halo=1,
                           max_chunk_bytes=8 * 8 * 4 * 4)  # 8 lines/chunk
        cores = [(c.core_start, c.core_stop) for c in plan]
        assert cores[0][0] == 0
        assert cores[-1][1] == 23
        for (_, stop), (start, _) in zip(cores, cores[1:]):
            assert stop == start

    def test_halo_present_on_interior_edges(self):
        plan = plan_chunks(_cube(lines=30), halo=2,
                           max_chunk_bytes=10 * 8 * 4 * 4)
        assert len(plan) > 1
        for chunk in plan.chunks[1:]:
            assert chunk.core_start - chunk.ext_start == 2
        for chunk in plan.chunks[:-1]:
            assert chunk.ext_stop - chunk.core_stop == 2

    def test_halo_clipped_at_image_borders(self):
        plan = plan_chunks(_cube(lines=30), halo=2,
                           max_chunk_bytes=10 * 8 * 4 * 4)
        assert plan.chunks[0].ext_start == 0
        assert plan.chunks[-1].ext_stop == 30

    def test_budget_too_small(self):
        with pytest.raises(StreamError, match="fits only"):
            plan_chunks(_cube(), halo=3, max_chunk_bytes=8 * 4 * 4 * 4)

    def test_negative_halo(self):
        with pytest.raises(StreamError):
            plan_chunks(_cube(), halo=-1, max_chunk_bytes=10 ** 6)

    def test_nonpositive_budget(self):
        with pytest.raises(StreamError):
            plan_chunks(_cube(), halo=0, max_chunk_bytes=0)

    def test_itemsize_sets_line_bytes(self):
        # A line costs samples * bands values of the cube's own dtype:
        # at one budget, float32 lines are twice the int16 ones.
        wide = plan_chunks(_cube(dtype=np.float32), halo=0,
                           max_chunk_bytes=8 * 4 * 10)
        narrow = plan_chunks(_cube(dtype=np.int16), halo=0,
                             max_chunk_bytes=8 * 4 * 10)
        assert wide.max_ext_lines() == 2 and narrow.max_ext_lines() == 5
        assert len(wide) == 10 and len(narrow) == 4

    def test_budget_rule(self):
        plan = plan_chunks_for_budget(40, 8, 4, line_bytes=100,
                                      budget_bytes=1250, halo=2)
        assert plan.max_ext_lines() == 12
        with pytest.raises(StreamError, match="GPU VRAM budget of 499 "
                                               "bytes fits only 4 lines"):
            plan_chunks_for_budget(40, 8, 4, line_bytes=100,
                                   budget_bytes=499, halo=2,
                                   budget_name="GPU VRAM budget")

    def test_max_ext_lines(self):
        plan = plan_chunks_by_lines(40, 8, 4, max_ext_lines=12, halo=2)
        assert plan.max_ext_lines() <= 12


class TestChunkSlicing:
    def test_extract_and_core_roundtrip(self):
        data = np.arange(30 * 4 * 2, dtype=np.float64).reshape(30, 4, 2)
        plan = plan_chunks_by_lines(30, 4, 2, max_ext_lines=11, halo=2)
        rebuilt = np.empty_like(data)
        for chunk in plan:
            ext = chunk.extract(data)
            rebuilt[chunk.core_start:chunk.core_stop] = chunk.core_of(ext)
        np.testing.assert_array_equal(rebuilt, data)

    def test_extract_is_view(self):
        data = np.zeros((30, 4, 2))
        chunk = Chunk(0, 5, 15, 7, 13)
        assert np.shares_memory(chunk.extract(data), data)

    def test_inconsistent_chunk_rejected(self):
        with pytest.raises(StreamError):
            Chunk(0, 10, 20, 5, 15)  # core starts before ext

    def test_chunk_properties(self):
        chunk = Chunk(1, 8, 20, 10, 18)
        assert chunk.ext_lines == 12
        assert chunk.core_lines == 8
        assert chunk.core_offset == 2


class TestPlanValidation:
    @given(lines=st.integers(1, 200), halo=st.integers(0, 3),
           max_ext=st.integers(1, 50))
    @settings(max_examples=120, deadline=None)
    def test_property_exact_coverage(self, lines, halo, max_ext):
        """Any accepted plan tiles the image exactly with in-bounds halos."""
        if max_ext < 2 * halo + 1 and max_ext < lines:
            with pytest.raises(StreamError):
                plan_chunks_by_lines(lines, 4, 2, max_ext_lines=max_ext,
                                     halo=halo)
            return
        plan = plan_chunks_by_lines(lines, 4, 2, max_ext_lines=max_ext,
                                    halo=halo)
        plan.validate()  # raises on any violation
        covered = sum(c.core_lines for c in plan)
        assert covered == lines
        for chunk in plan:
            assert chunk.ext_lines <= max(max_ext, lines)
