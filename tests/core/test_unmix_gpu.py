"""Tests for the device-side unmixing + classification extension."""

import numpy as np
import pytest

from repro.core import classify_abundances, unmix_lsu
from repro.core.unmix_gpu import gpu_unmix_classify
from repro.errors import ShapeError, StreamError
from repro.gpu import GEFORCE_7800GTX, VirtualGPU


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(8)
    endmembers = rng.uniform(0.2, 1.0, size=(5, 24))
    endmembers[0] *= np.linspace(0.3, 1.6, 24)
    endmembers[1] *= np.linspace(1.6, 0.3, 24)
    endmembers[2, 6:12] *= 0.25
    endmembers[3, :6] *= 0.25
    true = rng.dirichlet(np.ones(5) * 2.0, size=(11, 9))
    cube = true @ endmembers
    return cube, endmembers, true


class TestAgainstHostLsu:
    def test_winner_matches_host(self, problem):
        cube, endmembers, _ = problem
        host = classify_abundances(unmix_lsu(cube, endmembers))
        out = gpu_unmix_classify(cube, endmembers)
        assert (out.winner_index == host).mean() > 0.98

    def test_abundances_match_host(self, problem):
        cube, endmembers, _ = problem
        host = unmix_lsu(cube, endmembers)
        out = gpu_unmix_classify(cube, endmembers,
                                 return_abundances=True)
        np.testing.assert_allclose(out.abundances, host,
                                   rtol=5e-3, atol=5e-4)

    def test_winner_abundance_is_the_max(self, problem):
        cube, endmembers, _ = problem
        out = gpu_unmix_classify(cube, endmembers,
                                 return_abundances=True)
        np.testing.assert_allclose(out.winner_abundance,
                                   out.abundances.max(axis=-1),
                                   rtol=1e-6)

    def test_recovers_true_dominant_component(self, problem):
        cube, endmembers, true = problem
        out = gpu_unmix_classify(cube, endmembers)
        truth_winner = np.argmax(true, axis=-1)
        assert (out.winner_index == truth_winner).mean() > 0.95


class TestDeviceBehaviour:
    def test_abundances_none_by_default(self, problem):
        cube, endmembers, _ = problem
        assert gpu_unmix_classify(cube, endmembers).abundances is None

    def test_chunked_equals_unchunked(self, problem):
        cube, endmembers, _ = problem
        base = gpu_unmix_classify(cube, endmembers)
        tight = GEFORCE_7800GTX.with_(vram_bytes=32 * 1024)
        chunked = gpu_unmix_classify(cube, endmembers, spec=tight)
        assert chunked.chunk_count > 1
        np.testing.assert_array_equal(chunked.winner_index,
                                      base.winner_index)
        np.testing.assert_allclose(chunked.winner_abundance,
                                   base.winner_abundance, rtol=1e-6)

    def test_vram_released(self, problem):
        cube, endmembers, _ = problem
        device = VirtualGPU(GEFORCE_7800GTX)
        gpu_unmix_classify(cube, endmembers, device=device)
        assert device.vram.used == 0

    def test_board_too_small_raises_before_allocating(self):
        """A board that cannot hold one line of the working set is
        refused by the chunk planner, not by a mid-chunk allocation."""
        rng = np.random.default_rng(4)
        cube = rng.uniform(0.05, 1.0, size=(12, 10, 21))
        device = VirtualGPU(GEFORCE_7800GTX.with_(vram_bytes=1024))
        with pytest.raises(StreamError, match="VRAM"):
            gpu_unmix_classify(cube, rng.uniform(0.05, 1.0, size=(3, 21)),
                               device=device)
        assert device.vram.used == 0

    def test_counters_and_time(self, problem):
        cube, endmembers, _ = problem
        out = gpu_unmix_classify(cube, endmembers)
        assert out.modeled_time_s > 0
        assert out.counters["kernel_launches"] > 0

    def test_fusion_invariance(self, problem):
        cube, endmembers, _ = problem
        a = gpu_unmix_classify(cube, endmembers, fuse_groups=1)
        b = gpu_unmix_classify(cube, endmembers, fuse_groups=6)
        np.testing.assert_array_equal(a.winner_index, b.winner_index)

    def test_shape_validation(self, problem):
        cube, endmembers, _ = problem
        with pytest.raises(ShapeError):
            gpu_unmix_classify(cube[:, :, 0], endmembers)
        with pytest.raises(ShapeError):
            gpu_unmix_classify(cube, endmembers[:, :-1])
