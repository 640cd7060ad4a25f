"""Tests for endmember selection."""

import numpy as np
import pytest

from repro.core import mei_reference, select_endmembers
from repro.core.endmembers import dilation_candidates, smooth_cube
from repro.errors import ShapeError, ValidationError
from repro.spectral.normalize import normalize_spectra


@pytest.fixture()
def planted(rng):
    """A flat scene with three spectrally distinct plateaus planted in it;
    MEI peaks on their borders, the plateaus are the pure pixels."""
    cube = np.full((20, 20, 8), 0.3)
    cube[3:7, 3:7] = np.linspace(0.1, 0.9, 8)
    cube[12:16, 4:8] = np.linspace(0.9, 0.1, 8)
    cube[5:9, 13:17, :4] = 0.05
    cube += rng.normal(0, 0.002, cube.shape)
    np.clip(cube, 0.01, None, out=cube)
    morph = mei_reference(cube)
    return cube, morph


class TestSmoothCube:
    def test_radius_zero_identity(self, small_cube):
        out = smooth_cube(small_cube, 0)
        np.testing.assert_array_equal(out, small_cube)

    def test_constant_preserved(self):
        cube = np.full((6, 6, 3), 0.4)
        np.testing.assert_allclose(smooth_cube(cube, 1), 0.4)

    def test_reduces_noise(self, rng):
        cube = 0.5 + rng.normal(0, 0.1, size=(32, 32, 4))
        assert smooth_cube(cube, 1).std() < cube.std()

    def test_rejects_bad_args(self, small_cube):
        with pytest.raises(ValueError):
            smooth_cube(small_cube, -1)
        with pytest.raises(ShapeError):
            smooth_cube(np.ones((4, 4)), 1)


class TestDilationCandidates:
    def test_positions_within_image(self, planted):
        cube, morph = planted
        positions, scores = dilation_candidates(morph.mei,
                                                morph.dilation_index, 1)
        assert positions[:, 0].min() >= 0
        assert positions[:, 0].max() < 20
        assert positions.shape[0] == scores.shape[0]

    def test_unique_positions(self, planted):
        _, morph = planted
        positions, _ = dilation_candidates(morph.mei,
                                           morph.dilation_index, 1)
        flat = positions[:, 0] * 20 + positions[:, 1]
        assert np.unique(flat).size == flat.size

    def test_scores_are_max_of_nominators(self, planted):
        _, morph = planted
        positions, scores = dilation_candidates(morph.mei,
                                                morph.dilation_index, 1)
        assert np.all(scores <= morph.mei.max())

    def test_shape_mismatch_rejected(self, planted):
        _, morph = planted
        with pytest.raises(ShapeError):
            dilation_candidates(morph.mei, morph.dilation_index[:4], 1)


class TestSelection:
    def test_returns_requested_count(self, planted):
        cube, morph = planted
        out = select_endmembers(cube, morph.mei, 4)
        assert len(out) == 4
        assert out.spectra.shape == (4, 8)
        assert out.normalized.shape == (4, 8)

    def test_finds_the_planted_plateaus(self, planted):
        """ATGP over the MEI candidates must select pixels from the three
        distinct plateaus (plus background)."""
        cube, morph = planted
        out = select_endmembers(cube, morph.mei, 4, smooth_radius=1)
        regions = set()
        for y, x in out.positions:
            if 3 <= y < 7 and 3 <= x < 7:
                regions.add("A")
            elif 12 <= y < 16 and 4 <= x < 8:
                regions.add("B")
            elif 5 <= y < 9 and 13 <= x < 17:
                regions.add("C")
            else:
                regions.add("bg")
        assert {"A", "B", "C"} <= regions

    def test_sid_strategy_diverse(self, planted):
        cube, morph = planted
        out = select_endmembers(cube, morph.mei, 3, strategy="sid",
                                min_sid=0.01)
        from repro.spectral import sid_pairwise
        dists = sid_pairwise(out.normalized)
        iu = np.triu_indices(3, 1)
        assert dists[iu].min() >= 0.01 * 0.99

    @pytest.mark.parametrize("strategy", ("atgp", "sid"))
    def test_normalized_rows_match_whole_image(self, planted, strategy):
        """The chosen rows, normalized alone, equal the rows of the
        whole-image normalization byte for byte."""
        cube, morph = planted
        smoothed = smooth_cube(cube, 1)
        out = select_endmembers(cube, morph.mei, 4, strategy=strategy,
                                smoothed=smoothed)
        flat = smoothed.reshape(-1, 8)
        idx = out.positions[:, 0] * 20 + out.positions[:, 1]
        assert out.normalized.tobytes() == \
            normalize_spectra(flat)[idx].tobytes()

    @pytest.mark.parametrize("strategy", ("atgp", "sid"))
    def test_whole_image_validated(self, planted, strategy):
        """A pixel no strategy would choose still fails validation."""
        cube, morph = planted
        smoothed = smooth_cube(cube, 1)
        smoothed[0, 0] = 0.0              # inside the border guard
        with pytest.raises(ValidationError, match="sums to zero"):
            select_endmembers(cube, morph.mei, 3, strategy=strategy,
                              smoothed=smoothed)
        smoothed[0, 0, 0] = -1.0
        with pytest.raises(ValidationError, match="non-negative"):
            select_endmembers(cube, morph.mei, 3, strategy=strategy,
                              smoothed=smoothed)

    def test_unknown_strategy(self, planted):
        cube, morph = planted
        with pytest.raises(ValueError, match="strategy"):
            select_endmembers(cube, morph.mei, 3, strategy="magic")

    def test_count_bounds(self, planted):
        cube, morph = planted
        with pytest.raises(ValueError):
            select_endmembers(cube, morph.mei, 0)
        with pytest.raises(ValueError):
            select_endmembers(cube, morph.mei, 20 * 20 + 1)

    def test_mei_shape_checked(self, planted):
        cube, _ = planted
        with pytest.raises(ShapeError):
            select_endmembers(cube, np.ones((4, 4)), 3)

    def test_explicit_candidates(self, planted):
        cube, morph = planted
        positions, scores = dilation_candidates(morph.mei,
                                                morph.dilation_index, 1)
        out = select_endmembers(cube, morph.mei, 3,
                                candidates=(positions, scores))
        # chosen positions must come from the candidate pool
        pool = {(int(y), int(x)) for y, x in positions}
        assert all((int(y), int(x)) in pool for y, x in out.positions)

    def test_border_exclusion(self, planted):
        cube, morph = planted
        out = select_endmembers(cube, morph.mei, 4, border=3)
        assert out.positions[:, 0].min() >= 3
        assert out.positions[:, 1].max() < 17

    def test_scores_descend_with_rank_for_sid_walk(self, planted):
        cube, morph = planted
        out = select_endmembers(cube, morph.mei, 3, strategy="sid",
                                min_sid=0.0, min_spatial=0)
        # with no guards the walk takes the top-3 scores in order
        assert np.all(np.diff(out.scores) <= 1e-12)
