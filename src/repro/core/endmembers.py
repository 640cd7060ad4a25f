"""Endmember selection from the MEI image (AMC step 3, first half).

The AMC algorithm selects *"the set of c pixel vectors in f with higher
associated score in the resulting MEI image"*.  Taking the literal top-c
pixels almost always yields duplicates — the highest MEI scores cluster
on the same anomalous patch — so, following the morphological
endmember-extraction practice of the paper's companion work ([10], [11]),
the selector walks candidates in descending MEI order and accepts a pixel
only if it is spectrally distinct (SID above a threshold) from every
already-accepted endmember, with an optional spatial separation guard.

If the guards exhaust the image before ``count`` endmembers are found the
thresholds are relaxed geometrically until the budget is met, so the
function always returns exactly ``count`` members for any non-degenerate
image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scipy.ndimage import uniform_filter

from repro.errors import ShapeError, ValidationError
from repro.spectral.distances import sid
from repro.spectral.normalize import check_normalizable, normalize_spectra


def smooth_cube(cube_bip: np.ndarray, radius: int = 1) -> np.ndarray:
    """Spatially box-average each band over a (2r+1)^2 window.

    Endmember *candidate* spectra are read from single pixels, whose
    per-band noise can dominate spectral distances for dark materials
    (water).  Averaging the window the candidate was selected from is the
    standard denoising step; ``radius=0`` returns the input unchanged.
    """
    cube_bip = np.asarray(cube_bip, dtype=np.float64)
    if cube_bip.ndim != 3:
        raise ShapeError(f"cube must be (H, W, N), got {cube_bip.shape}")
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    if radius == 0:
        return cube_bip
    size = 2 * radius + 1
    return uniform_filter(cube_bip, size=(size, size, 1), mode="nearest")


def dilation_candidates(mei: np.ndarray, dilation_index: np.ndarray,
                        radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Endmember candidates from the dilation output.

    The extended dilation selects, in every neighbourhood, the pixel most
    spectrally distinct from its surroundings — under the linear mixture
    model that is the *purest* pixel of the window (the AMEE rationale of
    refs. [10]-[11]).  Each pixel x therefore nominates the pixel at
    ``x + offset[dilation_index(x)]`` with x's MEI score; nominations of
    the same pixel keep the highest score.

    Returns
    -------
    (positions, scores):
        (M, 2) unique candidate coordinates and their (M,) scores.
    """
    from repro.core.mei import se_offsets  # local import, avoids a cycle

    mei = np.asarray(mei, dtype=np.float64)
    dilation_index = np.asarray(dilation_index)
    if mei.shape != dilation_index.shape or mei.ndim != 2:
        raise ShapeError(
            f"mei {mei.shape} and dilation_index {dilation_index.shape} "
            f"must be equal 2-D shapes")
    h, w = mei.shape
    offs = np.asarray(se_offsets(radius))
    dy = offs[dilation_index, 0]
    dx = offs[dilation_index, 1]
    yy, xx = np.mgrid[0:h, 0:w]
    ty = np.clip(yy + dy, 0, h - 1).ravel()
    tx = np.clip(xx + dx, 0, w - 1).ravel()
    flat = ty * w + tx
    best = np.full(h * w, -np.inf)
    np.maximum.at(best, flat, mei.ravel())
    nominated = np.flatnonzero(np.isfinite(best))
    positions = np.column_stack(np.unravel_index(nominated, (h, w)))
    return positions, best[nominated]


@dataclass(frozen=True)
class EndmemberSet:
    """Selected endmembers and their provenance.

    Attributes
    ----------
    positions:
        (c, 2) array of (line, sample) coordinates.
    spectra:
        (c, N) raw spectra at those positions.
    normalized:
        (c, N) unit-sum spectra (for SID computations).
    scores:
        (c,) MEI score of each selected pixel.
    """

    positions: np.ndarray
    spectra: np.ndarray
    normalized: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.positions.shape[0]


def select_endmembers(cube_bip: np.ndarray, mei: np.ndarray, count: int, *,
                      strategy: str = "atgp",
                      min_sid: float = 0.05, min_spatial: int = 2,
                      relax_factor: float = 0.5,
                      max_candidates: int | None = None,
                      candidates: tuple[np.ndarray, np.ndarray] | None = None,
                      smooth_radius: int = 1,
                      border: int | None = None,
                      smoothed: np.ndarray | None = None,
                      ) -> EndmemberSet:
    """Pick ``count`` diverse high-MEI pixels as endmembers.

    Parameters
    ----------
    cube_bip:
        (H, W, N) raw cube.
    mei:
        (H, W) MEI scores from the morphological stage.
    count:
        Number of endmembers c (the AMC "number of classes" input).
    strategy:
        How diversity among the high-MEI candidates is enforced:

        * ``"atgp"`` (default) — orthogonal-projection selection: start
          from the top candidate, then repeatedly take the candidate
          whose spectrum has the largest residual against the subspace
          spanned by those already chosen.  Robust to per-pixel noise
          (a noisy duplicate of a chosen material has a small residual).
        * ``"sid"`` — greedy walk down the MEI ranking accepting
          candidates whose SID to every accepted endmember exceeds
          ``min_sid`` (with geometric relaxation when the image cannot
          supply ``count`` members under the guards).
    min_sid:
        Minimum SID between any two accepted endmembers.
    min_spatial:
        Minimum Chebyshev distance (pixels) between accepted endmembers —
        keeps a single anomalous blob from supplying several members.
    relax_factor:
        When a full pass cannot find enough members, both guards are
        multiplied by this factor and the scan restarts (repeatedly if
        needed, down to zero guards).
    max_candidates:
        Limit the scan to the top-k MEI pixels (defaults to all pixels).
    candidates:
        Optional explicit candidate pool as a (positions, scores) pair —
        e.g. the output of :func:`dilation_candidates`.  When omitted,
        every pixel is a candidate with its own MEI score.
    border:
        Exclude candidates within this many pixels of the image edge.
        Clamp-to-edge addressing makes border neighbourhoods
        self-referential, which turns border pixels into spurious
        high-residual outliers.  Defaults to ``smooth_radius + 1``.
    smoothed:
        ``smooth_cube(cube_bip, smooth_radius)`` when the caller already
        has it; computed here when omitted.

    Raises
    ------
    ShapeError
        On inconsistent inputs.
    ValueError
        If ``count`` exceeds the number of pixels.
    """
    cube_bip = np.asarray(cube_bip)
    mei = np.asarray(mei, dtype=np.float64)
    if cube_bip.ndim != 3:
        raise ShapeError(f"cube must be (H, W, N), got {cube_bip.shape}")
    if mei.shape != cube_bip.shape[:2]:
        raise ShapeError(
            f"MEI shape {mei.shape} does not match cube {cube_bip.shape[:2]}")
    h, w, _ = cube_bip.shape
    if count < 1 or count > h * w:
        raise ValidationError(f"count must be in [1, {h * w}], got {count}")

    if border is None:
        border = smooth_radius + 1
    if candidates is None:
        cand_scores = mei.ravel()
        cand_flat = np.arange(h * w)
    else:
        positions, cand_scores = candidates
        positions = np.asarray(positions)
        cand_scores = np.asarray(cand_scores, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2 \
                or positions.shape[0] != cand_scores.shape[0]:
            raise ShapeError("candidates must be ((M, 2) positions, (M,) "
                             "scores)")
        cand_flat = positions[:, 0] * w + positions[:, 1]
    if border > 0 and h > 2 * border and w > 2 * border:
        cy = cand_flat // w
        cx = cand_flat % w
        keep = ((cy >= border) & (cy < h - border)
                & (cx >= border) & (cx < w - border))
        if keep.sum() >= count:
            cand_flat = cand_flat[keep]
            cand_scores = cand_scores[keep]
    rank = np.argsort(cand_scores, kind="stable")[::-1]
    if max_candidates is not None:
        rank = rank[:max_candidates]
    order = cand_flat[rank]
    coords = np.column_stack(np.unravel_index(order, mei.shape))

    if smoothed is None:
        smoothed = smooth_cube(cube_bip, smooth_radius)
    elif smoothed.shape != cube_bip.shape:
        raise ShapeError(f"smoothed cube {smoothed.shape} does not match "
                         f"cube {cube_bip.shape}")
    flat = smoothed.reshape(h * w, -1)

    if strategy == "atgp":
        # Only the chosen spectra are read normalized (below).
        check_normalizable(flat)
        chosen = _select_atgp(flat[order], count)
        chosen = [int(order[i]) for i in chosen]
    elif strategy == "sid":
        chosen = _select_sid_walk(order, coords, normalize_spectra(flat),
                                  count, w, min_sid, min_spatial,
                                  relax_factor)
    else:
        raise ValidationError(f"unknown strategy {strategy!r}; "
                         f"pick 'atgp' or 'sid'")

    idx = np.asarray(chosen)
    score_of = dict(zip(order.tolist(), cand_scores[rank].tolist()))
    positions = np.column_stack(np.unravel_index(idx, mei.shape))
    return EndmemberSet(positions=positions,
                        spectra=flat[idx],
                        normalized=normalize_spectra(flat[idx]),
                        scores=np.array([score_of[i] for i in chosen]))


def _select_atgp(spectra: np.ndarray, count: int) -> list[int]:
    """Orthogonal-projection (ATGP-style) selection over a ranked pool.

    ``spectra`` is (M, N) in descending candidate-score order; index 0 is
    always chosen first, then each round adds the candidate with maximum
    residual norm against the span of the chosen spectra.
    """
    m = spectra.shape[0]
    if count > m:
        raise ValidationError(f"pool of {m} candidates cannot supply {count} "
                         f"endmembers")
    chosen = [0]
    residual = spectra.copy()
    # Gram-Schmidt against each newly chosen spectrum, keeping all
    # candidate residuals up to date (one pass per selection).
    basis_vec = residual[0]
    for _ in range(1, count):
        norm = np.linalg.norm(basis_vec)
        if norm > 1e-12:
            q = basis_vec / norm
            residual -= np.outer(residual @ q, q)
        scores = np.einsum("ij,ij->i", residual, residual)
        scores[chosen] = -1.0
        nxt = int(np.argmax(scores))
        chosen.append(nxt)
        basis_vec = residual[nxt].copy()
    return chosen


def _select_sid_walk(order: np.ndarray, coords: np.ndarray,
                     normalized: np.ndarray, count: int, width: int,
                     min_sid: float, min_spatial: int,
                     relax_factor: float) -> list[int]:
    """Greedy guarded walk down the MEI ranking (the "sid" strategy)."""
    sid_guard = float(min_sid)
    spatial_guard = int(min_spatial)
    while True:
        chosen: list[int] = []
        chosen_norm: list[np.ndarray] = []
        for flat_idx, (y, x) in zip(order, coords):
            if len(chosen) == count:
                break
            cand = normalized[flat_idx]
            ok = True
            if spatial_guard > 0 and chosen:
                ys = np.array([c // width for c in chosen])
                xs = np.array([c % width for c in chosen])
                if np.min(np.maximum(np.abs(ys - y), np.abs(xs - x))) \
                        < spatial_guard:
                    ok = False
            if ok and sid_guard > 0 and chosen_norm:
                dists = sid(np.stack(chosen_norm), cand[None, :])
                if float(np.min(dists)) < sid_guard:
                    ok = False
            if ok:
                chosen.append(int(flat_idx))
                chosen_norm.append(cand)
        if len(chosen) == count:
            return chosen
        if sid_guard == 0.0 and spatial_guard == 0:
            # Guards fully relaxed and still short: the pool has fewer
            # distinct pixels than requested endmembers.
            raise ValidationError(
                f"could not find {count} endmembers even with guards "
                f"disabled (found {len(chosen)})")
        sid_guard = sid_guard * relax_factor if sid_guard > 1e-12 else 0.0
        spatial_guard = spatial_guard - 1 if spatial_guard > 0 else 0
