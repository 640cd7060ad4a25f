"""Vectorized reference implementation of the morphological stage.

This module computes, for every pixel of a hyperspectral image:

1. the **cumulative SID distance** of every structuring-element neighbour
   (paper eq. 1),
2. the **extended erosion** (eq. 5, argmin of the cumulative distance)
   and **extended dilation** (eq. 6, argmax),
3. the **Morphological Eccentricity Index** — the SID between the
   dilation and erosion pixels (AMC step 2).

Semantics shared by all implementations in this library (reference, naive
oracle, GPU):

* the structuring element is the square of radius ``r`` —
  ``B = {-r..r} x {-r..r}``, ``(2r+1)^2`` elements (the paper uses 3x3,
  i.e. r = 1);
* out-of-image coordinates are **clamped to the edge**
  (replicate padding), matching the ``GL_CLAMP_TO_EDGE`` addressing the
  GPU kernels use;
* argmin/argmax break ties by the lowest neighbour index (row-major
  order of the SE).

The production path is the shift-reuse engine of
:mod:`repro.core.pairreuse`: one SID map per *unique offset
difference* (``((4r+1)^2 - 1)/2`` maps) over the image edge-padded by
the SE radius, every pair map a plain slice of one of them, and a
sorted MEI gather over only the (erosion, dilation) pairs that occur.
:func:`mei_all_pairs` keeps the historical all-pairs loop — one
full-image map per unordered SE-offset pair (``K(K-1)/2`` maps) via the
cross-entropy decomposition — as the bit-identity oracle the engine is
pinned against;
:func:`repro.core.naive.mei_naive` is the independent float-tolerance
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.pairreuse import PairReuseEngine, PairReuseStats, gather_mei
from repro.core.shifts import clamped_shift
from repro.errors import ShapeError, ValidationError
from repro.spectral.distances import sid_self_entropy
from repro.spectral.normalize import normalize_image, safe_log


@lru_cache(maxsize=64)
def se_offsets(radius: int) -> tuple[tuple[int, int], ...]:
    """Row-major offsets ``(dy, dx)`` of the square SE of a given radius.

    Index ``k`` of the returned tuple is the neighbour index used by the
    erosion/dilation maps of every implementation.
    """
    if radius < 0:
        raise ValidationError(f"SE radius must be >= 0, got {radius}")
    return tuple((dy, dx)
                 for dy in range(-radius, radius + 1)
                 for dx in range(-radius, radius + 1))


@dataclass(frozen=True)
class MorphologicalOutput:
    """Everything the morphological stage produces for one image.

    Attributes
    ----------
    mei:
        (H, W) morphological eccentricity index — SID between the
        dilation and erosion pixels of each neighbourhood.
    erosion_index / dilation_index:
        (H, W) SE-neighbour indices selected by eq. 5 / eq. 6 (row-major
        index into :func:`se_offsets`).
    cumulative:
        (H, W, K) cumulative distances, ``K = (2r+1)^2`` — kept because
        the ablation benches and the tests inspect them.
    radius:
        The SE radius used.
    stats:
        :class:`~repro.core.pairreuse.PairReuseStats` of the shift-reuse
        engine; ``None`` for outputs the engine did not produce (the
        all-pairs oracle, the CPU build models).
    """

    mei: np.ndarray
    erosion_index: np.ndarray
    dilation_index: np.ndarray
    cumulative: np.ndarray
    radius: int
    stats: PairReuseStats | None = None

    def erosion_offsets(self) -> np.ndarray:
        """(H, W, 2) array of (dy, dx) selected by the erosion."""
        offs = np.array(se_offsets(self.radius))
        return offs[self.erosion_index]

    def dilation_offsets(self) -> np.ndarray:
        """(H, W, 2) array of (dy, dx) selected by the dilation."""
        offs = np.array(se_offsets(self.radius))
        return offs[self.dilation_index]


def _prepare(cube_bip: np.ndarray, prenormalized: bool):
    """Normalized float64 image, its log and its self-entropy."""
    cube_bip = np.asarray(cube_bip)
    if cube_bip.ndim != 3:
        raise ShapeError(f"expected (H, W, N), got ndim={cube_bip.ndim}")
    normalized = cube_bip.astype(np.float64) if prenormalized \
        else normalize_image(cube_bip)
    # normalize_image preserves float32 inputs; the reference pair maps
    # have always been computed in float64 (the historical cast at the
    # cumulative_distances entry), so cast *before* taking logs.
    normalized = np.asarray(normalized, dtype=np.float64)
    return normalized, safe_log(normalized), sid_self_entropy(normalized)


def cumulative_distances(normalized: np.ndarray, radius: int = 1,
                         *, return_pair_maps: bool = False):
    """Cumulative SID distance of every SE neighbour at every pixel.

    Parameters
    ----------
    normalized:
        (H, W, N) image, pixel vectors already normalized to unit sum
        (eq. 3-4).  Use :func:`repro.spectral.normalize.normalize_image`.
    radius:
        SE radius (paper: 1, i.e. a 3x3 window).
    return_pair_maps:
        Also return the dict of per-pair SID maps keyed by ``(ka, kb)``
        with ``ka < kb``.  This materializes all ``K(K-1)/2`` maps
        (callers that only need the occurring pairs should use the
        engine's lazy :meth:`~repro.core.pairreuse.\
PairReuseEngine.pair_map` instead).

    Returns
    -------
    numpy.ndarray [, dict]
        (H, W, K) array where slot ``k`` holds
        ``D_B[f(x + a_k)] = sum_b SID(f(x + a_k), f(x + b))`` with all
        coordinates clamped to the image.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    if normalized.ndim != 3:
        raise ShapeError(f"expected (H, W, N), got ndim={normalized.ndim}")
    offsets = se_offsets(radius)
    engine = PairReuseEngine(normalized, offsets)
    cumulative = engine.accumulate_cumulative()
    if not return_pair_maps:
        return cumulative
    k_count = len(offsets)
    pair_maps = {(ka, kb): engine.pair_map(ka, kb)
                 for ka in range(k_count)
                 for kb in range(ka + 1, k_count)}
    return cumulative, pair_maps


def mei_reference(cube_bip: np.ndarray, radius: int = 1, *,
                  prenormalized: bool = False) -> MorphologicalOutput:
    """Full morphological stage on the CPU (vectorized reference).

    Parameters
    ----------
    cube_bip:
        (H, W, N) image cube; raw radiance unless ``prenormalized``.
    radius:
        SE radius.
    prenormalized:
        Skip eq. 3-4 normalization when the caller already applied it.

    Returns
    -------
    MorphologicalOutput
    """
    normalized, log_img, entropy = _prepare(cube_bip, prenormalized)
    engine = PairReuseEngine(normalized, se_offsets(radius),
                             log_img=log_img, entropy=entropy)
    cumulative = engine.accumulate_cumulative()
    erosion_index = np.argmin(cumulative, axis=2)
    dilation_index = np.argmax(cumulative, axis=2)
    # MEI(x) = SID(f(x + a_dil), f(x + a_ero)) — exactly the pair map of
    # the (erosion, dilation) index pair, gathered per pixel for the
    # pairs that actually occur.
    mei, gathered = engine.gather_mei_fast(erosion_index, dilation_index)
    engine.count_mei_pairs(gathered)
    return MorphologicalOutput(mei=mei, erosion_index=erosion_index,
                               dilation_index=dilation_index,
                               cumulative=cumulative, radius=radius,
                               stats=engine.stats())


def mei_all_pairs(cube_bip: np.ndarray, radius: int = 1, *,
                  prenormalized: bool = False):
    """The all-pairs oracle of :func:`mei_reference`.

    The historical loop: one cross-entropy evaluation per unordered
    SE-offset pair over fancy-indexed clamped shifts, accumulated in
    lexicographic pair order, then the mask-scan :func:`gather_mei`.
    :func:`mei_reference` must reproduce its outputs byte for byte; the
    test suite and the ``morph`` bench record call it directly.

    Returns
    -------
    tuple[MorphologicalOutput, dict]
        The stage output (``stats`` is ``None``) and the ``K(K-1)/2``
        pair maps keyed by ``(ka, kb)`` with ``ka < kb``.
    """
    normalized, log_img, entropy = _prepare(cube_bip, prenormalized)
    h, w, _ = normalized.shape
    offsets = se_offsets(radius)
    k_count = len(offsets)
    shifted_p = [clamped_shift(normalized, dy, dx) for dy, dx in offsets]
    shifted_l = [clamped_shift(log_img, dy, dx) for dy, dx in offsets]
    shifted_h = [clamped_shift(entropy, dy, dx) for dy, dx in offsets]

    cumulative = np.zeros((h, w, k_count), dtype=np.float64)
    pair_maps: dict[tuple[int, int], np.ndarray] = {}
    for ka in range(k_count):
        pa, la, ha = shifted_p[ka], shifted_l[ka], shifted_h[ka]
        for kb in range(ka + 1, k_count):
            pb, lb, hb = shifted_p[kb], shifted_l[kb], shifted_h[kb]
            cross = np.einsum("ijk,ijk->ij", pa, lb) \
                + np.einsum("ijk,ijk->ij", pb, la)
            sid_map = np.maximum(ha + hb - cross, 0.0)
            cumulative[:, :, ka] += sid_map
            cumulative[:, :, kb] += sid_map
            pair_maps[(ka, kb)] = sid_map

    erosion_index = np.argmin(cumulative, axis=2)
    dilation_index = np.argmax(cumulative, axis=2)
    mei, _ = gather_mei(erosion_index, dilation_index,
                        lambda ka, kb: pair_maps[(ka, kb)], k_count)
    out = MorphologicalOutput(mei=mei, erosion_index=erosion_index,
                              dilation_index=dilation_index,
                              cumulative=cumulative, radius=radius)
    return out, pair_maps
