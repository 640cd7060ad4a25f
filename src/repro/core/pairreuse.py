"""Shift-reuse evaluation of the cumulative-SID pair maps.

The vectorized reference evaluates one (H, W) SID map per *unordered
pair* of SE offsets — ``P = K(K-1)/2`` full-image band reductions (36 at
radius 1, 300 at radius 2, 1176 at radius 3).  But SID between two
shifted copies of the same image is **translation invariant**: with
``d = b - a``,

.. math::

    \\mathrm{SID}(f(x + a), f(x + b)) = D_d(x + a),
    \\qquad D_d(x) = \\mathrm{SID}(f(x), f(x + d)),

so every pair map is a shifted view of the single *difference map* of
its offset difference.  Only ``U = ((4r+1)^2 - 1)/2`` unique differences
exist (12 / 40 / 84 at radii 1 / 2 / 3) — a 3x-14x reduction in
full-image band reductions on the stage that dominates AMC runtime
(paper Tables 4-5), and exactly the "maximize computation reuse"
hand-tuning principle the paper applies to its CPU codes.

The identity breaks only where clamp-to-edge addressing fires: reading
``D_d`` at ``x + a`` replicates edge rows/columns, which is *not* what
the pair map does there.  Those border bands — at most ``|a_y|`` rows
and ``|a_x|`` columns, on the edges the base shift points away from —
are recomputed explicitly with the original per-pair arithmetic.  Every
per-pixel operation (cross-term ``einsum`` order, ``h(a) + h(b) -
cross`` association, the non-negativity clamp, the pair accumulation
order into ``cumulative``) matches the all-pairs reference exactly, so
results are **bit-identical** — the test suite pins sha256 equality
against both the naive oracle and pre-engine goldens.

Bit-identity has one sharp edge: ``np.einsum``'s band reduction is a
pure per-element function of the operand values *only across
C-contiguous operands* (verified by the test suite) — handing it a
non-contiguous view changes the inner loop and the rounding.  The
historical all-pairs loop gathers a fresh contiguous copy per non-zero
offset but passes the **original arrays through for the zero offset**,
and callers may hold non-contiguous cubes (band-sequential storage
viewed as BIP).  The engine therefore reduces over contiguous base
copies for every shifted pair; when the caller's arrays are themselves
non-contiguous, the ``K - 1`` pairs involving the zero offset take
:meth:`PairReuseEngine.pair_map`'s direct path, which reproduces the
historical operands exactly (for contiguous inputs — the common case —
the operand classes coincide and those pairs ride the reuse path
free: a zero base shift has no border band at all).

:class:`PairReuseEngine` is the workhorse behind
:func:`repro.core.mei.cumulative_distances` and
:func:`~repro.core.mei.mei_reference`; the all-pairs loop
(:func:`repro.core.mei.mei_all_pairs`) is the bit-identity oracle the
tests pin it against.  :func:`gather_mei` is the lazy MEI gather the
oracle and the CPU build models share: instead of looping all
``K(K-1)/2`` masks it materializes only the (erosion, dilation) pairs
that actually occur in the image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.core.shifts import clamped_indices, clamped_shift, shifted_copy
from repro.errors import ShapeError, ValidationError
from repro.spectral.distances import sid_self_entropy
from repro.spectral.normalize import safe_log

Offset = tuple[int, int]


def unique_difference_offsets(
        offsets: Iterable[Offset]) -> tuple[Offset, ...]:
    """The distinct ``b - a`` differences over all ordered pairs
    ``a < b`` of SE offsets, in first-encounter order.

    For the square SE of radius ``r`` (row-major
    :func:`~repro.core.mei.se_offsets`) the count is
    ``((4r+1)^2 - 1) / 2`` — every non-zero offset of the doubled
    window, halved because ``a < b`` makes each difference canonical.
    """
    offsets = tuple(offsets)
    seen: dict[Offset, None] = {}
    for ia, (ay, ax) in enumerate(offsets):
        for by, bx in offsets[ia + 1:]:
            seen.setdefault((by - ay, bx - ax), None)
    return tuple(seen)


@dataclass(frozen=True)
class PairReuseStats:
    """Observed reuse of one shift-reuse run.

    Attributes
    ----------
    pair_maps:
        Pair maps materialized (``K(K-1)/2`` for a full cumulative
        pass, plus any re-gathers for the MEI).
    difference_maps:
        Full-image evaluations actually paid — one band reduction per
        unique offset difference, plus one per direct zero-offset
        pair.  The all-pairs path would have paid one per pair map.
    direct_pairs:
        Pairs involving the zero SE offset that had to be evaluated
        directly with the historical operands because the input arrays
        were non-contiguous (see the module docstring); zero for
        contiguous inputs.
    border_pixels:
        Pixels recomputed in border-correction bands (where
        clamp-to-edge breaks translation invariance).
    total_pixels:
        ``H * W`` of the image, for normalizing ``border_pixels``.
    mei_pairs_gathered:
        Distinct (erosion, dilation) pairs the lazy MEI gather
        materialized (the mask loop would have scanned all pairs).
    border_pixels_shared:
        Border-band pixels whose recomputation was *elided* because the
        band lies entirely inside a declared halo margin — rows a
        neighbouring chunk owns, whose values the stitcher discards.
        Zero outside chunk-parallel runs.
    """

    pair_maps: int
    difference_maps: int
    border_pixels: int
    total_pixels: int
    mei_pairs_gathered: int = 0
    direct_pairs: int = 0
    border_pixels_shared: int = 0

    @property
    def reuse_ratio(self) -> float:
        """Pair maps served per full-image evaluation paid."""
        if self.difference_maps == 0:
            return 1.0
        return self.pair_maps / self.difference_maps

    def as_counters(self) -> dict[str, float]:
        """Plain-float counter dict for profiler stage records."""
        return {
            "pair_maps": float(self.pair_maps),
            "difference_maps": float(self.difference_maps),
            "direct_pairs": float(self.direct_pairs),
            "border_pixels": float(self.border_pixels),
            "border_pixels_shared": float(self.border_pixels_shared),
            "mei_pairs_gathered": float(self.mei_pairs_gathered),
            "reuse_ratio": self.reuse_ratio,
        }


def sum_reuse_counters(
        counter_dicts: Iterable[Mapping[str, float]]) -> dict[str, float]:
    """Sum per-chunk reuse counter dicts into one run-wide dict.

    Raw counters add; ``reuse_ratio`` is *recomputed* from the summed
    totals (a sum of ratios means nothing).
    """
    totals: dict[str, float] = {}
    for counters in counter_dicts:
        for key, value in counters.items():
            totals[key] = totals.get(key, 0.0) + float(value)
    if totals.get("difference_maps"):
        totals["reuse_ratio"] = (totals.get("pair_maps", 0.0)
                                 / totals["difference_maps"])
    return totals


class PairReuseEngine:
    """Materializes pair maps as shifted difference maps.

    Parameters
    ----------
    normalized:
        (H, W, N) float64 image, pixels normalized to unit sum.
    offsets:
        SE offsets in neighbour-index order
        (:func:`~repro.core.mei.se_offsets`).
    log_img / entropy:
        Optional precomputed ``safe_log(normalized)`` and
        ``sid_self_entropy(normalized)`` so callers that already hold
        them (the reference, the CPU build models) pay no re-log.
    halo_margins:
        ``(top, bottom)`` image rows that belong to a neighbouring
        chunk's core (this chunk's discarded halo).  Border bands that
        lie entirely inside a margin are skipped — the neighbour
        computes those pixels once, inside its own interior — and
        counted as ``border_pixels_shared``.  The
        cumulative values of margin rows are then partial; callers must
        discard them (the chunk stitcher does).

    The engine caches one difference map per unique offset difference;
    :meth:`pair_map` then costs one (H, W) gather plus a border band.
    Pairs involving the zero offset are evaluated directly (and
    cached), reproducing the historical operands exactly — see the
    module docstring.  Treat returned maps as read-only.
    """

    def __init__(self, normalized: np.ndarray, offsets: Iterable[Offset],
                 *, log_img: np.ndarray | None = None,
                 entropy: np.ndarray | None = None,
                 halo_margins: tuple[int, int] = (0, 0)) -> None:
        normalized = np.asarray(normalized, dtype=np.float64)
        if normalized.ndim != 3:
            raise ShapeError(
                f"expected (H, W, N), got ndim={normalized.ndim}")
        # Raw arrays, whatever their layout: the zero-offset direct
        # path must hand einsum exactly what the all-pairs loop would.
        self._p_raw = normalized
        self._l_raw = safe_log(normalized) if log_img is None else log_img
        self._h = sid_self_entropy(normalized) if entropy is None \
            else entropy
        # Contiguous bases for the reuse path: einsum's band reduction
        # is per-element stable only across C-contiguous operands.
        self._p = np.ascontiguousarray(self._p_raw)
        self._l = np.ascontiguousarray(self._l_raw)
        # When the raw arrays were already contiguous the zero-offset
        # operands of the all-pairs loop are in the same operand class
        # as the reuse path's — no direct path needed.
        self._zero_reusable = (self._p is self._p_raw
                               and self._l is self._l_raw)
        self.offsets = tuple(offsets)
        top_m, bottom_m = halo_margins
        if top_m < 0 or bottom_m < 0:
            raise ValidationError(
                f"halo_margins must be non-negative, got {halo_margins}")
        self._halo_margins = (int(top_m), int(bottom_m))
        h, w, _ = normalized.shape
        self._shape = (h, w)
        self._diff: dict[Offset, np.ndarray] = {}
        self._direct: dict[tuple[int, int], np.ndarray] = {}
        self._raw_shifted: dict[int, tuple] = {}
        self._bands: dict[tuple, tuple] = {}
        self._sid_bands: dict[tuple, np.ndarray] = {}
        # Cross-term scratch, reused across every difference map so the
        # inner loop allocates nothing but results.
        self._cross_a = np.empty((h, w), dtype=np.float64)
        self._cross_b = np.empty((h, w), dtype=np.float64)
        self._pair_maps = 0
        self._difference_maps = 0
        self._direct_pairs = 0
        self._border_pixels = 0
        self._border_shared = 0
        self._mei_pairs = 0

    def difference_map(self, d: Offset) -> np.ndarray:
        """``D_d(x) = SID(f(x), f(x + d))`` over the whole image
        (cached)."""
        cached = self._diff.get(d)
        if cached is not None:
            return cached
        dy, dx = d
        # shifted_copy produces byte-identical values in byte-identical
        # layout (fresh C-contiguous), just without the fancy-indexing
        # gather the all-pairs oracle uses.
        p_d = shifted_copy(self._p, dy, dx)
        l_d = shifted_copy(self._l, dy, dx)
        h_d = shifted_copy(self._h, dy, dx)
        # Same arithmetic as the all-pairs reference with a = 0, b = d:
        # cross = (p_a . l_b) + (p_b . l_a); sid = max(h_a + h_b -
        # cross, 0).
        np.einsum("ijk,ijk->ij", self._p, l_d, out=self._cross_a)
        np.einsum("ijk,ijk->ij", p_d, self._l, out=self._cross_b)
        np.add(self._cross_a, self._cross_b, out=self._cross_a)
        sid_map = np.add(self._h, h_d)
        np.subtract(sid_map, self._cross_a, out=sid_map)
        np.maximum(sid_map, 0.0, out=sid_map)
        self._diff[d] = sid_map
        self._difference_maps += 1
        return sid_map

    def _band(self, k: int, axis: int, lo: int, hi: int):
        """Cached contiguous gathers of (p, l, h) for SE offset ``k``
        over an output band: rows ``[lo, hi)`` x all columns
        (``axis=0``) or all rows x columns ``[lo, hi)`` (``axis=1``).

        Bands are tiny (at most ``radius`` lines), so caching them per
        (offset, band) keeps border correction off the hot path.
        """
        key = (k, axis, lo, hi)
        cached = self._bands.get(key)
        if cached is not None:
            return cached
        ky, kx = self.offsets[k]
        h, w = self._shape
        if axis == 0:
            rows = np.clip(np.arange(lo, hi) + ky, 0, h - 1)
            cols = clamped_indices(w, kx)
        else:
            rows = clamped_indices(h, ky)
            cols = np.clip(np.arange(lo, hi) + kx, 0, w - 1)
        idx = np.ix_(rows, cols)
        band = (self._p[idx], self._l[idx], self._h[idx])
        self._bands[key] = band
        return band

    def _sid_band(self, ka: int, kb: int, axis: int, lo: int,
                  hi: int) -> np.ndarray:
        """Cached SID values of one border band of pair ``(ka, kb)`` —
        the per-pair arithmetic of the all-pairs loop, kept as an array
        so accumulation, :meth:`pair_map` and the MEI gather share one
        evaluation per band."""
        key = (ka, kb, axis, lo, hi)
        cached = self._sid_bands.get(key)
        if cached is not None:
            return cached
        pa, la, ha = self._band(ka, axis, lo, hi)
        pb, lb, hb = self._band(kb, axis, lo, hi)
        cross = np.einsum("ijk,ijk->ij", pa, lb) \
            + np.einsum("ijk,ijk->ij", pb, la)
        sid_band = np.maximum(ha + hb - cross, 0.0)
        self._sid_bands[key] = sid_band
        self._border_pixels += sid_band.size
        return sid_band

    def _pair_regions(self, ka: int, kb: int):
        """Decompose pair ``(ka, kb)``'s map into its three disjoint
        regions without materializing it.

        Returns ``(base, (ry0, ry1, cx0, cx1), row_band, col_band)``:
        ``base`` is the difference map the interior region reads
        through the base shift; ``row_band`` / ``col_band`` are
        ``(lo, hi, values)`` for the recomputed border bands (``None``
        where no band exists — or where the band was elided because it
        lies inside a declared halo margin, which is counted in
        ``border_pixels_shared``).  Column bands take precedence over
        row bands at the corners, exactly like :meth:`pair_map`'s
        overwrite order.
        """
        ay, ax = self.offsets[ka]
        by, bx = self.offsets[kb]
        base = self.difference_map((by - ay, bx - ax))
        h, w = self._shape
        top_m, bottom_m = self._halo_margins
        ry0, ry1 = max(0, -ay), h - max(0, ay)
        cx0, cx1 = max(0, -ax), w - max(0, ax)
        row_band = None
        if ay > 0:
            lo, hi = max(0, ry1), h
        elif ay < 0:
            lo, hi = 0, min(ry0, h)
        else:
            lo = hi = 0
        if hi > lo:
            if ay > 0 and lo >= h - bottom_m:
                self._border_shared += (hi - lo) * w
            elif ay < 0 and hi <= top_m:
                self._border_shared += (hi - lo) * w
            else:
                row_band = (lo, hi, self._sid_band(ka, kb, 0, lo, hi))
        col_band = None
        if ax > 0:
            lo, hi = max(0, cx1), w
        elif ax < 0:
            lo, hi = 0, min(cx0, w)
        else:
            lo = hi = 0
        if hi > lo:
            col_band = (lo, hi, self._sid_band(ka, kb, 1, lo, hi))
        return base, (ry0, ry1, cx0, cx1), row_band, col_band

    def _direct_pair(self, ka: int, kb: int) -> np.ndarray:
        """One pair evaluated exactly as the all-pairs loop would
        (cached) — the zero-offset slot passes the raw arrays through
        to einsum, so the shifted-difference-map trick cannot reproduce
        its rounding when the caller's cube is non-contiguous."""
        cached = self._direct.get((ka, kb))
        if cached is not None:
            return cached
        pa, la, ha = self._raw_triplet(ka)
        pb, lb, hb = self._raw_triplet(kb)
        cross = np.einsum("ijk,ijk->ij", pa, lb) \
            + np.einsum("ijk,ijk->ij", pb, la)
        sid_map = np.maximum(ha + hb - cross, 0.0)
        self._direct[(ka, kb)] = sid_map
        self._difference_maps += 1
        self._direct_pairs += 1
        return sid_map

    def _raw_triplet(self, k: int):
        """Cached ``(p, l, h)`` raw-array shifts for the direct path —
        exactly the per-offset gathers the all-pairs loop holds."""
        cached = self._raw_shifted.get(k)
        if cached is not None:
            return cached
        dy, dx = self.offsets[k]
        triplet = tuple(clamped_shift(arr, dy, dx)
                        for arr in (self._p_raw, self._l_raw, self._h))
        self._raw_shifted[k] = triplet
        return triplet

    def pair_map(self, ka: int, kb: int) -> np.ndarray:
        """The (H, W) SID map of SE-offset pair ``(ka, kb)``,
        ``ka < kb``.

        The cached difference map copied through the base shift
        (interior: one basic-slice copy), with the border bands
        recomputed; on non-contiguous inputs, pairs involving the zero
        offset take the direct path.  Read-only: repeated calls may
        alias caches.  Only valid outside any declared halo margins.
        """
        a = self.offsets[ka]
        b = self.offsets[kb]
        self._pair_maps += 1
        if not self._zero_reusable and (a == (0, 0) or b == (0, 0)):
            return self._direct_pair(ka, kb)
        if a == (0, 0):
            return self.difference_map(b)
        base, (ry0, ry1, cx0, cx1), row_band, col_band = \
            self._pair_regions(ka, kb)
        ay, ax = a
        out = np.zeros_like(base)
        if ry0 < ry1 and cx0 < cx1:
            out[ry0:ry1, cx0:cx1] = \
                base[ry0 + ay:ry1 + ay, cx0 + ax:cx1 + ax]
        if row_band is not None:
            lo, hi, values = row_band
            out[lo:hi, :] = values
        if col_band is not None:
            lo, hi, values = col_band
            out[:, lo:hi] = values
        return out

    def accumulate_cumulative(self) -> np.ndarray:
        """(H, W, K) cumulative distances, accumulated pair by pair in
        the same lexicographic order (hence bit-identically) as the
        all-pairs loop.

        Accumulation runs in a (K, H, W) scratch so every add hits a
        contiguous slab; per-element float addition is layout-blind, so
        the transposed result is still bit-identical.  No per-pair map
        is materialized: each pair's three regions — interior (a
        strided slice of the cached difference map), row band, col
        band — are added straight into the scratch.  Every element
        still receives exactly one addition of exactly the pair map's
        value per pair, in the same pair order.
        """
        h, w = self._shape
        k_count = len(self.offsets)
        scratch = np.zeros((k_count, h, w), dtype=np.float64)
        for ka in range(k_count):
            a = self.offsets[ka]
            for kb in range(ka + 1, k_count):
                b = self.offsets[kb]
                self._pair_maps += 1
                if not self._zero_reusable and (a == (0, 0)
                                                or b == (0, 0)):
                    sid_map = self._direct_pair(ka, kb)
                    np.add(scratch[ka], sid_map, out=scratch[ka])
                    np.add(scratch[kb], sid_map, out=scratch[kb])
                    continue
                if a == (0, 0):
                    base = self.difference_map(b)
                    np.add(scratch[ka], base, out=scratch[ka])
                    np.add(scratch[kb], base, out=scratch[kb])
                    continue
                base, (ry0, ry1, cx0, cx1), row_band, col_band = \
                    self._pair_regions(ka, kb)
                ay, ax = a
                interior = None
                if ry0 < ry1 and cx0 < cx1:
                    interior = base[ry0 + ay:ry1 + ay, cx0 + ax:cx1 + ax]
                for k in (ka, kb):
                    tgt = scratch[k]
                    if interior is not None:
                        region = tgt[ry0:ry1, cx0:cx1]
                        np.add(region, interior, out=region)
                    if row_band is not None and cx0 < cx1:
                        lo, hi, values = row_band
                        region = tgt[lo:hi, cx0:cx1]
                        np.add(region, values[:, cx0:cx1], out=region)
                    if col_band is not None:
                        lo, hi, values = col_band
                        region = tgt[:, lo:hi]
                        np.add(region, values, out=region)
        return np.ascontiguousarray(scratch.transpose(1, 2, 0))

    def gather_mei_fast(self, erosion_index: np.ndarray,
                        dilation_index: np.ndarray
                        ) -> tuple[np.ndarray, int]:
        """Sorted equivalent of :func:`gather_mei`: one stable argsort
        over the packed pair codes, then per-segment pointwise reads of
        the pair map's three regions — no per-code boolean mask scans
        and no materialized pair maps.

        Byte-identical to ``gather_mei(ero, dil, self.pair_map, K)``:
        every pixel receives exactly the value :meth:`pair_map` holds
        at that position (column bands take precedence at the corners,
        matching the overwrite order).
        """
        k_count = len(self.offsets)
        h, w = self._shape
        lo_idx = np.minimum(erosion_index, dilation_index)
        hi_idx = np.maximum(erosion_index, dilation_index)
        mei = np.zeros(lo_idx.shape, dtype=np.float64)
        codes = np.where(lo_idx != hi_idx, lo_idx * k_count + hi_idx, -1)
        flat_codes = codes.ravel()
        order = np.argsort(flat_codes, kind="stable")
        sorted_codes = flat_codes[order]
        uniq, starts = np.unique(sorted_codes, return_index=True)
        bounds = np.append(starts, len(sorted_codes))
        mei_flat = mei.ravel()
        gathered = 0
        for i, code in enumerate(uniq):
            if code < 0:
                continue
            seg = order[bounds[i]:bounds[i + 1]]
            ys, xs = np.divmod(seg, w)
            ka, kb = divmod(int(code), k_count)
            self._pair_maps += 1
            gathered += 1
            a = self.offsets[ka]
            b = self.offsets[kb]
            if not self._zero_reusable and (a == (0, 0) or b == (0, 0)):
                mei_flat[seg] = self._direct_pair(ka, kb)[ys, xs]
                continue
            if a == (0, 0):
                mei_flat[seg] = self.difference_map(b)[ys, xs]
                continue
            ay, ax = a
            base = self.difference_map((b[0] - ay, b[1] - ax))
            col_out = (xs + ax < 0) | (xs + ax >= w)
            row_out = (ys + ay < 0) | (ys + ay >= h)
            values = np.empty(len(seg), dtype=np.float64)
            inside = ~(col_out | row_out)
            if inside.any():
                values[inside] = base[ys[inside] + ay, xs[inside] + ax]
            row_only = row_out & ~col_out
            if row_only.any():
                if ay > 0:
                    blo, bhi = max(0, h - ay), h
                else:
                    blo, bhi = 0, min(-ay, h)
                band = self._sid_band(ka, kb, 0, blo, bhi)
                values[row_only] = band[ys[row_only] - blo, xs[row_only]]
            if col_out.any():
                if ax > 0:
                    blo, bhi = max(0, w - ax), w
                else:
                    blo, bhi = 0, min(-ax, w)
                band = self._sid_band(ka, kb, 1, blo, bhi)
                values[col_out] = band[ys[col_out], xs[col_out] - blo]
            mei_flat[seg] = values
        return mei, gathered

    def count_mei_pairs(self, gathered: int) -> None:
        """Record how many pairs the lazy MEI gather materialized."""
        self._mei_pairs += gathered

    def stats(self) -> PairReuseStats:
        """Freeze the engine's counters."""
        h, w = self._shape
        return PairReuseStats(pair_maps=self._pair_maps,
                              difference_maps=self._difference_maps,
                              border_pixels=self._border_pixels,
                              total_pixels=h * w,
                              mei_pairs_gathered=self._mei_pairs,
                              direct_pairs=self._direct_pairs,
                              border_pixels_shared=self._border_shared)


def gather_mei(erosion_index: np.ndarray, dilation_index: np.ndarray,
               pair_map: Callable[[int, int], np.ndarray],
               k_count: int) -> tuple[np.ndarray, int]:
    """Gather ``MEI(x) = SID(f(x + a_dil), f(x + a_ero))`` per pixel.

    Instead of scanning all ``K(K-1)/2`` masks, only the (lo, hi) index
    pairs that actually occur are materialized — found via
    :func:`numpy.unique` over the packed pair codes.  ``pair_map`` is
    any provider of the (H, W) SID map of an ordered pair ``ka < kb``
    (the shift-reuse engine, or a dict of precomputed maps).

    Returns the MEI map and the number of pairs materialized.  Pixels
    whose erosion and dilation coincide (flat neighbourhoods) keep
    MEI = 0.
    """
    lo = np.minimum(erosion_index, dilation_index)
    hi = np.maximum(erosion_index, dilation_index)
    mei = np.zeros(lo.shape, dtype=np.float64)
    codes = np.where(lo != hi, lo * k_count + hi, -1)
    gathered = 0
    for code in np.unique(codes):
        if code < 0:
            continue
        ka, kb = divmod(int(code), k_count)
        mask = codes == code
        mei[mask] = pair_map(ka, kb)[mask]
        gathered += 1
    return mei, gathered
