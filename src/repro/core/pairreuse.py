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

Clamp-to-edge addressing is handled once, up front: the engine
edge-pads the normalized image, its log and its self-entropy by the SE
radius ``r`` (``np.pad(..., mode="edge")``) and evaluates every
difference map over the padded extent.  For every ``|a| <= r`` the
padded image satisfies ``x_pad[p + r + a] = x[clamp(p + a)]``, so pair
``(a, b)`` is exactly the plain slice
``D_{b-a}[r + a_y : r + a_y + H, r + a_x : r + a_x + W]`` — image
borders included, with no per-pair correction.

A neighbour is an address, never a copy — the paper's fragment kernels
reach one by offsetting a texture coordinate.  The engine does the
same on the CPU: it views the padded arrays pixel-flattened, as
``(Hp * Wp, N)`` rows, so the difference ``d = (dy, dx)`` is the flat
offset ``s = dy * Wp + dx`` and both ``einsum`` operands of a
difference map are contiguous row slices (``p[lo:hi]`` against
``l[lo + s:hi + s]`` and the reverse).  A flat neighbour that wraps a
row differs from the 2-D one, but such entries are never read: for
``|a|, |b| <= r`` both ``q = p + r + a`` and ``q + d = p + r + b`` lie
inside the padded extent, where the two offsets agree.  Every per-pixel
operation (cross-term ``einsum`` order, ``h(a) + h(b) - cross``
association, the non-negativity clamp, the pair accumulation order
into ``cumulative``) matches the all-pairs reference exactly, so
results are **bit-identical** — the test suite pins sha256 equality
against both the naive oracle and pre-engine goldens.

Bit-identity has one sharp edge: ``np.einsum``'s band reduction is a
pure per-element function of the operand values *only across
C-contiguous operands* (verified by the test suite) — handing it a
non-contiguous view changes the inner loop and the rounding.  The
historical all-pairs loop gathers a fresh contiguous copy per non-zero
offset but passes the **original arrays through for the zero offset**,
and callers may hold non-contiguous cubes (band-sequential storage
viewed as BIP).  The engine's padded bases are always fresh contiguous
copies; when the caller's arrays are themselves non-contiguous, the
``K - 1`` pairs involving the zero offset take
:meth:`PairReuseEngine.pair_map`'s direct path, which reproduces the
historical operands exactly (for contiguous inputs — the common case —
the operand classes coincide and those pairs ride the reuse path).

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

from repro.core.shifts import clamped_shift
from repro.errors import ShapeError
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
    mei_pairs_gathered:
        Distinct (erosion, dilation) pairs the lazy MEI gather
        materialized (the mask loop would have scanned all pairs).
    """

    pair_maps: int
    difference_maps: int
    mei_pairs_gathered: int = 0
    direct_pairs: int = 0

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
    """Materializes pair maps as slices of padded difference maps.

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

    The engine caches one difference map per unique offset difference,
    evaluated over the image edge-padded by the SE radius;
    :meth:`pair_map` is then a basic slice of it.  On non-contiguous
    inputs, pairs involving the zero offset are evaluated directly (and
    cached), reproducing the historical operands exactly — see the
    module docstring.  Treat returned maps as read-only.
    """

    def __init__(self, normalized: np.ndarray, offsets: Iterable[Offset],
                 *, log_img: np.ndarray | None = None,
                 entropy: np.ndarray | None = None) -> None:
        normalized = np.asarray(normalized, dtype=np.float64)
        if normalized.ndim != 3:
            raise ShapeError(
                f"expected (H, W, N), got ndim={normalized.ndim}")
        # Raw arrays, whatever their layout: the zero-offset direct
        # path must hand einsum exactly what the all-pairs loop would.
        self._p_raw = normalized
        self._l_raw = safe_log(normalized) if log_img is None else log_img
        self._h_raw = sid_self_entropy(normalized) if entropy is None \
            else entropy
        # When the raw arrays are contiguous the zero-offset operands of
        # the all-pairs loop are in the same operand class as the
        # (always contiguous) padded bases — no direct path needed.
        self._zero_reusable = (self._p_raw.flags["C_CONTIGUOUS"]
                               and self._l_raw.flags["C_CONTIGUOUS"])
        self.offsets = tuple(offsets)
        r = max((max(abs(dy), abs(dx)) for dy, dx in self.offsets),
                default=0)
        self._radius = r
        # Clamp-to-edge, once: x_pad[p + r + a] == x[clamp(p + a)].
        # The padded cubes are kept pixel-flattened, (Hp * Wp, N), so an
        # SE neighbour is a flat offset (see difference_map).
        self._h = np.pad(self._h_raw, r, mode="edge")
        flat = (self._h.size, normalized.shape[2])
        pad = ((r, r), (r, r), (0, 0))
        self._p = np.pad(self._p_raw, pad, mode="edge").reshape(flat)
        self._l = np.pad(self._l_raw, pad, mode="edge").reshape(flat)
        self._shape = normalized.shape[:2]
        self._diff: dict[Offset, np.ndarray] = {}
        self._direct: dict[tuple[int, int], np.ndarray] = {}
        self._raw_shifted: dict[int, tuple] = {}
        # Cross-term scratch, reused across every difference map so the
        # inner loop allocates nothing but results.
        self._cross_a = np.empty(self._h.size, dtype=np.float64)
        self._cross_b = np.empty(self._h.size, dtype=np.float64)
        self._pair_maps = 0
        self._difference_maps = 0
        self._direct_pairs = 0
        self._mei_pairs = 0

    def difference_map(self, d: Offset) -> np.ndarray:
        """``D_d(q) = SID(f(q), f(q + d))`` over the padded image
        (cached).

        Evaluated over the pixel-flattened padded arrays, where ``d`` is
        the flat offset ``s = dy * Wp + dx`` and both ``einsum``
        operands are contiguous row slices — no shifted copy of the
        cube is made.  Entries whose neighbour ``q + d`` leaves the
        padded extent are meaningless (the flat neighbour wraps a row,
        or falls off the end and reads as 0); :meth:`pair_map` never
        reads them.
        """
        cached = self._diff.get(d)
        if cached is not None:
            return cached
        dy, dx = d
        s = dy * self._h.shape[1] + dx
        lo, hi = max(0, -s), min(self._h.size, self._h.size - s)
        sid_map = np.zeros(self._h.shape, dtype=np.float64)
        if lo < hi:
            pf, lf, hf = self._p, self._l, self._h.reshape(-1)
            cross_a = self._cross_a[lo:hi]
            cross_b = self._cross_b[lo:hi]
            sid = sid_map.reshape(-1)[lo:hi]
            # Same arithmetic as the all-pairs reference with a = 0,
            # b = d: cross = (p_a . l_b) + (p_b . l_a); sid = max(h_a +
            # h_b - cross, 0).
            np.einsum("ik,ik->i", pf[lo:hi], lf[lo + s:hi + s],
                      out=cross_a)
            np.einsum("ik,ik->i", pf[lo + s:hi + s], lf[lo:hi],
                      out=cross_b)
            np.add(cross_a, cross_b, out=cross_a)
            np.add(hf[lo:hi], hf[lo + s:hi + s], out=sid)
            np.subtract(sid, cross_a, out=sid)
            np.maximum(sid, 0.0, out=sid)
        self._diff[d] = sid_map
        self._difference_maps += 1
        return sid_map

    def _direct_pair(self, ka: int, kb: int) -> np.ndarray:
        """One pair evaluated exactly as the all-pairs loop would
        (cached) — the zero-offset slot passes the raw arrays through
        to einsum, so the padded difference maps cannot reproduce its
        rounding when the caller's cube is non-contiguous."""
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
                        for arr in (self._p_raw, self._l_raw, self._h_raw))
        self._raw_shifted[k] = triplet
        return triplet

    def pair_map(self, ka: int, kb: int) -> np.ndarray:
        """The (H, W) SID map of SE-offset pair ``(ka, kb)``,
        ``ka < kb``.

        A basic slice of the padded difference map of ``b - a`` at
        ``r + a``; on non-contiguous inputs, pairs involving the zero
        offset take the direct path.  Read-only: the result aliases the
        engine's caches.
        """
        a = self.offsets[ka]
        b = self.offsets[kb]
        self._pair_maps += 1
        if not self._zero_reusable and (a == (0, 0) or b == (0, 0)):
            return self._direct_pair(ka, kb)
        base = self.difference_map((b[0] - a[0], b[1] - a[1]))
        h, w = self._shape
        y0 = self._radius + a[0]
        x0 = self._radius + a[1]
        return base[y0:y0 + h, x0:x0 + w]

    def accumulate_cumulative(self) -> np.ndarray:
        """(H, W, K) cumulative distances, accumulated pair by pair in
        the same lexicographic order (hence bit-identically) as the
        all-pairs loop.

        Accumulation runs in a (K, H, W) scratch so every add hits a
        contiguous slab; per-element float addition is layout-blind, so
        the transposed result is still bit-identical.
        """
        h, w = self._shape
        k_count = len(self.offsets)
        scratch = np.zeros((k_count, h, w), dtype=np.float64)
        for ka in range(k_count):
            for kb in range(ka + 1, k_count):
                sid_map = self.pair_map(ka, kb)
                np.add(scratch[ka], sid_map, out=scratch[ka])
                np.add(scratch[kb], sid_map, out=scratch[kb])
        return np.ascontiguousarray(scratch.transpose(1, 2, 0))

    def gather_mei_fast(self, erosion_index: np.ndarray,
                        dilation_index: np.ndarray
                        ) -> tuple[np.ndarray, int]:
        """Sorted equivalent of :func:`gather_mei`: one stable argsort
        over the packed pair codes, then one pointwise read of each
        pair map per segment — no per-code boolean mask scans.

        Byte-identical to ``gather_mei(ero, dil, self.pair_map, K)``.
        """
        k_count = len(self.offsets)
        w = self._shape[1]
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
            mei_flat[seg] = self.pair_map(ka, kb)[ys, xs]
            gathered += 1
        return mei, gathered

    def count_mei_pairs(self, gathered: int) -> None:
        """Record how many pairs the lazy MEI gather materialized."""
        self._mei_pairs += gathered

    def stats(self) -> PairReuseStats:
        """Freeze the engine's counters."""
        return PairReuseStats(pair_maps=self._pair_maps,
                              difference_maps=self._difference_maps,
                              mei_pairs_gathered=self._mei_pairs,
                              direct_pairs=self._direct_pairs)


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
