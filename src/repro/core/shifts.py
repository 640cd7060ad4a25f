"""Shared clamp-to-edge shift addressing.

Every implementation in this library — the vectorized reference, the
CPU build models, the GPU fragment interpreter — reads neighbours with
**clamp-to-edge** (replicate) addressing, matching the
``GL_CLAMP_TO_EDGE`` texture mode the paper's Cg kernels rely on.  The
clipped index vectors that implement it used to be re-derived in three
places; this module is the single home.

Index vectors are cached per ``(extent, offset)`` and returned
read-only, so repeated fixed-offset fetches (the overwhelmingly common
case in the AMC kernels and the all-pairs oracle) cost one
fancy-indexing gather each and never rebuild their index arithmetic.
The shift-reuse engine of :mod:`repro.core.pairreuse` applies the same
rule once instead, by edge-padding its inputs by the SE radius.

The module sits below everything else in :mod:`repro.core` (it imports
only NumPy), so any layer — including :mod:`repro.gpu` — can use it
without import cycles.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=1024)
def clamped_indices(extent: int, offset: int) -> np.ndarray:
    """Index vector ``i -> clamp(i + offset, 0, extent - 1)``.

    The returned array is cached and marked read-only; use it for fancy
    indexing, never mutate it.
    """
    indices = np.clip(np.arange(extent) + offset, 0, extent - 1)
    indices.setflags(write=False)
    return indices


def clamped_shift(arr: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """``out[y, x] = arr[clamp(y + dy), clamp(x + dx)]`` (replicate).

    The zero shift returns ``arr`` itself (no copy); any other offset
    returns a fresh C-contiguous gather.  Works on (H, W) maps and
    (H, W, N) cubes alike — trailing axes ride along untouched.
    """
    if dy == 0 and dx == 0:
        return arr
    h, w = arr.shape[:2]
    rows = clamped_indices(h, dy)
    cols = clamped_indices(w, dx)
    return arr[np.ix_(rows, cols)]


def shifted_copy(arr: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """:func:`clamped_shift` built from strided copies instead of a
    fancy-indexing gather.

    Produces the exact same values (copies of the same float64s, fresh
    C-contiguous output) — the interior is one basic-slice copy, the
    clamped edge bands are broadcast row/column replications — but runs
    several times faster on cube-sized arrays because nothing touches
    the fancy-indexing machinery.  Degenerate extents (images narrower
    than the shift, where no interior exists) fall back to the gather.
    """
    if dy == 0 and dx == 0:
        return arr
    h, w = arr.shape[:2]
    ry0, ry1 = max(0, -dy), h - max(0, dy)
    cx0, cx1 = max(0, -dx), w - max(0, dx)
    if ry0 >= ry1 or cx0 >= cx1:
        return clamped_shift(arr, dy, dx)
    out = np.empty(arr.shape, dtype=arr.dtype)
    out[ry0:ry1, cx0:cx1] = arr[ry0 + dy:ry1 + dy, cx0 + dx:cx1 + dx]
    # Rows that clamp: replicate the edge row across the middle columns.
    if dy > 0:
        out[ry1:h, cx0:cx1] = arr[h - 1:h, cx0 + dx:cx1 + dx]
    elif dy < 0:
        out[0:ry0, cx0:cx1] = arr[0:1, cx0 + dx:cx1 + dx]
    # Columns that clamp: the adjacent already-filled column holds
    # exactly arr[clamp(y + dy), edge] for every row — broadcast it.
    if dx > 0:
        out[:, cx1:w] = out[:, cx1 - 1:cx1]
    elif dx < 0:
        out[:, 0:cx0] = out[:, cx0:cx0 + 1]
    return out

