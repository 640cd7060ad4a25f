"""Probability normalization of pixel spectra (paper eqs. 3-4).

The SID distance treats each pixel vector as a discrete probability
distribution over spectral bands:

.. math::

    p_l = \\frac{f_l(x, y)}{\\sum_{k=1}^{N} f_k(x, y)}

Radiance values from a calibrated sensor are non-negative, but synthetic
or preprocessed data can contain zeros (dead bands, water-absorption bands
set to zero).  A zero component makes ``log(p_l)`` singular, so the whole
library clamps normalized spectra to a small epsilon before taking
logarithms — the same guard any practical Cg shader implementation needs,
since ``log(0)`` on 2005-era fragment processors returns ``-inf`` and
poisons every accumulation downstream.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError

#: Default clamp applied before logarithms.  Chosen well above float32
#: denormals so the GPU (float32) and CPU (float64) paths agree, yet far
#: below 1/N for any realistic band count so it never distorts a valid
#: distribution.
DEFAULT_EPSILON: float = 1e-12


class SpectralEpsilon:
    """Context-free holder for the library-wide normalization epsilon.

    Exposed as a class (rather than a bare module constant) so tests can
    temporarily tighten or loosen the clamp via :meth:`set` without
    monkeypatching every importer.
    """

    _value: float = DEFAULT_EPSILON

    @classmethod
    def get(cls) -> float:
        """Return the current epsilon used to clamp probabilities."""
        return cls._value

    @classmethod
    def set(cls, value: float) -> None:
        """Set the clamp.  ``value`` must be a positive finite float."""
        value = float(value)
        if not np.isfinite(value) or value <= 0.0:
            raise ValidationError(f"epsilon must be positive and finite, got {value!r}")
        cls._value = value

    @classmethod
    def reset(cls) -> None:
        """Restore the library default."""
        cls._value = DEFAULT_EPSILON


def normalize_spectra(spectra: np.ndarray, *, axis: int = -1,
                      epsilon: float | None = None) -> np.ndarray:
    """Normalize spectra to unit sum along ``axis`` (paper eqs. 3-4).

    Parameters
    ----------
    spectra:
        Array with a spectral axis; any number of leading dimensions.
        Values must be non-negative (radiance / reflectance).
    axis:
        The spectral axis.  Defaults to the last axis.
    epsilon:
        Lower clamp applied *after* normalization so downstream
        logarithms are finite.  Defaults to :meth:`SpectralEpsilon.get`.

    Returns
    -------
    numpy.ndarray
        Same shape as ``spectra``, dtype float64 (or float32 if the input
        is float32), each spectrum summing to ~1 before clamping.

    Raises
    ------
    ShapeError
        If the spectral axis has zero length.
    ValueError
        If any value is negative or an entire spectrum sums to zero.
    """
    spectra, total = _checked_totals(spectra, axis)
    eps = SpectralEpsilon.get() if epsilon is None else float(epsilon)
    out = spectra / total
    np.clip(out, eps, None, out=out)
    return out


def check_normalizable(spectra: np.ndarray, *, axis: int = -1) -> None:
    """Raise what :func:`normalize_spectra` would raise, without
    normalizing.

    For callers that validate a whole image but read only a few
    normalized spectra: normalization is per spectrum, so
    ``normalize_spectra(flat[idx])`` equals ``normalize_spectra(flat)[idx]``.
    """
    _checked_totals(spectra, axis)


def _checked_totals(spectra, axis: int):
    """``spectra`` as float64 (float32 kept) and its per-spectrum sums,
    after the checks :func:`normalize_spectra` documents."""
    spectra = np.asarray(spectra)
    if spectra.shape == () or spectra.shape[axis] == 0:
        raise ShapeError("spectra must have a non-empty spectral axis")
    if np.any(spectra < 0):
        raise ValidationError("spectra must be non-negative to be normalized "
                         "as probability distributions (paper eq. 3)")
    out_dtype = spectra.dtype if spectra.dtype == np.float32 else np.float64
    spectra = spectra.astype(out_dtype, copy=False)
    total = spectra.sum(axis=axis, keepdims=True)
    if np.any(total == 0):
        raise ValidationError("at least one spectrum sums to zero and cannot be "
                         "normalized; mask empty pixels before calling")
    return spectra, total


def normalize_image(cube: np.ndarray, *, epsilon: float | None = None) -> np.ndarray:
    """Normalize an (H, W, N) image cube so every pixel vector sums to 1.

    Thin wrapper over :func:`normalize_spectra` with the spectral axis
    fixed to the last dimension, mirroring the *Normalization* stage of
    the paper's stream implementation (Fig. 4).
    """
    cube = np.asarray(cube)
    if cube.ndim != 3:
        raise ShapeError(f"expected an (H, W, N) cube, got ndim={cube.ndim}")
    return normalize_spectra(cube, axis=-1, epsilon=epsilon)


def safe_log(values: np.ndarray, *, epsilon: float | None = None) -> np.ndarray:
    """Logarithm with the library's epsilon clamp applied first.

    Equivalent to ``np.log(np.maximum(values, eps))`` but never emits the
    ``divide-by-zero`` warning and preserves float32 inputs as float32 —
    the property needed for the GPU interpreter, which works in float32
    like the real fragment processors did.
    """
    eps = SpectralEpsilon.get() if epsilon is None else float(epsilon)
    values = np.asarray(values)
    clamped = np.maximum(values, np.asarray(eps, dtype=values.dtype))
    return np.log(clamped)
