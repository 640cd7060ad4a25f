"""PGM/PPM writers for scalar images and class maps.

Binary portable any-map formats (P5 grayscale, P6 color) are the
simplest widely readable image containers — every viewer and converter
understands them, and writing them needs nothing beyond NumPy.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError


def _normalize_to_u8(image: np.ndarray, *, percentile_clip: float = 2.0) -> np.ndarray:
    """Robustly scale a float image to uint8 (percentile-clipped)."""
    image = np.asarray(image, dtype=np.float64)
    lo, hi = np.percentile(image, [percentile_clip, 100.0 - percentile_clip])
    if hi <= lo:
        lo, hi = float(image.min()), float(image.max())
    if hi <= lo:
        return np.zeros(image.shape, dtype=np.uint8)
    out = (np.clip(image, lo, hi) - lo) / (hi - lo)
    return (out * 255.0 + 0.5).astype(np.uint8)


def write_pgm(image: np.ndarray, path: str, *,
              normalize: bool = True) -> str:
    """Write an (H, W) image as binary PGM.

    Float inputs are percentile-scaled unless ``normalize`` is off, in
    which case values must already be uint8-range.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ShapeError(f"PGM needs a 2-D image, got shape {image.shape}")
    data = _normalize_to_u8(image) if normalize \
        else image.astype(np.uint8, copy=False)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode())
        fh.write(np.ascontiguousarray(data).tobytes())
    return path


def write_ppm(rgb: np.ndarray, path: str) -> str:
    """Write an (H, W, 3) uint8 image as binary PPM."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ShapeError(f"PPM needs (H, W, 3), got shape {rgb.shape}")
    data = rgb.astype(np.uint8, copy=False)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{data.shape[1]} {data.shape[0]}\n255\n".encode())
        fh.write(np.ascontiguousarray(data).tobytes())
    return path


def class_palette(n_classes: int) -> np.ndarray:
    """A deterministic, well-separated (n+1, 3) uint8 colour table.

    Index 0 (unlabeled) is black; classes use golden-angle hues at two
    brightness levels so adjacent indices contrast.
    """
    if n_classes < 1:
        raise ValidationError(f"need at least one class, got {n_classes}")
    palette = np.zeros((n_classes + 1, 3), dtype=np.uint8)
    for k in range(1, n_classes + 1):
        hue = (k * 0.61803398875) % 1.0
        value = 0.95 if k % 2 else 0.70
        saturation = 0.85 if k % 3 else 0.55
        i = int(hue * 6.0) % 6
        f = hue * 6.0 - int(hue * 6.0)
        p = value * (1 - saturation)
        q = value * (1 - saturation * f)
        t = value * (1 - saturation * (1 - f))
        rgb = [(value, t, p), (q, value, p), (p, value, t),
               (p, q, value), (t, p, value), (value, p, q)][i]
        palette[k] = [int(c * 255 + 0.5) for c in rgb]
    return palette


def write_class_map_ppm(labels: np.ndarray, path: str, *,
                        n_classes: int | None = None) -> str:
    """Write a 1-based (H, W) label map as a colour PPM (Fig. 5 right)."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeError(f"label map must be 2-D, got shape {labels.shape}")
    if n_classes is None:
        n_classes = int(labels.max())
    if np.any(labels < 0) or np.any(labels > n_classes):
        raise ValidationError(
            f"labels outside [0, {n_classes}] cannot be colour-mapped")
    palette = class_palette(max(n_classes, 1))
    return write_ppm(palette[labels], path)


def write_result_maps(result, path: str) -> dict[str, str]:
    """Write a classification result's MEI image and class map.

    They go next to the cube at ``path``, as ``<path>.mei.pgm`` and
    ``<path>.classes.ppm``; returns the written paths as
    ``{"mei": ..., "classes": ...}``.
    """
    return {
        "mei": write_pgm(result.mei, path + ".mei.pgm"),
        "classes": write_class_map_ppm(
            result.labels, path + ".classes.ppm",
            n_classes=int(result.labels.max())),
    }
