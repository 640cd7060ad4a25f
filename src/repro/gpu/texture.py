"""2-D RGBA textures and the spectral band packing of paper Fig. 3.

A texture is a (height, width, 4) float32 array: four channels per texel,
matching the Red/Green/Blue/Alpha short-vector lanes the fragment
processors operate on in SIMD fashion.  A hyperspectral chunk with N
bands becomes a *stack* of ``ceil(N / 4)`` textures, each holding four
consecutive channels; the final texture is zero-padded and accompanied by
a channel mask so reduction kernels can ignore the padding.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

#: SIMD width of a fragment processor's vector lanes.
CHANNELS: int = 4

#: Bytes per texel of a float32 RGBA texture.
TEXEL_BYTES: int = 4 * CHANNELS


class Texture2D:
    """A float32 RGBA texture resident in (virtual) VRAM.

    Attributes
    ----------
    data:
        (height, width, 4) float32 array.  Host access is synchronising,
        like ``glReadPixels``: while launches queued on a device read or
        write this texture, reading or assigning ``data`` first flushes
        that device's queue (:meth:`VirtualGPU.flush
        <repro.gpu.device.VirtualGPU.flush>`).  ``height``, ``width`` and
        ``nbytes`` never flush.
    handle:
        Allocation handle in the owning device's VRAM allocator, or -1
        for textures not yet bound to a device.
    label:
        Debug name carried into counter records.
    """

    __slots__ = ("_data", "handle", "label", "_pending", "_version")

    def __init__(self, data: np.ndarray, handle: int = -1,
                 label: str = "") -> None:
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 3 or data.shape[2] != CHANNELS:
            raise ShapeError(
                f"a Texture2D is (H, W, 4) float32, got shape {data.shape}")
        self._data = data
        self.handle = handle
        self.label = label
        # The device whose queued launches read or write this texture, and
        # the queued value that lands in ``_data`` when that device flushes.
        self._pending = None
        self._version = None

    @property
    def data(self) -> np.ndarray:
        if self._pending is not None:
            self._pending.flush()
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        if self._pending is not None:
            self._pending.flush()
        self._data = value

    @property
    def height(self) -> int:
        return self._data.shape[0]

    @property
    def width(self) -> int:
        return self._data.shape[1]

    @property
    def nbytes(self) -> int:
        return self.height * self.width * TEXEL_BYTES

    def __repr__(self) -> str:
        return (f"Texture2D({self.label or 'unnamed'!r}, "
                f"{self.height}x{self.width}, handle={self.handle})")

    @classmethod
    def zeros(cls, height: int, width: int, *, label: str = "") -> "Texture2D":
        """A zero-filled render target."""
        if height <= 0 or width <= 0:
            raise ShapeError(f"texture extents must be positive, got "
                             f"{height}x{width}")
        return cls(np.zeros((height, width, CHANNELS), dtype=np.float32),
                   label=label)

    @classmethod
    def from_scalar_image(cls, image: np.ndarray, *, label: str = "") -> "Texture2D":
        """Pack a scalar (H, W) map into the x channel (y, z, w zero)."""
        image = np.asarray(image, dtype=np.float32)
        if image.ndim != 2:
            raise ShapeError(f"expected a 2-D image, got ndim={image.ndim}")
        data = np.zeros(image.shape + (CHANNELS,), dtype=np.float32)
        data[:, :, 0] = image
        return cls(data, label=label)

    def scalar_image(self) -> np.ndarray:
        """The x channel as an (H, W) array (copy-free view)."""
        return self.data[:, :, 0]


def band_group_count(bands: int) -> int:
    """Number of RGBA textures needed for ``bands`` spectral channels."""
    if bands <= 0:
        raise ShapeError(f"band count must be positive, got {bands}")
    return (bands + CHANNELS - 1) // CHANNELS


def group_masks(bands: int) -> list[np.ndarray]:
    """Per-group channel masks: 1.0 for real bands, 0.0 for padding.

    Reduction kernels multiply by the mask before summing so zero-padded
    lanes never contribute — necessary because the probability
    normalization of eq. 3 divides by the *sum over real bands only*.
    """
    masks = []
    for g in range(band_group_count(bands)):
        mask = np.zeros(CHANNELS, dtype=np.float32)
        filled = min(CHANNELS, bands - g * CHANNELS)
        mask[:filled] = 1.0
        masks.append(mask)
    return masks


def pack_bands(bip: np.ndarray) -> list[np.ndarray]:
    """Split an (H, W, N) cube into a stack of (H, W, 4) texture arrays.

    Paper Fig. 3: *"we have mapped every group of four consecutive
    channels onto the RGBA color channels of the texture elements"*.  The
    last group is zero-padded to four channels.

    Returns raw float32 arrays (not yet device-resident textures).
    """
    bip = np.asarray(bip)
    if bip.ndim != 3:
        raise ShapeError(f"expected an (H, W, N) cube, got ndim={bip.ndim}")
    h, w, n = bip.shape
    groups = band_group_count(n)
    out = []
    for g in range(groups):
        lo = g * CHANNELS
        hi = min(lo + CHANNELS, n)
        tex = np.zeros((h, w, CHANNELS), dtype=np.float32)
        tex[:, :, :hi - lo] = bip[:, :, lo:hi]
        out.append(tex)
    return out


def unpack_bands(textures: list[np.ndarray] | list[Texture2D],
                 bands: int) -> np.ndarray:
    """Inverse of :func:`pack_bands`: reassemble an (H, W, bands) cube.

    Accepts either raw arrays or :class:`Texture2D` objects.
    """
    if not textures:
        raise ShapeError("cannot unpack an empty texture stack")
    arrays = [t.data if isinstance(t, Texture2D) else np.asarray(t)
              for t in textures]
    if band_group_count(bands) != len(arrays):
        raise ShapeError(
            f"{len(arrays)} textures cannot hold exactly {bands} bands")
    h, w = arrays[0].shape[:2]
    for a in arrays:
        if a.shape != (h, w, CHANNELS):
            raise ShapeError("texture stack has inconsistent shapes")
    stacked = np.concatenate(arrays, axis=2)
    return stacked[:, :, :bands]
