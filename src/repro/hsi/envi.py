"""Minimal ENVI-style I/O for hyperspectral cubes.

Real AVIRIS products ship as a raw binary file plus an ASCII ``.hdr``
describing shape, interleave, data type and wavelengths.  This module
implements the subset of the format the library needs: enough to round-trip
any :class:`~repro.hsi.cube.HyperCube` and to read headers produced by
common tooling (ENVI, GDAL, Spectral Python).

Only local files are touched — no network, matching the offline
environment this reproduction runs in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.errors import EnviFormatError
from repro.hsi.cube import HyperCube, Interleave

#: ENVI "data type" codes <-> NumPy dtypes (the commonly used subset).
_ENVI_DTYPES: dict[int, np.dtype] = {
    1: np.dtype(np.uint8),
    2: np.dtype(np.int16),
    3: np.dtype(np.int32),
    4: np.dtype(np.float32),
    5: np.dtype(np.float64),
    12: np.dtype(np.uint16),
    13: np.dtype(np.uint32),
}
_DTYPE_CODES = {v: k for k, v in _ENVI_DTYPES.items()}

#: Axis order of the raw file for each interleave, as (slowest..fastest),
#: in terms of the (lines, samples, bands) triple.
_FILE_SHAPE = {
    Interleave.BIP: lambda l, s, b: (l, s, b),
    Interleave.BIL: lambda l, s, b: (l, b, s),
    Interleave.BSQ: lambda l, s, b: (b, l, s),
}


@dataclass(frozen=True)
class EnviHeader:
    """Parsed contents of an ENVI ``.hdr`` file (supported subset)."""

    lines: int
    samples: int
    bands: int
    interleave: Interleave
    dtype: np.dtype
    byte_order: int = 0  # 0 = little endian, 1 = big endian
    wavelengths_nm: np.ndarray | None = None
    description: str = ""

    def file_shape(self) -> tuple[int, int, int]:
        """Shape of the raw array as stored on disk."""
        return _FILE_SHAPE[self.interleave](self.lines, self.samples, self.bands)


def _tokenize_header(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines, honouring ``{...}`` multi-line blocks."""
    if not text.lstrip().lower().startswith("envi"):
        raise EnviFormatError("not an ENVI header (missing 'ENVI' magic)")
    body = text.lstrip()[4:]
    fields: dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.find("=", i)
        if eq < 0:
            break
        key = body[i:eq].strip().lower()
        j = eq + 1
        while j < len(body) and body[j] in " \t":
            j += 1
        if j < len(body) and body[j] == "{":
            end = body.find("}", j)
            if end < 0:
                raise EnviFormatError(f"unterminated '{{' in field {key!r}")
            value = body[j + 1:end]
            i = end + 1
        else:
            end = body.find("\n", j)
            end = len(body) if end < 0 else end
            value = body[j:end]
            i = end + 1
        if key:
            fields[key] = value.strip()
    return fields


def parse_header(text: str) -> EnviHeader:
    """Parse header text into an :class:`EnviHeader`."""
    fields = _tokenize_header(text)
    try:
        lines = int(fields["lines"])
        samples = int(fields["samples"])
        bands = int(fields["bands"])
    except KeyError as missing:
        raise EnviFormatError(f"header missing required field {missing}") from None
    except ValueError as bad:
        raise EnviFormatError(f"malformed dimension field: {bad}") from None
    if min(lines, samples, bands) <= 0:
        raise EnviFormatError("dimensions must be positive")

    code = int(fields.get("data type", 4))
    if code not in _ENVI_DTYPES:
        raise EnviFormatError(f"unsupported ENVI data type code {code}")
    interleave = Interleave.parse(fields.get("interleave", "bip"))
    byte_order = int(fields.get("byte order", 0))
    if byte_order not in (0, 1):
        raise EnviFormatError(f"byte order must be 0 or 1, got {byte_order}")

    wavelengths = None
    if "wavelength" in fields:
        try:
            wavelengths = np.array(
                [float(tok) for tok in fields["wavelength"].replace("\n", " ")
                 .split(",") if tok.strip()], dtype=np.float64)
        except ValueError as bad:
            raise EnviFormatError(f"malformed wavelength list: {bad}") from None
        if wavelengths.size != bands:
            raise EnviFormatError(
                f"{wavelengths.size} wavelengths for {bands} bands")
        units = fields.get("wavelength units", "nanometers").lower()
        if units.startswith("micro"):
            wavelengths = wavelengths * 1000.0
    return EnviHeader(lines=lines, samples=samples, bands=bands,
                      interleave=interleave, dtype=_ENVI_DTYPES[code],
                      byte_order=byte_order, wavelengths_nm=wavelengths,
                      description=fields.get("description", ""))


def format_header(header: EnviHeader) -> str:
    """Render an :class:`EnviHeader` back to ``.hdr`` text."""
    if header.dtype not in _DTYPE_CODES:
        raise EnviFormatError(f"dtype {header.dtype} has no ENVI code")
    out = [
        "ENVI",
        f"description = {{{header.description or 'repro hyperspectral cube'}}}",
        f"samples = {header.samples}",
        f"lines = {header.lines}",
        f"bands = {header.bands}",
        "header offset = 0",
        "file type = ENVI Standard",
        f"data type = {_DTYPE_CODES[header.dtype]}",
        f"interleave = {header.interleave.value}",
        f"byte order = {header.byte_order}",
    ]
    if header.wavelengths_nm is not None:
        wl = ", ".join(f"{w:.2f}" for w in header.wavelengths_nm)
        out.append("wavelength units = nanometers")
        out.append(f"wavelength = {{{wl}}}")
    return "\n".join(out) + "\n"


def write_cube(cube: HyperCube, path: str) -> tuple[str, str]:
    """Write a cube as ``path`` (raw binary) + ``path + '.hdr'``.

    Returns the (data_path, header_path) pair.
    """
    data = cube.as_layout(cube.interleave, contiguous=True)
    header = EnviHeader(lines=cube.lines, samples=cube.samples,
                        bands=cube.bands, interleave=cube.interleave,
                        dtype=data.dtype, byte_order=0,
                        wavelengths_nm=cube.wavelengths_nm,
                        description=cube.name)
    hdr_path = path + ".hdr"
    with open(hdr_path, "w", encoding="ascii") as fh:
        fh.write(format_header(header))
    data.astype(data.dtype.newbyteorder("<"), copy=False).tofile(path)
    return path, hdr_path


def read_cube(path: str, *, mmap: bool = False) -> HyperCube:
    """Read a cube written by :func:`write_cube` (or compatible tools).

    Parameters
    ----------
    path:
        The raw binary file; its header is found at ``path + '.hdr'`` or
        next to it with the extension replaced.
    mmap:
        Map the file instead of loading it — the cube's data becomes a
        read-only view backed by the page cache, so scenes larger than
        RAM can be processed chunk by chunk (pair naturally with
        :func:`repro.hsi.chunking.plan_chunks`, whose chunk extraction
        is a view and therefore touches only the mapped pages it needs).
    """
    hdr_path = path + ".hdr" if os.path.exists(path + ".hdr") else \
        os.path.splitext(path)[0] + ".hdr"
    if not os.path.exists(hdr_path):
        raise EnviFormatError(f"no header found for {path!r}")
    with open(hdr_path, "r", encoding="ascii", errors="replace") as fh:
        header = parse_header(fh.read())
    dtype = header.dtype.newbyteorder("<" if header.byte_order == 0 else ">")
    expected = header.lines * header.samples * header.bands
    if mmap:
        raw = np.memmap(path, dtype=dtype, mode="r")
    else:
        raw = np.fromfile(path, dtype=dtype)
    if raw.size != expected:
        raise EnviFormatError(
            f"file has {raw.size} elements, header implies {expected}")
    data = raw.reshape(header.file_shape())
    if not mmap:
        data = data.astype(header.dtype, copy=False)
    return HyperCube(data, interleave=header.interleave,
                     wavelengths_nm=header.wavelengths_nm,
                     name=header.description or os.path.basename(path))


def read_scene(path: str) -> tuple[HyperCube, np.ndarray | None]:
    """Read a cube plus its optional ``<path>.gt.npy`` ground-truth
    sidecar (``None`` when there is none)."""
    cube = read_cube(path)
    try:
        ground_truth = np.load(path + ".gt.npy")
    except FileNotFoundError:
        ground_truth = None
    return cube, ground_truth
