"""Spatial chunk planning for cubes larger than device memory.

Paper §3.2: *"In case of a target hyperspectral image that exceeds the
capacity of the GPU memory, we split it into multiple chunks made up of
entire pixel vectors, i.e. every chunk incorporates all the spectral
information on a localized spatial region."*

The subtlety the paper glosses over — and that any correct implementation
must handle — is that the morphological operations look at a
structuring-element neighbourhood around every pixel, so chunks must carry
a **halo** of ``se_radius`` pixels on each interior edge.  The planner
here produces chunks whose *core* regions tile the image exactly and whose
halo-extended regions provide the context erosion/dilation needs, making
chunked execution bit-identical to whole-image execution (a property test
enforces this).

Chunks are split along the *lines* axis only, preserving "entire pixel
vectors" and full image width per chunk, exactly as in Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import StreamError
from repro.hsi.cube import HyperCube


@dataclass(frozen=True)
class Chunk:
    """One planned spatial chunk.

    The chunk's *extended* region is ``[ext_start, ext_stop)`` in image
    lines (core plus halos); the *core* region ``[core_start, core_stop)``
    is the part whose results are valid and get written to the output.
    ``core_offset`` locates the core inside the extended region.
    """

    index: int
    ext_start: int
    ext_stop: int
    core_start: int
    core_stop: int

    def __post_init__(self) -> None:
        if not (self.ext_start <= self.core_start < self.core_stop
                <= self.ext_stop):
            raise StreamError(
                f"inconsistent chunk geometry: ext=[{self.ext_start},"
                f"{self.ext_stop}) core=[{self.core_start},{self.core_stop})")

    @property
    def ext_lines(self) -> int:
        """Number of lines in the extended (halo-included) region."""
        return self.ext_stop - self.ext_start

    @property
    def core_lines(self) -> int:
        """Number of lines this chunk is responsible for in the output."""
        return self.core_stop - self.core_start

    @property
    def core_offset(self) -> int:
        """First core line, relative to the extended region's first line."""
        return self.core_start - self.ext_start

    def extract(self, bip: np.ndarray) -> np.ndarray:
        """Slice the extended region out of a (lines, samples, bands) array
        (view, no copy)."""
        return bip[self.ext_start:self.ext_stop]

    def core_of(self, chunk_result: np.ndarray) -> np.ndarray:
        """Slice a per-chunk result (first axis = extended lines) down to
        the core region."""
        return chunk_result[self.core_offset:self.core_offset + self.core_lines]


@dataclass(frozen=True)
class ChunkPlan:
    """An ordered set of chunks covering an image exactly."""

    lines: int
    samples: int
    bands: int
    halo: int
    chunks: tuple[Chunk, ...]

    def __len__(self) -> int:
        return len(self.chunks)

    def __iter__(self):
        return iter(self.chunks)

    def validate(self) -> None:
        """Check exact coverage: cores tile [0, lines) without gaps or
        overlap, and every halo stays inside the image."""
        cursor = 0
        for chunk in self.chunks:
            if chunk.core_start != cursor:
                raise StreamError(
                    f"chunk {chunk.index} core starts at {chunk.core_start}, "
                    f"expected {cursor}")
            if chunk.ext_start < 0 or chunk.ext_stop > self.lines:
                raise StreamError(f"chunk {chunk.index} halo exceeds image")
            cursor = chunk.core_stop
        if cursor != self.lines:
            raise StreamError(f"chunks cover {cursor} of {self.lines} lines")

    def max_ext_lines(self) -> int:
        """Largest extended-chunk height — sizes the device allocation."""
        return max(c.ext_lines for c in self.chunks)


def plan_chunks_by_lines(lines: int, samples: int, bands: int, *,
                         max_ext_lines: int, halo: int) -> ChunkPlan:
    """Split an image by a direct cap on *extended* chunk height.

    Used by executors whose per-line device footprint is not simply
    ``samples * bands * itemsize`` (the GPU path holds several texture
    stacks per chunk); they compute the affordable extended height
    themselves and delegate the geometry here.
    """
    if halo < 0:
        raise StreamError(f"halo must be >= 0, got {halo}")
    if max_ext_lines >= lines:
        chunks = (Chunk(0, 0, lines, 0, lines),)
        plan = ChunkPlan(lines, samples, bands, halo, chunks)
        plan.validate()
        return plan
    core_lines = max_ext_lines - 2 * halo
    if core_lines < 1:
        raise StreamError(
            f"max_ext_lines={max_ext_lines} cannot fit one core line plus "
            f"halo={halo} on both sides")
    chunks: list[Chunk] = []
    start = 0
    index = 0
    while start < lines:
        core_stop = min(start + core_lines, lines)
        ext_start = max(start - halo, 0)
        ext_stop = min(core_stop + halo, lines)
        chunks.append(Chunk(index, ext_start, ext_stop, start, core_stop))
        start = core_stop
        index += 1
    plan = ChunkPlan(lines, samples, bands, halo, tuple(chunks))
    plan.validate()
    return plan


def plan_chunks_for_budget(lines: int, samples: int, bands: int, *,
                           line_bytes: int, budget_bytes: int, halo: int,
                           budget_name: str = "budget") -> ChunkPlan:
    """Split an image into the tallest line-wise chunks a byte budget holds.

    The one chunk-budget rule every planner shares: ``budget_bytes //
    line_bytes`` extended lines fit, and a chunk must hold at least one
    core line plus ``halo`` lines on both sides.  Callers state their
    own per-line footprint (the host input stream, or a GPU pipeline's
    whole texture working set) and get the geometry from
    :func:`plan_chunks_by_lines`.

    Raises
    ------
    StreamError
        If fewer than ``2 * halo + 1`` lines fit, before any caller
        allocates anything.
    """
    budget_lines = int(budget_bytes // line_bytes)
    if budget_lines < 2 * halo + 1:
        raise StreamError(
            f"{budget_name} of {budget_bytes} bytes fits only {budget_lines} "
            f"lines of {line_bytes} bytes; need at least {2 * halo + 1} "
            f"(halo={halo}) — increase the budget or reduce the halo")
    return plan_chunks_by_lines(lines, samples, bands,
                                max_ext_lines=budget_lines, halo=halo)


def plan_chunks(cube: HyperCube, *, max_chunk_bytes: int,
                halo: int) -> ChunkPlan:
    """Split a cube into line-wise chunks that fit a memory budget.

    Parameters
    ----------
    cube:
        The image to split.
    max_chunk_bytes:
        Memory available for one chunk's *input stream* (one line costs
        ``samples * bands`` values of the cube's dtype).
    halo:
        Structuring-element radius; each chunk is extended this many lines
        into its neighbours (clipped at image borders).

    Returns
    -------
    ChunkPlan
        A validated plan.  If the whole image fits, the plan has a single
        chunk with no halo slack.

    Raises
    ------
    StreamError
        If the budget cannot fit even one core line plus its halos.
    """
    return plan_chunks_for_budget(
        cube.lines, cube.samples, cube.bands,
        line_bytes=cube.samples * cube.bands * cube.data.dtype.itemsize,
        budget_bytes=max_chunk_bytes, halo=halo)
