"""Hyperspectral imaging substrate.

Everything the AMC algorithm needs underneath it:

* :class:`~repro.hsi.cube.HyperCube` — the image-cube container with the
  three classic interleaves (BSQ/BIL/BIP) and zero-copy views.
* :mod:`~repro.hsi.bands` — AVIRIS-like band metadata (224 channels,
  0.4-2.5 um, 10 nm nominal resolution, water-absorption windows).
* :mod:`~repro.hsi.library` — a synthetic spectral library with
  parameterized absorption features, standing in for field/lab spectra.
* :mod:`~repro.hsi.synthetic` — the Indian-Pines-like scene generator
  (30 land-cover classes, linear mixing, sensor noise) used everywhere the
  paper uses the real AVIRIS scene (see DESIGN.md for the substitution
  argument).
* :mod:`~repro.hsi.envi` — minimal ENVI-style header + raw-binary I/O.
* :mod:`~repro.hsi.chunking` — the spatial chunk planner used when a cube
  exceeds the (virtual) GPU memory, with halos so morphological results
  are chunking-invariant.
"""

from repro.hsi.bands import AVIRIS_BAND_COUNT, BandSet, aviris_bands
from repro.hsi.chunking import (
    Chunk,
    ChunkPlan,
    plan_chunks,
    plan_chunks_by_lines,
    plan_chunks_for_budget,
)
from repro.hsi.cube import HyperCube, Interleave
from repro.hsi.library import SpectralLibrary, build_default_library
from repro.hsi.noise import NoiseModel
from repro.hsi.scenes import (
    generate_coastal_scene,
    generate_minimal_scene,
    generate_urban_scene,
)
from repro.hsi.targets import ImplantedTargets, implant_targets
from repro.hsi.synthetic import (
    INDIAN_PINES_CLASSES,
    SceneParams,
    SyntheticScene,
    generate_indian_pines_like,
    generate_scene,
)

__all__ = [
    "AVIRIS_BAND_COUNT",
    "BandSet",
    "Chunk",
    "ChunkPlan",
    "HyperCube",
    "INDIAN_PINES_CLASSES",
    "ImplantedTargets",
    "Interleave",
    "NoiseModel",
    "SceneParams",
    "SpectralLibrary",
    "SyntheticScene",
    "aviris_bands",
    "build_default_library",
    "generate_coastal_scene",
    "generate_indian_pines_like",
    "generate_minimal_scene",
    "generate_scene",
    "generate_urban_scene",
    "implant_targets",
    "plan_chunks",
    "plan_chunks_by_lines",
    "plan_chunks_for_budget",
]
