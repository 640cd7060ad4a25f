"""Image output without a plotting stack.

The environment has no matplotlib, so the Figure-5 artefacts (band image,
ground-truth map, MEI map) are written as portable any-maps — PGM for
grayscale, PPM for class maps with a deterministic colour table — plus an
ASCII renderer for terminal inspection.
"""

from repro.viz.ascii import render_ascii
from repro.viz.pnm import (
    class_palette,
    write_class_map_ppm,
    write_pgm,
    write_ppm,
    write_result_maps,
)

__all__ = [
    "class_palette",
    "render_ascii",
    "write_class_map_ppm",
    "write_pgm",
    "write_ppm",
    "write_result_maps",
]
