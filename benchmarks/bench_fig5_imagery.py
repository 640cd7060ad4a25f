"""Figure 5 — scene imagery: the 587 nm band and the ground-truth map.

Paper: Fig. 5(a) shows the spectral band at 587 nm of the AVIRIS scene;
Fig. 5(b) the 30-class ground-truth map.  Here both are regenerated from
the synthetic scene as PGM/PPM files plus ASCII thumbnails in the text
report, and the artefacts' structure is asserted (band wavelength,
dynamic range, class coverage, palette integrity).
"""

import os

import numpy as np
import pytest

from repro.viz import render_ascii, write_class_map_ppm, write_pgm


def _generate(scene, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    index, band = scene.cube.band_at_wavelength(587.0)
    band_path = write_pgm(band, os.path.join(out_dir, "fig5a_band587.pgm"))
    gt_path = write_class_map_ppm(
        scene.ground_truth, os.path.join(out_dir, "fig5b_groundtruth.ppm"),
        n_classes=scene.n_classes)
    return index, band, band_path, gt_path


def test_fig5_imagery(benchmark, report, table3_scene, results_dir):
    scene = table3_scene
    out_dir = os.path.join(results_dir, "fig5")
    index, band, band_path, gt_path = benchmark.pedantic(
        _generate, args=(scene, out_dir), rounds=1, iterations=1,
        warmup_rounds=0)

    wavelength = scene.bands.centers_nm[index]
    present = np.unique(scene.ground_truth)
    # paths relative to the results directory, so the report does not
    # depend on where the repository is checked out
    text = (
        "Figure 5 — scene imagery (synthetic Indian-Pines-like scene)\n"
        "============================================================\n"
        f"(a) band {index} at {wavelength:.0f} nm -> "
        f"{os.path.relpath(band_path, results_dir)}\n"
        + render_ascii(band, max_width=64, max_height=20)
        + f"\n\n(b) ground truth, {present.size} classes present -> "
        f"{os.path.relpath(gt_path, results_dir)}\n"
        + render_ascii(scene.ground_truth, max_width=64, max_height=20,
                       labels=True))
    report("fig5_imagery", text)

    # the selected band is within one channel spacing of 587 nm
    spacing = np.diff(scene.bands.centers_nm).max()
    assert abs(wavelength - 587.0) <= spacing
    # the band image has real dynamic range (not a dead channel)
    assert band.std() > 0.01 * band.mean()
    # the ground truth realizes (nearly) all 32 classes at this size
    assert present.size >= 28
    # the PGM/PPM files are structurally valid
    with open(band_path, "rb") as fh:
        assert fh.readline().strip() == b"P5"
    with open(gt_path, "rb") as fh:
        assert fh.readline().strip() == b"P6"
        dims = fh.readline().split()
        assert [int(dims[0]), int(dims[1])] == [scene.cube.samples,
                                                scene.cube.lines]
