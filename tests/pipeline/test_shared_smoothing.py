"""The smoothed cube is computed once per AMC job when both stages need
the same one.

Endmember selection smooths candidate spectra with
``endmember_smooth_radius``; host unmixing smooths pixels with
``classify_smooth_radius``.  When the radii are equal (both default to
1) the endmember stage computes the cube once and hands it to the
unmixing stage, which must give the results of smoothing twice.
"""

import numpy as np
import pytest

import repro.core.endmembers as endmembers_mod
import repro.pipeline.stages as stages_mod
from repro.core import AMCConfig, run_amc
from repro.core.endmembers import select_endmembers, smooth_cube
from repro.core.unmixing import UNMIXERS
from repro.hsi import SceneParams, generate_scene


@pytest.fixture(scope="module")
def cube():
    scene = generate_scene(SceneParams(lines=16, samples=14, band_count=24,
                                       seed=5, min_field=4))
    return scene.cube.as_bip()


@pytest.fixture()
def smooth_calls(monkeypatch):
    calls = []

    def counting(cube_bip, radius=1):
        calls.append(radius)
        return smooth_cube(cube_bip, radius)

    monkeypatch.setattr(endmembers_mod, "smooth_cube", counting)
    monkeypatch.setattr(stages_mod, "smooth_cube", counting)
    return calls


@pytest.mark.parametrize("backend", ("reference", "gpu"))
@pytest.mark.parametrize("radii,expected", [
    ((1, 1), [1]),
    ((2, 2), [2]),
    ((1, 2), [1, 2]),
    ((2, 1), [2, 1]),
    ((0, 1), [0, 1]),
    ((1, 0), [1]),
])
def test_one_smoothing_per_job_when_radii_match(cube, smooth_calls, backend,
                                                radii, expected):
    endmember_radius, classify_radius = radii
    config = AMCConfig(n_classes=4, backend=backend,
                       endmember_smooth_radius=endmember_radius,
                       classify_smooth_radius=classify_radius)
    result = run_amc(cube, config)
    assert smooth_calls == expected

    # the results of smoothing once per stage
    bip = np.asarray(cube)
    chosen = select_endmembers(
        bip, result.mei, config.n_classes,
        strategy=config.endmember_strategy,
        min_sid=config.endmember_min_sid,
        min_spatial=config.endmember_min_spatial,
        candidates=endmembers_mod.dilation_candidates(
            result.mei, result.dilation_index, config.se_radius),
        smooth_radius=endmember_radius)
    pixels = smooth_cube(bip, classify_radius) if classify_radius else bip
    abundances = UNMIXERS[config.unmixing](pixels, chosen.spectra)
    assert result.endmembers.spectra.tobytes() == chosen.spectra.tobytes()
    assert result.abundances.tobytes() == abundances.tobytes()


def test_device_unmixing_smooths_only_for_endmembers(cube, smooth_calls):
    run_amc(cube, AMCConfig(n_classes=4, backend="gpu", gpu_unmixing=True))
    assert smooth_calls == [1]
