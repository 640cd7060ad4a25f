"""Golden-pinned tests for the stage pipeline behind run_amc.

The hashes below were captured from the pre-pipeline monolithic
``run_amc`` (commit bdd69d5) on the exact scenes constructed here; the
refactored pipeline must reproduce every output bit-for-bit, on every
backend, serial and chunk-parallel.
"""

import hashlib

import numpy as np
import pytest

from repro.core import AMCConfig, run_amc
from repro.hsi import SceneParams, generate_scene
from repro.pipeline import (
    AMC_STAGE_NAMES,
    Pipeline,
    build_amc_pipeline,
    execute_amc,
)
from repro.profiling import Profiler


def sha(array) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def golden_scene():
    """The scene the pre-refactor goldens were captured on."""
    return generate_scene(SceneParams(lines=20, samples=18, band_count=24,
                                      seed=99, min_field=4))


class TestGoldenBitIdentity:
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("backend,mei_hash", [
        ("reference", "28bb97cfd84205d5"),
        ("gpu", "313e9dbe50fa516c"),
    ])
    def test_host_tail_paths(self, golden_scene, backend, mei_hash,
                             n_workers):
        config = AMCConfig(n_classes=5, backend=backend,
                           n_workers=n_workers)
        result = run_amc(golden_scene.cube, config,
                         ground_truth=golden_scene.ground_truth)
        assert sha(result.mei) == mei_hash
        assert sha(result.labels) == "a2fdefa91c5def69"
        assert result.report.overall_accuracy == 62.77777777777778
        assert result.report.kappa == 0.5176096478070439

    # Captured before the historical per-pass evaluators were retired
    # from the production path; both execution paths agreed on every
    # digest here, serial and chunk-parallel.
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("se_radius,backend,mei_hash,labels_hash", [
        (2, "reference", "bf27db7fc55a62bb", "6fd7f48eed10d63b"),
        (2, "gpu", "e663c56a9343eb3d", "6fd7f48eed10d63b"),
        (3, "reference", "55cd20ae6c6c2421", "af44a6bc9d27b253"),
        (3, "gpu", "403b8848f66940a4", "af44a6bc9d27b253"),
    ])
    def test_wider_structuring_elements(self, golden_scene, se_radius,
                                        backend, mei_hash, labels_hash,
                                        n_workers):
        config = AMCConfig(n_classes=5, backend=backend,
                           n_workers=n_workers, se_radius=se_radius)
        result = run_amc(golden_scene.cube, config,
                         ground_truth=golden_scene.ground_truth)
        assert sha(result.mei) == mei_hash
        assert sha(result.labels) == labels_hash

    @pytest.mark.parametrize("n_workers,launches,modeled_time_s", [
        (1, 184.0, 0.0058574061395348835),
        (2, 353.0, 0.010143319240697678),
    ])
    def test_gpu_unmixing_path(self, golden_scene, n_workers, launches,
                               modeled_time_s):
        config = AMCConfig(n_classes=5, backend="gpu", gpu_unmixing=True,
                           n_workers=n_workers)
        result = run_amc(golden_scene.cube, config,
                         ground_truth=golden_scene.ground_truth)
        assert sha(result.mei) == "313e9dbe50fa516c"
        assert sha(result.labels) == "5cd97718ec41de52"
        assert sha(result.abundances) == "10f577b9e122dbf5"
        assert result.report.overall_accuracy == 69.16666666666667
        # accounting covers morphology *and* the device tail; with two
        # workers each chunk ran its own board (redundant halo work)
        assert result.gpu_output.counters["kernel_launches"] == launches
        assert result.gpu_output.modeled_time_s == modeled_time_s

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_naive_backend(self, n_workers):
        cube = np.random.default_rng(2024).uniform(
            0.05, 1.0, size=(8, 7, 6))
        result = run_amc(cube, AMCConfig(n_classes=3, backend="naive",
                                         n_workers=n_workers))
        assert sha(result.mei) == "b3c8137f5d313b83"
        assert sha(result.labels) == "0676d87caab84dce"


class TestPipelineComposition:
    def test_stage_names(self):
        pipeline = build_amc_pipeline()
        assert pipeline.stage_names == AMC_STAGE_NAMES
        assert AMC_STAGE_NAMES == ("morphology", "endmembers", "unmixing",
                                   "classification", "evaluation")

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="stage"):
            Pipeline(())

    def test_execute_amc_matches_facade(self, golden_scene):
        config = AMCConfig(n_classes=5)
        via_facade = run_amc(golden_scene.cube, config,
                             ground_truth=golden_scene.ground_truth)
        direct = execute_amc(
            golden_scene.cube.as_bip(), config,
            ground_truth=golden_scene.ground_truth,
            pipeline=build_amc_pipeline())
        np.testing.assert_array_equal(direct.mei, via_facade.mei)
        np.testing.assert_array_equal(direct.labels, via_facade.labels)

    def test_truncated_pipeline_runs_partial_context(self, golden_scene):
        """Stages compose: a morphology+endmembers prefix is a valid
        pipeline and leaves its products in the context."""
        pipeline = Pipeline(build_amc_pipeline().stages[:2])
        ctx = {"bip": golden_scene.cube.as_bip(),
               "config": AMCConfig(n_classes=5),
               "ground_truth": None, "class_names": None}
        from repro.backends import get_backend

        ctx["backend"] = get_backend("reference")
        out = pipeline.run(ctx)
        assert out["mei"].shape == golden_scene.cube.as_bip().shape[:2]
        assert len(out["endmembers"].spectra) == 5
        assert "abundances" not in out


class TestProfilingSymmetry:
    @pytest.mark.parametrize("config", [
        AMCConfig(n_classes=5, backend="reference"),
        AMCConfig(n_classes=5, backend="gpu"),
        AMCConfig(n_classes=5, backend="gpu", gpu_unmixing=True),
        AMCConfig(n_classes=5, backend="gpu", gpu_unmixing=True,
                  n_workers=2),
    ], ids=["reference", "gpu", "gpu-unmix", "gpu-unmix-w2"])
    def test_all_five_stage_records_on_every_path(self, golden_scene,
                                                  config):
        """Regression: the monolith skipped the classification record on
        the gpu_unmixing path; the runner now owns the spans, so every
        path emits exactly the five canonical records, in order."""
        profiler = Profiler()
        run_amc(golden_scene.cube, config,
                ground_truth=golden_scene.ground_truth, profiler=profiler)
        names = [record.name for record in profiler.stage_records]
        assert names == list(AMC_STAGE_NAMES)


class TestNonFiniteRejection:
    """Non-finite cubes are rejected at the pipeline's front door."""

    def test_nan_named_by_pixel_and_band(self, small_cube):
        from repro.errors import NonFiniteInputError
        from repro.pipeline import check_finite_cube

        bad = np.array(small_cube, copy=True)
        bad[2, 3, 7] = np.nan
        with pytest.raises(NonFiniteInputError,
                           match=r"pixel \(line=2, sample=3\), band 7"):
            check_finite_cube(bad)

    def test_infinity_rejected_too(self, small_cube):
        from repro.errors import NonFiniteInputError

        bad = np.array(small_cube, copy=True)
        bad[0, 0, 0] = np.inf
        with pytest.raises(NonFiniteInputError, match="inf"):
            run_amc(bad, AMCConfig(n_classes=3))

    def test_first_offender_is_named(self, small_cube):
        """Several bad values: the row-major first one is reported."""
        from repro.errors import NonFiniteInputError

        bad = np.array(small_cube, copy=True)
        bad[5, 1, 2] = np.nan
        bad[1, 4, 9] = -np.inf
        with pytest.raises(NonFiniteInputError,
                           match=r"pixel \(line=1, sample=4\), band 9"):
            execute_amc(bad, AMCConfig(n_classes=3))

    def test_is_a_value_error(self, small_cube):
        """Callers catching ValueError keep working."""
        from repro.errors import NonFiniteInputError, ReproError

        assert issubclass(NonFiniteInputError, ValueError)
        assert issubclass(NonFiniteInputError, ReproError)
        bad = np.array(small_cube, copy=True)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            run_amc(bad, AMCConfig(n_classes=3))

    def test_finite_cube_passes_through_unchanged(self, small_cube):
        from repro.pipeline import check_finite_cube

        out = check_finite_cube(small_cube)
        assert out is np.asarray(small_cube) or np.shares_memory(
            out, small_cube)
