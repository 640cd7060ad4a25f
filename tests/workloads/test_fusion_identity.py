"""Production AMC vs the historical evaluators, byte for byte.

Each layer runs one production path; the historical evaluators survive
only as oracles this file calls directly.  The reference backend is
compared against the all-pairs loop (:func:`repro.core.mei.mei_all_pairs`),
run as a registered backend — serial, chunk-parallel, and
chunk-parallel under injected faults, where a retried chunk must
reproduce its first attempt exactly.
The GPU backend is compared against the recursive shader evaluator
(:func:`repro.gpu.interpreter.execute`) with clamped-index gather
fetches.  The contract is *byte* identity: every result array must hash
the same under sha256.
"""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from repro import faults
from repro.backends import MorphologicalBackend, MorphologyResult, \
    register_backend, unregister_backend
from repro.core import AMCConfig, run_amc
from repro.core.mei import mei_all_pairs
from repro.core.shifts import clamped_shift
from repro.faults import FaultInjector, FaultSpec
from repro.hsi import SceneParams, generate_scene
from repro.profiling import Profiler


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def scene():
    return generate_scene(SceneParams(lines=36, samples=28, band_count=24,
                                      seed=20060815, min_field=5))


@pytest.fixture(scope="module")
def cube(scene):
    return scene.cube.as_bip()


@pytest.fixture()
def _clean_faults():
    faults.uninstall()
    faults.set_attempt(0)
    yield
    faults.uninstall()
    faults.set_attempt(0)


class AllPairsBackend(MorphologicalBackend):
    """The reference stage through the all-pairs oracle loop.

    A backend instance reaches pool workers by pickling (by reference:
    the class is module-level), so chunk-parallel runs execute the
    oracle in every worker — a monkeypatch in the parent would not.
    """

    name = "all-pairs"

    def run(self, bip, radius, *, spec=None, device=None):
        out = mei_all_pairs(bip, radius)[0]
        return MorphologyResult(mei=out.mei,
                                erosion_index=out.erosion_index,
                                dilation_index=out.dilation_index)


@pytest.fixture(scope="module", autouse=True)
def _all_pairs_backend():
    register_backend(AllPairsBackend())
    yield
    unregister_backend(AllPairsBackend.name)


def _recursive_oracle(patch):
    """Route every device launch through the recursive evaluator, with
    fancy-indexing gather fetches, instead of the compiled plan (one
    launch at a time: with a zero queue budget every launch flushes
    the one before it, so nothing stacks)."""
    import repro.gpu.device as device_mod
    from repro.gpu import interpreter

    patch.setattr(device_mod, "execute_lazy", interpreter.execute)
    patch.setattr(device_mod, "QUEUE_TEXELS", 0)
    patch.setattr(interpreter, "_fetch_static",
                  lambda texture, dx, dy: clamped_shift(texture, dy, dx))


class TestAmcIdentity:
    @pytest.mark.parametrize("backend", ("reference", "gpu"))
    @pytest.mark.parametrize("radius", (1, 2, 3))
    def test_fused_matches_oracle(self, cube, backend, radius,
                                  monkeypatch):
        config = AMCConfig(n_classes=3, backend=backend, se_radius=radius)
        fused = run_amc(cube, config)
        if backend == "reference":
            oracle = run_amc(cube, replace(config, backend="all-pairs"))
        else:
            with monkeypatch.context() as patch:
                _recursive_oracle(patch)
                oracle = run_amc(cube, config)
        assert _sha256(fused.labels, fused.mei, fused.abundances) == \
            _sha256(oracle.labels, oracle.mei, oracle.abundances)
        np.testing.assert_array_equal(fused.erosion_index,
                                      oracle.erosion_index)
        np.testing.assert_array_equal(fused.dilation_index,
                                      oracle.dilation_index)

    def test_parallel_fused_matches_serial_oracle(self, cube):
        """Chunked execution stays bit-identical to the serial
        all-pairs oracle."""
        oracle = run_amc(cube, AMCConfig(n_classes=3, backend="all-pairs"))
        profiler = Profiler()
        fused = run_amc(cube, AMCConfig(n_classes=3, n_workers=2),
                        profiler=profiler)
        assert _sha256(fused.labels, fused.mei) == \
            _sha256(oracle.labels, oracle.mei)

    def test_gpu_counters_report_fusion(self, cube):
        """No production path fuses passes: both fusion keys stay in
        the counter summary, always zero, and the morphology stage
        record carries neither."""
        profiler = Profiler()
        result = run_amc(cube, AMCConfig(n_classes=3, backend="gpu"),
                         profiler=profiler)
        summary = result.gpu_output.counters
        assert summary["passes_fused"] == 0.0
        assert summary["temporaries_elided"] == 0.0
        assert summary["kernel_launches"] > 0.0
        (morph,) = [r for r in profiler.stage_records
                    if r.name == "morphology"]
        assert "passes_fused" not in morph.counters
        assert "temporaries_elided" not in morph.counters


class TestChaosRetryIdentity:
    def test_retried_chunk_matches_oracle(self, cube, _clean_faults):
        """A fault-injected chunk retry recomputes its chunk from
        scratch; the stitched result matches the serial oracle byte for
        byte."""
        serial = run_amc(cube, AMCConfig(n_classes=3, backend="all-pairs"))

        faults.install(FaultInjector(
            [FaultSpec(kind="transient", index=0, attempt=0)]))
        profiler = Profiler()
        chaos = run_amc(cube,
                        AMCConfig(n_classes=3, n_workers=2, max_retries=1),
                        profiler=profiler)
        assert _sha256(chaos.labels, chaos.mei, chaos.abundances) == \
            _sha256(serial.labels, serial.mei, serial.abundances)
        retried = [r for r in profiler.chunk_records if r.index == 0]
        assert retried and retried[0].retries >= 1

    def test_retry_identity_holds_for_oracle_mode_too(
            self, cube, _clean_faults):
        """The all-pairs oracle under the same chaos run matches the
        production serial path: retries change code paths, never
        results.  The oracle runs in the pool workers, and the retried
        chunk stayed in the pool."""
        serial = run_amc(cube, AMCConfig(n_classes=3))
        faults.install(FaultInjector(
            [FaultSpec(kind="transient", index=1, attempt=0)]))
        profiler = Profiler()
        chaos = run_amc(cube,
                        AMCConfig(n_classes=3, backend="all-pairs",
                                  n_workers=2, max_retries=1),
                        profiler=profiler)
        assert _sha256(chaos.labels, chaos.mei) == \
            _sha256(serial.labels, serial.mei)
        retried = [r for r in profiler.chunk_records if r.index == 1]
        assert retried and retried[0].retries == 1
        assert retried[0].worker != os.getpid()


class TestDetectionReductionIdentity:
    def test_bad_optimize_rejected(self, cube):
        """The retired execution-mode knob is not a config field."""
        with pytest.raises(TypeError, match="optimize"):
            run_amc(cube, AMCConfig(n_classes=3, optimize="never"))
