"""Tests for the workload registry and the Workload contract."""

import dataclasses

import numpy as np
import pytest

from repro.errors import UnknownWorkloadError
from repro.resilience import ExecutionKnobs, RetryPolicy
from repro.workloads import (
    DEFAULT_EXECUTION_KNOBS,
    AMCWorkload,
    DetectionConfig,
    Workload,
    get_workload,
    register_workload,
    unregister_workload,
    workload_names,
)


class TestExecutionKnobs:
    """The knobs every workload config inherits from one base."""

    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("knob, value", [("n_workers", -1),
                                             ("max_retries", -1),
                                             ("chunk_timeout_s", 0.0)])
    def test_every_config_validates_the_knobs(self, name, knob, value):
        config_type = get_workload(name).config_type
        with pytest.raises(ValueError, match=knob):
            config_type(**{knob: value})

    def test_default_knobs_are_the_base_fields(self):
        assert DEFAULT_EXECUTION_KNOBS == {
            f.name for f in dataclasses.fields(ExecutionKnobs)}

    @pytest.mark.parametrize("name", workload_names())
    def test_derived_policy_carries_the_knobs(self, name):
        config = get_workload(name).config_type(max_retries=3,
                                                chunk_timeout_s=2.5)
        assert isinstance(config, ExecutionKnobs)
        assert config.retry_policy() == RetryPolicy(max_retries=3,
                                                    chunk_timeout_s=2.5)


class TestRegistry:
    def test_builtins_registered(self):
        assert workload_names() == ("amc", "cem", "pca", "rx", "sam")

    def test_kind_filter(self):
        assert workload_names(kind="detection") == ("cem", "rx", "sam")
        assert workload_names(kind="reduction") == ("pca",)
        assert workload_names(kind="classify") == ("amc",)
        assert workload_names(kind="nope") == ()

    def test_get_by_name_and_passthrough(self):
        amc = get_workload("amc")
        assert isinstance(amc, AMCWorkload)
        assert get_workload(amc) is amc

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownWorkloadError, match="amc"):
            get_workload("kmeans")

    def test_unknown_is_value_error(self):
        """Callers that catch ValueError (argparse-ish code) still work."""
        with pytest.raises(ValueError):
            get_workload("kmeans")

    def test_duplicate_name_rejected_unless_replace(self):
        class Dup(AMCWorkload):
            pass

        with pytest.raises(ValueError, match="already registered"):
            register_workload(Dup())
        try:
            replaced = register_workload(Dup(), replace=True)
            assert get_workload("amc") is replaced
        finally:
            register_workload(AMCWorkload(), replace=True)

    def test_register_rejects_non_workload_and_unnamed(self):
        with pytest.raises(TypeError):
            register_workload("amc")
        with pytest.raises(ValueError, match="non-empty"):
            register_workload(Workload())

    def test_unregister_roundtrip(self):
        class Custom(AMCWorkload):
            name = "custom-classify"

        register_workload(Custom())
        try:
            assert "custom-classify" in workload_names()
        finally:
            unregister_workload("custom-classify")
        assert "custom-classify" not in workload_names()
        unregister_workload("custom-classify")  # idempotent


class TestDeclarations:
    """Each built-in's declared metadata drives the generic layers."""

    def test_stage_names(self):
        assert get_workload("amc").stage_names == (
            "morphology", "endmembers", "unmixing", "classification",
            "evaluation")
        for name in ("sam", "cem", "rx"):
            assert get_workload(name).stage_names == (
                "statistics", "scores", "evaluation")
        assert get_workload("pca").stage_names == ("statistics", "project")

    def test_halo_declarations(self):
        assert get_workload("amc").halo({"se_radius": 3}) == 3
        assert get_workload("amc").halo(None) == 1    # config default
        for name in ("sam", "cem", "rx", "pca"):
            assert get_workload(name).halo(None) == 0

    def test_requires_target_capability(self):
        assert get_workload("sam").requires_target
        assert get_workload("cem").requires_target
        assert not get_workload("rx").requires_target
        assert not get_workload("amc").requires_target
        assert not get_workload("pca").requires_target

    def test_canonical_params_exclude_execution_knobs(self):
        for name in workload_names():
            params = get_workload(name).canonical_params(None)
            assert not (set(params) & DEFAULT_EXECUTION_KNOBS), name

    def test_canonical_params_fill_defaults(self):
        rx = get_workload("rx")
        assert rx.canonical_params(None) == rx.canonical_params(
            {"regularization": 1e-6})

    def test_canonical_params_json_serializable(self):
        import json

        target = (1.0, 2.0, 3.0)
        for name in workload_names():
            params = ({"target": target}
                      if get_workload(name).requires_target else None)
            json.dumps(get_workload(name).canonical_params(params),
                       sort_keys=True)

    def test_as_config_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            get_workload("rx").as_config({"se_radius": 2})

    def test_detection_config_validation(self):
        with pytest.raises(ValueError):
            DetectionConfig(regularization=0.0)
        with pytest.raises(ValueError):
            DetectionConfig(max_alarms=0)

    def test_detection_target_canonicalized_to_floats(self):
        config = DetectionConfig(target=np.array([1, 2, 3]))
        assert config.target == (1.0, 2.0, 3.0)
        assert all(isinstance(v, float) for v in config.target)

    def test_reduction_config_validation(self):
        from repro.workloads import ReductionConfig

        with pytest.raises(ValueError):
            ReductionConfig(n_components=0)
