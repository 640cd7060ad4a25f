"""The benchmark's own arithmetic: self time, the tail rule, the failure
fraction and the span recorder.  Run with::

    python3 -m pytest perfbench/tests -q
"""

import asyncio
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import spec  # noqa: E402
from layers import closure_errors, layer_names  # noqa: E402
from spans import Span, Tracer, resolve_jobs, self_times  # noqa: E402
from stats import failed_frac, tail  # noqa: E402


def span(sid, start, end, parent=0, name="x", job=None):
    s = Span(sid, name, start, parent, job, 0)
    s.end = end
    return s


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 3.0, 1), span(3, 5.0, 6.0, 1)]
    assert self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once():
    # children on other threads may overlap; covered time is their union
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 5.0, 1), span(3, 4.0, 6.0, 1)]
    assert self_times(spans)[1] == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent_interval():
    spans = [span(1, 2.0, 6.0), span(2, 0.0, 3.0, 1), span(3, 5.0, 9.0, 1)]
    assert self_times(spans)[1] == pytest.approx(2.0)


def test_self_time_of_grandchildren_is_not_subtracted_twice():
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 9.0, 1), span(3, 2.0, 4.0, 2)]
    assert self_times(spans) == {1: 2.0, 2: 6.0, 3: 2.0}


def test_self_times_of_a_subtree_add_up_to_the_root():
    spans = [span(1, 0.0, 10.0, name="workload.run"),
             span(2, 1.0, 9.0, 1), span(3, 2.0, 4.0, 2),
             span(4, 4.5, 8.0, 2), span(5, 9.2, 9.9, 1)]
    assert closure_errors(spans) == [pytest.approx(0.0, abs=1e-12)]


def test_jobs_resolve_from_the_nearest_ancestor():
    spans = [span(1, 0, 3, job=7), span(2, 1, 2, 1), span(3, 1, 2, 2),
             span(4, 0, 1)]
    resolve_jobs(spans)
    assert [s.job for s in spans] == [7, 7, 7, None]


# -- tail percentile ------------------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    xs = list(range(100))
    value, pct, n = tail(xs)
    assert (value, pct, n) == (89, 90.0, 100)
    assert sum(x > value for x in xs) == 10


def test_tail_is_order_independent_and_uses_order_statistics():
    xs = [5.0, 1.0, 4.0, 3.0, 2.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 0.5]
    value, pct, n = tail(xs)
    assert value == 1.0 and n == 12
    assert pct == pytest.approx(100 * 2 / 12)
    assert sum(x > value for x in xs) == 10


def test_tail_of_eleven_samples_is_the_minimum():
    assert tail(range(11, 0, -1))[:2] == (1, pytest.approx(100 / 11))


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        tail(range(10))


# -- failure fraction -----------------------------------------------------------

def test_failed_frac_counts_failures_rejections_and_wrong_digests():
    assert failed_frac(200) == 0.0
    assert failed_frac(200, failed=1) == 0.005
    assert failed_frac(200, rejected=2) == 0.01
    assert failed_frac(200, wrong_digest=4) == 0.02
    assert failed_frac(200, 1, 2, 4) == pytest.approx(7 / 200)


def test_failed_frac_rejects_impossible_counts():
    with pytest.raises(ValueError):
        failed_frac(0)
    with pytest.raises(ValueError):
        failed_frac(3, failed=2, rejected=2)


# -- the span recorder ----------------------------------------------------------

class Layer:
    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2

    async def serve(self, x):
        return self.outer(x)


def test_wrappers_record_nested_spans_and_restore_the_originals():
    originals = dict(vars(Layer))
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "layer.outer")
    tracer.wrap(Layer, "inner", "layer.inner")
    layer = Layer()
    assert layer.outer(1) == 3 and tracer.spans == []   # inactive: no spans
    tracer.active = True
    assert layer.outer(2) == 5
    inner, outer = tracer.spans
    assert (outer.name, inner.name) == ("layer.outer", "layer.inner")
    assert inner.parent == outer.sid and outer.parent == 0
    assert outer.start <= inner.start <= inner.end <= outer.end
    tracer.unwrap_all()
    assert dict(vars(Layer)) == originals


def test_coroutine_wrappers_take_their_job_from_the_result():
    tracer = Tracer()

    def job_of(span, args, kwargs, result):
        span.job = result

    tracer.wrap(Layer, "serve", "layer.serve", on_exit=job_of)
    tracer.wrap(Layer, "inner", "layer.inner")
    tracer.active = True
    try:
        assert asyncio.run(Layer().serve(20)) == 41
    finally:
        tracer.unwrap_all()
    resolve_jobs(tracer.spans)
    assert {s.name: s.job for s in tracer.spans} == {"layer.serve": 41,
                                                     "layer.inner": 41}


def test_inherited_methods_are_unwrapped_by_deletion():
    class Child(Layer):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "inner", "child.inner")
    assert "inner" in vars(Child)
    tracer.unwrap_all()
    assert "inner" not in vars(Child)


def test_stage_spans_are_named_after_the_workload_that_ran_them():
    run = span(1, 0, 10, name="workload.run")
    run.attrs = {"workload": "rx"}
    spans = [run, span(2, 1, 9, 1, name="pipeline.run"),
             span(3, 2, 4, 2, name="stage.scores"),
             span(4, 5, 6, 0, name="stage.scores")]
    assert layer_names(spans) == {1: "workload.run", 2: "pipeline.run",
                                  3: "pipeline.rx.scores",
                                  4: "pipeline.unknown.scores"}


def test_benchmark_json_is_generated_from_the_spec():
    path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    assert json.loads(path.read_text()) == spec.benchmark_json()
