"""Tests for the retry/isolation primitives (repro.resilience)."""

import pytest

from repro import faults
from repro.errors import StreamError, TransientFaultError
from repro.resilience import (
    RetryPolicy,
    TaskOutcome,
    run_isolated,
    run_with_retry,
)


@pytest.fixture(autouse=True)
def _clean_attempt():
    faults.set_attempt(0)
    yield
    faults.set_attempt(0)


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 0
        assert policy.chunk_timeout_s is None

    def test_negative_retries_rejected(self):
        with pytest.raises(StreamError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(StreamError, match="chunk_timeout_s"):
            RetryPolicy(chunk_timeout_s=0)


class TestRunWithRetry:
    def test_success_first_try(self):
        outcome = run_with_retry(lambda task: task * 2, 21)
        assert outcome == TaskOutcome(42, retries=0, recovered=False)

    def test_retries_transient_failures(self):
        calls = []

        def flaky(task):
            calls.append(task)
            if len(calls) < 3:
                raise TransientFaultError("not yet")
            return "done"

        outcome = run_with_retry(flaky, "t",
                                 policy=RetryPolicy(max_retries=2))
        assert outcome.value == "done"
        assert outcome.retries == 2
        assert calls == ["t", "t", "t"]

    def test_exhausted_retries_reraise_last(self):
        def always_fails(task):
            raise TransientFaultError("still broken")

        with pytest.raises(TransientFaultError, match="still broken"):
            run_with_retry(always_fails, None,
                           policy=RetryPolicy(max_retries=2))

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def fails_hard(task):
            calls.append(task)
            raise ValueError("a real bug")

        with pytest.raises(ValueError):
            run_with_retry(fails_hard, None,
                           policy=RetryPolicy(max_retries=5))
        assert len(calls) == 1

    def test_publishes_attempt_numbers(self):
        seen = []

        def observe(task):
            seen.append(faults.current_attempt())
            if len(seen) < 3:
                raise TransientFaultError("again")
            return None

        run_with_retry(observe, None, policy=RetryPolicy(max_retries=2))
        assert seen == [0, 1, 2]
        assert faults.current_attempt() == 0  # reset after each attempt

    def test_attempt_base_shifts_numbering(self):
        seen = []

        def observe(task):
            seen.append(faults.current_attempt())
            return None

        run_with_retry(observe, None, attempt_base=3)
        assert seen == [3]


class TestRunIsolated:
    def test_success(self):
        value, error = run_isolated(lambda a, b=0: a + b, 1, b=2)
        assert (value, error) == (3, None)

    def test_captures_exception(self):
        def boom():
            raise KeyError("gone")

        value, error = run_isolated(boom)
        assert value is None
        assert isinstance(error, KeyError)

    def test_base_exceptions_propagate(self):
        def interrupt():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_isolated(interrupt)
