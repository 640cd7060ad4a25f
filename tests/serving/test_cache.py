"""Content addressing and the result cache.

The dedup guarantees of the serving layer rest entirely on the key:
two requests are one job exactly when :func:`job_key` says so.  These
tests pin the canonicalization rules (permuted/defaulted params hash
equal, execution knobs are excluded, any byte or result-affecting
parameter change separates keys) and the LRU/budget behaviour of
:class:`ResultCache`.
"""

from __future__ import annotations

import gc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import AMCConfig
from repro.serving import (
    EXECUTION_KNOBS,
    ResultCache,
    canonical_params,
    canonical_params_json,
    job_key,
    result_nbytes,
)


class TestCanonicalization:
    def test_defaulted_forms_hash_equal(self, small_cube):
        """None, {}, a default-valued dict and a default AMCConfig are
        one job."""
        reference = job_key(small_cube)
        assert job_key(small_cube, {}) == reference
        assert job_key(small_cube, {"backend": "reference"}) == reference
        assert job_key(small_cube, AMCConfig()) == reference

    def test_param_order_is_irrelevant(self, small_cube):
        a = job_key(small_cube, {"n_classes": 4, "se_radius": 2})
        b = job_key(small_cube, {"se_radius": 2, "n_classes": 4})
        assert a == b

    def test_execution_knobs_do_not_change_the_key(self, small_cube):
        """n_workers/max_retries/chunk_timeout_s select a strategy, not
        a result — a parallel request must hit a serially-computed
        cache entry."""
        base = job_key(small_cube, {"n_classes": 4})
        assert job_key(small_cube, {"n_classes": 4,
                                    "n_workers": 4}) == base
        assert job_key(small_cube, {"n_classes": 4, "max_retries": 7,
                                    "chunk_timeout_s": 2.5}) == base

    def test_result_affecting_param_changes_the_key(self, small_cube):
        base = job_key(small_cube, {"n_classes": 4})
        assert job_key(small_cube, {"n_classes": 5}) != base
        assert job_key(small_cube, {"n_classes": 4,
                                    "unmixing": "lsu"}) != base

    def test_cube_bytes_change_the_key(self, small_cube):
        tweaked = small_cube.copy()
        tweaked[0, 0, 0] += 1e-6
        assert job_key(tweaked) != job_key(small_cube)

    def test_ground_truth_and_names_participate(self, small_cube):
        gt = np.zeros(small_cube.shape[:2], dtype=np.int32)
        base = job_key(small_cube)
        with_gt = job_key(small_cube, ground_truth=gt)
        assert with_gt != base
        assert job_key(small_cube, ground_truth=gt,
                       class_names=["a", "b"]) != with_gt

    def test_canonical_params_excludes_exactly_the_knobs(self):
        fields = canonical_params({"n_classes": 4})
        assert not EXECUTION_KNOBS & set(fields)
        assert fields["n_classes"] == 4
        assert "backend" in fields and "unmixing" in fields
        # deterministic JSON form: independent of input ordering
        assert (canonical_params_json({"n_classes": 4, "se_radius": 2})
                == canonical_params_json({"se_radius": 2, "n_classes": 4}))

    def test_invalid_params_fail_at_canonicalization(self):
        with pytest.raises(TypeError):
            canonical_params({"no_such_field": 1})


class _Result(SimpleNamespace):
    """SimpleNamespace that cache entries can reference weakly."""


def _result(payload_bytes: int) -> _Result:
    """An AMCResult-shaped stub whose retained size is controllable."""
    one = np.zeros(1, dtype=np.uint8)
    return _Result(
        mei=np.zeros(payload_bytes, dtype=np.uint8),
        erosion_index=one, dilation_index=one, abundances=one,
        labels=one,
        endmembers=SimpleNamespace(spectra=one, normalized=one),
        endmember_labels=None)


def _put(cache, key, payload_bytes, **kwargs):
    result = _result(payload_bytes)
    return cache.put(key, result, nbytes=result_nbytes(result), **kwargs)


class TestResultCache:
    def test_hit_miss_counters_share_one_entry(self):
        cache = ResultCache(max_bytes=1 << 20)
        assert cache.get("k") is None
        entry = _put(cache, "k", 10, digest="d")
        assert entry.digest == "d" and entry.nbytes == 16
        assert cache.get("k") is entry
        assert cache.get("k") is entry      # hits copy nothing
        assert cache.stats.as_dict() == {
            "hits": 2, "misses": 1, "evictions": 0, "insertions": 1}

    def test_byte_budget_evicts_lru(self):
        cache = ResultCache(max_bytes=40)
        _put(cache, "a", 10)
        _put(cache, "b", 10)
        cache.get("a")                      # refresh: b is now LRU
        _put(cache, "c", 10)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1
        assert cache.current_bytes == 32

    def test_byte_budget_evicts_until_it_fits(self):
        # each _result(n) retains n + 6 bytes (six 1-byte side arrays)
        cache = ResultCache(max_bytes=140)
        _put(cache, "a", 50)
        _put(cache, "b", 50)
        _put(cache, "c", 100)               # must evict both
        assert len(cache) == 1 and "c" in cache
        assert cache.stats.evictions == 2
        assert cache.current_bytes == 106

    def test_the_newest_entry_is_kept_however_large(self):
        cache = ResultCache(max_bytes=64)
        small = _put(cache, "small", 10)
        huge = _put(cache, "huge", 1000)
        assert list(cache.as_dict()[k] for k in ("entries", "bytes")) == [
            1, 1006]
        assert "huge" in cache and huge.result is not None
        _put(cache, "next", 10)             # the next insertion evicts it
        assert "huge" not in cache and cache.current_bytes == 16
        assert cache.stats.evictions == 2
        gc.collect()
        assert small.result is None and huge.result is None

    def test_evicted_entries_hold_their_result_weakly(self):
        cache = ResultCache(max_bytes=20)
        kept = _result(10)
        entry = cache.put("a", kept, nbytes=16)
        _put(cache, "b", 10)
        assert "a" not in cache
        assert entry.result is kept         # alive while the caller holds it
        del kept
        gc.collect()
        assert entry.result is None

    def test_reinsert_refreshes_in_place(self):
        cache = ResultCache(max_bytes=40)
        first = _put(cache, "k", 10)
        _put(cache, "other", 10)
        assert _put(cache, "k", 10) is first
        assert len(cache) == 2 and cache.current_bytes == 32
        assert cache.stats.insertions == 2
        _put(cache, "new", 10)              # "other" is now LRU
        assert "k" in cache and "other" not in cache

    def test_result_nbytes_counts_array_payloads(self):
        assert result_nbytes(_result(100)) == 100 + 6
