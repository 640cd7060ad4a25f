"""The disk cache tier: sha-verified service, quarantine of damaged
entries, seq-ordered eviction, index persistence, and fault containment.

The tier's promise is that nothing corrupt is ever served: every load
recomputes the result digest from the loaded arrays through the
workload contract, and any mismatch/unpicklable/orphaned file lands in
``quarantine/`` (evidence kept) rather than being retried or deleted.
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core import AMCConfig, run_amc
from repro.faults import FaultInjector, FaultSpec
from repro.serving import DiskCacheTier, durable, result_digest


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.uninstall()
    faults.set_attempt(0)
    yield
    faults.uninstall()
    faults.set_attempt(0)


@pytest.fixture(scope="module")
def amc_result():
    import numpy as np

    cube = np.random.default_rng(12345).uniform(
        0.05, 1.0, size=(6, 5, 6))
    return run_amc(cube, AMCConfig(n_classes=3))


@pytest.fixture()
def tier(tmp_path):
    return DiskCacheTier(str(tmp_path / "cache"))


class TestRoundTrip:
    def test_put_get_verifies_digest(self, tier, amc_result):
        digest = result_digest(amc_result)
        assert tier.put("k1", amc_result, digest=digest)
        entry = tier.get("k1")
        assert entry is not None
        assert entry.digest == digest
        assert result_digest(entry.result) == digest
        assert tier.stats.hits == 1

    def test_unknown_key_is_a_plain_miss(self, tier):
        assert tier.get("nope") is None
        assert tier.stats.misses == 1
        assert tier.stats.quarantined == 0

    def test_index_survives_a_new_instance(self, tier, tmp_path,
                                           amc_result):
        tier.put("k1", amc_result, digest=result_digest(amc_result))
        reopened = DiskCacheTier(str(tmp_path / "cache"))
        assert "k1" in reopened
        entry = reopened.get("k1")
        assert entry is not None
        assert result_digest(entry.result) == result_digest(amc_result)


class TestQuarantine:
    def _entry_file(self, tier, key):
        return os.path.join(tier.directory, f"{key}.res")

    def test_digest_mismatch_is_quarantined_never_served(self, tier,
                                                         amc_result):
        # store under a digest the arrays cannot reproduce — the load
        # path must recompute, notice, and refuse to serve
        tier.put("k1", amc_result, digest="0" * 64)
        path = self._entry_file(tier, "k1")
        assert tier.get("k1") is None
        assert tier.stats.quarantined == 1
        assert not os.path.exists(path)
        assert os.path.exists(os.path.join(tier.quarantine_dir, "k1.res"))
        # quarantined means forgotten: the next lookup is a plain miss
        assert tier.get("k1") is None
        assert tier.stats.quarantined == 1

    def test_truncated_entry_is_quarantined(self, tier, amc_result):
        tier.put("k1", amc_result, digest=result_digest(amc_result))
        path = self._entry_file(tier, "k1")
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 3])
        assert tier.get("k1") is None
        assert tier.stats.quarantined == 1

    def test_entry_naming_a_missing_module_is_quarantined(self, tier,
                                                          amc_result):
        # a pickle whose class moved away raises ModuleNotFoundError on
        # load; that is damage like any other, not an error to escape
        tier.put("k1", amc_result, digest=result_digest(amc_result))
        path = self._entry_file(tier, "k1")
        data = open(path, "rb").read()
        assert b"repro.core.amc" in data
        with open(path, "wb") as fh:
            fh.write(data.replace(b"repro.core.amc", b"repro.core.amX"))
        assert tier.get("k1") is None
        assert tier.stats.quarantined == 1
        assert os.path.exists(os.path.join(tier.quarantine_dir, "k1.res"))
        assert tier.get("k1") is None

    def test_orphan_files_are_quarantined_on_load(self, tier, tmp_path,
                                                  amc_result):
        with open(self._entry_file(tier, "orphan"), "wb") as fh:
            fh.write(b"no index entry owns me")
        reopened = DiskCacheTier(str(tmp_path / "cache"))
        assert "orphan" not in reopened
        assert reopened.stats.quarantined == 1


class TestBudget:
    def test_eviction_is_oldest_insertion_first(self, tmp_path,
                                                amc_result):
        tier = DiskCacheTier(str(tmp_path / "cache"), max_bytes=250)
        tier.put("k1", amc_result, digest=result_digest(amc_result),
                 nbytes=100)
        tier.put("k2", amc_result, digest=result_digest(amc_result),
                 nbytes=100)
        tier.put("k3", amc_result, digest=result_digest(amc_result),
                 nbytes=100)
        assert "k1" not in tier
        assert "k2" in tier and "k3" in tier
        assert tier.stats.evictions == 1

    def test_oversize_results_are_refused(self, tmp_path, amc_result):
        tier = DiskCacheTier(str(tmp_path / "cache"), max_bytes=10)
        assert not tier.put("k1", amc_result, nbytes=100)
        assert tier.stats.oversize_skips == 1
        assert len(tier) == 0


class TestFaultContainment:
    def test_disk_write_fault_is_counted_not_raised(self, tier,
                                                    amc_result):
        faults.install(FaultInjector([
            FaultSpec(kind="transient", site="cache_disk", index=None,
                      attempt=None)]))
        assert not tier.put("k1", amc_result)
        assert tier.stats.write_errors == 1
        assert "k1" not in tier

    def test_disk_read_fault_is_a_miss_not_quarantine(self, tier,
                                                      amc_result):
        tier.put("k1", amc_result, digest=result_digest(amc_result))
        faults.install(FaultInjector([
            FaultSpec(kind="transient", site="cache_disk", index=None,
                      attempt=None)]))
        assert tier.get("k1") is None
        assert tier.stats.quarantined == 0
        faults.uninstall()
        assert tier.get("k1") is not None    # the entry itself is fine


class TestDeleteFaults:
    def test_eviction_delete_error_is_counted_not_raised(
            self, tmp_path, amc_result, monkeypatch):
        tier = DiskCacheTier(str(tmp_path / "cache"), max_bytes=250)
        digest = result_digest(amc_result)
        tier.put("k1", amc_result, digest=digest, nbytes=100)
        tier.put("k2", amc_result, digest=digest, nbytes=100)

        def eio(path):
            raise OSError(errno.EIO, "injected EIO", path)

        monkeypatch.setattr(durable, "remove", eio)
        assert tier.put("k3", amc_result, digest=digest, nbytes=100)
        assert tier.stats.write_errors == 1
        assert tier.stats.insertions == 3
        assert "k1" not in tier and "k2" in tier and "k3" in tier
        assert tier.current_bytes == 200


def _header(path):
    with open(path, "rb") as fh:
        return json.loads(fh.readline())


def _disk_bytes(tier):
    return sum(_header(os.path.join(tier.directory, name))["nbytes"]
               for name in os.listdir(tier.directory)
               if name.endswith(".res"))


class TestRestart:
    # one of the two orders differs from the directory listing order
    @pytest.mark.parametrize("first,second", [("k1", "k2"), ("k2", "k1")])
    def test_eviction_order_and_budget_survive_a_reopen(
            self, tmp_path, amc_result, first, second):
        directory = str(tmp_path / "cache")
        digest = result_digest(amc_result)
        tier = DiskCacheTier(directory, max_bytes=250)
        tier.put(first, amc_result, digest=digest, nbytes=100)
        tier.put(second, amc_result, digest=digest, nbytes=100)
        reopened = DiskCacheTier(directory, max_bytes=250)
        assert reopened.current_bytes == 200
        reopened.put("k3", amc_result, digest=digest, nbytes=100)
        assert first not in reopened
        assert second in reopened and "k3" in reopened
        assert reopened.stats.evictions == 1
        assert not os.path.exists(os.path.join(directory, f"{first}.res"))
        # k3 was numbered past the scanned entries, so it outlives them
        # across another reopen
        reopened = DiskCacheTier(directory, max_bytes=250)
        reopened.put("k4", amc_result, digest=digest, nbytes=100)
        assert second not in reopened
        assert "k3" in reopened and "k4" in reopened

    def test_older_format_entry_and_index_are_quarantined(self, tmp_path,
                                                          amc_result):
        directory = tmp_path / "cache"
        directory.mkdir()
        digest = result_digest(amc_result)
        # the earlier format: one pickle per entry plus a JSON index
        with open(directory / "k1.res", "wb") as fh:
            pickle.dump({"v": 1, "workload": "amc", "digest": digest,
                         "nbytes": 100, "result": amc_result,
                         "report": None}, fh)
        with open(directory / "index.json", "w") as fh:
            json.dump({"v": 1, "next_seq": 2, "entries": {
                "k1": {"nbytes": 100, "seq": 1, "workload": "amc",
                       "digest": digest}}}, fh)
        tier = DiskCacheTier(str(directory))
        assert "k1" not in tier
        assert tier.stats.quarantined == 1
        assert not (directory / "index.json").exists()
        assert (directory / "quarantine" / "k1.res").exists()
        assert tier.get("k1") is None
        # still a working tier
        assert tier.put("k1", amc_result, digest=digest)
        assert tier.get("k1").digest == digest

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(("put", "put", "get", "truncate", "misdigest",
                         "reopen")),
        st.sampled_from(("a", "b", "c")),
        st.integers(min_value=40, max_value=160)), max_size=16))
    def test_budget_order_and_verification_hold(self, amc_result, ops):
        digest = result_digest(amc_result)
        with tempfile.TemporaryDirectory() as scratch:
            directory = os.path.join(scratch, "cache")
            tier = DiskCacheTier(directory, max_bytes=300)
            model: dict[str, int] = {}     # key -> nbytes, oldest first
            damaged: set[str] = set()
            for op, key, nbytes in ops:
                path = os.path.join(directory, f"{key}.res")
                if op == "put":
                    assert tier.put(key, amc_result, digest=digest,
                                    nbytes=nbytes)
                    model.pop(key, None)
                    damaged.discard(key)
                    model[key] = nbytes
                    while len(model) > 1 and sum(model.values()) > 300:
                        model.pop(next(iter(model)))
                elif op == "get":
                    entry = tier.get(key)
                    if key in damaged or key not in model:
                        assert entry is None
                        model.pop(key, None)
                        damaged.discard(key)
                    else:
                        assert entry.digest == digest
                        assert result_digest(entry.result) == digest
                elif op == "reopen":
                    tier = DiskCacheTier(directory, max_bytes=300)
                elif key in model:
                    with open(path, "rb") as fh:
                        data = fh.read()
                    head, body = data.split(b"\n", 1)
                    if op == "truncate":
                        data = head + b"\n" + body[: len(body) // 2]
                    else:
                        header = json.loads(head)
                        header["digest"] = "0" * 64
                        data = json.dumps(header).encode() + b"\n" + body
                    with open(path, "wb") as fh:
                        fh.write(data)
                    damaged.add(key)
                assert {k for k in "abc" if k in tier} == set(model)
                assert tier.current_bytes == _disk_bytes(tier)
                assert tier.current_bytes == sum(model.values())
