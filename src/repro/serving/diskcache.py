"""The persistent result-cache tier: spilled entries that survive a
server restart, sha-verified before they are ever served.

A :class:`DiskCacheTier` is the second tier behind the in-memory
:class:`~repro.serving.cache.ResultCache`: completed results are
written through to disk (one file per content-addressed job key,
atomically via :mod:`repro.serving.durable`), and a memory miss falls
back here before anything executes.  Two disciplines make the tier
safe to trust after a crash:

* **Verification before service.**  Every entry carries the result
  digest from its workload contract
  (:func:`~repro.serving.api.result_digest`); on load the digest is
  *recomputed from the loaded arrays* and compared.  A mismatch — bit
  rot, a partial write that somehow survived the atomic protocol, a
  tampered file — is treated as a miss.
* **Quarantine, never deletion-and-hope.**  Corrupt or truncated
  files are renamed into ``quarantine/`` (keeping the evidence for a
  post-mortem) and dropped from the index; they are never served and
  never retried.

Each entry file describes itself: a JSON header line ``{"v": 2,
"seq", "nbytes", "workload", "digest"}`` then the pickle of
``{"result", "report"}``.  The atomic rename of that one file is the
only commit, so a put costs the same at any tier size.  Start-up
rebuilds the index from one scan of the header lines and quarantines
files whose header does not parse (orphans, older-format entries).
Eviction is oldest-first by insertion sequence under a byte budget.
Disk failures never fail a job: a write or delete error is counted, a
read error is a miss.  The ``cache_disk`` fault site at the top of
both paths makes that claim chaos-testable.
"""

from __future__ import annotations

import json
import os
import pickle

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ServingError, TransientFaultError, ValidationError
from repro.faults import maybe_inject
from repro.serving import durable
from repro.serving.api import result_digest
from repro.serving.cache import CacheEntry
from repro.workloads import get_workload

#: Subdirectory corrupt entries are moved into.
QUARANTINE_DIR = "quarantine"

#: Entry file suffix.
ENTRY_SUFFIX = ".res"


def _read_header(fh) -> dict:
    """The JSON header line of an open entry file; raises ValueError
    unless it is a complete version-2 header."""
    header = json.loads(fh.readline(4096))
    if not (isinstance(header, dict) and header.get("v") == 2
            and all(name in header for name in
                    ("seq", "nbytes", "workload", "digest"))):
        raise ValidationError("not a version-2 cache entry header")
    return header


@dataclass
class DiskCacheStats:
    """Counters of one :class:`DiskCacheTier`."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    oversize_skips: int = 0
    #: Entries that failed verification on load and were quarantined.
    quarantined: int = 0
    #: Spills and eviction deletes that failed (jobs unaffected).
    write_errors: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (for ``health()`` reports)."""
        return {"hits": self.hits, "misses": self.misses,
                "insertions": self.insertions,
                "evictions": self.evictions,
                "oversize_skips": self.oversize_skips,
                "quarantined": self.quarantined,
                "write_errors": self.write_errors}


class DiskCacheTier:
    """Persistent ``job_key -> result`` store under a byte budget.

    Parameters
    ----------
    directory:
        Where entries and the quarantine live (created on demand).
    max_bytes:
        Retained-payload budget (the workload-accounted result bytes,
        same accounting as the memory tier).
    """

    def __init__(self, directory: str, max_bytes: int = 1 << 30) -> None:
        if max_bytes < 1:
            raise ServingError(f"max_bytes must be >= 1, got {max_bytes}")
        self.directory = durable.ensure_dir(directory)
        self.quarantine_dir = durable.ensure_dir(
            os.path.join(directory, QUARANTINE_DIR))
        self.max_bytes = int(max_bytes)
        self.stats = DiskCacheStats()
        #: ``key -> nbytes`` in insertion-sequence order (oldest first).
        self._index: OrderedDict[str, int] = OrderedDict()
        self._bytes = 0
        self._next_seq = 1
        self._scan()

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    @property
    def current_bytes(self) -> int:
        """Accounted payload bytes across all indexed entries."""
        return self._bytes

    # -- the tier API -----------------------------------------------------

    def put(self, key: str, result, report=None,
            digest: str | None = None, nbytes: int | None = None,
            workload: str = "amc") -> bool:
        """Spill one finished result; returns False when refused.

        Never raises for I/O or injected disk faults — a job must not
        fail because its spill did (the result is already served from
        memory); the skip is counted in ``stats.write_errors``.
        """
        wl = get_workload(workload)
        nbytes = int(wl.result_nbytes(result) if nbytes is None else nbytes)
        if nbytes > self.max_bytes:
            self.stats.oversize_skips += 1
            return False
        header = {"v": 2, "seq": self._next_seq, "nbytes": nbytes,
                  "workload": wl.name, "digest": digest}
        try:
            maybe_inject("cache_disk", index=None)
            durable.atomic_write_bytes(
                self._entry_path(key),
                json.dumps(header).encode("utf-8") + b"\n"
                + pickle.dumps({"result": result, "report": report},
                               protocol=pickle.HIGHEST_PROTOCOL))
        except (OSError, TransientFaultError):
            self.stats.write_errors += 1
            return False
        self._forget(key)
        self._index[key] = nbytes
        self._bytes += nbytes
        self._next_seq += 1
        self._evict_to_budget()
        self.stats.insertions += 1
        return True

    def get(self, key: str) -> CacheEntry | None:
        """Load, verify and return one entry; None on miss/corruption.

        The digest is recomputed from the loaded decision arrays via
        the entry's own workload contract — a corrupt or truncated
        file is quarantined and can never be served.
        """
        if key not in self._index:
            self.stats.misses += 1
            return None
        path = self._entry_path(key)
        try:
            maybe_inject("cache_disk", index=None)
            with open(path, "rb") as fh:
                header = _read_header(fh)
                payload = pickle.load(fh)
            digest = header["digest"]
            recomputed = result_digest(payload["result"],
                                       workload=header["workload"])
            if digest is not None and recomputed != digest:
                raise ValidationError(
                    f"digest mismatch: recorded {digest[:12]}..., "
                    f"recomputed {recomputed[:12]}...")
        except TransientFaultError:
            self.stats.misses += 1
            return None
        except (OSError, *durable.UNPICKLE_ERRORS) as exc:
            self._forget(key)
            if not isinstance(exc, FileNotFoundError):
                self._quarantine(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return CacheEntry(payload["result"], header["nbytes"],
                          payload.get("report"), recomputed)

    def as_dict(self) -> dict[str, object]:
        """Counters plus occupancy, for ``health()`` reports."""
        out: dict[str, object] = dict(self.stats.as_dict())
        out["entries"] = len(self._index)
        out["bytes"] = self._bytes
        out["max_bytes"] = self.max_bytes
        return out

    # -- internals --------------------------------------------------------

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}{ENTRY_SUFFIX}")

    def _quarantine(self, path: str) -> None:
        """Move a bad entry file out of service, keeping the evidence."""
        try:
            durable.rename(path, os.path.join(
                self.quarantine_dir, os.path.basename(path)))
        except OSError:
            pass
        self.stats.quarantined += 1

    def _forget(self, key: str) -> None:
        self._bytes -= self._index.pop(key, 0)

    def _evict_to_budget(self) -> None:
        while len(self._index) > 1 and self._bytes > self.max_bytes:
            oldest, nbytes = self._index.popitem(last=False)
            self._bytes -= nbytes
            self.stats.evictions += 1
            try:
                durable.remove(self._entry_path(oldest))
            except OSError:
                # the file outlives its index entry; the next start-up
                # scan brings it back as the oldest entry
                self.stats.write_errors += 1

    def _scan(self) -> None:
        """Rebuild the index from the entry headers, in seq order, and
        remove the ``index.json`` the earlier format kept."""
        found = []
        for name in os.listdir(self.directory):
            if not name.endswith(ENTRY_SUFFIX):
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as fh:
                    header = _read_header(fh)
                found.append((int(header["seq"]), name[:-len(ENTRY_SUFFIX)],
                              int(header["nbytes"])))
            except (OSError, ValueError, TypeError):
                self._quarantine(path)
        for seq, key, nbytes in sorted(found):
            self._index[key] = nbytes
            self._bytes += nbytes
            self._next_seq = seq + 1
        durable.remove(os.path.join(self.directory, "index.json"))
