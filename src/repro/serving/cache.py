"""The content-addressed result cache: LRU under one byte budget.

One entry per :func:`~repro.serving.api.job_key`; the value is the
finished :class:`~repro.core.amc.AMCResult` plus its frozen per-job
:class:`~repro.profiling.ProfileReport`.  Eviction is plain LRU over
retained bytes (the ndarray payloads, as the workload's
``result_nbytes`` measures them), because hyperspectral results are
wildly size-skewed: one full-scene result can weigh as much as a
thousand thumbnails.

The cache is the one store that keeps finished results alive.  Job
records hold the :class:`CacheEntry` they were served; an entry holds
its result strongly while cached and only weakly once evicted, so the
bytes kept alive never exceed the budget, except for the newest entry,
which is kept however large.

Every lookup and eviction is counted (:class:`CacheStats`), and the
counters flow into ``AMCServer.stats()`` so cache effectiveness is an
observable, not a guess.  The cache itself is not locked: the server
touches it only from the event-loop thread.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ServingError


@dataclass
class CacheStats:
    """Lookup/eviction counters of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (for ``stats()`` reports)."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "insertions": self.insertions}


class CacheEntry:
    """One cached job outcome: the result, its size, its profile.

    The result is held strongly until :meth:`release` (eviction), and
    weakly after: :attr:`result` then reads None once nothing else
    holds it.
    """

    __slots__ = ("_strong", "_weak", "nbytes", "report", "digest")

    def __init__(self, result, nbytes: int, report=None,
                 digest: str | None = None) -> None:
        self._strong = result
        self._weak = weakref.ref(result)
        self.nbytes = int(nbytes)
        self.report = report
        #: Bit-identity fingerprint of the result (computed once, at
        #: insertion, so cache hits do not re-hash the arrays).
        self.digest = digest

    @property
    def result(self):
        """The result, or None once released and collected."""
        return self._weak() if self._strong is None else self._strong

    def release(self) -> None:
        """Stop keeping the result alive."""
        self._strong = None


class ResultCache:
    """LRU mapping ``job_key -> CacheEntry`` under a byte budget.

    Parameters
    ----------
    max_bytes:
        Retained-payload budget.  Insertion evicts least-recently-used
        entries until the new one fits; the entry just inserted is
        never evicted, so one result larger than the budget is kept
        alone until the next insertion.
    """

    def __init__(self, max_bytes: int = 256 << 20) -> None:
        if max_bytes < 1:
            raise ServingError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.stats = CacheStats()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def current_bytes(self) -> int:
        """Retained payload bytes across all entries."""
        return self._bytes

    def get(self, key: str) -> CacheEntry | None:
        """The entry for ``key`` (refreshing its recency), else None.

        Counts a hit or a miss either way.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._entries.move_to_end(key)
        return entry

    def put(self, key: str, result, report=None,
            digest: str | None = None, *, nbytes: int) -> CacheEntry:
        """Insert a finished result; returns the entry that holds it.

        A key already present keeps its entry, which is refreshed and
        returned (content-addressed keys make the payload identical by
        construction).  ``nbytes`` is the result's retained size per
        its workload's accounting.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        while self._entries and self._bytes + nbytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            evicted.release()
            self._bytes -= evicted.nbytes
            self.stats.evictions += 1
        entry = CacheEntry(result, nbytes, report, digest)
        self._entries[key] = entry
        self._bytes += entry.nbytes
        self.stats.insertions += 1
        return entry

    def as_dict(self) -> dict[str, object]:
        """Counters plus occupancy, for ``AMCServer.stats()``."""
        out: dict[str, object] = dict(self.stats.as_dict())
        out["entries"] = len(self._entries)
        out["bytes"] = self._bytes
        out["max_bytes"] = self.max_bytes
        return out
