"""The deterministic fault injector.

A :class:`FaultInjector` holds an ordered list of :class:`FaultSpec`
rules; execution sites (the per-chunk worker functions of
:mod:`repro.parallel`, the per-cube batch worker of
:mod:`repro.pipeline.batch`, and the serving layer's durability
seams — ``"job"`` at each execution attempt, ``"heartbeat_stall"``
just before it, ``"journal_write"`` in the journal's append/spill
paths, ``"cache_disk"`` in the disk cache tier's load/store paths)
call :func:`maybe_inject` at their entry, and any matching spec fires
its fault.  Determinism is structural, not
stateful: a spec matches on the *coordinates* of an execution — site
name, task index, retry attempt, chunk geometry — so the same plan
produces the same faults regardless of worker scheduling, and a fault
keyed to ``attempt=0`` fires exactly once per task even across the
pool/in-process recovery boundary (recovery executions carry higher
attempt numbers; see :mod:`repro.resilience`).

Stochastic campaigns stay reproducible the same way: a spec with
``probability=p`` fires when a seeded hash of the coordinates falls
below ``p`` — no RNG stream whose state could diverge between workers.

Fault kinds
-----------

``"transient"``
    Raises :class:`~repro.errors.TransientFaultError` — the retryable
    failure the bounded-retry machinery recovers.
``"worker_crash"``
    Kills the current process with ``os._exit`` when it is a pool
    worker (daemon process); in a non-worker process it raises
    :class:`~repro.errors.WorkerCrashError` instead so a serial run
    degrades to a retryable error rather than taking the interpreter
    down.
``"timeout"``
    Stalls the execution for ``sleep_s`` seconds, long enough to trip a
    configured per-chunk deadline; the parent recovers the chunk and
    terminates the stalled worker.
``"gpu_oom"``
    Raises :class:`~repro.errors.GpuOutOfMemoryError` with synthetic
    (but populated) byte counts.  Keyed on ``ext_lines_above`` it
    mirrors real memory pressure: the fault clears once the degradation
    planner has re-chunked below the threshold.

Installation
------------

:func:`install` sets the process-wide injector (inherited by forked
pool workers); the ``REPRO_FAULTS`` environment variable carries the
same configuration as JSON for spawn-based pools and end-to-end chaos
runs::

    REPRO_FAULTS='{"seed": 7, "specs": [{"kind": "transient",
                   "site": "chunk", "index": 0, "attempt": 0}]}'
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass

from repro.errors import (
    GpuOutOfMemoryError,
    StreamError,
    TransientFaultError,
    WorkerCrashError,
)

#: Environment variable holding a JSON injector configuration.
ENV_VAR = "REPRO_FAULTS"

#: The recognized fault kinds.
KINDS = ("transient", "worker_crash", "timeout", "gpu_oom")

#: Exit status an injected worker crash dies with (recognizable in
#: post-mortems, never conflated with a Python traceback exit).
CRASH_EXIT_CODE = 13

#: Registry of every :func:`maybe_inject` call site in the library,
#: mapping site name to where (and at what granularity) the fault
#: fires.  This is the single source of truth the ``fault-site-registry``
#: lint checks the code and ``docs/robustness.md`` against: adding a
#: ``maybe_inject("new_site")`` call without registering and
#: documenting the site — or letting a registered site go dead — fails
#: ``python -m tools.reprolint``.
FAULT_SITES = {
    "chunk": "per-chunk worker entry (repro.parallel amc/map)",
    "cube": "per-cube batch worker entry (repro.pipeline.batch)",
    "job": "serving executor, once per job execution attempt",
    "heartbeat_stall": "serving executor, just before the attempt's "
                       "first heartbeat",
    "journal_write": "job-journal append/spill paths",
    "cache_disk": "disk result-cache load/store paths",
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: *what* to inject and *where* it matches.

    Attributes
    ----------
    kind:
        One of :data:`KINDS`.
    site:
        Execution site name — ``"chunk"`` (the per-chunk workers),
        ``"cube"`` (the per-cube batch worker), or one of the serving
        seams (``"job"``, ``"heartbeat_stall"``, ``"journal_write"``,
        ``"cache_disk"``); custom sites may call :func:`maybe_inject`
        with their own names.
    index:
        Task index the fault is pinned to (``None`` matches any).
    attempt:
        Retry attempt the fault fires on (``None`` matches every
        attempt).  The default 0 fires on the first execution only, so
        retry and recovery paths see the task succeed.
    probability:
        When set, the spec additionally fires only if the seeded
        coordinate hash falls below this value — deterministic
        pseudo-random campaigns.
    sleep_s:
        Stall duration for ``kind="timeout"``.
    ext_lines_above:
        For ``kind="gpu_oom"``: fire only while the executing chunk's
        extended height exceeds this — the knob that lets OOM clear
        after degradation re-chunking.
    """

    kind: str
    site: str = "chunk"
    index: int | None = None
    attempt: int | None = 0
    probability: float | None = None
    sleep_s: float = 30.0
    ext_lines_above: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise StreamError(
                f"unknown fault kind {self.kind!r}; pick from {KINDS}")
        if self.probability is not None and not (
                0.0 <= self.probability <= 1.0):
            raise StreamError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.sleep_s < 0:
            raise StreamError(f"sleep_s must be >= 0, got {self.sleep_s}")

    def matches(self, site: str, index: int | None, attempt: int,
                ext_lines: int | None, seed: int) -> bool:
        """Whether this spec fires at the given execution coordinates."""
        if self.site != site:
            return False
        if self.index is not None and self.index != index:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        if self.ext_lines_above is not None and (
                ext_lines is None or ext_lines <= self.ext_lines_above):
            return False
        if self.probability is not None and (
                _coordinate_fraction(seed, site, index, attempt)
                >= self.probability):
            return False
        return True


def _coordinate_fraction(seed: int, site: str, index: int | None,
                         attempt: int) -> float:
    """A deterministic value in [0, 1) hashed from execution coordinates.

    Scheduling-independent by construction (no RNG stream state), so a
    probabilistic campaign reproduces exactly across worker counts.
    """
    key = f"{seed}:{site}:{index}:{attempt}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class FaultInjector:
    """An ordered set of fault specs plus the campaign seed."""

    def __init__(self, specs, seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = int(seed)

    def check(self, site: str, *, index: int | None = None,
              attempt: int = 0, ext_lines: int | None = None) -> None:
        """Fire the first matching spec's fault (if any).

        ``"timeout"`` faults stall and then *continue* matching, so a
        campaign can stack a stall with a later failure.
        """
        for spec in self.specs:
            if not spec.matches(site, index, attempt, ext_lines, self.seed):
                continue
            self._fire(spec, site, index, attempt, ext_lines)

    def _fire(self, spec: FaultSpec, site: str, index: int | None,
              attempt: int, ext_lines: int | None) -> None:
        where = f"{site}[{index}] attempt {attempt}"
        if spec.kind == "transient":
            raise TransientFaultError(f"injected transient fault at {where}")
        if spec.kind == "worker_crash":
            if multiprocessing.current_process().daemon:
                os._exit(CRASH_EXIT_CODE)
            raise WorkerCrashError(
                f"injected worker crash at {where} (non-worker process: "
                f"raised instead of exiting)")
        if spec.kind == "timeout":
            time.sleep(spec.sleep_s)
            return
        # gpu_oom — synthetic but structured byte counts: "free" is what
        # the threshold geometry would occupy, "requested" the current
        # chunk's, so requested > free exactly while the fault matches.
        line_bytes = 1 << 20
        requested = (ext_lines or 1) * line_bytes
        free = (spec.ext_lines_above or 0) * line_bytes
        raise GpuOutOfMemoryError(
            f"injected GPU OOM at {where} "
            f"(ext_lines={ext_lines}, threshold={spec.ext_lines_above})",
            requested=requested, free=free, capacity=free)

    # -- serialization (the env-var transport) ---------------------------

    def to_json(self) -> str:
        """The injector as a JSON document (the ``REPRO_FAULTS`` form)."""
        return json.dumps({"seed": self.seed,
                           "specs": [asdict(s) for s in self.specs]})

    @classmethod
    def from_json(cls, text: str) -> "FaultInjector":
        """Parse the :meth:`to_json` / ``REPRO_FAULTS`` form."""
        data = json.loads(text)
        specs = [FaultSpec(**spec) for spec in data.get("specs", ())]
        return cls(specs, seed=data.get("seed", 0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FaultInjector(seed={self.seed}, "
                f"specs={[s.kind for s in self.specs]})")


# -- process-wide installation ------------------------------------------

_INSTALLED: FaultInjector | None = None
#: (env text, parsed injector) cache so per-chunk checks do not re-parse.
_ENV_CACHE: tuple[str, FaultInjector] | None = None
#: Current retry attempt, set by the resilience retry loop around every
#: task execution so specs can key on it.
_ATTEMPT: int = 0


def install(injector: FaultInjector) -> None:
    """Install a process-wide injector (inherited by forked workers)."""
    global _INSTALLED
    _INSTALLED = injector


def uninstall() -> None:
    """Remove the installed injector (environment faults still apply)."""
    global _INSTALLED
    _INSTALLED = None


def current_injector() -> FaultInjector | None:
    """The installed injector, else the ``REPRO_FAULTS`` one, else None."""
    global _ENV_CACHE
    if _INSTALLED is not None:
        return _INSTALLED
    text = os.environ.get(ENV_VAR)
    if not text:
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != text:
        _ENV_CACHE = (text, FaultInjector.from_json(text))
    return _ENV_CACHE[1]


def set_attempt(attempt: int) -> None:
    """Record the retry attempt the current task execution is on."""
    global _ATTEMPT
    _ATTEMPT = attempt


def current_attempt() -> int:
    """The retry attempt recorded by :func:`set_attempt` (0 outside
    retry loops)."""
    return _ATTEMPT


def maybe_inject(site: str, *, index: int | None = None,
                 ext_lines: int | None = None) -> None:
    """Fault hook for execution sites: fire any configured fault.

    A no-op unless an injector is installed (or configured through the
    environment) — the zero-fault cost is one global read.
    """
    injector = current_injector()
    if injector is not None:
        injector.check(site, index=index, attempt=current_attempt(),
                       ext_lines=ext_lines)
