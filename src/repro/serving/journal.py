"""The write-ahead job journal: every lifecycle transition on disk
before it is acted on, so a crashed server forfeits nothing.

One :class:`JobJournal` owns a state directory::

    <state_dir>/journal.jsonl     append-only JSON-lines transition log
    <state_dir>/payloads/<key>.req   spilled request payloads (pickle)

Each record is one JSON object per line — ``{"v": 1, "seq": n,
"job_id": ..., "key": ..., "state": "queued|running|done|failed|
cancelled", "workload": ..., "digest": ..., "error": ...,
"generation": ...}`` — appended with the fsync discipline of
:mod:`repro.serving.durable`: once :meth:`JobJournal.append` returns,
the transition survives a crash; a crash *during* an append can tear
only the final line, which :meth:`replay` detects and discards (it is
the expected crash signature, not corruption).

Replay folds the log into one :class:`ReplayedJob` per job id — the
latest state wins — and the server acts on the fold: jobs last seen
``queued``/``running`` lost their execution and are re-enqueued from
their spilled payload; ``done`` jobs are recreated terminal with their
recorded digest (the result itself lives in the disk cache tier, so no
re-execution happens); ``failed``/``cancelled`` jobs are recreated as
history.  The payload spill is what makes re-enqueueing *possible*:
the request cube never crosses the socket, so the journal keeps the
loaded bytes (content-addressed by job key) until the job reaches a
terminal state, then deletes them.

``running`` records double as the durable execution ledger: every
transition to ``running`` is one pipeline-execution claim, so "zero
duplicate executions across a crash" is checkable by counting them —
the cross-process extension of the in-process ``Pipeline.run_count``
ledger.

The ``journal_write`` fault site fires at the top of every append,
making journal I/O failures chaos-testable like any other fault.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass, field

from repro.errors import JournalCorruptError, ValidationError
from repro.faults import maybe_inject
from repro.serving import durable
from repro.serving import jobs as jobstates

#: Journal record schema version.
RECORD_VERSION = 1

#: The keys of a spilled request payload, exactly.
PAYLOAD_KEYS = frozenset({"v", "workload", "bip", "config",
                          "ground_truth", "class_names"})

#: File names inside a state directory.
JOURNAL_FILE = "journal.jsonl"
PAYLOAD_DIR = "payloads"


@dataclass(frozen=True)
class ReplayedJob:
    """The folded final state of one journaled job.

    ``executions`` counts the job's ``running`` records — its entries
    in the durable execution ledger.
    """

    job_id: int
    key: str
    state: str
    workload: str | None = None
    digest: str | None = None
    error: str | None = None
    generation: int = 0
    executions: int = 0


@dataclass
class ReplayReport:
    """What one :meth:`JobJournal.replay` found.

    ``torn_tail`` is True when the final line was truncated (the
    normal crash-mid-append signature, discarded without complaint);
    ``jobs`` maps job id -> :class:`ReplayedJob` in first-seen order.
    """

    jobs: dict[int, ReplayedJob] = field(default_factory=dict)
    records: int = 0
    torn_tail: bool = False

    @property
    def max_job_id(self) -> int:
        """Highest job id seen (0 on an empty journal)."""
        return max(self.jobs, default=0)

    def by_state(self, *states: str) -> list[ReplayedJob]:
        """Replayed jobs whose final state is one of ``states``."""
        return [job for job in self.jobs.values() if job.state in states]


class JobJournal:
    """Write-ahead transition log plus payload spill for one server.

    All methods run on the event-loop thread (the same discipline as
    the rest of the server state); the fsync cost per append is the
    durability price, measured as ``serving.journal_append_ms`` by
    ``perfbench/run.py --workload mix-durable``.
    """

    def __init__(self, state_dir: str) -> None:
        self.state_dir = durable.ensure_dir(state_dir)
        self.path = os.path.join(state_dir, JOURNAL_FILE)
        self.payload_dir = durable.ensure_dir(
            os.path.join(state_dir, PAYLOAD_DIR))
        self._fh = None
        self._seq = 0
        self.appended = 0

    # -- appends ---------------------------------------------------------

    def append(self, state: str, *, job_id: int, key: str,
               workload: str | None = None, digest: str | None = None,
               error: str | None = None, generation: int = 0) -> None:
        """Durably record one lifecycle transition."""
        maybe_inject("journal_write", index=job_id)
        if self._fh is None:
            self._fh = durable.open_append(self.path)
        self._seq += 1
        record = {"v": RECORD_VERSION, "seq": self._seq,
                  "job_id": int(job_id), "key": key, "state": state,
                  "workload": workload, "generation": int(generation)}
        if digest is not None:
            record["digest"] = digest
        if error is not None:
            record["error"] = error
        durable.append_line(self._fh, json.dumps(record, sort_keys=True))
        self.appended += 1

    def close(self) -> None:
        """Close the append handle (reopened lazily on next append)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- replay & compaction ---------------------------------------------

    def replay(self) -> ReplayReport:
        """Fold the journal into per-job final states.

        A torn final line (crash mid-append) is discarded and flagged;
        unparseable records anywhere *before* the final one raise
        :class:`~repro.errors.JournalCorruptError` — that is external
        damage, not a crash signature, and recovery on top of it would
        be a guess.
        """
        report = ReplayReport()
        if not os.path.exists(self.path):
            return report
        with open(self.path, "rb") as fh:
            lines = fh.read().split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        for lineno, raw in enumerate(lines, start=1):
            try:
                record = json.loads(raw)
                job_id = int(record["job_id"])
                state = record["state"]
                if state not in jobstates.JOB_STATES:
                    raise ValidationError(f"unknown state {state!r}")
            except (ValueError, KeyError, TypeError) as exc:
                if lineno == len(lines):
                    report.torn_tail = True
                    break
                raise JournalCorruptError(
                    f"{self.path}:{lineno}: unreadable journal record "
                    f"({exc}) before the final line — the journal was "
                    f"externally damaged") from exc
            previous = report.jobs.get(job_id)
            executions = previous.executions if previous else 0
            if state == jobstates.RUNNING:
                executions += 1
            report.jobs[job_id] = ReplayedJob(
                job_id=job_id, key=record["key"], state=state,
                workload=record.get("workload"),
                digest=record.get("digest"),
                error=record.get("error"),
                generation=int(record.get("generation", 0)),
                executions=executions)
            report.records += 1
            self._seq = max(self._seq, int(record.get("seq", 0)))
        return report

    def compact(self, report: ReplayReport) -> int:
        """Rewrite the journal as one final-state record per job.

        Called after replay at startup: replay time is linear in
        journal length, so a long-lived server periodically folds its
        history.  Returns the number of records written.  The rewrite
        is a single atomic replace — a crash mid-compaction leaves the
        old journal intact.
        """
        self.close()
        lines = []
        for n, job in enumerate(sorted(report.jobs.values(),
                                       key=lambda j: j.job_id), start=1):
            record = {"v": RECORD_VERSION, "seq": n, "job_id": job.job_id,
                      "key": job.key, "state": job.state,
                      "workload": job.workload,
                      "generation": job.generation}
            if job.digest is not None:
                record["digest"] = job.digest
            if job.error is not None:
                record["error"] = job.error
            lines.append(json.dumps(record, sort_keys=True))
        durable.atomic_write_bytes(
            self.path, ("\n".join(lines) + "\n" if lines else "").encode())
        self._seq = len(lines)
        return len(lines)

    # -- payload spill ----------------------------------------------------

    def _payload_path(self, key: str) -> str:
        return os.path.join(self.payload_dir, f"{key}.req")

    def spill_payload(self, key: str, *, bip, config, workload: str,
                      ground_truth=None, class_names=None) -> str:
        """Persist one request's inputs so a crashed job can re-enqueue.

        Written *before* the job's first journal record, so a
        ``queued`` record always implies a loadable payload.
        """
        maybe_inject("journal_write", index=None)
        payload = {"v": RECORD_VERSION, "workload": workload,
                   "bip": bip, "config": config,
                   "ground_truth": ground_truth,
                   "class_names": class_names}
        return durable.atomic_write_bytes(
            self._payload_path(key),
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def load_payload(self, key: str) -> dict | None:
        """The spilled request for ``key``, or None when missing/torn.

        A payload that fails to unpickle, or unpickles to anything but
        a current-version dict with exactly :data:`PAYLOAD_KEYS`, is
        quarantined (never trusted) and reported missing — the caller
        fails the job explicitly rather than re-running garbage.
        """
        path = self._payload_path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return None
        except durable.UNPICKLE_ERRORS:
            payload = None
        if not (isinstance(payload, dict)
                and payload.keys() == PAYLOAD_KEYS
                and payload["v"] == RECORD_VERSION):
            durable.rename(path, path + ".quarantined")
            return None
        return payload

    def drop_payload(self, key: str) -> bool:
        """Delete the spilled request once its job is terminal."""
        return durable.remove(self._payload_path(key))

    # -- observability ----------------------------------------------------

    def stats(self) -> dict:
        """Journal occupancy for ``health()``: length, lag, spill count."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        spilled = sum(1 for name in os.listdir(self.payload_dir)
                      if name.endswith(".req"))
        return {"path": self.path, "records": self._seq,
                "appended": self.appended, "bytes": size,
                "spilled_payloads": spilled}
