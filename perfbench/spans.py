"""In-memory spans recorded around the public entry points of each layer.

The benchmark does not change the program to trace it: :class:`Tracer`
replaces chosen functions and methods with wrappers for the length of
the traced run and puts the originals back afterwards.  Each wrapper
records one :class:`Span` — name, start, end, the span that was open on
the same thread when it started (its parent) and the job it belongs
to.  Spans stay in memory and are written out when the run ends, as
JSON lines and in the Chrome trace-event format.

A span's *self time* is its duration minus the part of that interval
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("sid", "name", "start", "end", "parent", "job",
                 "thread", "attrs")

    def __init__(self, sid: int, name: str, start: float, parent: int,
                 job, thread: int) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent          # sid of the enclosing span, or 0
        self.job = job                # server job id, when known
        self.thread = thread
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        out = {"id": self.sid, "name": self.name, "start": self.start,
               "end": self.end, "parent": self.parent, "job": self.job,
               "thread": self.thread}
        if self.attrs:
            out.update(self.attrs)
        return out


class Tracer:
    """Records spans from wrapped callables while :attr:`active`.

    ``wrap`` installs a wrapper on a class or module attribute;
    ``unwrap_all`` restores every original.  ``on_enter(span, args,
    kwargs)`` and ``on_exit(span, args, kwargs, result)`` hooks let a
    wrap site name the job or attach attributes; otherwise a span
    inherits the job of its parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, args, kwargs, on_enter) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), name, 0.0,
                    0 if parent is None else parent.sid,
                    None if parent is None else parent.job,
                    threading.get_ident())
        if on_enter is not None:
            on_enter(span, args, kwargs)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, *, on_enter=None,
             on_exit=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not tracer.active:
                    return await original(*args, **kwargs)
                span = tracer._open(name, args, kwargs, on_enter)
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    tracer._close(span)
                    if on_exit is not None:
                        on_exit(span, args, kwargs, result)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                span = tracer._open(name, args, kwargs, on_enter)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    tracer._close(span)
                    if on_exit is not None:
                        on_exit(span, args, kwargs, result)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by span id.

    A span's self time is its duration minus the length of the union of
    its children's intervals, each clipped to the span's own interval.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()),
                            key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = span.duration - covered
    return out


def resolve_jobs(spans) -> None:
    """Give every span without a job the job of its nearest ancestor
    that has one (a submit span learns its job id only on return)."""
    by_id = {span.sid: span for span in spans}
    for span in spans:
        node = span
        while span.job is None and node.parent in by_id:
            node = by_id[node.parent]
            span.job = node.job


def write_jsonl(spans, path: str) -> None:
    """One JSON object per span, in start order."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in sorted(spans, key=lambda s: s.start):
            fh.write(json.dumps(span.as_dict()) + "\n")


def write_chrome(spans, path: str) -> None:
    """The spans as complete ("X") events of the Chrome trace-event
    format, loadable in chrome://tracing or Perfetto."""
    t0 = min((s.start for s in spans), default=0.0)
    events = []
    for span in sorted(spans, key=lambda s: s.start):
        args = {"id": span.sid, "parent": span.parent, "job": span.job}
        if span.attrs:
            args.update(span.attrs)
        events.append({"name": span.name, "cat": span.name.split(".")[0],
                       "ph": "X", "pid": 1, "tid": span.thread,
                       "ts": (span.start - t0) * 1e6,
                       "dur": span.duration * 1e6, "args": args})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
