"""Atomic, fsync-disciplined file primitives for the durable serving
state (the job journal and the disk cache tier).

Crash safety here is a *protocol*, not a hope: every mutation of the
state directory goes through one of these helpers, each of which
guarantees that a reader after a crash sees either the old bytes or
the new bytes — never a torn file:

* whole-file writes go ``tmp file -> write -> flush -> fsync ->
  os.replace -> fsync(dir)``, so the rename is the commit point;
* journal appends go ``write line -> flush -> fsync``, so the only
  possible damage from a crash mid-append is a truncated *final* line,
  which replay detects and discards;
* deletes and renames fsync the containing directory, so a completed
  cleanup survives the crash that follows it.

The ``durable-write`` reprolint rule (``docs/static_analysis.md``)
enforces the protocol statically: no other module under
``repro.serving`` may call bare ``open(..., "w")`` / ``os.unlink`` /
``os.replace`` — state-directory mutations happen here or not at all.
"""

from __future__ import annotations

import os
import pickle

#: What ``pickle.load`` raises on a damaged or stale durable file: torn
#: or garbled bytes, and a class whose module or name no longer exists
#: (``ImportError`` covers ``ModuleNotFoundError``).  Both durable
#: readers (the disk cache tier and the payload spill) quarantine on
#: these instead of letting them escape.
UNPICKLE_ERRORS = (pickle.UnpicklingError, EOFError, ValueError,
                   KeyError, AttributeError, TypeError, ImportError)


def ensure_dir(path: str) -> str:
    """Create ``path`` (and parents) if missing; returns it."""
    os.makedirs(path, exist_ok=True)
    return path


def fsync_dir(path: str) -> None:
    """fsync a directory so a rename/unlink inside it is durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Write ``data`` to ``path`` atomically (tmp + fsync + replace).

    The temporary file lives in the target directory (``os.replace``
    must not cross filesystems) and carries the pid so two processes
    sharing a state dir cannot collide mid-write.
    """
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory,
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        # the commit never happened; leave no turd behind
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    fsync_dir(directory)
    return path


def open_append(path: str):
    """Open ``path`` for durable appends (binary, created if missing)."""
    return open(path, "ab")


def append_line(fh, line: str) -> None:
    """Append one text line to an :func:`open_append` handle, durably.

    Flush + fsync before returning: once this call succeeds the record
    survives a crash; if the crash lands *inside* the call, at most the
    final line of the file is torn (the replay-tolerated case).
    """
    fh.write(line.encode("utf-8") + b"\n")
    fh.flush()
    os.fsync(fh.fileno())


def remove(path: str) -> bool:
    """Delete ``path`` durably (missing is fine); True when it existed."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        return False
    fsync_dir(os.path.dirname(path) or ".")
    return True


def rename(src: str, dst: str) -> str:
    """Atomically move ``src`` over ``dst`` (the quarantine primitive)."""
    os.replace(src, dst)
    fsync_dir(os.path.dirname(dst) or ".")
    if os.path.dirname(src) != os.path.dirname(dst):
        fsync_dir(os.path.dirname(src) or ".")
    return dst
