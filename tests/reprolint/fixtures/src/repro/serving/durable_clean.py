"""Fixture: serving state mutations routed through the atomic helpers."""

from repro.serving import durable


def durable_journal_append(fh, line):
    durable.append_line(fh, line)


def durable_entry_write(path, payload):
    durable.atomic_write_bytes(path, payload)


def durable_cleanup(path):
    durable.remove(path)
    durable.rename(path, path + ".quarantined")


def reading_state(path):
    with open(path, "rb") as fh:
        return fh.read()
