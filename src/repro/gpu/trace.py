"""Chrome-trace export of the device timeline.

The counters record *what* ran; this module lays the records out on a
modeled timeline and exports them in the Chrome trace-event format
(``chrome://tracing`` / Perfetto / ``about:tracing``), giving the
simulated device the profiler view a real GPU gets from its vendor
tools.  Kernels and transfers are placed back to back in submission
order — the virtual device is a single in-order queue, which is also how
the cost model composes times.
"""

from __future__ import annotations

import json

from repro.gpu.counters import GpuCounters, TransferRecord


def build_timeline(counters: GpuCounters) -> list[dict]:
    """Lay launches and transfers on a modeled timeline.

    Returns trace events (``ph: "X"`` complete events, microsecond
    timestamps) on two rows: pid 1 / tid 1 = kernel queue, tid 2 = bus.
    Records are replayed in submission order (``counters.records``), so
    each chunk's uploads precede its kernels and its downloads precede
    the next chunk's uploads.  Kernel events carry the per-launch
    breakdown as args.
    """
    events: list[dict] = []
    cursor_us = 0.0
    for record in counters.records:
        duration = record.modeled_time_s * 1e6
        if isinstance(record, TransferRecord):
            events.append({
                "name": f"{record.direction} {record.nbytes >> 10} KiB",
                "cat": "transfer", "ph": "X", "pid": 1, "tid": 2,
                "ts": cursor_us, "dur": duration,
                "args": {"bytes": record.nbytes},
            })
        else:
            events.append({
                "name": record.kernel,
                "cat": "kernel", "ph": "X", "pid": 1, "tid": 1,
                "ts": cursor_us, "dur": duration,
                "args": {
                    "fragments": record.fragments,
                    "cycles_per_fragment": record.cycles_per_fragment,
                    "compute_us": record.compute_time_s * 1e6,
                    "memory_us": record.memory_time_s * 1e6,
                },
            })
        cursor_us += duration
    return events


def export_chrome_trace(counters: GpuCounters, path: str) -> str:
    """Write the timeline as a ``.json`` Chrome trace file.

    Returns ``path``.  Load it in Perfetto / chrome://tracing to see the
    modeled device timeline with per-kernel durations and args.
    """
    trace = {
        "traceEvents": build_timeline(counters),
        "displayTimeUnit": "ms",
        "otherData": {
            "kernel_launches": counters.kernel_launch_count,
            "modeled_total_ms": counters.total_time_s * 1e3,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)
    return path
