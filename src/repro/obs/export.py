"""Telemetry exporters: Chrome trace-event JSON and breakdown tables.

The Chrome trace-event format (the JSON array flavour) is understood by
``chrome://tracing`` and Perfetto, which makes a simulated run visually
explorable: one *process* per simulator run, one *thread* per span track
(a client thread, a NIC, the wire), complete (``"ph": "X"``) events for
spans and for every interval they recorded, waits included.  Timestamps
are microseconds in the trace file — virtual nanoseconds divided by
1000 — so a 500 µs measurement window reads naturally in the UI.

``format_breakdown`` renders a :meth:`repro.obs.span.SpanLog.breakdown`
dict as the harness's paper-style text table, rows in the canonical
:data:`~repro.obs.span.PHASES` order, laid out by ``format_table``,
which the attribution table shares.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .span import SpanLog, phase_rank

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "format_breakdown",
    "format_table",
]


def chrome_trace(log: SpanLog) -> Dict[str, Any]:
    """Convert a span log to a Chrome trace-event JSON object.

    Emits one ``X`` (complete) event per span and per interval, plus ``M``
    metadata events naming processes (runs) and threads (tracks).  Events
    are sorted by timestamp so consumers see a monotonic stream.
    """
    events: List[Dict[str, Any]] = []
    tids: Dict[tuple, int] = {}
    for span in log.spans:
        key = (span.pid, span.track)
        tid = tids.get(key)
        if tid is None:
            tid = len(tids) + 1
            tids[key] = tid
            events.append({
                "name": "thread_name", "ph": "M", "pid": span.pid,
                "tid": tid, "args": {"name": span.track},
            })
        end = span.t1 if span.t1 is not None else span.t0
        events.append({
            "name": span.name, "cat": "span", "ph": "X",
            "ts": span.t0 / 1e3, "dur": (end - span.t0) / 1e3,
            "pid": span.pid, "tid": tid, "args": dict(span.args),
        })
        for phase, t0, t1 in span.phases:
            events.append({
                "name": phase, "cat": "phase", "ph": "X",
                "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3,
                "pid": span.pid, "tid": tid, "args": {"span": span.name},
            })
    for run_id, label in log.run_labels.items():
        events.append({
            "name": "process_name", "ph": "M", "pid": run_id, "tid": 0,
            "args": {"name": label},
        })
    meta = [ev for ev in events if ev["ph"] == "M"]
    data = sorted((ev for ev in events if ev["ph"] != "M"),
                  key=lambda ev: (ev["pid"], ev["tid"], ev["ts"]))
    return {
        "traceEvents": meta + data,
        "displayTimeUnit": "ns",
        "otherData": {"dropped_spans": log.dropped},
    }


def write_chrome_trace(log: SpanLog, path: str) -> None:
    """Serialize :func:`chrome_trace` to ``path``."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(log), fh)


def format_breakdown(table: Dict[str, Dict[str, float]],
                     title: str = "Latency breakdown") -> str:
    """Render a phase-breakdown dict as an aligned text table.

    Names appear in canonical stack order; unknown names sort last
    alphabetically.  Durations print in microseconds.
    """
    header = ["phase", "count", "total us", "mean ns", "max ns", "share"]
    rows: List[List[str]] = []
    for phase in sorted(table, key=phase_rank):
        cell = table[phase]
        rows.append([
            phase,
            "%d" % cell["count"],
            "%.1f" % (cell["total_ns"] / 1e3),
            "%.0f" % cell["mean_ns"],
            "%.0f" % cell["max_ns"],
            "%.1f%%" % (100.0 * cell["share"]),
        ])
    if not rows:
        rows.append(["(no spans recorded)", "", "", "", "", ""])
    return format_table(title, header, rows)


def format_table(title: str, header: List[str],
                 rows: List[List[str]]) -> str:
    """``title``, then ``header`` and ``rows`` left-aligned in columns as
    wide as their widest cell, under a dash rule per column; cells are
    separated by two spaces."""
    widths = [max([len(h)] + [len(r[i]) for r in rows])
              for i, h in enumerate(header)]
    lines = [title, "  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
