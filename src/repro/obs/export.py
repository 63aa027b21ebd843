"""Telemetry exporters: Chrome trace-event JSON, breakdown tables, and
the one atomic file writer every artifact goes through.

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

``write_atomic`` writes every artifact file (scorecards, traces, the
CLI's JSON and CSV outputs, ``benchmarks/results.txt``): a reader sees
the old file or the new one, never a torn one.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from .span import SpanLog, phase_rank

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "format_breakdown",
    "format_table",
    "write_atomic",
]


def write_atomic(path: str, text: str) -> None:
    """Replace the file ``path`` with ``text`` in one step.

    The text goes to a temporary file in the same directory, which then
    takes ``path``'s place with ``os.replace``.  If the write fails
    partway (a full disk, an interrupted run), the temporary file is
    removed and ``path`` keeps its old bytes.
    """
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def chrome_trace(log: SpanLog) -> Dict[str, Any]:
    """Convert a span log to a Chrome trace-event JSON object.

    Emits one ``X`` (complete) event per span and per interval, plus ``M``
    metadata events naming processes (runs) and threads (tracks).  Tracks
    are numbered in sorted ``(run, track)`` order and events are sorted
    on a total key, timestamp first within a track, so consumers see a
    monotonic stream and the file does not depend on the order in which
    spans finished.
    """
    tids = {key: i for i, key in enumerate(
        sorted({(span.pid, span.track) for span in log.spans}), 1)}
    meta: List[Dict[str, Any]] = [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": track}}
        for (pid, track), tid in tids.items()]
    meta.extend(
        {"name": "process_name", "ph": "M", "pid": run_id, "tid": 0,
         "args": {"name": label}}
        for run_id, label in log.run_labels.items())
    data: List[Dict[str, Any]] = []
    for span in log.spans:
        tid = tids[(span.pid, span.track)]
        end = span.t1 if span.t1 is not None else span.t0
        data.append({
            "name": span.name, "cat": "span", "ph": "X",
            "ts": span.t0 / 1e3, "dur": (end - span.t0) / 1e3,
            "pid": span.pid, "tid": tid, "args": dict(span.args),
        })
        for phase, t0, t1 in span.phases:
            data.append({
                "name": phase, "cat": "phase", "ph": "X",
                "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3,
                "pid": span.pid, "tid": tid, "args": {"span": span.name},
            })
    data.sort(key=lambda ev: (ev["pid"], ev["tid"], ev["ts"], ev["dur"],
                              ev["cat"], ev["name"],
                              json.dumps(ev["args"], sort_keys=True)))
    return {
        "traceEvents": meta + data,
        "displayTimeUnit": "ns",
        "otherData": {"dropped_spans": log.dropped},
    }


def write_chrome_trace(log: SpanLog, path: str) -> None:
    """Serialize :func:`chrome_trace` to ``path``."""
    write_atomic(path, json.dumps(chrome_trace(log)))


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
