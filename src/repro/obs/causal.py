"""Causal analysis of span waits: critical paths, attribution, what-if.

A span's intervals (:mod:`repro.obs.span`) whose names are not in
:data:`~repro.obs.span.SPENT` are *waits*: time the work was blocked on
a resource.  Every blocking interaction in the stack — credit
exhaustion and QP-scheduler holds in ``flock/rpc.py``, QP/MTT
cache-miss PCIe fetches in ``hw/pcie.py``, link serialisation and
propagation in ``hw/rnic.py``/``net/fabric.py``, CQ-poll delay in
``verbs/cq.py``, server-side worker queueing in ``flock/rpc.py``, and
contended ``sim/resources.py`` acquisitions — records one on the span
it delayed.  This module turns those waits into the answer to the one
causal question every figure in the paper reduces to: *which resource
gated the RPC?*

* :func:`critical_path` walks one finished span backward from its end
  through its longest waits-for chain, producing :class:`Segment`\\ s
  that exactly tile ``[t0, t1]`` (uncovered time is attributed to
  :data:`GAP_RESOURCE`, i.e. the CPU was making progress).
* :func:`critical_paths` extracts a path per finished root span in a
  :class:`~repro.obs.span.SpanLog` (donor spans whose intervals an
  adopter copied are skipped, so shared hardware time counts once).
* :func:`attribute` folds paths into a blocked-time attribution table
  ``{resource: {count, total_ns, share, p99_ns}}`` whose shares sum to
  exactly 1.
* :func:`folded_stacks` exports paths in the collapsed-stack text
  format ``flamegraph.pl`` and speedscope load directly.
* :func:`what_if` zeroes one resource's critical-path contribution and
  reports the upper-bound speedup removing it could unlock — e.g.
  "removing ``pcie_stall`` waits bounds Fig. 2a post-cliff recovery at
  2.9x".

Like :mod:`repro.obs.span`, this module imports nothing from the
simulator at import time (``sim/core.py`` imports ``repro.obs`` at class
definition time); :func:`attribute` imports its percentile when called.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .export import format_table
from .span import SPENT, Span, phase_rank

__all__ = [
    "GAP_RESOURCE",
    "Segment",
    "CriticalPath",
    "critical_path",
    "critical_paths",
    "attribute",
    "folded_stacks",
    "what_if",
    "what_if_all",
    "attribution_report",
    "format_attribution",
]

#: Attribution bucket for critical-path time not covered by any wait:
#: the work was progressing (CPU/NIC pipeline), not blocked.  It ranks
#: last among the canonical names in :data:`~repro.obs.span.PHASES`.
GAP_RESOURCE = "cpu"


class Segment:
    """One contiguous stretch of a critical path, blamed on a resource."""

    __slots__ = ("resource", "t0", "t1")

    def __init__(self, resource: str, t0: float, t1: float):
        self.resource = resource
        self.t0 = t0
        self.t1 = t1

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def __repr__(self) -> str:
        return "Segment(%s, %.0f..%.0f)" % (self.resource, self.t0, self.t1)


class CriticalPath:
    """The longest waits-for chain through one finished span.

    ``segments`` are in time order and exactly tile ``[span.t0,
    span.t1]``: every nanosecond of the span's latency is blamed on
    exactly one resource (or :data:`GAP_RESOURCE` when nothing blocked
    the work).
    """

    __slots__ = ("span", "segments")

    def __init__(self, span: Span, segments: List[Segment]):
        self.span = span
        self.segments = segments

    @property
    def duration(self) -> float:
        return self.span.duration

    def resource_ns(self, resource: str) -> float:
        """Total path time attributed to ``resource``."""
        return sum(s.duration for s in self.segments
                   if s.resource == resource)

    def __repr__(self) -> str:
        return "CriticalPath(%s, dur=%.0f, segments=%d)" % (
            self.span.name, self.duration, len(self.segments))


def critical_path(span: Span) -> CriticalPath:
    """Extract the critical path of one finished span.

    Backward-greedy walk over the span's waits (its intervals not in
    :data:`~repro.obs.span.SPENT`): starting from the span's end,
    repeatedly pick the wait that covers the cursor and reaches furthest
    back (the *longest* waits-for chain); where no wait covers the
    cursor, emit a gap segment back to the nearest earlier wait end.
    Waits are clamped to ``[t0, t1]``; waits that are empty after
    clamping (zero-length, or recorded entirely outside the span, e.g. a
    CQ-poll stamped after the initiator already finished the span) are
    ignored, so the order of the span's intervals does not matter.  The
    result tiles the span exactly, so per-resource totals sum to the
    span's latency.
    """
    if span.t1 is None:
        raise ValueError("critical_path needs a finished span: %r" % (span,))
    t_begin, t_end = span.t0, span.t1
    waits = [(res, max(t0, t_begin), min(t1, t_end))
             for res, t0, t1 in span.phases if res not in SPENT]
    waits = [e for e in waits if e[2] > e[1]]
    segments: List[Segment] = []
    cursor = t_end
    while cursor > t_begin:
        best = None
        latest_end = t_begin  # nearest wait end strictly before cursor
        for res, e0, e1 in waits:
            if e0 < cursor <= e1:
                # The wait covers the cursor; prefer the one reaching
                # furthest back (the longest waits-for chain).
                if (best is None or e0 < best[1]
                        or (e0 == best[1]
                            and phase_rank(res) < phase_rank(best[0]))):
                    best = (res, e0, e1)
            elif e1 <= cursor and e1 > latest_end:
                latest_end = e1
        if best is not None:
            segments.append(Segment(best[0], best[1], cursor))
            cursor = best[1]
        else:
            segments.append(Segment(GAP_RESOURCE, latest_end, cursor))
            cursor = latest_end
    segments.reverse()
    return CriticalPath(span, segments)


def critical_paths(log, name: Optional[str] = None,
                   run: Optional[int] = None) -> List[CriticalPath]:
    """Critical paths for every finished root span in ``log``.

    Donor spans (whose intervals another span copied through
    ``Span.adopt``) are excluded — their wait time reappears on the
    adopting RPC spans, and counting both would double-bill the shared
    hardware waits.  ``name`` restricts to spans with that name;
    ``run`` restricts to one run scope (``Span.pid``).
    """
    paths = []
    for span in log.spans:
        if span.t1 is None or span.donor:
            continue
        if name is not None and span.name != name:
            continue
        if run is not None and span.pid != run:
            continue
        paths.append(critical_path(span))
    return paths


def attribute(paths: Iterable[CriticalPath]) -> Dict[str, Dict[str, float]]:
    """Fold critical paths into a blocked-time attribution table.

    Returns ``{resource: {count, total_ns, share, p99_ns}}`` ordered by
    descending share (ties broken by canonical resource order), where
    ``share`` is the resource's fraction of all critical-path time —
    shares sum to exactly 1 — and ``p99_ns`` is the 99th percentile of
    individual segment durations.
    """
    from ..sim.rand import percentile
    durs: Dict[str, List[float]] = {}
    for path in paths:
        for seg in path.segments:
            durs.setdefault(seg.resource, []).append(seg.duration)
    grand = sum(sum(v) for v in durs.values())
    out: Dict[str, Dict[str, float]] = {}
    order = sorted(durs,
                   key=lambda r: (-sum(durs[r]), phase_rank(r)))
    for resource in order:
        values = sorted(durs[resource])
        total = sum(values)
        out[resource] = {
            "count": len(values),
            "total_ns": total,
            "share": (total / grand) if grand else 0.0,
            "p99_ns": percentile(values, 99.0),
        }
    return out


def folded_stacks(paths: Iterable[CriticalPath]) -> str:
    """Collapsed-stack export: ``<span name>;<resource> <ns>`` lines.

    The format ``flamegraph.pl`` and speedscope ingest directly; frames
    are ``root span -> blocking resource``, weights are integer
    nanoseconds of critical-path time.  Lines are sorted, so identical
    runs produce byte-identical output.
    """
    weights: Dict[str, float] = {}
    for path in paths:
        prefix = path.span.name
        for seg in path.segments:
            key = "%s;%s" % (prefix, seg.resource)
            weights[key] = weights.get(key, 0.0) + seg.duration
    lines = ["%s %d" % (key, int(round(weights[key])))
             for key in sorted(weights)]
    return "\n".join(lines) + ("\n" if lines else "")


def what_if(paths: Sequence[CriticalPath], resource: str) -> Dict[str, float]:
    """Upper-bound speedup from removing ``resource`` entirely.

    Zeroes the resource's critical-path contribution: if the run spent
    ``R`` ns of its ``T`` ns of critical-path time blocked on
    ``resource``, a closed-loop workload could at best complete the same
    work in ``T - R``, i.e. a throughput/latency improvement bounded by
    ``T / (T - R)``.  An *upper* bound because the freed time may expose
    the next bottleneck rather than convert fully into progress.
    """
    total = sum(p.duration for p in paths)
    removed = sum(p.resource_ns(resource) for p in paths)
    remaining = total - removed
    if total <= 0.0:
        bound = 1.0
    elif remaining <= 0.0:
        bound = math.inf
    else:
        bound = total / remaining
    return {"resource_ns": removed, "total_ns": total,
            "speedup_bound": bound}


def what_if_all(paths: Sequence[CriticalPath]) -> Dict[str, float]:
    """``{resource: speedup_bound}`` for every resource on the paths,
    ordered like :func:`attribute` (descending contribution)."""
    table = attribute(paths)
    return {resource: what_if(paths, resource)["speedup_bound"]
            for resource in table}


def attribution_report(paths: Sequence[CriticalPath]) -> Dict[str, object]:
    """JSON-ready bundle: path count, attribution table, what-if bounds."""
    table = attribute(paths)
    return {
        "paths": len(paths),
        "critical_path_ns": sum(p.duration for p in paths),
        "attribution": table,
        "what_if": what_if_all(paths),
    }


def format_attribution(table: Dict[str, Dict[str, float]],
                       bounds: Optional[Dict[str, float]] = None,
                       title: str = "Critical-path attribution") -> str:
    """Human-readable attribution table (shares of critical-path time).

    ``bounds`` (from :func:`what_if_all`) adds the upper-bound speedup
    from removing each resource.
    """
    headers = ["resource", "count", "total us", "share", "p99 ns"]
    if bounds is not None:
        headers.append("what-if x")
    rows = []
    for resource, cell in table.items():
        row = [resource,
               "%d" % cell["count"],
               "%.1f" % (cell["total_ns"] / 1000.0),
               "%.1f%%" % (cell["share"] * 100.0),
               "%.0f" % cell["p99_ns"]]
        if bounds is not None:
            bound = bounds.get(resource, 1.0)
            row.append("inf" if math.isinf(bound) else "%.2f" % bound)
        rows.append(row)
    return format_table(title, headers, rows)
