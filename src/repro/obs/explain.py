"""Attribution-diff explanations: *why* a detected anomaly happened.

:mod:`repro.obs.anomaly` finds *where* a curve or timeline broke;
this module joins each anomaly to the causal attribution layer
(:mod:`repro.obs.causal`) to say *what changed*.  The core move is the
**attribution shift table**: take the critical-path attribution before
the anomaly and after it, and rank every resource by how much of the
blocked-time share it gained — ``pcie_stall 4% -> 61%`` is the whole
Fig. 2a story in one row.  The top riser also gets its what-if speedup
bound (how much of the loss removing that resource could recover, an
upper bound by construction).

Two join strategies, matching the two anomaly families:

* **Sweep anomalies** (cliffs/knees on an x-swept curve) are explained
  *across runs*: the pre-anomaly sweep point and the post-anomaly point
  each have their own per-run attribution block (the
  ``meta["attribution"]`` shape scorecards record — see
  :func:`attribution_blocks`), and the shift table diffs the two
  blocks.  This works both live (a telemetry in hand) and offline (a
  recorded scorecard), because the blocks are plain JSON.
* **Changepoint anomalies** (level shifts inside one run's timeline)
  are explained *within the run*: the run's critical paths are split at
  the changepoint's virtual time — paths finishing before it vs. after
  — and each half is attributed independently.  This needs live spans,
  so it is available from the ``explain`` CLI's live mode but not from
  a stored run (scorecards persist attribution tables, not spans).

Everything here is pure data-to-data: deterministic input order,
round-to-6 shares, no RNG, no wall clock — the ``explain`` CLI's output
is byte-identical across repeated runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .anomaly import Anomaly
from .causal import _resource_rank, attribute, what_if_all

__all__ = [
    "Explanation",
    "attribution_blocks",
    "shift_table",
    "top_shift",
    "explain_between",
    "explain_sweep_anomalies",
    "explain_changepoint",
    "format_explanation",
]

#: Share shifts smaller than this are folded into one line of
#: :func:`format_explanation`'s table.
MIN_SHOWN_SHIFT = 0.005


def attribution_blocks(telemetry) -> Dict[str, dict]:
    """Per-run attribution blocks from a live telemetry.

    Returns ``{run_label: {"paths", "shares", "what_if"}}`` — the exact
    shape scorecards persist as ``meta["attribution"]`` (see
    :func:`repro.harness.scorecards.attach_runs`, which delegates
    here), so live and stored explanations consume the same data.
    Untraced runs (no finished critical paths) are omitted.  The
    unbounded what-if case (all blocked time on one resource) is
    represented as None — ``inf`` is not strict JSON.
    """
    blocks: Dict[str, dict] = {}
    if telemetry is None:
        return blocks
    for run_id in sorted(telemetry.spans.run_labels):
        label = telemetry.spans.run_labels[run_id]
        paths = telemetry.critical_paths(run=run_id)
        if not paths:
            continue
        table = attribute(paths)
        blocks[label] = {
            "paths": len(paths),
            "shares": {res: round(cell["share"], 6)
                       for res, cell in table.items()},
            "what_if": {res: (None if math.isinf(x) else round(x, 4))
                        for res, x in what_if_all(paths).items()},
        }
    return blocks


def shift_table(pre: Dict[str, float],
                post: Dict[str, float]) -> List[Dict[str, float]]:
    """Ranked resource-shift delta table between two share dicts.

    Rows are ``{"resource", "pre_share", "post_share", "delta"}`` over
    the union of resources, sorted by descending delta (``post - pre``,
    the share the resource *gained*), ties broken by canonical resource
    order.  The first row is the anomaly's prime suspect.
    """
    rows = []
    for resource in sorted(set(pre) | set(post), key=_resource_rank):
        p, q = pre.get(resource, 0.0), post.get(resource, 0.0)
        rows.append({"resource": resource,
                     "pre_share": round(p, 6),
                     "post_share": round(q, 6),
                     "delta": round(q - p, 6)})
    rows.sort(key=lambda r: (-r["delta"],) + _resource_rank(r["resource"]))
    return rows


def top_shift(shifts: Sequence[Dict[str, float]]) -> Optional[str]:
    """The resource that gained the most share (None when no row
    gained anything)."""
    if not shifts or shifts[0]["delta"] <= 0.0:
        return None
    return shifts[0]["resource"]


@dataclass
class Explanation:
    """One anomaly joined to its attribution diff, JSON-safe."""

    #: The anomaly being explained (its :meth:`Anomaly.to_dict` form).
    anomaly: Dict[str, Any]
    #: Labels of the attribution states being diffed ("rc-read qps=704"
    #: -> "rc-read qps=2816", or "<label> before/after window 5").
    pre_label: str
    post_label: str
    #: Ranked resource-shift rows (:func:`shift_table`).
    shifts: List[Dict[str, float]] = field(default_factory=list)
    #: The prime suspect (top gaining resource); None when nothing rose.
    top_resource: Optional[str] = None
    #: What-if speedup bound for the top resource in the *post* state;
    #: None when unbounded or unavailable.
    what_if_bound: Optional[float] = None
    #: Why an explanation is partial ("no attribution for ...").
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"anomaly": self.anomaly, "pre_label": self.pre_label,
                "post_label": self.post_label, "shifts": self.shifts,
                "top_resource": self.top_resource,
                "what_if_bound": self.what_if_bound, "note": self.note}


def explain_between(anomaly: Dict[str, Any], pre_label: str,
                    post_label: str,
                    blocks: Dict[str, dict]) -> Explanation:
    """Explain one anomaly as the attribution diff between two recorded
    blocks (``pre_label`` -> ``post_label``).  Missing blocks produce a
    partial explanation with a note rather than an error — a stored run
    may simply not have been traced."""
    pre = blocks.get(pre_label, {}).get("shares")
    post = blocks.get(post_label, {}).get("shares")
    if not pre or not post:
        missing = [lbl for lbl, blk in ((pre_label, pre), (post_label, post))
                   if not blk]
        return Explanation(
            anomaly=anomaly, pre_label=pre_label, post_label=post_label,
            note="no attribution recorded for %s" % ", ".join(missing))
    shifts = shift_table(pre, post)
    top = top_shift(shifts)
    bound = None
    if top is not None:
        bound = blocks.get(post_label, {}).get("what_if", {}).get(top)
    return Explanation(anomaly=anomaly, pre_label=pre_label,
                       post_label=post_label, shifts=shifts,
                       top_resource=top, what_if_bound=bound)


def explain_sweep_anomalies(anomalies: Sequence[Dict[str, Any]],
                            blocks: Dict[str, dict],
                            labels: Dict[str, str]) -> List[Explanation]:
    """Explain every sweep anomaly via pre-vs-post attribution blocks.

    ``labels`` maps the sweep's x values (as strings — the JSON-safe
    form scorecards store) to per-run attribution labels, e.g. ``{"704":
    "rc-read qps=704", "2816": "rc-read qps=2816"}``.  For each anomaly
    the pre point is the span's left edge and the post point is the
    anomaly's x.
    """
    out = []
    for data in anomalies:
        a = Anomaly.from_dict(data)
        pre_label = _label_for(labels, a.span[0])
        post_label = _label_for(labels, a.x)
        out.append(explain_between(data, pre_label, post_label, blocks))
    return out


def _label_for(labels: Dict[str, str], x: float) -> str:
    """The run label for sweep position ``x``; integers stored as
    "704" and floats stored as "704.0" both resolve."""
    for key in (str(x), str(int(x)) if float(x) == int(x) else None):
        if key is not None and key in labels:
            return labels[key]
    return str(x)


def explain_changepoint(anomaly: Dict[str, Any], paths,
                        label: str = "") -> Explanation:
    """Explain a within-run changepoint by splitting critical paths at
    the anomaly's virtual time.

    ``paths`` are the run's :class:`repro.obs.causal.CriticalPath`\\ s.
    Paths whose RPC finished at or before the changepoint window's start
    form the *pre* population, the rest the *post*; each side is
    attributed independently and diffed.  Needs at least one path on
    each side — a changepoint in the very first window has no "before"
    and yields a partial explanation.
    """
    t_split = float(anomaly.get("span", (anomaly.get("x", 0.0),))[0])
    pre_paths = [p for p in paths if p.span.t1 <= t_split]
    post_paths = [p for p in paths if p.span.t1 > t_split]
    pre_label = "%s before t=%gns" % (label or "run", t_split)
    post_label = "%s after t=%gns" % (label or "run", t_split)
    if not pre_paths or not post_paths:
        side = "before" if not pre_paths else "after"
        return Explanation(
            anomaly=anomaly, pre_label=pre_label, post_label=post_label,
            note="no critical paths finished %s the changepoint" % side)
    pre = {res: cell["share"] for res, cell in attribute(pre_paths).items()}
    post = {res: cell["share"] for res, cell in attribute(post_paths).items()}
    shifts = shift_table(pre, post)
    top = top_shift(shifts)
    bound = None
    if top is not None:
        x = what_if_all(post_paths).get(top)
        bound = None if x is None or math.isinf(x) else round(x, 4)
    return Explanation(anomaly=anomaly, pre_label=pre_label,
                       post_label=post_label, shifts=shifts,
                       top_resource=top, what_if_bound=bound)


def format_explanation(exp: Explanation) -> str:
    """Human-readable explanation block.

    The anomaly headline, then the ranked shift table (resources whose
    share moved less than :data:`MIN_SHOWN_SHIFT` are folded away), then
    the what-if bound for the prime suspect.
    """
    a = Anomaly.from_dict(exp.anomaly)
    lines = [str(a)]
    if a.detail:
        lines.append("  %s" % a.detail)
    if exp.note:
        lines.append("  (%s)" % exp.note)
        return "\n".join(lines)
    lines.append("  attribution shift: %s -> %s"
                 % (exp.pre_label, exp.post_label))
    shown = [r for r in exp.shifts if abs(r["delta"]) >= MIN_SHOWN_SHIFT]
    width = max((len(r["resource"]) for r in shown), default=8)
    for r in shown:
        lines.append("    %-*s  %5.1f%% -> %5.1f%%  (%+.1f)"
                     % (width, r["resource"], r["pre_share"] * 100.0,
                        r["post_share"] * 100.0, r["delta"] * 100.0))
    hidden = len(exp.shifts) - len(shown)
    if hidden:
        lines.append("    (%d resource%s moved < %.1f%%)"
                     % (hidden, "s" if hidden != 1 else "",
                        MIN_SHOWN_SHIFT * 100.0))
    if exp.top_resource is not None:
        bound = ("unbounded" if exp.what_if_bound is None
                 else "%.2fx" % exp.what_if_bound)
        lines.append("    what-if: removing %s waits bounds recovery at %s"
                     % (exp.top_resource, bound))
    return "\n".join(lines)
