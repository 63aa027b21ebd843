"""Explanations and presentation for search results.

Every retained candidate gets the full observability treatment: the
PR 3 critical-path attribution shift between its uncongested and
congested legs, and the PR 7 anomaly records of both legs joined to
that shift via :func:`repro.obs.explain.explain_between`.  The same
explained evaluation is what :func:`repro.harness.scorecards.
scorecard_search` freezes into a committed scenario gate.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..obs.explain import (
    Explanation,
    explain_between,
    format_explanation,
    top_shift,
)
from .runner import BASE_LABEL, CONG_LABEL, evaluate_point

__all__ = ["explain_entry", "leaderboard_rows", "format_entry"]


def explain_entry(entry: dict, seed: int) -> dict:
    """One leaderboard entry -> its explained form (JSON-safe).

    Entries from a traced objective already carry attribution; others
    are re-evaluated in-process with tracing on (same candidate seed
    derivation, so throughput/latency numbers reproduce exactly).
    Returns ``{**entry, "shift", "top_resource", "explanations"}`` where
    ``explanations`` joins each scenario-leg anomaly to the
    baseline->scenario attribution diff.
    """
    if "shift" in entry:
        traced = entry
    else:
        traced = evaluate_point(entry["point"], seed=seed, trace=True)
        # A re-run for its spans: its metrics are not the search's.
        del traced["metrics"]
        traced["score"] = entry.get("score", 0.0)
    blocks = traced.get("attribution", {})
    shifts = traced.get("shift", [])
    explanations: List[dict] = []
    for side in ("cong", "base"):
        for anomaly in traced.get("anomalies", {}).get(side, []):
            exp = explain_between(anomaly, BASE_LABEL, CONG_LABEL, blocks)
            explanations.append(exp.to_dict())
    out = dict(traced)
    out["top_resource"] = top_shift(shifts)
    out["explanations"] = explanations
    return out


def leaderboard_rows(result, top: int = 0) -> Tuple[List[str], List[list]]:
    """(columns, rows) for the CLI leaderboard table."""
    columns = ["rank", "score", "fingerprint", "cong Mops", "retained",
               "p99/p50", "anomalies", "top knobs"]
    rows: List[list] = []
    entries = result.leaderboard[:top] if top else result.leaderboard
    for rank, entry in enumerate(entries, start=1):
        anomalies = entry.get("anomalies", {})
        n_anom = sum(len(v) for v in anomalies.values())
        rows.append([
            rank,
            "%.4g" % entry.get("score", 0.0),
            entry["fingerprint"],
            "%.3f" % entry.get("scenario", {}).get("mops", 0.0),
            "%.3f" % entry.get("goodput_retained", 0.0),
            "%.2f" % entry.get("tail_ratio", 0.0),
            n_anom,
            _knob_digest(entry.get("point", {})),
        ])
    return columns, rows


def _knob_digest(point: dict, n: int = 3) -> str:
    """The few most workload-defining knobs, compactly."""
    keys = ("n_senders", "buffer_bytes", "qp_cache_entries", "req_size")
    parts = ["%s=%s" % (k, point[k]) for k in keys if k in point][:n + 1]
    return " ".join(parts)


def format_entry(detail: dict, rank: Optional[int] = None) -> str:
    """Human-readable block for one explained entry."""
    head = "candidate %s" % detail["fingerprint"]
    if rank is not None:
        head = "#%d %s" % (rank, head)
    lines = [head,
             "  score %.4g  cong %.3f Mops  retained %.3f  p99/p50 %.2f"
             % (detail.get("score", 0.0),
                detail.get("scenario", {}).get("mops", 0.0),
                detail.get("goodput_retained", 0.0),
                detail.get("tail_ratio", 0.0))]
    point = detail.get("point", {})
    lines.append("  point: " + ", ".join(
        "%s=%s" % (k, point[k]) for k in sorted(point)))
    top = detail.get("top_resource")
    shifts = detail.get("shift", [])
    if shifts:
        lines.append("  attribution shift (baseline -> scenario), top 3:")
        for row in shifts[:3]:
            lines.append("    %-14s %+0.3f  (%.3f -> %.3f)"
                         % (row["resource"], row["delta"],
                            row["pre_share"], row["post_share"]))
        if top:
            lines.append("  prime suspect: %s" % top)
    explanations = detail.get("explanations", [])
    if explanations:
        lines.append("  anomalies (%d explained):" % len(explanations))
        for exp_dict in explanations:
            exp = Explanation(**exp_dict)
            block = format_explanation(exp)
            lines.extend("    " + line for line in block.splitlines())
    else:
        lines.append("  anomalies: none detected")
    return "\n".join(lines)
