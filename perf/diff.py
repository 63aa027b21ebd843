"""``python -m perf diff A.json B.json``: B against baseline A.

Each end-to-end metric of each workload is marked *regressed* (B's
median worse than A's by more than the metric's bound), *unresolved*
(the run-to-run spread of A or B is wider than the bound, unless every
run of B beats every run of A) or *within bound*.  ``events`` is exact
at a given seed, so between runs at the same seed offset its bound is
zero; the share in ``BENCHMARK.json`` covers medians over different
seeds.  ``fail_rate`` must not grow.  Per-layer event deltas are
printed when both runs traced.
"""

from __future__ import annotations

import json
import statistics
from typing import List

from .bench import E2E, iqr_share
from .probe import LAYERS


def verdict(a: List[float], b: List[float], bound: float) -> str:
    if max(iqr_share(a), iqr_share(b)) > bound and not max(b) < min(a):
        return "unresolved"
    median_a = statistics.median(a)
    if statistics.median(b) - median_a > bound * median_a:
        return "regressed"
    return "within bound"


def diff(a_run: dict, b_run: dict) -> List[str]:
    """Report lines; a line starting with ``REGRESSED`` marks a
    regression."""
    lines = []
    same_seed = a_run["seed_offset"] == b_run["seed_offset"]
    if not same_seed:
        lines.append("seed offsets differ (%d, %d): events compared by "
                     "bound, not exactly" % (a_run["seed_offset"],
                                             b_run["seed_offset"]))
    for name, a in a_run["workloads"].items():
        b = b_run["workloads"].get(name)
        if b is None:
            lines.append("%s: only in A" % name)
            continue
        lines.append(name)
        for metric, unit, bound in E2E:
            sa, sb = a["samples"][metric], b["samples"][metric]
            if not sa or not sb:
                lines.append("REGRESSED %-12s no good runs" % metric)
                continue
            if metric == "events" and same_seed:
                bound = 0.0
            ma, mb = statistics.median(sa), statistics.median(sb)
            mark = verdict(sa, sb, bound)
            lines.append("%s %-12s %12.6g -> %-12.6g %-5s %+7.2f%%  "
                         "bound %4.1f%%  spread %4.1f%% / %4.1f%%  %s" % (
                             "REGRESSED" if mark == "regressed" else "  ",
                             metric, ma, mb, unit, 100 * (mb - ma) / ma,
                             100 * bound, 100 * iqr_share(sa),
                             100 * iqr_share(sb), mark))
        worse = b["fail_rate"] > a["fail_rate"]
        lines.append("%s %-12s %d/%d -> %d/%d  %s" % (
            "REGRESSED" if worse else "  ", "fail_rate", a["failed"],
            a["attempted"], b["failed"], b["attempted"],
            "regressed" if worse else "not worse"))
        if "trace" in a and "trace" in b:
            la, lb = a["trace"]["layers"], b["trace"]["layers"]
            lines.append("   layer events: " + ", ".join(
                "%s %d -> %d (%+d)" % (layer, la[layer]["events"],
                                       lb[layer]["events"],
                                       lb[layer]["events"]
                                       - la[layer]["events"])
                for layer in LAYERS))
    return lines


def main(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a_run = json.load(fh)
    with open(b_path) as fh:
        b_run = json.load(fh)
    lines = diff(a_run, b_run)
    print("\n".join(lines))
    return 1 if any(line.startswith("REGRESSED") for line in lines) else 0
