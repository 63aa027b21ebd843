"""Run the workloads, one fresh child process at a time, and report.

Reps are interleaved across workloads (w1 w2 w3 w4, w1 ...), so a slow
phase of a shared machine lands on every workload rather than on one.
The orchestrating process never simulates and starts no threads; each
child is waited for before the next one starts.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from .probe import LAYER_METRICS, LAYERS, corrected_host_ns, layer_metrics
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).with_name("references.json")

#: End-to-end metrics: (name, unit, bound).  All are lower-is-better; the
#: bound is the share of the baseline median a metric may worsen by, for
#: medians taken over runs at different seeds on a shared machine (see
#: the README for the spreads these were set from).
E2E = (
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("events", "count", 0.10),
    ("peak_rss_mb", "MiB", 0.10),
)

#: A child that has not finished by then is killed and counted failed.
CHILD_TIMEOUT_S = 150


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env(environ, trace: bool) -> Tuple[Dict[str, str], List[str]]:
    """A child's environment: ``environ`` without any ``REPRO_*`` knob,
    ``src`` first on ``PYTHONPATH`` and, for a traced child, only
    ``REPRO_PROFILE=1``.  Returns ``(env, dropped names)``."""
    dropped = sorted(k for k in environ if k.startswith("REPRO_"))
    env = {k: v for k, v in environ.items() if not k.startswith("REPRO_")}
    paths = [str(SRC)]
    if environ.get("PYTHONPATH"):
        paths.append(environ["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if trace:
        env["REPRO_PROFILE"] = "1"
    return env, dropped


def run_child(name: str, offset: int, mode: str,
              env: Dict[str, str]) -> Optional[dict]:
    """One child run; its record, or None if it failed or timed out."""
    cmd = [sys.executable, "-m", "perf.child", name, str(offset), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("  %s %s: killed after %d s" % (name, mode, CHILD_TIMEOUT_S))
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("  %s %s: exited %d" % (name, mode, proc.returncode))
        return None
    return json.loads(lines[-1])


def load_references() -> Dict[str, Dict[str, str]]:
    with open(REFERENCES) as fh:
        return json.load(fh)


def iqr_share(values: List[float]) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(records: List[Optional[dict]], reference: Optional[str],
              trace: bool = False, traced: Optional[dict] = None) -> dict:
    """Fold one workload's child records into its report.

    A run fails if its child failed, if its digest differs from
    ``reference`` (from the first good run when there is none), or if
    its event count differs from the other runs'.  With ``trace``, the
    traced run counts too, and fails if it failed or its digest differs.
    """
    done = [r for r in records if r is not None]
    ref = reference or (done[0]["digest"] if done else None)
    events = done[0]["events"] if done else None
    good = [r for r in done if r["digest"] == ref and r["events"] == events]
    attempted = len(records) + trace
    failed = attempted - len(good)
    if traced is not None and traced["digest"] == ref:
        failed -= 1
    else:
        traced = None
    samples = {
        "wall_s": [r["wall_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "events": [r["events"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "loop_s": [r["loop_s"] for r in good],
    }
    out = {
        "reference": "checked" if reference else "none (runs must agree)",
        "digest": ref,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted if attempted else 1.0,
        "samples": samples,
        "metrics": {},
        "mops": good[0]["mops"] if good else None,
    }
    if good:
        out["metrics"] = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit, _bound in E2E}
    if traced and good:
        wall_s = out["metrics"]["wall_s"]["value"]
        loop_s = statistics.median(samples["loop_s"])
        host = corrected_host_ns(traced["layers"], traced["per_event_ns"])
        values = layer_metrics(traced, wall_s, loop_s)
        out["trace"] = {
            "per_event_ns": traced["per_event_ns"],
            "layers": {name: {"events": traced["layers"][name]["events"],
                              "host_ms": host[name] / 1e6}
                       for name in LAYERS},
            "call_ms": {k: v / 1e6 for k, v in traced["call_ns"].items()},
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _better in LAYER_METRICS},
        }
    return out


def measure(names: List[str], offset: int, reps: int,
            seconds: Optional[float], trace: bool,
            references: Dict[str, Dict[str, str]]) -> dict:
    env, dropped = child_env(os.environ, trace=False)
    log("dropped from the children's environment: %s"
        % (", ".join(dropped) or "nothing"))
    records: Dict[str, List[Optional[dict]]] = {name: [] for name in names}
    start = perf_counter()
    rounds = 0

    def more() -> bool:
        if seconds is None:
            return rounds < reps
        return rounds == 0 or perf_counter() - start < seconds

    while more():
        for name in names:
            record = run_child(name, offset, "timed", env)
            records[name].append(record)
            if record is not None:
                log("  %s rep %d: %.3f s, %d events"
                    % (name, rounds + 1, record["wall_s"], record["events"]))
        rounds += 1
    traced_env, _ = child_env(os.environ, trace=True)
    workloads = {}
    for name in names:
        traced = run_child(name, offset, "traced", traced_env) if trace else None
        if traced is not None:
            log("  %s traced: %.3f s" % (name, traced["wall_s"]))
        reference = references.get(name, {}).get(str(offset))
        workloads[name] = summarize(records[name], reference, trace, traced)
    return {"seed_offset": offset, "dropped_env": dropped,
            "workloads": workloads}


def format_report(run: dict) -> str:
    lines = []
    for name, w in run["workloads"].items():
        lines.append("%s  (seed %d, reference %s)" % (
            name, WORKLOADS[name].seed + run["seed_offset"], w["reference"]))
        for metric, unit, bound in E2E:
            values = w["samples"][metric]
            if not values:
                continue
            lines.append("  %-12s %14.6g %-5s n=%-3d spread %5.1f%%  "
                         "bound %4.1f%%" % (
                             metric, statistics.median(values), unit,
                             len(values), 100 * iqr_share(values),
                             100 * bound))
        lines.append("  %-12s %14.6g %-5s %d/%d runs" % (
            "fail_rate", w["fail_rate"], "", w["failed"], w["attempted"]))
        if w["mops"] is not None:
            lines.append("  simulated    %14.6g M/s   (ops per simulated us; "
                         "checked by digest, not ranked)" % w["mops"])
        trace = w.get("trace")
        if trace:
            total = sum(layer["events"] for layer in trace["layers"].values())
            lines.append("  %-8s %10s %7s %10s %7s  (profiler bracket "
                         "%+.1f ns/event removed)" % (
                             "layer", "events", "events%", "host_ms",
                             "host%", trace["per_event_ns"]))
            metrics = trace["metrics"]
            for layer in LAYERS:
                row = trace["layers"][layer]
                lines.append("  %-8s %10d %6.1f%% %10.1f %6.1f%%" % (
                    layer, row["events"], 100.0 * row["events"] / total,
                    row["host_ms"], metrics[layer + ".host_pct"]["value"]))
            for metric, _unit, _better in LAYER_METRICS:
                if not metric.endswith((".events", ".host_pct")):
                    lines.append("    %-26s %.6g" % (
                        metric, metrics[metric]["value"]))
    return "\n".join(lines)


def contract_line(w: dict, trace: bool) -> str:
    """The one-line result: ``correct``, ``attempted``, ``failed`` and
    the end-to-end (or, traced, the per-layer) metrics."""
    if trace:
        metrics = w["trace"]["metrics"] if "trace" in w else {}
    else:
        metrics = w["metrics"]
    return json.dumps({"correct": w["failed"] == 0 and bool(metrics),
                       "attempted": w["attempted"], "failed": w["failed"],
                       "metrics": metrics})


def write_references(run: dict, references: Dict[str, Dict[str, str]]) -> None:
    """Record this run's digests as the references for its offset; a
    workload whose runs disagreed is left out."""
    for name, w in run["workloads"].items():
        if w["failed"] == 0:
            references.setdefault(name, {})[str(run["seed_offset"])] = \
                w["digest"]
    with open(REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
