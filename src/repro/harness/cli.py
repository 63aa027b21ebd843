"""Command-line experiment runner.

Regenerates any paper figure without pytest::

    python -m repro.harness.cli fig2a
    python -m repro.harness.cli fig6 --threads 1 8 32 --outstanding 1
    python -m repro.harness.cli fig14 --threads 4
    python -m repro.harness.cli list

Each figure subcommand is generated from its
:class:`repro.harness.figures.FigureSpec`: its options default to the
figure's full sweep, and it prints the same paper-style tables the
benchmark suite produces.  Use ``--scale`` to lengthen measurement
windows.

Observability flags (see ``docs/observability.md``)::

    python -m repro.harness.cli --breakdown fig2a
    python -m repro.harness.cli --trace fig6.trace.json fig6 --threads 8
    python -m repro.harness.cli --metrics fig2a.metrics.json fig2a

``--trace`` writes a Chrome trace-event file (load it at
``ui.perfetto.dev``), ``--metrics`` dumps every counter/gauge/histogram
(JSON, or CSV when the filename ends in ``.csv``), and ``--breakdown``
prints every span interval, waits included, summed by name over all
traced spans.

Causal critical-path attribution (``docs/observability.md``)::

    python -m repro.harness.cli --attribution fig2a
    python -m repro.harness.cli --attribution-json fig2a.attr.json fig2a
    python -m repro.harness.cli --critical-path fig2a.folded fig2a

``--attribution`` prints, per run, the blocked-time attribution table
over every traced RPC's critical path plus the what-if speedup upper
bound per resource.  ``--attribution-json`` writes the full report
(paths, shares, what-if bounds) as JSON; ``--critical-path`` writes the
critical paths as folded stacks for flamegraph.pl / speedscope (use
``-`` or no filename for stdout).

Auditing and paper-fidelity scorecards::

    python -m repro.harness.cli --audit fig2a
    python -m repro.harness.cli --scorecard out/ fig10
    python -m repro.harness.cli bench-compare --current out/

``--audit`` runs the end-of-run invariant auditors (Little's law, byte
and CQE conservation, credit accounting, ...) after every experiment and
raises on any violation.  ``--scorecard DIR`` writes a
``BENCH_<figure>.json`` scorecard per figure; ``bench-compare`` diffs a
directory of scorecards against the committed baselines in
``benchmarks/baselines`` and exits nonzero on regression.

Anomaly detection and explanations (``docs/observability.md``)::

    python -m repro.harness.cli explain fig2a
    python -m repro.harness.cli explain fig2a --json fig2a.anomalies.json
    python -m repro.harness.cli explain run:latest

``explain fig2a`` reruns the figure with spans on, auto-detects curve
cliffs/knees and per-window changepoints/counter bursts (no per-figure
thresholds), and explains each anomaly as a pre-vs-post attribution
diff — the ranked resource-shift table plus the what-if recovery bound
for the prime suspect.  ``explain run:N`` (or ``run:-1`` /
``run:latest``) explains the anomaly blocks a recorded run's
scorecards carry.

Fabric congestion (``docs/network.md``)::

    python -m repro.harness.cli --audit incast --senders 12

``incast`` runs FLock and UD RPC each on the contention-free fabric and
on the switched-fabric model (finite per-port egress buffers, ECN
marking, DCQCN rate control on RC QPs).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import List

from ..obs import faults
from ..obs.audit import AUDIT_ENV
from ..obs.benchstore import compare_dirs
from ..obs.causal import (
    attribute,
    attribution_report,
    folded_stacks,
    format_attribution,
    what_if_all,
)
from ..obs.explain import (
    Explanation,
    explain_changepoint,
    explain_sweep_anomalies,
    format_explanation,
)
from ..obs.export import format_breakdown, write_atomic, write_chrome_trace
from ..obs.registry import Registry
from ..obs.runstore import RunStore
from ..obs.scorecard import load_scorecard
from ..obs.telemetry import Telemetry, current_telemetry, disable, enable
from .figures import FIGURES
from .metrics import bench_scale
from .scorecards import sweep_runs
from .tables import print_table

#: Default committed-baseline directory for ``bench-compare``.
DEFAULT_BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))),
    "benchmarks", "baselines")


def _stamp_meta(sc) -> None:
    """Record the run's scale and, when any are active, the injected
    faults (informational: neither a gating key nor fingerprinted)."""
    sc.meta["bench_scale"] = bench_scale()
    if faults.ACTIVE:
        sc.meta["faults"] = sorted(faults.ACTIVE)


def _emit_scorecard(args, sc) -> None:
    """Write a figure's scorecard when ``--scorecard DIR`` was given."""
    if not getattr(args, "scorecard", None):
        return
    _stamp_meta(sc)
    path = sc.write(args.scorecard)
    print("wrote scorecard: %s (%s)" % (path,
                                        "PASS" if sc.passed else "FAIL"))


def _collect(args, results) -> None:
    """Gather each run's windowed SLO report for ``--slo-timeline``,
    keyed by its :func:`repro.harness.scorecards.sweep_runs` label, and
    fold its metrics state for ``--metrics``, in sweep order.
    Collection is cheap, so it runs regardless of the flags and
    :func:`main` decides which files to write.
    """
    for label, result in sweep_runs(results):
        if result.slo is not None:
            args.slo_blocks[label] = result.slo
        if result.metrics is not None:
            args.metrics_folded.merge_state(result.metrics)


def _figure_opts(spec, args) -> dict:
    """The spec's options as parsed from the command line."""
    return {name: getattr(args, name) for name in spec.defaults}


def _add_figure_options(parser, spec) -> None:
    """One ``--<option>`` per spec default; list defaults take 1+ ints."""
    for name, default in spec.defaults.items():
        if isinstance(default, list):
            parser.add_argument("--" + name, type=int, nargs="+",
                                default=list(default))
        else:
            parser.add_argument("--" + name, type=int, default=default)


def cmd_figure(args) -> None:
    """Run a registered figure: its sweep, tables and scorecards."""
    spec = FIGURES[args.figure]
    opts = _figure_opts(spec, args)
    results = spec.run(args.jobs, **opts)
    for title, columns, rows in spec.tables(results, **opts):
        print_table(title, columns, rows)
    _collect(args, results)
    for sc in spec.scorecards(results, **opts):
        _emit_scorecard(args, sc)


def _emit_attribution(args, telemetry) -> None:
    """Print per-run attribution tables and/or write the JSON report.

    Runs with no traced critical paths (nothing finished, tracing off for
    that runner) are skipped rather than printed empty.
    """
    report = {}
    for run_id in sorted(telemetry.spans.run_labels):
        label = telemetry.spans.run_labels[run_id]
        paths = telemetry.critical_paths(run=run_id)
        if not paths:
            continue
        if args.attribution:
            print()
            print(format_attribution(
                attribute(paths), bounds=what_if_all(paths),
                title="Critical-path attribution (%s)" % label))
        if args.attribution_json:
            report[label] = attribution_report(paths)
    if args.attribution_json:
        write_atomic(args.attribution_json,
                     json.dumps(report, indent=2, sort_keys=True) + "\n")
        print("wrote attribution report: %s (%d runs)"
              % (args.attribution_json, len(report)))


def _explain_figure(figure: str, meta: dict, telemetry):
    """Explanations for one figure's recorded anomaly block.

    Sweep anomalies join to the scorecard's ``meta["attribution"]``
    blocks through the stored x → run-label map; within-run anomalies
    (changepoints, counter bursts) are time-split against live critical
    paths when a spans-carrying telemetry is in hand, and degrade to a
    noted partial explanation for stored runs.
    """
    block = meta.get("anomalies") or {}
    attribution = meta.get("attribution") or {}
    labels = block.get("labels") or {}
    exps = explain_sweep_anomalies(block.get("sweep") or [],
                                   attribution, labels)
    rev = {}
    if telemetry is not None:
        rev = {label: rid for rid, label
               in telemetry.spans.run_labels.items()}
    for key in sorted(block.get("runs") or {}):
        run_label = labels.get(key, key)
        run_id = rev.get(run_label)
        for data in block["runs"][key]:
            if run_id is None:
                exps.append(Explanation(
                    anomaly=data, pre_label="", post_label="",
                    note="within-run attribution split needs live spans "
                         "(stored scorecards keep tables, not traces)"))
            else:
                exps.append(explain_changepoint(
                    data, telemetry.critical_paths(run=run_id),
                    label=run_label))
    return exps, block


def _emit_explanations(args, per_figure) -> int:
    """Print explanation blocks (and the ``--json`` report) per figure."""
    report = {}
    total = 0
    for figure in sorted(per_figure):
        exps, block = per_figure[figure]
        total += len(exps)
        print()
        print("=== %s: %d anomal%s ===" % (
            figure, len(exps), "y" if len(exps) == 1 else "ies"))
        if not exps:
            print("no anomalies detected")
        for exp in exps:
            print()
            print(format_explanation(exp))
        report[figure] = {"anomalies": block,
                          "explanations": [e.to_dict() for e in exps]}
    if getattr(args, "explain_json", None):
        write_atomic(args.explain_json,
                     json.dumps(report, indent=2, sort_keys=True) + "\n")
        print()
        print("wrote explanation report: %s (%d anomalies)"
              % (args.explain_json, total))
    return 0


def _explain_live_fig2a(args) -> int:
    """Run the Fig. 2a sweep with spans on and explain its anomalies."""
    prev = current_telemetry()
    own = prev is None or not prev.spans.enabled
    tel = enable(Telemetry(wants_spans=True)) if own else prev
    try:
        # A spans-wanting telemetry forces run_sweep serial, so the
        # detected anomaly set is byte-identical for any --jobs count.
        spec = FIGURES["fig2a"]
        opts = _figure_opts(spec, args)
        results = spec.run(args.jobs, **opts)
        [sc] = spec.scorecards(results, **opts)
    finally:
        if own:
            if prev is not None:
                enable(prev)
            else:
                disable()
    _collect(args, results)
    _emit_scorecard(args, sc)
    exps, block = _explain_figure("fig2a", sc.meta, tel)
    return _emit_explanations(args, {"fig2a": (exps, block)})


def _looks_like_run_ref(target: str) -> bool:
    """True when the explain target names a stored run, not a figure."""
    if target.startswith("run:") or target == "latest":
        return True
    try:
        int(target)
    except ValueError:
        return False
    return True


def _explain_stored(args) -> int:
    """Explain the anomaly blocks a recorded run's scorecards carry."""
    try:
        rec = _runstore(args).get(args.target)
    except KeyError as exc:
        print(exc.args[0])
        return 1
    print("explaining run %d (label=%s)" % (rec.run_id, rec.label or "-"))
    per_figure = {}
    for figure in rec.figures:
        meta = rec.scorecards[figure].get("meta", {})
        exps, block = _explain_figure(figure, meta, None)
        if block:
            per_figure[figure] = (exps, block)
    if not per_figure:
        print("run %d recorded no anomalies" % rec.run_id)
        return 0
    return _emit_explanations(args, per_figure)


def cmd_explain(args) -> int:
    """Detect-and-explain: live figure rerun or a stored run's blocks."""
    if _looks_like_run_ref(args.target):
        return _explain_stored(args)
    if args.target != "fig2a":
        print("explain: unsupported live target %r (live: fig2a; "
              "stored: run:N, run:-N, run:latest)" % args.target)
        return 1
    return _explain_live_fig2a(args)


def cmd_bench_compare(args) -> int:
    """Gate current scorecards against committed baselines."""
    report = compare_dirs(args.baseline, args.current, figures=args.figures)
    print(report.format())
    return 0 if report.ok else 1


def _runstore(args) -> RunStore:
    """The run store the ``runs`` subcommands operate on."""
    return RunStore(args.store)


def cmd_runs_list(args) -> int:
    """List every recorded run and name any unreadable line."""
    store = _runstore(args)
    records, torn = store.read()
    if records:
        print_table("run history",
                    ["id", "when", "label", "commit", "config", "figures",
                     "checks"],
                    [rec.summary_row() for rec in records])
    elif not torn:
        print("run store is empty (%s)" % store.path)
    if torn:
        print("skipped unreadable line(s) %s of %s"
              % (", ".join(map(str, torn)), store.path))
    return 0


def cmd_runs_show(args) -> int:
    """Show one run's scorecards in full."""
    try:
        rec = _runstore(args).get(args.ref)
    except KeyError as exc:
        print(exc.args[0])
        return 1
    head = rec.summary_row()
    print("run %s  %s  label=%s  commit=%s  config=%s" % (
        head[0], head[1], head[2], head[3], head[4]))
    for figure in rec.figures:
        print()
        print(rec.scorecard(figure).format())
    return 0


def cmd_runs_diff(args) -> int:
    """Diff run B against run A's tolerances; exit 1 on regression."""
    try:
        report = _runstore(args).diff(args.a, args.b)
    except KeyError as exc:
        print(exc.args[0])
        return 1
    print("runs diff %s -> %s" % (args.a, args.b))
    print(report.format())
    return 0 if report.ok else 1


def cmd_runs_record(args) -> int:
    """Record a directory of BENCH_*.json scorecards as one run."""
    paths = sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json")))
    if not paths:
        print("no BENCH_*.json scorecards in %s" % args.dir)
        return 1
    rec = _runstore(args).record([load_scorecard(p) for p in paths],
                                 label=args.label)
    print("recorded run %d: %d figure(s) (%s), config %s"
          % (rec.run_id, len(rec.figures), ", ".join(rec.figures),
             rec.fingerprint))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree: one subcommand per experiment."""
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Regenerate FLock paper experiments")
    parser.add_argument("--scale", type=float, default=None,
                        help="measurement-window multiplier")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan independent sweep points across N worker "
                             "processes (default: serial; REPRO_JOBS env "
                             "also sets it).  Results are byte-identical "
                             "to a serial run; span flags (--trace, "
                             "--breakdown, --attribution...) force serial "
                             "execution — see docs/performance.md")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON of every "
                             "traced RPC (open in ui.perfetto.dev)")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="write a metrics snapshot (JSON, or CSV when "
                             "the name ends in .csv)")
    parser.add_argument("--breakdown", action="store_true",
                        help="print every span interval, waits included, "
                             "summed by name after the experiment")
    parser.add_argument("--attribution", action="store_true",
                        help="print per-run critical-path attribution "
                             "tables with what-if speedup bounds")
    parser.add_argument("--attribution-json", metavar="FILE", default=None,
                        help="write the full attribution report (paths, "
                             "shares, what-if bounds) as JSON")
    parser.add_argument("--critical-path", metavar="FILE", nargs="?",
                        const="-", default=None,
                        help="write critical paths as folded stacks for "
                             "flamegraph.pl/speedscope (omit FILE or pass "
                             "- for stdout)")
    parser.add_argument("--audit", action="store_true",
                        help="run the end-of-run invariant auditors after "
                             "every experiment (fails on any violation)")
    parser.add_argument("--scorecard", metavar="DIR", default=None,
                        help="write BENCH_<figure>.json paper-fidelity "
                             "scorecards into DIR")
    parser.add_argument("--slo-timeline", metavar="FILE", default=None,
                        help="write every run's windowed SLO timeline "
                             "(per-window p50/p99/p999, goodput, counter "
                             "deltas) as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    for spec in FIGURES.values():
        p = sub.add_parser(spec.name, help=spec.help)
        _add_figure_options(p, spec)
        p.set_defaults(fn=cmd_figure, figure=spec.name)

    p = sub.add_parser(
        "explain",
        help="detect anomalies and explain them via attribution diffs "
             "(explain fig2a, explain run:4, explain run:latest)")
    p.add_argument("target",
                   help="a live figure (fig2a) or a stored run reference "
                        "(run:N, run:-N, run:latest)")
    _add_figure_options(p, FIGURES["fig2a"])
    p.add_argument("--json", dest="explain_json", metavar="FILE",
                   default=None,
                   help="also write the anomaly + explanation report "
                        "as JSON")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="run-store directory for stored references "
                        "(default: benchmarks/runstore, or "
                        "REPRO_RUNSTORE_DIR)")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("bench-compare",
                       help="compare BENCH_*.json scorecards against "
                            "committed baselines (exit 1 on regression)")
    p.add_argument("--baseline", default=DEFAULT_BASELINE_DIR,
                   help="baseline scorecard directory "
                        "(default: benchmarks/baselines)")
    p.add_argument("--current", required=True,
                   help="directory of freshly generated scorecards")
    p.add_argument("--figures", nargs="+", default=None,
                   help="restrict the comparison to these figures")
    p.set_defaults(fn=cmd_bench_compare)

    p = sub.add_parser("runs", help="run history: list / show / diff "
                                    "/ record")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="run-store directory (default: "
                        "benchmarks/runstore, or REPRO_RUNSTORE_DIR)")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    rp = runs_sub.add_parser("list", help="list recorded runs")
    rp.set_defaults(fn=cmd_runs_list)

    rp = runs_sub.add_parser("show", help="print one run's scorecards")
    rp.add_argument("ref", help="run id (e.g. 4, run:4, run:-1, "
                                "run:latest)")
    rp.set_defaults(fn=cmd_runs_show)

    rp = runs_sub.add_parser(
        "diff", help="compare run B against run A's tolerances "
                     "(exit 1 when B regresses)")
    rp.add_argument("a", help="baseline run id (run:N, run:-N, "
                              "run:latest)")
    rp.add_argument("b", help="candidate run id")
    rp.set_defaults(fn=cmd_runs_diff)

    rp = runs_sub.add_parser(
        "record", help="append a directory of BENCH_*.json scorecards "
                       "to the run history")
    rp.add_argument("dir", help="scorecard directory to record")
    rp.add_argument("--label", default="",
                    help="free-form label for the run")
    rp.set_defaults(fn=cmd_runs_record)

    p = sub.add_parser("list", help="list available experiments")
    p.set_defaults(fn=lambda args: print("\n".join(
        sorted(c for c in sub.choices if c != "list"))))
    return parser


def main(argv: List[str] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.scale is not None:
        os.environ["REPRO_BENCH_SCALE"] = str(args.scale)
    if args.audit:
        os.environ[AUDIT_ENV] = "1"
    args.slo_blocks, args.metrics_folded = {}, Registry()
    # Spans must accumulate in-process (forces sweeps serial); a
    # metrics-only run keeps --jobs parallelism because each run's
    # metrics come home on its result.
    wants_spans = bool(args.trace or args.breakdown or args.attribution
                       or args.attribution_json or args.critical_path)
    observing = wants_spans or bool(args.metrics)
    telemetry = (enable(Telemetry(wants_spans=wants_spans))
                 if observing else None)
    injected_faults = faults.inject_from_env()
    if injected_faults:
        print("fault injection active: %s" % ", ".join(injected_faults))
    try:
        rc = args.fn(args) or 0
    finally:
        for name in injected_faults:
            faults.clear(name)
        disable()
    if args.slo_timeline:
        write_atomic(args.slo_timeline,
                     json.dumps(args.slo_blocks, indent=2, sort_keys=True)
                     + "\n")
        print("wrote SLO timelines: %s (%d runs)"
              % (args.slo_timeline, len(args.slo_blocks)))
    if telemetry is not None:
        if args.breakdown:
            print()
            print(format_breakdown(telemetry.breakdown(),
                                   title="Latency breakdown (all spans)"))
        if args.attribution or args.attribution_json:
            _emit_attribution(args, telemetry)
        if args.critical_path:
            folded = folded_stacks(telemetry.critical_paths())
            if args.critical_path == "-":
                sys.stdout.write(folded)
            else:
                write_atomic(args.critical_path, folded)
                print("wrote folded stacks: %s (%d frames)"
                      % (args.critical_path, len(folded.splitlines())))
        if args.trace:
            write_chrome_trace(telemetry.spans, args.trace)
            print("wrote Chrome trace: %s (%d spans)"
                  % (args.trace, len(telemetry.spans.spans)))
        if args.metrics:
            folded = args.metrics_folded
            text = (folded.to_csv() if args.metrics.endswith(".csv")
                    else folded.to_json())
            write_atomic(args.metrics, text)
            print("wrote metrics snapshot: %s" % args.metrics)
    return rc


if __name__ == "__main__":
    sys.exit(main())
