"""Full-stack observability: spans, metrics, and trace export.

Three pillars, all opt-in and near-zero-cost when disabled:

* **Per-RPC spans** (:mod:`repro.obs.span`) — every RPC and every wire
  message can carry a :class:`Span` through client enqueue → doorbell
  MMIO → RNIC processing (with cache-miss/PCIe-stall sub-phases) → wire
  → server queue → handler → response, recorded in virtual time and
  aggregated into phase-level latency breakdowns.
* **Metrics registry** (:mod:`repro.obs.registry`) — named counters,
  gauges and histograms read, once per run, from the ledgers the RNIC,
  PCIe, fabric, switch, verbs and FLock components keep anyway; a
  distribution is a ``{value: count}`` ledger its component keeps only
  when the simulator is instrumented.
* **Export** (:mod:`repro.obs.export`) — Chrome trace-event JSON
  (loadable in Perfetto / ``chrome://tracing``) plus metrics snapshots
  as JSON/CSV, surfaced on the CLI as ``--trace`` / ``--metrics`` /
  ``--breakdown``.

On top of the pillars sit the **auditors** (:mod:`repro.obs.audit`) —
end-of-run invariant checks (Little's law per queue, byte/CQE/credit
conservation, cache accounting) checking the components' ledgers
against each other — and the **scorecards / bench store**
(:mod:`repro.obs.scorecard`, :mod:`repro.obs.benchstore`): per-figure
``BENCH_*.json`` fidelity records compared against committed baselines
to gate CI on regressions.

See ``docs/observability.md`` for the span model, metric names by layer,
and CLI usage.
"""

from . import faults
from .anomaly import (
    Anomaly,
    detect_changepoints,
    detect_cliffs,
    detect_counter_bursts,
    detect_knees,
    detect_run_anomalies,
    detect_sweep_anomalies,
    diff_anomaly_sets,
    severity_label,
)
from .audit import (
    AuditContext,
    AuditError,
    AuditReport,
    Violation,
    audit_enabled,
    run_audit,
)
from .benchstore import CompareReport, MetricDelta, compare_dirs, compare_scorecards
from .causal import (
    GAP_RESOURCE,
    CriticalPath,
    Segment,
    attribute,
    attribution_report,
    critical_path,
    critical_paths,
    folded_stacks,
    format_attribution,
    what_if,
    what_if_all,
)
from .explain import (
    Explanation,
    attribution_blocks,
    explain_between,
    explain_changepoint,
    explain_sweep_anomalies,
    format_explanation,
    shift_table,
    top_shift,
)
from .export import chrome_trace, format_breakdown, write_chrome_trace
from .registry import Registry, ledger_state
from .runstore import RunRecord, RunStore, default_store_dir
from .scorecard import Check, Metric, Scorecard, load_scorecard
from .simprof import SimProfile, component_bucket, profile_enabled
from .sketch import QuantileSketch
from .span import PHASES, SPENT, NullSpanLog, Span, SpanLog, null_span_log
from .telemetry import Telemetry, current_telemetry, disable, enable
from .windows import SloTimeline

__all__ = [
    "Anomaly",
    "AuditContext",
    "AuditError",
    "AuditReport",
    "Check",
    "Explanation",
    "CompareReport",
    "CriticalPath",
    "GAP_RESOURCE",
    "Metric",
    "MetricDelta",
    "Scorecard",
    "Segment",
    "Violation",
    "attribute",
    "attribution_blocks",
    "attribution_report",
    "audit_enabled",
    "compare_dirs",
    "compare_scorecards",
    "critical_path",
    "critical_paths",
    "default_store_dir",
    "detect_changepoints",
    "detect_cliffs",
    "detect_counter_bursts",
    "detect_knees",
    "detect_run_anomalies",
    "detect_sweep_anomalies",
    "diff_anomaly_sets",
    "explain_between",
    "explain_changepoint",
    "explain_sweep_anomalies",
    "faults",
    "format_explanation",
    "severity_label",
    "shift_table",
    "top_shift",
    "folded_stacks",
    "format_attribution",
    "load_scorecard",
    "component_bucket",
    "profile_enabled",
    "run_audit",
    "what_if",
    "what_if_all",
    "NullSpanLog",
    "PHASES",
    "SPENT",
    "QuantileSketch",
    "Registry",
    "RunRecord",
    "RunStore",
    "SimProfile",
    "SloTimeline",
    "Span",
    "SpanLog",
    "Telemetry",
    "chrome_trace",
    "current_telemetry",
    "disable",
    "enable",
    "format_breakdown",
    "ledger_state",
    "null_span_log",
    "write_chrome_trace",
]
