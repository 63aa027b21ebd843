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
and CLI usage.  The package re-exports nothing: import each name from
the module that defines it, so a run loads only the modules it uses.
"""
