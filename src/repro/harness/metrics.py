"""Measurement utilities shared by every experiment.

Every runner drives one :class:`Run`: it creates the simulator, installs
the run's instruments, builds the cluster, spawns the closed-loop
clients, measures a warmup-then-measure virtual-time window and
finishes the result.  Closed-loop workers record per-op
latency into a :class:`Recorder` that only counts completions inside the
measurement window (after warmup); throughput is completed ops per
virtual second.  Everything reports in the paper's units: **Mops** and
**µs**.

``REPRO_BENCH_SCALE`` (env var, default 1.0, floor 0.1) multiplies the
warmup and measurement windows for longer, lower-variance runs (every
runner's but Fig. 11's, see :class:`Run`).
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..config import ClusterConfig
from ..net import build_cluster
from ..obs.anomaly import detect_run_anomalies
from ..obs.audit import AuditError, audit_enabled, run_audit
from ..obs.registry import ledger_state
from ..obs.simprof import SimProfile, profile_enabled
from ..obs.telemetry import current_telemetry
from ..obs.windows import SloTimeline, attach_switch_sources
from ..sim import Simulator, summarize_latencies

__all__ = ["Recorder", "Run", "RunResult", "bench_scale", "closed_loop"]


def bench_scale() -> float:
    """Duration multiplier from the ``REPRO_BENCH_SCALE`` environment
    variable (unset or empty means 1; values below 0.1 clamp to 0.1).
    An unparsable value raises ValueError rather than silently running
    at full scale."""
    raw = os.environ.get("REPRO_BENCH_SCALE") or "1"
    try:
        return max(0.1, float(raw))
    except ValueError:
        raise ValueError("REPRO_BENCH_SCALE=%r is not a number"
                         % raw) from None


class Run:
    """One simulation run's lifecycle, shared by every figure runner.

    Construction creates the :class:`Simulator` and installs the run's
    instruments on it (the telemetry, ``sim.instrumented`` for an
    audited run, then the host-time profiler).  Only then does it build
    ``cluster`` into :attr:`servers`, :attr:`clients` and :attr:`fabric`,
    because components decide at construction whether to keep the
    queue and wait accounting that telemetry and the auditors read.
    The auditors check the components' own ledgers against each other,
    so every audited run runs every check, whatever telemetry it shares.

    Auditing and profiling are the process's switches
    (``REPRO_AUDIT``/``--audit``, ``REPRO_PROFILE``); ``profile``
    overrides the latter for the host-cost benchmark.  ``telemetry``
    overrides the process-wide one
    (:func:`repro.obs.telemetry.enable`), to give one run its own span
    log; of the runners, only ``run_flock``, ``run_raw_reads`` and the
    search's ``run_scenario_leg`` pass one on.
    A run under a telemetry hands its metrics back on its result (see
    :meth:`finish`).  None of the instruments schedules events or draws
    randomness, so they never change simulation results.

    :meth:`run` is the only way a runner enters the event loop, and it
    pauses the cyclic garbage collector for the loop's duration; no
    other code under ``src/`` touches the collector.

    ``scaled=False`` keeps the windows as given instead of multiplying
    them by :func:`bench_scale`, for a runner whose claims need a warmup
    spanning fixed-period scheduler passes.
    """

    def __init__(self, label: str, warmup_ns: float, measure_ns: float,
                 cluster: ClusterConfig, *, scaled: bool = True,
                 telemetry=None, profile: Optional[bool] = None):
        self.sim = sim = Simulator()
        self.telemetry = (telemetry if telemetry is not None
                          else current_telemetry())
        if self.telemetry is not None:
            self.telemetry.install(sim, label=label)
        # Queues and credit states keep the accounting the auditors read
        # only when instrumented, so auditing alone instruments the run
        # (no span overhead).
        self.audited = audit_enabled()
        if self.audited:
            sim.instrumented = True
        scale = bench_scale() if scaled else 1.0
        self.warmup = warmup_ns * scale
        self.measure = measure_ns * scale
        want = profile if profile is not None else profile_enabled()
        self.profile = (SimProfile(self.warmup, self.warmup + self.measure)
                        if want else None)
        self.servers, self.clients, self.fabric = build_cluster(sim, cluster)

    def timeline(self) -> SloTimeline:
        """A fresh SLO timeline over the measurement window, with the
        fabric's switch counters as sources when it has a switch."""
        return attach_switch_sources(
            SloTimeline(self.warmup, self.warmup + self.measure), self.fabric)

    def loops(self, recorder: "Recorder", call, args: tuple, n: int,
              think_ns: float = 0.0, jitter=None) -> None:
        """Spawn ``n`` :func:`closed_loop` threads issuing ``call(*args)``
        into ``recorder``, each drawing its think time from its own
        ``next(jitter)`` stream (no draws when ``jitter`` is None)."""
        sim = self.sim
        for _ in range(n):
            sim.spawn(closed_loop(sim, recorder, call, args, think_ns,
                                  None if jitter is None else next(jitter)))

    def run(self, until: float) -> None:
        """Advance the simulation to ``until``, charging each dispatch to
        the host-time census when profiling (one loop, the same results
        either way).

        The cyclic garbage collector is paused for the loop and put back
        as the caller had it, even when the loop raises.  The loop makes
        no reference cycles (docs/performance.md, "Garbage discipline"),
        so refcounting frees every finished object and a collection
        there would only traverse live in-flight state."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            if self.profile is not None:
                self.sim.run_profiled(self.profile, until=until)
            else:
                self.sim.run(until=until)
        finally:
            if was_enabled:
                gc.enable()

    def window(self, recorders: Iterable["Recorder"]) -> None:
        """Open every recorder's measurement window with its own SLO
        timeline, then run to the end of the window."""
        end = self.warmup + self.measure
        for recorder in recorders:
            recorder.open_window(self.warmup, end)
            recorder.attach_slo(self.timeline())
        self.run(end)

    def finish(self, result: "RunResult") -> "RunResult":
        """Stamp the run's event count, profile report and (under a
        telemetry) metrics on ``result`` and run the auditors; raises
        :class:`repro.obs.audit.AuditError` on any violation."""
        result.host = {"events": self.sim.events_processed}
        if self.profile is not None:
            result.profile = self.profile.report()
        if self.telemetry is not None:
            result.metrics = ledger_state(self.sim)
        if self.audited:
            result.audit_report = run_audit(self.sim)
            if not result.audit_report.ok:
                raise AuditError(result.audit_report)
        return result


class Recorder:
    """Collects completions that fall inside [start, end) virtual time."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.window_start: Optional[float] = None
        self.window_end: Optional[float] = None
        self.ops = 0
        self.latencies_ns: List[float] = []
        self.total_ops = 0
        #: Optional :class:`repro.obs.windows.SloTimeline` fed by
        #: :meth:`record` (passive — never schedules events).
        self.slo_timeline = None

    def open_window(self, start: float, end: float) -> None:
        if end <= start:
            raise ValueError("empty measurement window")
        self.window_start = start
        self.window_end = end

    def attach_slo(self, timeline) -> None:
        """Attach a windowed SLO timeline; every measured completion is
        also observed by the timeline, and :meth:`result` embeds its
        report as ``RunResult.slo``."""
        self.slo_timeline = timeline

    def record(self, started_ns: float) -> None:
        """Record one completed op that began at ``started_ns``."""
        self.total_ops += 1
        now = self.sim.now
        if self.window_start is None or not (self.window_start <= now < self.window_end):
            return
        self.ops += 1
        latency = now - started_ns
        self.latencies_ns.append(latency)
        if self.slo_timeline is not None:
            self.slo_timeline.observe(now, latency)

    def result(self, **extras) -> "RunResult":
        """The run's result; sorts :attr:`latencies_ns` in place."""
        if self.window_start is None:
            raise RuntimeError("measurement window was never opened")
        duration = self.window_end - self.window_start
        slo = (self.slo_timeline.report()
               if self.slo_timeline is not None else None)
        return RunResult(ops=self.ops, duration_ns=duration,
                         latency=summarize_latencies(self.latencies_ns),
                         extras=dict(extras), slo=slo,
                         anomalies=detect_run_anomalies(
                             slo, label=str(extras.get("system", ""))))


def closed_loop(sim: Simulator, recorder: Recorder, call, args: tuple,
                think_ns: float = 0.0, rng=None):
    """One closed-loop application thread, as a process generator.

    Forever: wait a uniform ``[0, think_ns)`` think time drawn from
    ``rng`` (no wait at all when ``think_ns`` is 0), issue
    ``call(*args)`` and record its latency into ``recorder``.  A call
    that returns None lost its request (the UD and eRPC baselines) and
    is not recorded.
    """
    while True:
        if think_ns > 0:
            yield sim.sleep(rng.random() * think_ns)
        started = sim.now
        if (yield from call(*args)) is not None:
            recorder.record(started)


@dataclass
class RunResult:
    """One experiment data point.

    Plain data only: a result pickles as-is across the parallel
    executor's process boundary, metrics included.  The spans of a
    traced run stay in the :class:`repro.obs.telemetry.Telemetry` it ran under.
    """

    ops: int
    duration_ns: float
    latency: Dict[str, float]
    extras: Dict[str, object] = field(default_factory=dict)
    #: End-of-run :class:`repro.obs.audit.AuditReport` (None unless the run
    #: was audited via ``--audit`` / ``REPRO_AUDIT``).
    audit_report: Optional[object] = field(default=None, repr=False)
    #: Windowed SLO timeline report (plain JSON-safe dict from
    #: :meth:`repro.obs.windows.SloTimeline.report`); None when no
    #: timeline was attached.
    slo: Optional[Dict[str, object]] = field(default=None, repr=False)
    #: Anomalies detected on the run's SLO timeline (plain dicts from
    #: :func:`repro.obs.anomaly.detect_run_anomalies`) — changepoints on
    #: per-window p99/goodput, counter bursts.  Empty when no timeline
    #: was attached or nothing fired.
    anomalies: List[dict] = field(default_factory=list, repr=False)
    #: ``{"events": n}``, the events the run dispatched, stamped by
    #: :meth:`Run.finish` (``python -m perf`` reports it as ``events``).
    #: Not part of the jobs-invariance fingerprint; None on a result
    #: :meth:`Run.finish` did not finish.
    host: Optional[Dict[str, int]] = field(default=None, repr=False)
    #: Host-time census (plain dict from
    #: :meth:`repro.obs.simprof.SimProfile.report`); None unless the run
    #: was profiled via ``REPRO_PROFILE`` or ``Run(profile=True)``.
    profile: Optional[Dict[str, object]] = field(default=None, repr=False)
    #: The run's counters, gauges and histograms as a
    #: :meth:`repro.obs.registry.Registry.export_state` state, stamped by
    #: :meth:`Run.finish` when the run had a telemetry; None otherwise.
    #: The CLI folds a sweep's states with ``Registry.merge_state``.
    metrics: Optional[dict] = field(default=None, repr=False)

    @property
    def mops(self) -> float:
        """Throughput in million ops per (virtual) second."""
        if self.duration_ns <= 0:
            return 0.0
        return self.ops / self.duration_ns * 1e3

    @property
    def median_us(self) -> float:
        return self.latency["median"] / 1e3

    @property
    def p99_us(self) -> float:
        return self.latency["p99"] / 1e3

    @property
    def p999_us(self) -> float:
        # .get: legacy latency dicts predate the p999 summary key.
        return self.latency.get("p999", 0.0) / 1e3

    def __repr__(self) -> str:
        return ("RunResult(mops=%.3f, median=%.2fus, p99=%.2fus, ops=%d)"
                % (self.mops, self.median_us, self.p99_us, self.ops))
