"""Measuring the simulator from outside: wrappers, digest, census layers.

Nothing here edits ``src/``.  Counts come from class-level wrappers
around public methods, installed for one runner call and restored after
it; per-layer events and host time come from the runners' own
``REPRO_PROFILE`` event census (:mod:`repro.obs.simprof`).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import statistics
from contextlib import contextmanager
from inspect import isgeneratorfunction
from time import perf_counter, perf_counter_ns
from typing import Dict, Iterator, Optional

#: Wrapped methods: (module, class, method, counter).  Generator methods
#: (one simulated operation each) are counted when called; synchronous
#: ones are also timed, inclusive of whatever they call.
COUNTED = (
    ("repro.sim.core", "Simulator", "spawn", "kernel.spawns"),
    ("repro.sim.core", "Simulator", "timeout", "kernel.timeouts"),
    ("repro.sim.core", "Simulator", "event", "kernel.new_events"),
    ("repro.verbs.qp", "QueuePair", "post_send", "verbs.post_send"),
    ("repro.verbs.cq", "CompletionQueue", "push", "cq.push"),
    ("repro.verbs.cq", "CompletionQueue", "wait_pop", "cq.wait_pop"),
    ("repro.net.fabric", "Fabric", "transfer", "fabric.transfers"),
    ("repro.net.congestion.switch", "Switch", "traverse", "switch.traversals"),
    ("repro.hw.rnic", "Rnic", "tx_process", "rnic.tx"),
    ("repro.hw.rnic", "Rnic", "rx_process", "rnic.rx"),
    ("repro.hw.pcie", "PcieLink", "read", "pcie.reads"),
    ("repro.flock.credits", "CreditState", "try_consume", "credits.consume"),
    ("repro.flock.credits", "CreditState", "on_grant", "credits.grants"),
    ("repro.flock.rpc", "FlockClient", "send_rpc", "flock.rpcs"),
    ("repro.flock.memops", "MemoryOps", "read", "flock.reads"),
)

LAYERS = ("kernel", "verbs", "cq", "fabric", "switch", "rnic", "pcie",
          "credits", "flock", "app")

#: Census buckets that are not a layer of their own.
_BUCKET_LAYER = {"timers": "kernel", "other": "kernel", "flow": "fabric"}

#: The per-layer metrics, in report order: (name, unit, better).
LAYER_METRICS = (
    ("kernel.events", "count", "lower"),
    ("kernel.host_pct", "%", "lower"),
    ("kernel.loop_s", "s", "lower"),
    ("kernel.events_per_s", "1/s", "higher"),
    ("kernel.spawns", "count", "lower"),
    ("kernel.timeouts", "count", "lower"),
    ("kernel.new_events", "count", "lower"),
    ("verbs.events", "count", "lower"),
    ("verbs.host_pct", "%", "lower"),
    ("verbs.post_send", "count", "lower"),
    ("cq.push", "count", "lower"),
    ("cq.wait_pop", "count", "lower"),
    ("cq.host_pct", "%", "lower"),
    ("fabric.events", "count", "lower"),
    ("fabric.host_pct", "%", "lower"),
    ("fabric.transfers", "count", "lower"),
    ("fabric.delivered_ratio", "ratio", "higher"),
    ("switch.events", "count", "lower"),
    ("switch.host_pct", "%", "lower"),
    ("switch.traversals", "count", "lower"),
    ("switch.drop_ratio", "ratio", "lower"),
    ("switch.ecn_marks", "count", "lower"),
    ("switch.pauses", "count", "lower"),
    ("rnic.events", "count", "lower"),
    ("rnic.host_pct", "%", "lower"),
    ("rnic.tx", "count", "lower"),
    ("rnic.rx", "count", "lower"),
    ("rnic.qp_hit_ratio", "ratio", "higher"),
    ("rnic.mtt_hit_ratio", "ratio", "higher"),
    ("pcie.events", "count", "lower"),
    ("pcie.host_pct", "%", "lower"),
    ("pcie.reads", "count", "lower"),
    ("credits.consume", "count", "lower"),
    ("credits.consume_ok_ratio", "ratio", "higher"),
    ("credits.grants", "count", "lower"),
    ("credits.host_pct", "%", "lower"),
    ("flock.events", "count", "lower"),
    ("flock.host_pct", "%", "lower"),
    ("flock.rpcs", "count", "higher"),
    ("flock.reads", "count", "higher"),
    ("flock.coalescing_degree", "rpc/msg", "higher"),
    ("app.events", "count", "lower"),
    ("app.host_pct", "%", "lower"),
    ("app.ops", "count", "higher"),
    ("app.commit_ratio", "ratio", "higher"),
    ("trace_overhead", "ratio", "lower"),
)


class SetupDone(Exception):
    """Raised at the first event-loop entry of a set-up-only pass."""


class Probe:
    """Loop timing for one runner call, plus call counters when
    ``count_calls`` is set.

    ``first_run`` is the ``perf_counter`` reading at the first
    ``Simulator.run``/``run_profiled`` entry (the end of set-up) and
    ``loop_s`` the host seconds spent inside those loops.  With
    ``setup_only`` the first entry raises :class:`SetupDone` instead.
    """

    def __init__(self, count_calls: bool = False, setup_only: bool = False):
        self.count_calls = count_calls
        self.setup_only = setup_only
        self.first_run: Optional[float] = None
        self.loop_s = 0.0
        self.sim = None
        self.calls: Dict[str, int] = {}
        self.call_ns: Dict[str, int] = {}
        self.true_returns: Dict[str, int] = {}

    def _loop(self, orig):
        probe = self

        @functools.wraps(orig)
        def wrapper(sim, *args, **kwargs):
            t0 = perf_counter()
            if probe.first_run is None:
                probe.first_run = t0
                probe.sim = sim
                if probe.setup_only:
                    raise SetupDone()
            try:
                return orig(sim, *args, **kwargs)
            finally:
                probe.loop_s += perf_counter() - t0
        return wrapper

    def _counter(self, orig, key: str):
        calls = self.calls
        calls[key] = 0
        if isgeneratorfunction(orig):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return orig(*args, **kwargs)
        else:
            call_ns = self.call_ns
            true_returns = self.true_returns
            call_ns[key] = true_returns[key] = 0

            def wrapper(*args, **kwargs):
                t0 = perf_counter_ns()
                out = orig(*args, **kwargs)
                call_ns[key] += perf_counter_ns() - t0
                calls[key] += 1
                if out is True:
                    true_returns[key] += 1
                return out
        return functools.wraps(orig)(wrapper)

    def _targets(self):
        from repro.sim.core import Simulator
        for name in ("run", "run_profiled"):
            yield Simulator, name, self._loop
        if self.count_calls:
            for module, cls_name, name, key in COUNTED:
                cls = getattr(importlib.import_module(module), cls_name)
                yield cls, name, functools.partial(self._counter, key=key)


@contextmanager
def installed(probe: Probe) -> Iterator[Probe]:
    """Install ``probe``'s wrappers on their classes; restore the
    original functions on exit, whatever happens inside."""
    saved = []
    try:
        for cls, name, make in probe._targets():
            orig = cls.__dict__[name]
            saved.append((cls, name, orig))
            setattr(cls, name, make(orig))
        yield probe
    finally:
        for cls, name, orig in reversed(saved):
            setattr(cls, name, orig)


def digest(result) -> str:
    """SHA-256 over a run's simulated results.

    Covers ``ops``, ``duration_ns``, ``latency``, ``extras`` without
    ``extras["events"]``, ``slo`` and ``anomalies``; host timings, the
    profile and the event count are left out, so a change that removes
    events without changing what is simulated keeps the digest.
    """
    extras = {k: v for k, v in result.extras.items() if k != "events"}
    doc = {"ops": result.ops, "duration_ns": result.duration_ns,
           "latency": result.latency, "extras": extras,
           "slo": result.slo, "anomalies": result.anomalies}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def calibrate(pairs: int = 7, n: int = 20_000) -> float:
    """Host ns the profiler's brackets add per event, net of the plain
    loop's own per-event cost.

    Times one zero-delay process loop under ``Simulator.run`` and the
    same loop under ``run_profiled``; the difference between the
    profiler's bracketed total and the plain loop's wall time, per
    event, is what every censused event over-states.  Median of
    ``pairs`` alternated measurements.
    """
    from repro.obs.simprof import SimProfile
    from repro.sim import Simulator

    def spin(sim):
        for _ in range(n):
            yield sim.timeout(0)

    samples = []
    for _ in range(pairs):
        sim = Simulator()
        sim.spawn(spin(sim))
        t0 = perf_counter_ns()
        sim.run()
        plain_ns = perf_counter_ns() - t0
        sim = Simulator()
        sim.spawn(spin(sim))
        prof = SimProfile(0.0, 1.0)
        sim.run_profiled(prof)
        samples.append((prof.total_host_ns - plain_ns) / sim.events_processed)
    return statistics.median(samples)


def census_layers(report: dict) -> Dict[str, Dict[str, int]]:
    """Per-layer ``{"events", "host_ns"}`` from a profile report."""
    layers = {name: {"events": 0, "host_ns": 0} for name in LAYERS}
    for bucket in report["host"]["buckets"]:
        comp = bucket["component"]
        layer = layers[_BUCKET_LAYER.get(comp, comp)]
        layer["events"] += bucket["events"]
        layer["host_ns"] += bucket["ns"]
    return layers


def component_stats(sim) -> Dict[str, int]:
    """Cache, delivery, switch and coalescing ledgers summed over the
    components a finished simulator registered."""
    from repro.flock.rpc import FlockClient
    from repro.hw.rnic import Rnic
    from repro.net.congestion.switch import Switch
    from repro.net.fabric import Fabric

    stats = dict.fromkeys(
        ("qp_hits", "qp_misses", "mtt_hits", "mtt_misses", "delivered",
         "offered", "dropped", "ecn_marks", "pauses", "messages",
         "requests"), 0)
    for comp in sim.components:
        if isinstance(comp, Rnic):
            stats["qp_hits"] += comp.qp_cache.stats.hits
            stats["qp_misses"] += comp.qp_cache.stats.misses
            stats["mtt_hits"] += comp.mtt_cache.stats.hits
            stats["mtt_misses"] += comp.mtt_cache.stats.misses
        elif isinstance(comp, Fabric):
            stats["delivered"] += comp.messages_delivered
        elif isinstance(comp, Switch):
            for port in comp.ports.values():
                stats["offered"] += port.offered_msgs
                stats["dropped"] += port.dropped_msgs
                stats["ecn_marks"] += port.ecn_marks
                stats["pauses"] += port.pause_events
        elif isinstance(comp, FlockClient):
            for handle in comp.handles:
                for channel in handle.channels:
                    stats["messages"] += channel.tcq.messages_sent
                    stats["requests"] += channel.tcq.requests_sent
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def corrected_host_ns(layers: Dict[str, Dict[str, int]],
                      per_event_ns: float) -> Dict[str, float]:
    """Each layer's census host time less ``events * per_event_ns``
    (the profiler's bracketing cost), floored at zero."""
    return {name: max(0.0, layer["host_ns"] - layer["events"] * per_event_ns)
            for name, layer in layers.items()}


def layer_metrics(traced: dict, wall_s: float, loop_s: float
                  ) -> Dict[str, float]:
    """The :data:`LAYER_METRICS` values of one traced pass.

    ``traced`` is a traced child's record; ``wall_s`` and ``loop_s`` are
    the untraced medians of the same workload (the loop numbers of a
    traced run are the profiler's, not the program's).
    """
    layers = traced["layers"]
    host = corrected_host_ns(layers, traced["per_event_ns"])
    total_host = sum(host.values())
    calls = traced["calls"]
    comp = traced["components"]
    events = sum(layer["events"] for layer in layers.values())
    out: Dict[str, float] = {}
    for name in LAYERS:
        out[name + ".events"] = layers[name]["events"]
        out[name + ".host_pct"] = 100.0 * _ratio(host[name], total_host)
    out.update({
        "kernel.loop_s": loop_s,
        "kernel.events_per_s": _ratio(events, loop_s),
        "fabric.delivered_ratio": _ratio(comp["delivered"],
                                         calls["fabric.transfers"]),
        "switch.drop_ratio": _ratio(comp["dropped"], comp["offered"]),
        "switch.ecn_marks": comp["ecn_marks"],
        "switch.pauses": comp["pauses"],
        "rnic.qp_hit_ratio": _ratio(comp["qp_hits"],
                                    comp["qp_hits"] + comp["qp_misses"]),
        "rnic.mtt_hit_ratio": _ratio(comp["mtt_hits"],
                                     comp["mtt_hits"] + comp["mtt_misses"]),
        "credits.consume_ok_ratio": _ratio(
            traced["true_returns"]["credits.consume"],
            calls["credits.consume"]),
        "flock.coalescing_degree": _ratio(comp["requests"], comp["messages"]),
        "app.ops": traced["ops"],
        "app.commit_ratio": traced["commit_ratio"],
        "trace_overhead": _ratio(traced["wall_s"], wall_s),
    })
    out.update(calls)
    return {name: out[name] for name, _unit, _better in LAYER_METRICS}
