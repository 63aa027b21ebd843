"""Simulation cost census: host time and dispatched events per layer.

Deciding where to spend optimisation effort rests on the *simulator's
own* cost structure: which layer's events dominate event volume and
host wall-clock.  This module measures that instead of assuming it.

:meth:`repro.sim.core.Simulator.run_profiled` brackets every callback
batch with ``perf_counter_ns`` and charges the elapsed host nanoseconds
to the component that owns the callback (``fabric``, ``switch``,
``rnic``, ``pcie``, ``cq``, ``credits``, ``flock``, ``verbs``,
``kernel``, ``app``, ``timers``) and a callback *kind* (``process`` for
generator resumes, ``callback`` for plain event callbacks, ``timer`` for
bare timeouts, ``idle`` for events that fire with no listeners).  The
per-layer ``events`` and ``host_pct`` metrics of ``python -m perf
--trace`` are sums over these buckets.

Classification must not slow the loop down: a callback's owning
component is derived from its code object's filename and **memoized by
code object**, so steady state pays one dict hit per event.  Generator
resumes are special-cased — the interesting owner of a
:class:`~repro.sim.core.Process` resume is the *generator* being
resumed, not the kernel's ``_resume`` trampoline.

Everything here is opt-in (``REPRO_PROFILE=1``, which ``python -m perf
--trace`` sets) and touches neither virtual time nor RNG: a profiled run
produces the exact same simulation results as a plain one, just slower
on the host.
"""

from __future__ import annotations

from typing import Any, Dict

from ..config import env_flag

__all__ = [
    "PROFILE_ENV",
    "SimProfile",
    "component_bucket",
    "profile_enabled",
]

#: Environment switch for the host-time profiler.
PROFILE_ENV = "REPRO_PROFILE"


def profile_enabled(default: bool = False) -> bool:
    """True when ``REPRO_PROFILE`` is set truthy (see
    :func:`repro.config.env_flag`)."""
    return env_flag(PROFILE_ENV, default)


def component_bucket(filename: str) -> str:
    """Map a code object's filename to its owning component bucket.

    The path segments after the ``repro`` package root decide the
    bucket; anything outside the package (tests, workloads, user code)
    is ``app``.
    """
    parts = filename.replace("\\", "/").split("/")
    idx = None
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            idx = i
            break
    if idx is None:
        return "app"
    sub = parts[idx + 1:]
    if not sub:
        return "other"
    head = sub[0]
    leaf = sub[-1]
    if head == "net":
        return "switch" if len(sub) > 1 and sub[1] == "congestion" else "fabric"
    if head == "hw":
        return "pcie" if leaf.startswith("pcie") else "rnic"
    if head == "verbs":
        return "cq" if leaf.startswith("cq") else "verbs"
    if head == "flock":
        return "credits" if leaf.startswith("credits") else "flock"
    if head == "sim":
        return "kernel"
    return "app"


class SimProfile:
    """Accumulator fed by :meth:`Simulator.run_profiled`.

    One instance spans a whole run (warmup + measure + drain) and counts
    every dispatched event; ``[t0, t1)`` records the run's measurement
    span.
    """

    def __init__(self, t0: float, t1: float):
        if t1 <= t0:
            raise ValueError("empty profile measurement span")
        self.t0 = t0
        self.t1 = t1
        #: host ns per ``component;kind`` bucket.
        self.host_ns: Dict[str, int] = {}
        #: dispatched-event count per bucket (whole run).
        self.dispatched: Dict[str, int] = {}
        #: code object -> component bucket memo (the hot-path cache).
        self._code_bucket: Dict[Any, str] = {}

    # -- classification -------------------------------------------------

    def _bucket_of(self, code: Any) -> str:
        bucket = self._code_bucket.get(code)
        if bucket is None:
            bucket = component_bucket(code.co_filename)
            self._code_bucket[code] = bucket
        return bucket

    def classify(self, event: Any, callbacks: Any) -> str:
        """``component;kind`` bucket for one fired event.

        ``callbacks`` is the event's callbacks slot as the loop took it:
        ``None``, one callable, or a list of two or more.  Attribution
        follows the first callback — overwhelmingly the only one —
        because that is who the event wakes: a process resume is
        charged to the resumed generator's module, a plain callback to
        the function's module.  Class names are duck-typed to keep this
        module import-independent of the kernel.

        A process resume walks the generator's ``yield from`` chain to
        the *innermost* active frame: an app-spawned RPC blocked inside
        ``switch.traverse`` is switch cost, not app cost.  That is what
        makes per-layer event counts measurable.
        """
        if not callbacks:
            if type(event).__name__ == "Timeout":
                return "timers;timer"
            return "kernel;idle"
        cb = callbacks[0] if type(callbacks) is list else callbacks
        owner = getattr(cb, "__self__", None)
        gen = getattr(owner, "gen", None)
        if gen is not None:
            sub = getattr(gen, "gi_yieldfrom", None)
            while sub is not None:
                if getattr(sub, "gi_code", None) is None:
                    break
                gen = sub
                sub = getattr(sub, "gi_yieldfrom", None)
            return self._bucket_of(gen.gi_code) + ";process"
        kind = "timer" if type(event).__name__ == "Timeout" else "callback"
        func = getattr(cb, "__func__", cb)
        code = getattr(func, "__code__", None)
        if code is None:
            return "other;" + kind
        return self._bucket_of(code) + ";" + kind

    # -- accounting (called from the instrumented loop) -----------------

    def account(self, event: Any, callbacks: Any, dt_ns: int) -> None:
        """Charge one dispatched event: ``dt_ns`` host nanoseconds spent
        firing it."""
        key = self.classify(event, callbacks)
        self.host_ns[key] = self.host_ns.get(key, 0) + dt_ns
        self.dispatched[key] = self.dispatched.get(key, 0) + 1

    # -- reporting ------------------------------------------------------

    @property
    def total_host_ns(self) -> int:
        return sum(self.host_ns.values())

    def report(self) -> Dict[str, Any]:
        """The census as plain JSON-safe data.

        ``host.buckets`` lists every ``component;kind`` bucket, costliest
        first; ``share`` sums to 1 (±1e-6) whenever any host time was
        recorded."""
        total_ns = self.total_host_ns
        buckets = []
        for key in sorted(self.host_ns,
                          key=lambda k: (-self.host_ns[k], k)):
            ns = self.host_ns[key]
            comp, kind = key.split(";", 1)
            buckets.append({
                "component": comp,
                "kind": kind,
                "ns": ns,
                "share": (ns / total_ns) if total_ns else 0.0,
                "events": self.dispatched.get(key, 0),
            })
        return {"host": {"total_ns": total_ns, "buckets": buckets}}
