"""The Telemetry bundle: one object wiring all three pillars together.

A :class:`Telemetry` owns a live :class:`repro.obs.registry.Registry` and
:class:`repro.obs.span.SpanLog` and installs them onto a simulator
*before* the cluster is built (components fetch their histograms and
decide whether to record spans at construction time, so installation
order matters — the harness runners handle this).  The components'
own ledgers reach the registry once per simulator, when the telemetry
lets go of it: at the next install, or when the registry is read.

A module-level *current telemetry* lets the CLI enable observability for
every figure runner without threading a parameter through each command:
``enable(tel)`` / ``disable()`` set it, and runners consult
``current_telemetry()`` when no explicit telemetry argument is given.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .causal import (
    CriticalPath,
    attribute,
    critical_paths,
    folded_stacks,
    what_if_all,
)
from .registry import Registry
from .span import SpanLog

__all__ = [
    "Telemetry",
    "current_telemetry",
    "disable",
    "enable",
]


class Telemetry:
    """A live metrics registry + span log, installable on simulators.

    ``wants_spans`` declares whether span-level observability (traces,
    breakdowns, attribution) is needed.  Spans only exist in the process
    that recorded them, so a spans-wanting telemetry forces sweeps
    serial; a metrics-only telemetry (``wants_spans=False``) keeps
    ``--jobs`` parallelism because counters and quantile sketches merge
    exactly across worker processes (see
    :meth:`repro.obs.registry.Registry.export_state`).
    """

    def __init__(self, wants_spans: bool = True):
        self.registry = Registry()
        self.spans = SpanLog()
        #: Whether span recording matters to this telemetry's consumer
        #: (False = metrics-only; sweeps may fan out across processes).
        self.wants_spans = wants_spans
        #: Labels of the runs this telemetry has been installed on.
        self.runs = []
        #: The most recently installed simulator — its clock gives the
        #: truncation horizon when live spans are flushed.
        self._sim = None

    def install(self, sim, label: str = "") -> "Telemetry":
        """Attach to ``sim`` (must precede component construction).

        Each installation opens a new run scope in the span log, so a
        sweep over several simulators exports as separate Chrome-trace
        processes.  Spans left unfinished by the *previous* run (work
        stuck on a saturated resource when its simulator stopped) are
        flushed at that run's final clock first, so they land in the
        right run scope with their in-flight waits closed.  The previous
        run's ledgers are folded into the registry the same way (see
        :meth:`repro.obs.registry.Registry.attach`).  Returns self for
        chaining.
        """
        self.flush()
        self.registry.attach(sim)
        sim.metrics = self.registry
        sim.spans = self.spans
        run_label = label or ("run%d" % (len(self.runs) + 1))
        self.spans.new_run(run_label)
        self.runs.append(run_label)
        self._sim = sim
        return self

    def flush(self) -> int:
        """Finish live spans at the current run's clock (see
        :meth:`repro.obs.span.SpanLog.flush`).  Safe to call repeatedly;
        the causal accessors call it so attribution always sees work
        that was still blocked when the run ended."""
        if self._sim is None:
            return 0
        return self.spans.flush(self._sim.now)

    def breakdown(self, name: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Phase-level latency breakdown over all recorded spans."""
        return self.spans.breakdown(name)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The registry snapshot (counters/gauges/histograms)."""
        return self.registry.snapshot()

    # -- causal analysis (repro.obs.causal) -----------------------------

    def critical_paths(self, name: Optional[str] = None,
                       run: Optional[int] = None) -> List[CriticalPath]:
        """Per-RPC critical paths over the recorded spans.

        Flushes live spans first: RPCs still blocked when the run ended
        are the ones most damaged by the bottleneck, and dropping them
        would bias attribution *away* from the collapsed resource.
        """
        self.flush()
        return critical_paths(self.spans, name=name, run=run)

    def attribution(self, name: Optional[str] = None
                    ) -> Dict[str, Dict[str, float]]:
        """Blocked-time attribution table over critical paths."""
        return attribute(self.critical_paths(name=name))

    def what_if(self, name: Optional[str] = None,
                run: Optional[int] = None) -> Dict[str, float]:
        """Upper-bound speedup per resource if its waits were removed."""
        return what_if_all(self.critical_paths(name=name, run=run))

    def folded(self) -> str:
        """Folded-stack (flamegraph.pl / speedscope) text export."""
        return folded_stacks(self.critical_paths())


#: The CLI-installed telemetry runners fall back to (None = disabled).
_current: Optional[Telemetry] = None


def enable(telemetry: Telemetry) -> Telemetry:
    """Make ``telemetry`` the process-wide default for figure runners."""
    global _current
    _current = telemetry
    return telemetry


def disable() -> None:
    """Clear the process-wide default telemetry."""
    global _current
    _current = None


def current_telemetry() -> Optional[Telemetry]:
    """The process-wide default telemetry, or None when disabled."""
    return _current
