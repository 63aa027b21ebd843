"""Parallel sweep executor: fan independent figure points across workers.

Every figure in the reproduction is a *sweep*: a list of independent
(config → RunResult) evaluations whose only shared state is the printed
table at the end.  Each point is a pure function of its arguments and
the inherited environment (``REPRO_BENCH_SCALE``, ``REPRO_AUDIT``, ...):
all randomness comes from seeds carried in the config (or derived via
:meth:`repro.sim.rand.Streams.child` from the point's stable identity),
never from global state.  That purity is the whole contract — it is what
makes ``--jobs N`` output byte-identical to a serial run, regardless of
worker count, scheduling order, or machine.

:func:`run_sweep` is the single entry point.  It takes an ordered list
of :class:`SweepPoint`\\ s and returns their results *in input order*:

* ``jobs <= 1`` (or a single point): run serially in-process — this is
  exactly the code path the pre-parallel harness used, kept as the
  reference semantics.
* ``jobs > 1``: fan the points over a ``multiprocessing`` pool.  Workers
  inherit the environment, execute points with ``chunksize=1`` (sweep
  points have wildly different costs — Fig. 2a's 2816-QP point dwarfs
  its 22-QP point), and ship back :class:`repro.harness.metrics.RunResult`
  payloads (including audit reports) by pickling.

Two deliberate guard rails:

* **Span observability forces serial.**  Spans accumulate in the
  process-wide :func:`repro.obs.current_telemetry` and only exist in
  the process that recorded them; results computed in a worker would
  leave their traces behind.  Rather than silently dropping spans,
  ``run_sweep`` detects a spans-wanting telemetry and runs the sweep
  serially.  A *metrics-only* telemetry
  (``Telemetry(wants_spans=False)``, what the CLI builds for a bare
  ``--metrics``) keeps ``--jobs`` parallelism: every point — serial or
  parallel alike — runs against a fresh per-point registry whose
  exported state (integer counters, exactly-mergeable quantile
  sketches) is folded into the parent registry *in input order*, so the
  merged snapshot is byte-identical for any worker count.
* **Span telemetry never crosses the process boundary.**  Worker
  results are scrubbed (`RunResult.telemetry` is per-process and
  unpicklable); audit reports, SLO timelines, and registry states are
  plain data and travel intact.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..obs import Telemetry, current_telemetry, disable, enable
from .metrics import RunResult

__all__ = ["SweepPoint", "run_sweep", "default_jobs"]

#: Environment override for the default worker count (used by tests and
#: CI to exercise the parallel path without threading a flag through).
JOBS_ENV = "REPRO_JOBS"


@dataclass
class SweepPoint:
    """One independent evaluation in a figure sweep.

    ``key`` is the point's stable identity — it names the point in the
    merged result list and is the natural argument to
    ``Streams.child(key)`` for sweeps that derive per-point seed streams
    rather than carrying explicit seeds in their configs.  ``fn`` must be
    a module-level callable (it crosses the process boundary by pickle).
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


def default_jobs(requested: int = None) -> int:
    """Resolve the worker count: explicit flag > env > serial.  An
    unparsable ``REPRO_JOBS`` raises ValueError rather than silently
    running serially."""
    if requested is not None:
        return max(1, requested)
    env = os.environ.get(JOBS_ENV)
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError("%s=%r is not an integer" % (JOBS_ENV, env)) from None


def _scrub(result: Any) -> Any:
    """Strip per-process telemetry handles before pickling a result.

    Results can be bare :class:`RunResult`\\ s or containers of them (the
    incast and index sweeps return dicts mixing results with scalars).
    """
    if isinstance(result, RunResult):
        result.telemetry = None
        return result
    if isinstance(result, dict):
        return {k: _scrub(v) for k, v in result.items()}
    if isinstance(result, (list, tuple)):
        return type(result)(_scrub(v) for v in result)
    return result


def _run_point(point: SweepPoint) -> Tuple[str, Any]:
    """Worker-side shim: evaluate one point, return (key, result)."""
    return point.key, _scrub(point.run())


def _run_point_fresh(point: SweepPoint) -> Tuple[str, Any, dict]:
    """Evaluate one point against a fresh metrics-only telemetry.

    The point runs with its own registry regardless of which process
    (and in pooled runs, which reused worker) executes it, and the
    registry's exported state travels home with the result.  Folding
    the states in input order makes the parent's merged registry a pure
    function of the point list — the ``--jobs N`` byte-identity
    contract, extended to metrics.  The previously current telemetry is
    restored afterwards (workers are reused across points; leaking a
    point's registry into the next would double-count).
    """
    prev = current_telemetry()
    fresh = enable(Telemetry(wants_spans=False))
    try:
        key, result = _run_point(point)
    finally:
        if prev is not None:
            enable(prev)
        else:
            disable()
    return key, result, fresh.registry.export_state()


def run_sweep(points: Sequence[SweepPoint], jobs: int = 1
              ) -> List[Tuple[str, Any]]:
    """Evaluate every point; return ``[(key, result), ...]`` in input
    order — identical for any ``jobs``."""
    points = list(points)
    jobs = default_jobs(jobs)
    tel = current_telemetry()
    if tel is not None and not getattr(tel, "wants_spans", True):
        return _run_sweep_metrics_only(points, jobs, tel)
    if jobs > 1 and tel is not None:
        # Spans must accumulate in this process; see module docs.
        jobs = 1
    if jobs <= 1 or len(points) <= 1:
        return [(p.key, p.run()) for p in points]
    with _pool(jobs, len(points)) as pool:
        return pool.map(_run_point, points, chunksize=1)


def _run_sweep_metrics_only(points: List[SweepPoint], jobs: int,
                            tel) -> List[Tuple[str, Any]]:
    """The metrics-only sweep path: per-point fresh registries, merged
    into ``tel.registry`` in input order — serial and parallel runs are
    byte-identical (see :func:`_run_point_fresh`)."""
    if jobs <= 1 or len(points) <= 1:
        evaluated = [_run_point_fresh(p) for p in points]
    else:
        with _pool(jobs, len(points)) as pool:
            evaluated = pool.map(_run_point_fresh, points, chunksize=1)
    out = []
    for key, result, state in evaluated:
        tel.registry.merge_state(state)
        out.append((key, result))
    return out


def _pool(jobs: int, n_points: int):
    """A worker pool sized for the sweep.

    fork shares the warmed-up interpreter and environment on the
    platforms CI runs on; spawn is the portable fallback and works
    because every SweepPoint is pickled either way.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context("spawn")
    return ctx.Pool(processes=min(jobs, n_points))
