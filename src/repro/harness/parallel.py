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

One deliberate guard rail:

* **Span observability forces serial.**  Spans accumulate in the
  process-wide :func:`repro.obs.telemetry.current_telemetry` and only exist in
  the process that recorded them; results computed in a worker would
  leave their traces behind.  Rather than silently dropping spans,
  ``run_sweep`` detects a spans-wanting telemetry and runs the sweep
  serially.  A *metrics-only* telemetry
  (``Telemetry(wants_spans=False)``, what the CLI builds for a bare
  ``--metrics``) keeps ``--jobs`` parallelism: each worker runs under a
  metrics-only telemetry of its own, and each run's metrics travel home
  on its result (``RunResult.metrics``) for the CLI to fold in input
  order.

Results are plain data (audit reports, SLO timelines and metrics
states included), so they cross the process boundary as they are.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..obs.telemetry import Telemetry, current_telemetry, enable

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


def _run_point(point: SweepPoint) -> Tuple[str, Any]:
    """Worker-side shim: evaluate one point, return (key, result)."""
    return point.key, point.run()


def run_sweep(points: Sequence[SweepPoint], jobs: int = 1
              ) -> List[Tuple[str, Any]]:
    """Evaluate every point; return ``[(key, result), ...]`` in input
    order — identical for any ``jobs``."""
    points = list(points)
    jobs = default_jobs(jobs)
    tel = current_telemetry()
    if tel is not None and tel.spans.enabled:
        # Spans must accumulate in this process; see module docs.
        jobs = 1
    if jobs <= 1 or len(points) <= 1:
        return [(p.key, p.run()) for p in points]
    with _pool(jobs, len(points), tel is not None) as pool:
        return pool.map(_run_point, points, chunksize=1)


def _init_worker(instrumented: bool) -> None:
    """Instrument the worker's runs as the parent's would be, whether
    the pool forks or spawns."""
    if instrumented:
        enable(Telemetry(wants_spans=False))


def _pool(jobs: int, n_points: int, instrumented: bool):
    """A worker pool sized for the sweep, its workers instrumented when
    ``instrumented``.

    fork shares the warmed-up interpreter and environment on the
    platforms CI runs on; spawn is the portable fallback and works
    because every SweepPoint is pickled either way.  ``multiprocessing``
    is imported here: a serial sweep never loads it.
    """
    import multiprocessing
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context("spawn")
    return ctx.Pool(processes=min(jobs, n_points),
                    initializer=_init_worker, initargs=(instrumented,))
