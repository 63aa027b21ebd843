"""One benchmark run in a fresh process.

``python -m perf.child WORKLOAD OFFSET timed|traced`` runs the workload
once and prints one JSON record as its last line of standard output.

* ``timed``: the runner call with only the event-loop probe installed
  (wall time, set-up time, loop time, events, peak RSS, digest), then
  :data:`SETUP_PASSES` set-up-only calls; ``setup_s`` is the median of
  all the set-ups.
* ``traced``: the profiler calibration, then the runner call with the
  call counters installed and ``REPRO_PROFILE=1`` (set by the parent),
  giving the per-layer census.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

from .probe import (Probe, SetupDone, calibrate, census_layers,
                    component_stats, digest, installed)
from .workloads import run_workload

#: Extra set-up-only runner calls per timed run, after the full call.
SETUP_PASSES = 4


def _probed_call(name: str, offset: int, probe: Probe):
    """``(result, wall_s, setup_s)`` of one runner call under ``probe``;
    the result is None for a set-up-only probe."""
    gc.collect()
    result = None
    with installed(probe):
        t0 = perf_counter()
        try:
            result = run_workload(name, offset)
        except SetupDone:
            pass
        wall_s = perf_counter() - t0
    if probe.first_run is None:
        raise RuntimeError("%s never entered the event loop" % name)
    return result, wall_s, probe.first_run - t0


def _setup_only(name: str, offset: int) -> float:
    return _probed_call(name, offset, Probe(setup_only=True))[2]


def timed(name: str, offset: int) -> dict:
    probe = Probe()
    result, wall_s, setup_s = _probed_call(name, offset, probe)
    record = {
        "wall_s": wall_s,
        "loop_s": probe.loop_s,
        "events": result.host["events"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "digest": digest(result),
        "mops": result.mops,
    }
    del result, probe
    record["setup_s"] = statistics.median(
        [setup_s] + [_setup_only(name, offset) for _ in range(SETUP_PASSES)])
    return record


def traced(name: str, offset: int) -> dict:
    if os.environ.get("REPRO_PROFILE") != "1":
        raise RuntimeError("a traced run needs REPRO_PROFILE=1")
    per_event_ns = calibrate()
    probe = Probe(count_calls=True)
    result, wall_s, _setup_s = _probed_call(name, offset, probe)
    extras = result.extras
    if "committed" in extras:
        total = extras["committed"] + extras["aborted"] + extras["lost"]
        commit_ratio = extras["committed"] / total if total else 0.0
    else:
        commit_ratio = 1.0  # no abort path: every completed op commits
    return {
        "wall_s": wall_s,
        "events": result.host["events"],
        "digest": digest(result),
        "per_event_ns": per_event_ns,
        "layers": census_layers(result.profile),
        "calls": probe.calls,
        "call_ns": probe.call_ns,
        "true_returns": probe.true_returns,
        "components": component_stats(probe.sim),
        "ops": result.ops,
        "commit_ratio": commit_ratio,
    }


def main(argv) -> int:
    name, offset, mode = argv[0], int(argv[1]), argv[2]
    # The runners import lazily; loading them here keeps import time out
    # of the first timed call.
    import repro.harness  # noqa: F401
    record = {"timed": timed, "traced": traced}[mode](name, offset)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
