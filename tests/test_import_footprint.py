"""What a simulation process loads: ``import repro.harness`` brings in the
simulator and its runners, not the reporting, scoring or sweep code.

Every check runs in a fresh interpreter, so modules the test session has
already imported cannot hide a regression.
"""

import json
import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules no simulation run executes: process pools, IPC and CLI
#: parsing, plus the analysis, reporting and search code.
NOT_LOADED = (
    "multiprocessing",
    "concurrent.futures",
    "subprocess",
    "socket",
    "pickle",
    "argparse",
    "repro.harness.figures",
    "repro.harness.scorecards",
    "repro.harness.parallel",
    "repro.harness.cli",
    "repro.obs.causal",
    "repro.obs.explain",
    "repro.obs.export",
    "repro.obs.benchstore",
    "repro.obs.runstore",
    "repro.obs.scorecard",
    "repro.search",
)


def fresh_python(code: str):
    """Run ``code`` in a new interpreter with ``src`` on its path and
    return the JSON value it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_harness_import_skips_reporting_and_sweep_code():
    loaded = fresh_python("""
        import json, sys
        import repro.harness
        print(json.dumps(sorted(sys.modules)))
    """)
    assert [m for m in NOT_LOADED if m in loaded] == []


def test_runs_import_nothing_after_the_harness():
    """A runner call loads no module, so none of its import cost lands in
    a timed call (``perf.child`` imports ``repro.harness`` before it
    starts the clock)."""
    added = fresh_python("""
        import json, sys
        import repro.harness as h
        from repro.config import ClusterConfig

        before = set(sys.modules)
        h.run_raw_reads(44, n_clients=2, outstanding_per_qp=1,
                        warmup_ns=5_000.0, measure_ns=10_000.0,
                        cluster=ClusterConfig(seed=1))
        h.run_flock(h.MicrobenchConfig(
            n_clients=2, threads_per_client=2, outstanding=2,
            warmup_ns=5_000.0, measure_ns=10_000.0))
        h.run_flocktx(h.TxnBenchConfig(
            n_clients=2, threads_per_client=1, coroutines_per_thread=2,
            subscribers_per_server=50, warmup_ns=5_000.0,
            measure_ns=10_000.0))
        h.run_incast_flock(h.IncastConfig(
            n_senders=2, threads_per_client=2, warmup_ns=5_000.0,
            measure_ns=10_000.0), congested=True)
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    assert added == []
