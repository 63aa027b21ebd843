"""Experiment harness: per-figure runners and their run lifecycle.

The package loads what a simulation runs: the run lifecycle
(:mod:`~repro.harness.metrics`) and the runners.  Figure specs, sweeps,
scorecards and tables are imported from their own modules
(:mod:`~repro.harness.figures`, :mod:`~repro.harness.parallel`,
:mod:`~repro.harness.scorecards`, :mod:`~repro.harness.tables`), so a
process that only runs the simulator never loads them.
"""

from .incastbench import IncastConfig, run_incast_flock, run_incast_ud
from .indexbench import IndexBenchConfig, run_erpc_index, run_flock_index
from .metrics import Recorder, Run, RunResult, bench_scale
from .microbench import (
    MicrobenchConfig,
    run_erpc,
    run_flock,
    run_multitenancy,
    run_raw_reads,
    run_rc,
    run_thread_sched,
    run_ud_rpc,
)
from .txnbench import (
    TxnBenchConfig,
    build_txn_servers,
    run_fasst_txn,
    run_flocktx,
)

__all__ = [
    "IncastConfig",
    "IndexBenchConfig",
    "MicrobenchConfig",
    "Recorder",
    "Run",
    "RunResult",
    "TxnBenchConfig",
    "bench_scale",
    "build_txn_servers",
    "run_erpc",
    "run_erpc_index",
    "run_fasst_txn",
    "run_flock",
    "run_flock_index",
    "run_flocktx",
    "run_incast_flock",
    "run_incast_ud",
    "run_multitenancy",
    "run_raw_reads",
    "run_rc",
    "run_thread_sched",
    "run_ud_rpc",
]
