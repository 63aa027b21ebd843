"""Experiment harness: per-figure runners, metrics, table formatting."""

from .figures import FIGURES, FigureSpec
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
from .parallel import SweepPoint, default_jobs, run_sweep
from .scorecards import (
    scorecard_ablations,
    scorecard_fig2a,
    scorecard_fig2b,
    scorecard_fig9,
    scorecard_fig10,
    scorecard_fig11,
    scorecard_fig12,
    scorecard_fig14,
    scorecard_fig15,
    scorecard_fig16,
    scorecard_incast,
    scorecard_multitenancy,
    scorecards_fig6_7_8,
)
from .tables import format_table, print_table
from .txnbench import (
    TxnBenchConfig,
    build_txn_servers,
    run_fasst_txn,
    run_flocktx,
)

__all__ = [
    "FIGURES",
    "FigureSpec",
    "IncastConfig",
    "IndexBenchConfig",
    "MicrobenchConfig",
    "Recorder",
    "Run",
    "RunResult",
    "SweepPoint",
    "TxnBenchConfig",
    "bench_scale",
    "build_txn_servers",
    "default_jobs",
    "format_table",
    "print_table",
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
    "run_sweep",
    "run_thread_sched",
    "run_ud_rpc",
    "scorecard_ablations",
    "scorecard_fig2a",
    "scorecard_fig2b",
    "scorecard_fig9",
    "scorecard_fig10",
    "scorecard_fig11",
    "scorecard_fig12",
    "scorecard_fig14",
    "scorecard_fig15",
    "scorecard_fig16",
    "scorecard_incast",
    "scorecard_multitenancy",
    "scorecards_fig6_7_8",
]
