"""The four benchmark workloads: figure runners at pinned figure points.

Each workload calls an existing :mod:`repro.harness` runner exactly as
its figure does, with the figure's seed plus a seed offset.  ``repro`` is
imported inside the run functions only, so the orchestrating process
(which never simulates) does not need it.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple


class Workload(NamedTuple):
    why: str
    #: The figure's own seed; a run uses ``seed + offset``.
    seed: int
    run: Callable[[int], object]


def _reads_qp_thrash(seed: int):
    from repro.config import ClusterConfig
    from repro.harness.microbench import run_raw_reads
    return run_raw_reads(2816, n_clients=22, outstanding_per_qp=2,
                         warmup_ns=200_000.0, measure_ns=2_000_000.0,
                         cluster=ClusterConfig(seed=seed))


def _flock_coalesce(seed: int):
    from repro.harness.microbench import MicrobenchConfig, run_flock
    return run_flock(MicrobenchConfig(threads_per_client=32, outstanding=8,
                                      seed=seed))


def _txn_tatp(seed: int):
    from repro.harness.txnbench import TxnBenchConfig, run_flocktx
    return run_flocktx(TxnBenchConfig(workload="tatp", threads_per_client=4,
                                      subscribers_per_server=30_000,
                                      seed=seed))


def _incast_dcqcn(seed: int):
    from repro.harness.incastbench import IncastConfig, run_incast_flock
    return run_incast_flock(IncastConfig(measure_ns=1_500_000.0, seed=seed),
                            congested=True)


WORKLOADS: Dict[str, Workload] = {
    "reads_qp_thrash": Workload(
        "Fig. 2a RC READs at 2,816 QPs with the QP cache thrashing: "
        "verbs, rnic, pcie and fabric busy; flock and switch idle",
        1, _reads_qp_thrash),
    "flock_coalesce": Workload(
        "Fig. 10 point (88.89 Mops): coalesced FLock RPCs over RC "
        "WRITEs; flock owns most events; checks the WRITE path",
        1, _flock_coalesce),
    "txn_tatp": Workload(
        "Fig. 14 point (12.10 Mtxn/s): 3 servers, fl_read beside "
        "lock/commit RPCs; its KV population gives the largest setup",
        7, _txn_tatp),
    "incast_dcqcn": Workload(
        "12-to-1 incast, 10 KB switch buffer, ECN/DCQCN on: the only "
        "workload that builds a switch (drops and marks)",
        1, _incast_dcqcn),
}


def run_workload(name: str, offset: int):
    """Run workload ``name`` once at seed offset ``offset``."""
    workload = WORKLOADS[name]
    return workload.run(workload.seed + offset)
