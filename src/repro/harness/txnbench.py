"""FLockTX vs FaSST transaction benchmarks (paper Figs. 14-15, §8.5).

Topology per the paper: 3 server nodes with 3-way primary-backup
replication (each server is primary for one partition and backup for the
other two) and 20 client nodes.  Each client thread runs a pool of
coroutines that submit transactions concurrently — hiding network
latency the way FaSST does.  For FaSST fidelity, each client thread
peers with one server thread (its UD QP); FLockTX lets the QP scheduler
multiplex threads over at most MAX_AQP connections.

Population sizes default to a scaled-down fraction of the paper's (1 M
subscribers / 100 k accounts per thread) so a full sweep runs in
minutes; shapes are population-insensitive because contention is ruled
by the *skew*, which is preserved exactly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List

from ..apps.kvstore import KvPartition, partition_of, replicas_of
from ..apps.txn import (
    Coordinator,
    FasstTxTransport,
    FlockTxTransport,
    TxnOutcome,
    TxnServer,
)
from ..baselines import FasstEndpoint, FasstServer
from ..config import ClusterConfig
from ..flock import FlockNode
from ..sim import RandomSource, Streams
from ..workloads import SmallbankWorkload, TatpWorkload
from .metrics import Recorder, Run, RunResult
from .microbench import bench_flock_config

__all__ = ["TxnBenchConfig", "run_flocktx", "run_fasst_txn",
           "build_txn_servers"]


@dataclass
class TxnBenchConfig:
    """Knobs of the transaction experiments."""

    workload: str = "tatp"  # "tatp" | "smallbank"
    n_clients: int = 20
    n_servers: int = 3
    threads_per_client: int = 4
    #: Concurrent transactions per thread (paper: 19 submit coroutines).
    coroutines_per_thread: int = 19
    #: Scaled-down population (paper: 1M subscribers / 100k accounts).
    subscribers_per_server: int = 30_000
    accounts_per_thread: int = 10_000
    warmup_ns: float = 800_000.0
    measure_ns: float = 800_000.0
    seed: int = 7

    def __post_init__(self):
        if self.workload not in ("tatp", "smallbank"):
            raise ValueError("workload must be 'tatp' or 'smallbank', not %r"
                             % (self.workload,))
        for name in ("coroutines_per_thread", "subscribers_per_server",
                     "accounts_per_thread"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1, not %r"
                                 % (name, getattr(self, name)))

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(n_clients=self.n_clients,
                             n_servers=self.n_servers, seed=self.seed)

    def n_accounts(self) -> int:
        """Smallbank accounts (each has a checking and a savings key)."""
        return max(4, self.accounts_per_thread * self.threads_per_client)

    def n_keys(self) -> int:
        if self.workload == "tatp":
            return self.n_servers * self.subscribers_per_server
        return 2 * self.n_accounts()

    def make_workload(self, rng: RandomSource):
        if self.workload == "tatp":
            return TatpWorkload(self.n_servers, rng,
                                subscribers_per_server=self.subscribers_per_server)
        return SmallbankWorkload(self.n_accounts(), rng)


def build_txn_servers(cfg: TxnBenchConfig, server_nodes) -> List[TxnServer]:
    """Partitioned, 3-way-replicated stores + TxnServer per node."""
    n = cfg.n_servers
    # One loaded population per partition, shared by its three copies.
    # Its keys increase, which fixes each primary's version-word layout.
    populations = [array("q") for _ in range(n)]
    for key in range(cfg.n_keys()):
        populations[partition_of(key, n)].append(key)
    # copies[(partition, server)] -> KvPartition instance on that server.
    copies: Dict[tuple, KvPartition] = {}
    for p in range(n):
        for s in replicas_of(p, n):
            region = None
            if s == p:
                # Primary publishes version words for one-sided validation.
                region = server_nodes[s].memory.register(
                    (cfg.n_keys() + 1024) * 8)
            copies[(p, s)] = KvPartition(p, region=region,
                                         population=populations[p])
    servers = []
    for s in range(n):
        primary = copies[(s, s)]
        replicas = {p: copies[(p, s)] for p in range(n)
                    if (p, s) in copies}
        servers.append(TxnServer(s, primary, replicas))
    return servers


def _spawn_coordinators(sim, cfg: TxnBenchConfig, recorder: Recorder,
                        make_transport, streams: Streams,
                        coordinators: List[Coordinator]) -> None:
    """Client side shared by both systems."""
    coord_id = [0]

    def coroutine(coordinator, next_txn):
        while True:
            txn = next_txn()
            started = sim.now
            outcome = yield from coordinator.run(txn)
            if outcome == TxnOutcome.COMMITTED:
                recorder.record(started)

    for c_idx in range(cfg.n_clients):
        for t_idx in range(cfg.threads_per_client):
            transport = make_transport(c_idx, t_idx)
            coordinator = Coordinator(transport, cfg.n_servers,
                                      coordinator_id=coord_id[0])
            coord_id[0] += 1
            coordinators.append(coordinator)
            for k in range(cfg.coroutines_per_thread):
                rng = streams.word_stream("wl-%d-%d-%d" % (c_idx, t_idx, k))
                workload = cfg.make_workload(rng)
                sim.spawn(coroutine(coordinator, workload.next_txn),
                          name="txn-coroutine")


def _result(run: Run, recorder: Recorder, coordinators: List[Coordinator],
            **extras) -> RunResult:
    committed = sum(c.committed for c in coordinators)
    aborted = sum(c.aborted for c in coordinators)
    lost = sum(c.lost for c in coordinators)
    total = max(1, committed + aborted + lost)
    return run.finish(recorder.result(
        committed=committed, aborted=aborted, lost=lost,
        abort_rate=round(aborted / total, 4),
        loss_rate=round(lost / total, 6),
        **extras,
    ))


def run_flocktx(cfg: TxnBenchConfig) -> RunResult:
    """FLockTX: the transaction protocol over FLock RPC + fl_read."""
    run = Run("flocktx", cfg.warmup_ns, cfg.measure_ns, cfg.cluster_config())
    sim, fabric = run.sim, run.fabric
    server_hw, client_hw = run.servers, run.clients
    flock_cfg = bench_flock_config()
    txn_servers = build_txn_servers(cfg, server_hw)
    flock_servers = []
    version_rkeys: Dict[int, int] = {}
    for s in range(cfg.n_servers):
        fnode = FlockNode(sim, server_hw[s], fabric, flock_cfg)
        # Paper §8.5.2: "each client and server use an equal number of
        # threads" — the server-side worker pool matches, for both
        # systems, rather than using every core.
        fnode.server.set_n_workers(cfg.threads_per_client)
        txn_servers[s].bind(fnode.fl_reg_handler)
        flock_servers.append(fnode)
        version_rkeys[s] = txn_servers[s].primary.region.rkey

    streams = Streams(cfg.seed)
    recorder = Recorder(sim)
    coordinators: List[Coordinator] = []
    client_fnodes = []
    for c_idx in range(cfg.n_clients):
        fnode = FlockNode(sim, client_hw[c_idx], fabric, flock_cfg,
                          seed=cfg.seed + c_idx)
        handles = {s: fnode.fl_connect(flock_servers[s],
                                       n_qps=cfg.threads_per_client)
                   for s in range(cfg.n_servers)}
        client_fnodes.append((fnode, handles))

    def make_transport(c_idx, t_idx):
        fnode, handles = client_fnodes[c_idx]
        return FlockTxTransport(fnode, handles, version_rkeys, t_idx)

    _spawn_coordinators(sim, cfg, recorder, make_transport, streams,
                        coordinators)
    run.window([recorder])
    return _result(run, recorder, coordinators, system="flocktx",
                   server_cpu=round(server_hw[0].cpu.utilization(), 3))


def run_fasst_txn(cfg: TxnBenchConfig) -> RunResult:
    """The same protocol over FaSST-style UD RPCs (two-sided only)."""
    run = Run("fasst", cfg.warmup_ns, cfg.measure_ns, cfg.cluster_config())
    sim, fabric = run.sim, run.fabric
    server_hw, client_hw = run.servers, run.clients
    txn_servers = build_txn_servers(cfg, server_hw)
    fasst_servers = []
    for s in range(cfg.n_servers):
        fsrv = FasstServer(sim, server_hw[s], fabric,
                           n_workers=max(cfg.threads_per_client, 1))
        txn_servers[s].bind(fsrv.register_handler)
        fsrv.start()
        fasst_servers.append(fsrv)

    streams = Streams(cfg.seed)
    recorder = Recorder(sim)
    coordinators: List[Coordinator] = []

    def make_transport(c_idx, t_idx):
        endpoint = FasstEndpoint(sim, client_hw[c_idx], fabric)
        servers = {
            s: (fasst_servers[s], fasst_servers[s].qps[t_idx
                                                       % len(fasst_servers[s].qps)])
            for s in range(cfg.n_servers)
        }
        return FasstTxTransport(endpoint, servers)

    _spawn_coordinators(sim, cfg, recorder, make_transport, streams,
                        coordinators)
    run.window([recorder])
    return _result(run, recorder, coordinators, system="fasst",
                   server_cpu=round(server_hw[0].cpu.utilization(), 3),
                   recv_drops=sum(f.recv_drops for f in fasst_servers))

