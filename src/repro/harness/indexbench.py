"""HydraList-over-RPC benchmarks (paper Figs. 16-18, §8.6).

A single server hosts a HydraList index; 22 client nodes issue 90 % get
and 10 % scan(64) queries over FLock or eRPC.  Scans reply with the
number of keys found as an 8-byte response, exactly as in the paper.
The index is real — lookups and scans run against the actual structure —
while the CPU charged to the server core comes from the index's cost
model, keeping virtual time faithful at simulation speed.

Population defaults to a scaled-down fraction of the paper's 32 M keys;
the cost model depends on the logarithm of the size, so the shape is
insensitive to the scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..apps.hydralist import HydraList
from ..baselines import ErpcEndpoint, ErpcServer
from ..config import ClusterConfig
from ..flock import FlockNode
from ..sim import Streams
from .metrics import Recorder, Run, RunResult
from .microbench import bench_flock_config

__all__ = ["IndexBenchConfig", "run_flock_index", "run_erpc_index"]

RPC_GET = 21
RPC_SCAN = 22

#: 8 B keys and values (paper §8.6).
GET_REQ_BYTES = 16
GET_RESP_BYTES = 8
SCAN_REQ_BYTES = 24
SCAN_RESP_BYTES = 8

#: The paper's op mix: 90 % get, 10 % scan of 64 keys.
GET_FRACTION = 0.90
SCAN_KEYS = 64


@dataclass
class IndexBenchConfig:
    n_clients: int = 22
    threads_per_client: int = 8
    outstanding: int = 1
    n_keys: int = 200_000
    warmup_ns: float = 600_000.0
    measure_ns: float = 500_000.0
    seed: int = 11

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(n_clients=self.n_clients, seed=self.seed)


def build_index(cfg: IndexBenchConfig) -> HydraList:
    """Bulk-load the experiment's HydraList population."""
    index = HydraList(node_capacity=64)
    index.bulk_load((key, key * 3 + 1) for key in range(cfg.n_keys))
    return index


def _handlers(index: HydraList):
    def get_handler(request):
        key = request.payload
        value = index.get(key)
        return GET_RESP_BYTES, value, index.get_cost_ns()

    def scan_handler(request):
        start_key = request.payload
        found = index.scan(start_key, SCAN_KEYS)
        return SCAN_RESP_BYTES, len(found), index.scan_cost_ns(len(found))

    return get_handler, scan_handler


def _worker(sim, recorders: Dict[str, Recorder], call, args: tuple,
            n_keys: int, rng):
    """One closed loop of the op mix: ``call(*args, rpc_id, req_bytes,
    key)`` is the system's RPC, and a call that returned a response is
    recorded under its op."""
    while True:
        key = rng.randrange(n_keys)
        started = sim.now
        if rng.random() < GET_FRACTION:
            op, rpc_id, req_bytes = "get", RPC_GET, GET_REQ_BYTES
        else:
            op, rpc_id, req_bytes = "scan", RPC_SCAN, SCAN_REQ_BYTES
        response = yield from call(*args, rpc_id, req_bytes, key)
        if response is not None:
            recorders[op].record(started)


def _results(run: Run, recorders: Dict[str, Recorder], system: str,
             **extras) -> Dict[str, RunResult]:
    """Per-recorder results plus combined throughput; the run's event
    count, profile, audit report and metrics ride on the ``get``
    result."""
    out = {}
    total_ops = 0
    duration = None
    for name, recorder in recorders.items():
        result = recorder.result(system=system, **extras)
        out[name] = result
        total_ops += result.ops
        duration = result.duration_ns
    out["total_mops"] = total_ops / duration * 1e3 if duration else 0.0
    run.finish(out["get"])
    return out


def run_flock_index(cfg: IndexBenchConfig) -> Dict[str, RunResult]:
    """90 % get / 10 % scan over FLock RPC."""
    run = Run("flock-index", cfg.warmup_ns, cfg.measure_ns,
              cfg.cluster_config())
    sim, fabric = run.sim, run.fabric
    flock_cfg = bench_flock_config()
    index = build_index(cfg)
    server = FlockNode(sim, run.servers[0], fabric, flock_cfg)
    get_handler, scan_handler = _handlers(index)
    server.fl_reg_handler(RPC_GET, get_handler)
    server.fl_reg_handler(RPC_SCAN, scan_handler)

    streams = Streams(cfg.seed)
    recorders = {"get": Recorder(sim), "scan": Recorder(sim)}

    for c_idx, node in enumerate(run.clients):
        fnode = FlockNode(sim, node, fabric, flock_cfg, seed=cfg.seed + c_idx)
        handle = fnode.fl_connect(server, n_qps=cfg.threads_per_client)
        for t_idx in range(cfg.threads_per_client):
            for k in range(cfg.outstanding):
                rng = streams.word_stream("hydra-%d-%d-%d"
                                          % (c_idx, t_idx, k))
                sim.spawn(_worker(sim, recorders, fnode.fl_call,
                                  (handle, t_idx), cfg.n_keys, rng),
                          name="hydra-worker")

    run.window(recorders.values())
    return _results(run, recorders, "flock",
                    server_cpu=round(run.servers[0].cpu.utilization(), 3))


def run_erpc_index(cfg: IndexBenchConfig) -> Dict[str, RunResult]:
    """90 % get / 10 % scan over eRPC."""
    run = Run("erpc-index", cfg.warmup_ns, cfg.measure_ns,
              cfg.cluster_config())
    sim, fabric = run.sim, run.fabric
    index = build_index(cfg)
    server = ErpcServer(sim, run.servers[0], fabric)
    get_handler, scan_handler = _handlers(index)
    server.register_handler(RPC_GET, get_handler)
    server.register_handler(RPC_SCAN, scan_handler)

    streams = Streams(cfg.seed)
    recorders = {"get": Recorder(sim), "scan": Recorder(sim)}
    endpoint_counter = [0]

    for c_idx, node in enumerate(run.clients):
        for t_idx in range(cfg.threads_per_client):
            endpoint = ErpcEndpoint(sim, node, fabric)
            server_qp = server.qp_for_client(endpoint_counter[0])
            endpoint_counter[0] += 1
            for k in range(cfg.outstanding):
                rng = streams.word_stream("hydra-%d-%d-%d"
                                          % (c_idx, t_idx, k))
                sim.spawn(_worker(sim, recorders, endpoint.call,
                                  (server, server_qp), cfg.n_keys, rng),
                          name="hydra-worker")

    run.window(recorders.values())
    return _results(run, recorders, "erpc",
                    server_cpu=round(run.servers[0].cpu.utilization(), 3))

