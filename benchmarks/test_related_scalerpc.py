"""Related-work comparison (paper §10): FLock vs ScaleRPC time-sharing.

ScaleRPC bounds hot QP state by serving one connection group per time
slice; the paper's critique is the "additional coordination ...
increasing tail latency".  Same offered load, same RC write-based data
path: FLock's always-on scheduled QPs vs 4-group time sharing.
"""

from repro.baselines import ScaleRpcClient, ScaleRpcServer
from repro.config import ClusterConfig, FlockConfig
from repro.flock import FlockNode
from repro.net import build_cluster
from repro.sim import Simulator, summarize_latencies

from conftest import record_table

N_CLIENTS = 8
THREADS = 8
REQS = 80
N_GROUPS = 4
SLICE_NS = 25_000.0


def run_scalerpc():
    sim = Simulator()
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=N_CLIENTS))
    server = ScaleRpcServer(sim, servers[0], fabric, n_groups=N_GROUPS,
                            slice_ns=SLICE_NS)
    server.register_handler(1, lambda req: (64, None, 100.0))
    latencies = []

    def worker(client, handle, tid):
        for _ in range(REQS):
            started = sim.now
            yield from client.call(handle, tid, 1, 64)
            latencies.append(sim.now - started)

    for node in clients:
        client = ScaleRpcClient(sim, node, fabric)
        handle = client.connect(server, n_qps=THREADS, threads_per_qp=1)
        for tid in range(THREADS):
            sim.spawn(worker(client, handle, tid))
    sim.run(until=400_000_000)
    return latencies


def run_flock():
    sim = Simulator()
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=N_CLIENTS))
    cfg = FlockConfig(qps_per_handle=THREADS)
    server = FlockNode(sim, servers[0], fabric, cfg)
    server.fl_reg_handler(1, lambda req: (64, None, 100.0))
    latencies = []

    def worker(client, handle, tid):
        for _ in range(REQS):
            started = sim.now
            yield from client.fl_call(handle, tid, 1, 64)
            latencies.append(sim.now - started)

    for c_idx, node in enumerate(clients):
        client = FlockNode(sim, node, fabric, cfg, seed=c_idx)
        handle = client.fl_connect(server, n_qps=THREADS)
        for tid in range(THREADS):
            sim.spawn(worker(client, handle, tid))
    sim.run(until=400_000_000)
    return latencies


def test_scalerpc_tail_penalty():
    scalerpc_lat, flock_lat = run_scalerpc(), run_flock()
    s = summarize_latencies(scalerpc_lat)
    f = summarize_latencies(flock_lat)
    record_table(
        "Related work (§10): FLock vs ScaleRPC (%d groups, %dus slices)"
        % (N_GROUPS, int(SLICE_NS / 1e3)),
        ["system", "ops", "median us", "p99 us"],
        [["ScaleRPC", s["count"], round(s["median"] / 1e3, 2),
          round(s["p99"] / 1e3, 2)],
         ["FLock", f["count"], round(f["median"] / 1e3, 2),
          round(f["p99"] / 1e3, 2)]],
    )
    assert s["count"] == f["count"] == N_CLIENTS * THREADS * REQS
    # Time-sharing's coordination shows up in the tail (§10).
    assert s["p99"] > 2 * f["p99"]
