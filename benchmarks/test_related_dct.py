"""Related-work comparison (paper §10): FLock vs Mellanox DCT.

DCT also bounds connection counts, but by creating/destroying
connections dynamically; prior work (cited in §10) found that
"frequently switching a connection to communicate with multiple remote
machines leads to performance degradation".  This bench has client
threads fan out across 3 servers round-robin and compares DCT (connect
handshake per switch) against FLock's persistent handle pool.
"""

from repro.baselines import DctEndpoint, RcRpcServer
from repro.config import ClusterConfig, FlockConfig
from repro.flock import FlockNode
from repro.net import build_cluster
from repro.sim import Simulator

from conftest import record_table

N_SERVERS = 3
N_CLIENTS = 8
THREADS = 8
REQS = 60


def run_dct():
    sim = Simulator()
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=N_CLIENTS, n_servers=N_SERVERS))
    rc_servers = []
    for node in servers:
        server = RcRpcServer(sim, node, fabric)
        server.register_handler(1, lambda req: (64, None, 100.0))
        rc_servers.append(server)
    latencies = []

    def worker(endpoint):
        for i in range(REQS):
            target = i % N_SERVERS
            started = sim.now
            yield from endpoint.call(target, rc_servers[target], 1, 64)
            latencies.append(sim.now - started)

    endpoints = []
    for node in clients:
        for _t in range(THREADS):
            endpoint = DctEndpoint(sim, node, fabric)
            endpoints.append(endpoint)
            sim.spawn(worker(endpoint))
    sim.run(until=400_000_000)
    switches = sum(e.switches for e in endpoints)
    return latencies, switches


def run_flock():
    sim = Simulator()
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=N_CLIENTS, n_servers=N_SERVERS))
    cfg = FlockConfig(qps_per_handle=THREADS)
    flock_servers = []
    for node in servers:
        fnode = FlockNode(sim, node, fabric, cfg)
        fnode.fl_reg_handler(1, lambda req: (64, None, 100.0))
        flock_servers.append(fnode)
    latencies = []

    def worker(client, handles, tid):
        for i in range(REQS):
            target = i % N_SERVERS
            started = sim.now
            yield from client.fl_call(handles[target], tid, 1, 64)
            latencies.append(sim.now - started)

    for c_idx, node in enumerate(clients):
        client = FlockNode(sim, node, fabric, cfg, seed=c_idx)
        handles = [client.fl_connect(s, n_qps=THREADS)
                   for s in flock_servers]
        for tid in range(THREADS):
            sim.spawn(worker(client, handles, tid))
    sim.run(until=400_000_000)
    return latencies


def test_dct_switching_penalty():
    dct_lat, switches = run_dct()
    flock_lat = run_flock()
    dct_mean = sum(dct_lat) / len(dct_lat)
    flock_mean = sum(flock_lat) / len(flock_lat)
    record_table(
        "Related work (§10): FLock vs DCT, threads alternating 3 servers",
        ["system", "mean latency us", "ops", "reconnects"],
        [["DCT", round(dct_mean / 1e3, 2), len(dct_lat), switches],
         ["FLock", round(flock_mean / 1e3, 2), len(flock_lat), 0]],
    )
    assert len(dct_lat) == len(flock_lat) == N_CLIENTS * THREADS * REQS
    # Every target switch reconnects; the penalty shows in mean latency.
    assert switches > 0
    assert dct_mean > flock_mean + 1_000.0
