"""Extension benchmark: YCSB A/B/C over FLock vs eRPC.

Not a paper figure — the sanity check most readers reach for: a plain
remote key-value service under the standard cloud-serving mixes with
zipfian keys.  The FLock-vs-eRPC gap should mirror the Figs. 6-8 story:
parity at low fan-in is uninteresting, so this runs the high-fan-in
regime where coalescing matters.
"""

from repro.baselines import ErpcEndpoint, ErpcServer
from repro.config import ClusterConfig, FlockConfig
from repro.flock import FlockNode
from repro.net import build_cluster
from repro.sim import Simulator, Streams
from repro.workloads import READ, YcsbWorkload

from conftest import record_table

RPC_GET, RPC_PUT = 31, 32
N_CLIENTS = 16
THREADS = 24
N_KEYS = 50_000
WARMUP, MEASURE = 600_000.0, 500_000.0


def _handlers(store):
    def get_handler(request):
        return 64, store.get(request.payload), 150.0

    def put_handler(request):
        key, value = request.payload
        store[key] = value
        return 8, True, 200.0

    return get_handler, put_handler


def run_flock_ycsb(mix):
    sim = Simulator()
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=N_CLIENTS))
    cfg = FlockConfig(sched_interval_ns=150_000.0,
                      thread_sched_interval_ns=150_000.0)
    store = {k: k for k in range(N_KEYS)}
    server = FlockNode(sim, servers[0], fabric, cfg)
    get_handler, put_handler = _handlers(store)
    server.fl_reg_handler(RPC_GET, get_handler)
    server.fl_reg_handler(RPC_PUT, put_handler)
    streams = Streams(3)
    ops = [0]

    def worker(client, handle, tid, wl):
        while True:
            op, key = wl.next_op()
            if op == READ:
                yield from client.fl_call(handle, tid, RPC_GET, 16, key)
            else:
                yield from client.fl_call(handle, tid, RPC_PUT, 80,
                                          (key, key))
            if sim.now >= WARMUP:
                ops[0] += 1

    for c_idx, node in enumerate(clients):
        client = FlockNode(sim, node, fabric, cfg, seed=c_idx)
        handle = client.fl_connect(server, n_qps=THREADS)
        for tid in range(THREADS):
            wl = YcsbWorkload(mix, N_KEYS,
                              streams.stream("y-%d-%d" % (c_idx, tid)))
            sim.spawn(worker(client, handle, tid, wl))
    sim.run(until=WARMUP + MEASURE)
    return ops[0] / MEASURE * 1e3


def run_erpc_ycsb(mix):
    sim = Simulator()
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=N_CLIENTS))
    store = {k: k for k in range(N_KEYS)}
    server = ErpcServer(sim, servers[0], fabric)
    get_handler, put_handler = _handlers(store)
    server.register_handler(RPC_GET, get_handler)
    server.register_handler(RPC_PUT, put_handler)
    streams = Streams(3)
    ops = [0]

    def worker(endpoint, server_qp, wl):
        while True:
            op, key = wl.next_op()
            if op == READ:
                response = yield from endpoint.call(server, server_qp,
                                                    RPC_GET, 16, key)
            else:
                response = yield from endpoint.call(server, server_qp,
                                                    RPC_PUT, 80, (key, key))
            if response is not None and sim.now >= WARMUP:
                ops[0] += 1

    idx = 0
    for c_idx, node in enumerate(clients):
        for tid in range(THREADS):
            endpoint = ErpcEndpoint(sim, node, fabric)
            server_qp = server.qp_for_client(idx)
            idx += 1
            wl = YcsbWorkload(mix, N_KEYS,
                              streams.stream("y-%d-%d" % (c_idx, tid)))
            sim.spawn(worker(endpoint, server_qp, wl))
    sim.run(until=WARMUP + MEASURE)
    return ops[0] / MEASURE * 1e3


def test_ycsb_mixes():
    results = {mix: (run_flock_ycsb(mix), run_erpc_ycsb(mix))
               for mix in ("A", "B", "C")}
    rows = [[mix, round(flock, 2), round(erpc, 2),
             round(flock / max(erpc, 1e-9), 2)]
            for mix, (flock, erpc) in results.items()]
    record_table(
        "Extension: YCSB A/B/C, zipf 0.99 (%d clients x %d threads)"
        % (N_CLIENTS, THREADS),
        ["mix", "FLock Mops", "eRPC Mops", "ratio"], rows)
    for mix, (flock, erpc) in results.items():
        assert flock > 1.2 * erpc, mix
    # Read-heavier mixes are at least as fast (cheaper handlers).
    assert results["C"][0] >= 0.9 * results["A"][0]
