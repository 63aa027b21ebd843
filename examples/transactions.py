#!/usr/bin/env python3
"""Distributed transactions with FLockTX (paper §8.5).

Builds a 3-server / 4-client cluster with a partitioned, 3-way
replicated key-value store, then runs bank-transfer-style transactions
through the full OCC + 2PC + replication pipeline over FLock: execution
RPCs lock and read, validation uses one-sided ``fl_read`` of version
words, logging replicates to backups, commit installs at the primaries.

Run:  python examples/transactions.py
"""

from repro.apps.txn import (
    Coordinator,
    FlockTxTransport,
    Transaction,
    TxnOutcome,
)
from repro.config import ClusterConfig, FlockConfig
from repro.flock import FlockNode
from repro.harness.txnbench import TxnBenchConfig, build_txn_servers
from repro.net import build_cluster
from repro.sim import Simulator, Streams


def main():
    sim = Simulator()
    n_servers, n_clients = 3, 4
    servers_hw, clients_hw, fabric = build_cluster(
        sim, ClusterConfig(n_clients=n_clients, n_servers=n_servers))

    # Partitioned store: each server is primary for one partition and a
    # backup replica for the other two.
    bench_cfg = TxnBenchConfig(n_servers=n_servers,
                               subscribers_per_server=2_000)
    txn_servers = build_txn_servers(bench_cfg, servers_hw)

    flock_cfg = FlockConfig(qps_per_handle=4)
    flock_servers = []
    version_rkeys = {}
    for s in range(n_servers):
        node = FlockNode(sim, servers_hw[s], fabric, flock_cfg)
        txn_servers[s].bind(node.fl_reg_handler)
        flock_servers.append(node)
        version_rkeys[s] = txn_servers[s].primary.region.rkey

    streams = Streams(seed=42)
    coordinators = []

    def client_main(client_index):
        node = FlockNode(sim, clients_hw[client_index], fabric, flock_cfg,
                         seed=client_index)
        handles = {s: node.fl_connect(flock_servers[s], n_qps=4)
                   for s in range(n_servers)}
        transport = FlockTxTransport(node, handles, version_rkeys,
                                     thread_id=0)
        coordinator = Coordinator(transport, n_servers,
                                  coordinator_id=client_index)
        coordinators.append(coordinator)
        rng = streams.stream("client-%d" % client_index)

        def coroutine():
            for _ in range(100):
                # Transfer: read one account, update two others.
                src = rng.randrange(bench_cfg.n_keys())
                dst_a = rng.randrange(bench_cfg.n_keys())
                dst_b = rng.randrange(bench_cfg.n_keys())
                if len({src, dst_a, dst_b}) < 3:
                    continue
                txn = Transaction(reads=[src],
                                  writes=[(dst_a, rng.random()),
                                          (dst_b, rng.random())])
                yield from coordinator.run(txn)

        for _ in range(5):  # 5 concurrent coroutines hide latency
            sim.spawn(coroutine())

    for c in range(n_clients):
        client_main(c)

    sim.run(until=100_000_000)  # 100 ms virtual

    committed = sum(c.committed for c in coordinators)
    aborted = sum(c.aborted for c in coordinators)
    print("committed: %d   aborted: %d   (abort rate %.2f%%)"
          % (committed, aborted, 100.0 * aborted / max(1, committed + aborted)))
    for s, txn_server in enumerate(txn_servers):
        print("server %d: execs=%d commits=%d replica-logs=%d"
              % (s, txn_server.execs, txn_server.commits, txn_server.logs))
    # Replication check: every committed write is on all three copies.
    sample_key = next(iter(txn_servers[0].primary.keys()))
    versions = [txn_servers[sid].replicas[0].get(sample_key).version
                for sid in range(3)]
    print("key %r version on primary+replicas: %s" % (sample_key, versions))


if __name__ == "__main__":
    main()
