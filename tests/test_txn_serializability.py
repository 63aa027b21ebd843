"""Concurrency-correctness checks for FLockTX.

Many coordinators race over a tiny, hot key space; afterwards we audit
the ground truth the OCC + 2PC + replication protocol must preserve:

* **version accounting** — each key's version is exactly 1 (load) plus
  the number of commits that wrote it;
* **atomicity** — a committed multi-key transaction installed *all* its
  writes, an aborted one installed none;
* **replication** — after the cluster drains, every backup holds the
  primary's exact (value, version) for every key;
* **no stuck locks** — all locks are released when the dust settles.
"""

import pytest

from repro.apps.kvstore import partition_of, replicas_of
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


def step_until(sim, event):
    """Step until ``event`` is triggered: the scheduler's periodic processes
    never terminate, so the schedule never drains."""
    while not event.triggered:
        assert sim.step(), "the schedule drained before the event fired"


def build(seed, n_clients=3):
    sim = Simulator()
    cluster = ClusterConfig(n_clients=n_clients, n_servers=3, seed=seed)
    server_hw, client_hw, fabric = build_cluster(sim, cluster)
    cfg = TxnBenchConfig(n_servers=3, subscribers_per_server=40)
    txn_servers = build_txn_servers(cfg, server_hw)
    fcfg = FlockConfig(qps_per_handle=2)
    flock_servers = []
    rkeys = {}
    for s in range(3):
        fnode = FlockNode(sim, server_hw[s], fabric, fcfg)
        txn_servers[s].bind(fnode.fl_reg_handler)
        flock_servers.append(fnode)
        rkeys[s] = txn_servers[s].primary.region.rkey
    coordinators = []
    for c_idx in range(n_clients):
        client = FlockNode(sim, client_hw[c_idx], fabric, fcfg, seed=c_idx)
        handles = {s: client.fl_connect(flock_servers[s], n_qps=2)
                   for s in range(3)}
        transport = FlockTxTransport(client, handles, rkeys, thread_id=0)
        coordinators.append(Coordinator(transport, 3,
                                        coordinator_id=c_idx + 1))
    return sim, txn_servers, coordinators, cfg.n_keys()


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_concurrent_storm_preserves_invariants(seed):
    sim, servers, coordinators, n_keys = build(seed)
    streams = Streams(seed)
    committed_writes = []  # (txn_tag, [keys])

    def storm(coordinator, rng, tag):
        for i in range(40):
            a = rng.randrange(n_keys)
            b = rng.randrange(n_keys)
            if a == b:
                continue
            txn_tag = (tag, i)
            txn = Transaction(reads=[a],
                              writes=[(b, txn_tag)]) if rng.random() < 0.5 \
                else Transaction(writes=[(a, txn_tag), (b, txn_tag)])
            outcome = yield from coordinator.run(txn)
            if outcome == TxnOutcome.COMMITTED:
                committed_writes.append((txn_tag, txn.write_keys))

    procs = []
    for c_idx, coordinator in enumerate(coordinators):
        for k in range(4):  # 4 concurrent coroutines per coordinator
            rng = streams.stream("storm-%d-%d" % (c_idx, k))
            procs.append(sim.spawn(storm(coordinator, rng, tag=(c_idx, k))))
    # Run until every coroutine finishes.
    step_until(sim, sim.all_of(procs))
    sim.run(until=sim.now + 1_000_000)  # let in-flight control traffic land

    total = sum(c.committed + c.aborted + c.lost for c in coordinators)
    committed = sum(c.committed for c in coordinators)
    assert committed > 0
    assert sum(c.lost for c in coordinators) == 0

    # Version accounting: commits per key == version - 1.
    commits_per_key = {}
    for _tag, keys in committed_writes:
        for key in keys:
            commits_per_key[key] = commits_per_key.get(key, 0) + 1
    for key in range(n_keys):
        primary = servers[partition_of(key, 3)].primary
        entry = primary.get(key)
        expected = 1 + commits_per_key.get(key, 0)
        assert entry.version == expected, key

    # Atomicity/integrity: every key's final value is the tag of some
    # *committed* transaction that actually wrote that key — a value from
    # an aborted transaction can never be visible.
    wrote_key = {}
    for tag, keys in committed_writes:
        for key in keys:
            wrote_key.setdefault(key, set()).add(tag)
    for key in range(n_keys):
        primary = servers[partition_of(key, 3)].primary
        value = primary.get(key).value
        if value != 0:  # 0 = initial load
            assert value in wrote_key.get(key, set()), (key, value)

    # No stuck locks anywhere.
    for server in servers:
        for key in server.primary.keys():
            assert server.primary.get(key).lock_owner is None, key

    # Replication: every backup equals its primary.
    for p in range(3):
        primary = servers[p].primary
        for replica_id in replicas_of(p, 3)[1:]:
            backup = servers[replica_id].replicas[p]
            for key in primary.keys():
                entry = primary.get(key)
                copy = backup.get(key)
                assert copy is not None, key
                assert copy.version == entry.version, key
                assert copy.value == entry.value, key


def test_aborted_transactions_leave_no_trace():
    sim, servers, coordinators, n_keys = build(seed=5, n_clients=1)
    coordinator = coordinators[0]
    key = next(k for k in range(n_keys) if partition_of(k, 3) == 0)
    # Pre-lock so the transaction must abort.
    servers[0].primary.try_lock(key, owner=424242)
    outcome_box = []

    def run():
        outcome = yield from coordinator.run(
            Transaction(writes=[(key, "doomed")]))
        outcome_box.append(outcome)

    proc = sim.spawn(run())
    step_until(sim, proc)
    assert outcome_box == [TxnOutcome.ABORTED]
    entry = servers[0].primary.get(key)
    assert entry.value == 0 and entry.version == 1
    # Replicas untouched as well.
    for replica_id in replicas_of(0, 3)[1:]:
        assert servers[replica_id].replicas[0].get(key).value == 0
