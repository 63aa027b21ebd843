"""FLockTX: OCC + 2PC + replication over both transports."""

import pytest

from repro.apps.kvstore import partition_of, replicas_of
from repro.apps.txn import Coordinator, Transaction, TxnOutcome
from repro.harness.txnbench import TxnBenchConfig, build_txn_servers
from repro.baselines import FasstEndpoint, FasstServer
from repro.config import ClusterConfig, FlockConfig
from repro.flock import FlockNode
from repro.apps.txn import FasstTxTransport, FlockTxTransport
from repro.net import build_cluster
from repro.sim import Simulator


def flock_cluster(n_keys=300):
    """3 servers, 1 client, FLockTX wiring; returns everything needed."""
    sim = Simulator()
    cluster = ClusterConfig(n_clients=1, n_servers=3)
    server_hw, client_hw, fabric = build_cluster(sim, cluster)
    cfg = TxnBenchConfig(n_servers=3, subscribers_per_server=n_keys // 3 + 1)
    txn_servers = build_txn_servers(cfg, server_hw)
    fcfg = FlockConfig(qps_per_handle=2)
    flock_servers = []
    version_rkeys = {}
    for s in range(3):
        fnode = FlockNode(sim, server_hw[s], fabric, fcfg)
        txn_servers[s].bind(fnode.fl_reg_handler)
        flock_servers.append(fnode)
        version_rkeys[s] = txn_servers[s].primary.region.rkey
    client = FlockNode(sim, client_hw[0], fabric, fcfg, seed=5)
    handles = {s: client.fl_connect(flock_servers[s], n_qps=2)
               for s in range(3)}
    transport = FlockTxTransport(client, handles, version_rkeys, thread_id=0)
    coordinator = Coordinator(transport, 3, coordinator_id=1)
    return (sim, txn_servers, coordinator, client, handles, version_rkeys,
            flock_servers)


def run_txn(sim, coordinator, txn, until=20_000_000):
    out = []

    def proc():
        outcome = yield from coordinator.run(txn)
        out.append(outcome)

    sim.spawn(proc())
    sim.run(until=until)
    assert out, "transaction did not finish"
    return out[0]


def key_on(txn_servers, server_id, n=3):
    """A key whose primary partition is server_id."""
    for key in range(100000):
        if partition_of(key, n) == server_id:
            return key
    raise AssertionError


class TestCommitPath:
    def test_read_only_single_key(self):
        sim, servers, coord, *_rest = flock_cluster()
        outcome = run_txn(sim, coord, Transaction(reads=[5]))
        assert outcome == TxnOutcome.COMMITTED
        assert coord.committed == 1

    def test_write_commits_at_primary_and_replicas(self):
        sim, servers, coord, *_rest = flock_cluster()
        key = key_on(servers, 0)
        outcome = run_txn(sim, coord, Transaction(writes=[(key, "val-9")]))
        assert outcome == TxnOutcome.COMMITTED
        # Primary applied it.
        assert servers[0].primary.get(key).value == "val-9"
        assert servers[0].primary.get(key).version == 2
        assert servers[0].primary.get(key).lock_owner is None
        # Both backups applied it during logging.
        for replica_id in replicas_of(0, 3)[1:]:
            copy = servers[replica_id].replicas[0]
            assert copy.get(key).value == "val-9"
            assert copy.get(key).version == 2

    def test_multi_partition_transaction(self):
        sim, servers, coord, *_rest = flock_cluster()
        k0 = key_on(servers, 0)
        k1 = key_on(servers, 1)
        outcome = run_txn(sim, coord, Transaction(
            reads=[k0], writes=[(k1, "w")]))
        assert outcome == TxnOutcome.COMMITTED
        assert servers[1].primary.get(k1).value == "w"

    def test_read_write_txn_validates_reads(self):
        sim, servers, coord, *_rest = flock_cluster()
        k_read = key_on(servers, 0)
        k_write = key_on(servers, 1)
        outcome = run_txn(sim, coord, Transaction(
            reads=[k_read], writes=[(k_write, 1)]))
        assert outcome == TxnOutcome.COMMITTED


class TestAbortPath:
    def test_lock_conflict_aborts(self):
        sim, servers, coord, *_rest = flock_cluster()
        key = key_on(servers, 0)
        # Another transaction holds the lock.
        assert servers[0].primary.try_lock(key, owner=999)
        outcome = run_txn(sim, coord, Transaction(writes=[(key, "x")]))
        assert outcome == TxnOutcome.ABORTED
        assert coord.aborted == 1
        # The foreign lock is untouched.
        assert servers[0].primary.get(key).lock_owner == 999

    def test_abort_releases_own_locks_on_other_partitions(self):
        sim, servers, coord, *_rest = flock_cluster()
        k0 = key_on(servers, 0)
        k1 = key_on(servers, 1)
        servers[1].primary.try_lock(k1, owner=999)  # forces abort on s1
        outcome = run_txn(sim, coord, Transaction(
            writes=[(k0, "a"), (k1, "b")]))
        assert outcome == TxnOutcome.ABORTED
        # The lock taken on server 0 during execution was released.
        assert servers[0].primary.get(k0).lock_owner is None
        assert servers[0].primary.get(k0).value == 0  # unchanged

    def test_validation_failure_aborts(self):
        (sim, servers, coord, _client, _handles, _rkeys,
         flock_servers) = flock_cluster()
        k_read = key_on(servers, 0)
        k_write = key_on(servers, 1)
        # Sabotage validation: a "concurrent writer" bumps the read key's
        # version right after the execution phase reads it.
        from repro.apps.txn import RPC_EXEC
        original = servers[0].handle_exec

        def tampering_exec(request):
            result = original(request)
            entry = servers[0].primary.get(k_read)
            servers[0].primary.apply_replica_update(
                k_read, entry.value, entry.version + 1)
            return result

        flock_servers[0].server.handlers[RPC_EXEC] = tampering_exec
        outcome = run_txn(sim, coord, Transaction(
            reads=[k_read], writes=[(k_write, "w")]))
        assert outcome == TxnOutcome.ABORTED
        # The write lock taken on server 1 was released by the abort.
        assert servers[1].primary.get(k_write).lock_owner is None


class TestConcurrency:
    def test_concurrent_writers_serialize(self):
        """Two coordinators hammering one key: all commits are serial —
        the final version equals 1 + committed count."""
        sim, servers, coord, client, handles, rkeys, _fs = flock_cluster()
        coord2 = Coordinator(
            FlockTxTransport(client, handles, rkeys, thread_id=1), 3,
            coordinator_id=2)
        key = key_on(servers, 0)
        outcomes = []

        def proc(c, n):
            for i in range(n):
                outcome = yield from c.run(Transaction(writes=[(key, i)]))
                outcomes.append(outcome)

        sim.spawn(proc(coord, 10))
        sim.spawn(proc(coord2, 10))
        sim.run(until=50_000_000)
        committed = outcomes.count(TxnOutcome.COMMITTED)
        assert len(outcomes) == 20
        assert servers[0].primary.get(key).version == 1 + committed
        assert servers[0].primary.get(key).lock_owner is None


class TestFasstTransport:
    def make(self):
        sim = Simulator()
        cluster = ClusterConfig(n_clients=1, n_servers=3)
        server_hw, client_hw, fabric = build_cluster(sim, cluster)
        cfg = TxnBenchConfig(n_servers=3, subscribers_per_server=100)
        txn_servers = build_txn_servers(cfg, server_hw)
        fasst_servers = []
        for s in range(3):
            fsrv = FasstServer(sim, server_hw[s], fabric, n_workers=2)
            txn_servers[s].bind(fsrv.register_handler)
            fsrv.start()
            fasst_servers.append(fsrv)
        endpoint = FasstEndpoint(sim, client_hw[0], fabric)
        transport = FasstTxTransport(
            endpoint, {s: (fasst_servers[s], fasst_servers[s].qps[0])
                       for s in range(3)})
        return sim, txn_servers, Coordinator(transport, 3, coordinator_id=3)

    def test_commit_over_fasst(self):
        sim, servers, coord = self.make()
        key = key_on(servers, 0)
        outcome = run_txn(sim, coord, Transaction(writes=[(key, "f")]))
        assert outcome == TxnOutcome.COMMITTED
        assert servers[0].primary.get(key).value == "f"

    def test_validation_uses_rpc_not_one_sided(self):
        sim, servers, coord = self.make()
        k_read = key_on(servers, 0)
        k_write = key_on(servers, 1)
        outcome = run_txn(sim, coord, Transaction(
            reads=[k_read], writes=[(k_write, 1)]))
        assert outcome == TxnOutcome.COMMITTED
        assert not coord.transport.supports_one_sided
