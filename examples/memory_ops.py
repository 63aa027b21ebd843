#!/usr/bin/env python3
"""One-sided memory and atomic operations through FLock (paper §6).

FLock exposes the full RDMA verb suite — not just RPC.  This example
attaches a memory region to a connection handle and runs:

* ``fl_write``/``fl_read`` — zero-CPU remote reads and writes;
* ``fl_fetch_and_add`` — a distributed counter shared by many threads;
* ``fl_cmp_and_swap`` — a remote spinlock built on compare-and-swap;

all going through the same combining queues as RPC (followers delegate
posting to the leader; one doorbell per batch).

Run:  python examples/memory_ops.py
"""

from repro.config import ClusterConfig, FlockConfig
from repro.flock import FlockNode
from repro.net import build_cluster
from repro.sim import Simulator


def main():
    sim = Simulator()
    servers, clients, fabric = build_cluster(sim, ClusterConfig(n_clients=1))
    cfg = FlockConfig(qps_per_handle=2)
    server = FlockNode(sim, servers[0], fabric, cfg)
    server.fl_reg_handler(1, lambda req: (64, None, 100.0))
    client = FlockNode(sim, clients[0], fabric, cfg, seed=1)
    handle = client.fl_connect(server, n_qps=2)

    region = client.fl_attach_mreg(handle, 1 << 20)
    counter_addr = region.addr
    lock_addr = region.addr + 64
    protected_addr = region.addr + 128

    # 1. Distributed counter: 16 threads each add 10.
    def counter_thread(thread_id):
        for _ in range(10):
            yield from client.fl_fetch_and_add(handle, thread_id,
                                               counter_addr, region.rkey, 1)

    for tid in range(16):
        sim.spawn(counter_thread(tid))
    sim.run(until=20_000_000)
    print("distributed counter after 16 threads x 10 adds: %d"
          % region.words[counter_addr])

    # 2. Remote spinlock via compare-and-swap protecting a remote word.
    acquired_log = []

    def locking_thread(thread_id):
        for _ in range(5):
            # Spin on CAS(0 -> thread_id+1).
            while True:
                wc = yield from client.fl_cmp_and_swap(
                    handle, thread_id, lock_addr, region.rkey, 0,
                    thread_id + 1)
                if wc.payload == 0:
                    break
            acquired_log.append(thread_id)
            # Critical section: unprotected read-modify-write is safe
            # only because we hold the lock.
            wc = yield from client.fl_read(handle, thread_id,
                                           protected_addr, region.rkey, 8)
            value = wc.payload or 0
            region.words[protected_addr] = value + 1
            # Release: CAS(thread_id+1 -> 0).
            yield from client.fl_cmp_and_swap(handle, thread_id, lock_addr,
                                              region.rkey, thread_id + 1, 0)

    for tid in range(4):
        sim.spawn(locking_thread(tid))
    sim.run(until=120_000_000)
    print("remote-spinlock-protected counter: %d (expected 20)"
          % region.words[protected_addr])
    print("lock acquisitions: %d, final lock word: %d (0 = free)"
          % (len(acquired_log), region.words.get(lock_addr, 0)))

    # 3. Throughput effect of batch posting: doorbell batches vs ops.
    total_batches = sum(ch.tcq.messages_sent for ch in handle.channels)
    total_msgs = sum(ch.tcq.requests_sent for ch in handle.channels)
    print("ops posted: %d via %d leader doorbell batches"
          % (total_msgs, total_batches))


if __name__ == "__main__":
    main()
