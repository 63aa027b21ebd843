"""The public Table-2 API surface and config invariants."""

import inspect

import pytest

from repro.config import ClusterConfig, CpuConfig, FlockConfig, NetConfig, NicConfig
from repro.flock import FlockNode
from repro.net import build_cluster
from repro.sim import Simulator


TABLE2_METHODS = [
    "fl_connect",
    "fl_attach_mreg",
    "fl_send_rpc",
    "fl_recv_res",
    "fl_reg_handler",
    "fl_recv_rpc",
    "fl_send_res",
    "fl_read",
    "fl_write",
    "fl_fetch_and_add",
    "fl_cmp_and_swap",
]


class TestTable2Surface:
    def test_all_table2_apis_exist(self):
        """Every API from the paper's Table 2 is present by name."""
        for name in TABLE2_METHODS:
            assert hasattr(FlockNode, name), name
            assert callable(getattr(FlockNode, name))

    def test_every_public_method_documented(self):
        for name, member in inspect.getmembers(FlockNode,
                                               predicate=inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__, "undocumented public API: %s" % name


class TestConfigDefaults:
    def test_paper_constants(self):
        """The defaults are the paper's published parameters."""
        cfg = FlockConfig()
        assert cfg.max_aqp == 256        # §5.1 / §8.1
        assert cfg.credit_batch == 32    # §5.1: C = 32
        assert cfg.credit_renew_threshold == 16  # renew at half
        net = NetConfig()
        assert net.mtu == 4096           # §8.1
        cluster = ClusterConfig()
        assert cluster.n_clients == 23   # 24-node cluster, 1 server
        assert CpuConfig().cores == 32   # AMD 7452

    def test_renew_threshold_within_batch(self):
        cfg = FlockConfig()
        assert 0 < cfg.credit_renew_threshold <= cfg.credit_batch

    def test_max_aqp_below_nic_cache(self):
        """The whole point of MAX_AQP=256: active QPs fit the NIC cache
        (Fig. 2a shows trouble past ~700)."""
        assert FlockConfig().max_aqp < NicConfig().qp_cache_entries

    def test_credits_fit_ring(self):
        """Outstanding messages per QP (bounded by credits) can never
        overflow the request ring."""
        cfg = FlockConfig()
        assert cfg.credit_batch * 2 <= cfg.ring_slots

    def test_bandwidth_is_100gbps(self):
        net = NetConfig()
        assert net.bandwidth_bytes_per_ns == pytest.approx(12.5)


class TestEndpointWiring:
    def test_flock_node_combines_client_and_server(self):
        sim = Simulator()
        servers, clients, fabric = build_cluster(sim,
                                                 ClusterConfig(n_clients=1))
        node = FlockNode(sim, servers[0], fabric)
        assert node.client is not None
        assert node.server is not None
        assert node.mem is not None

    def test_connect_creates_requested_qps(self):
        sim = Simulator()
        servers, clients, fabric = build_cluster(sim,
                                                 ClusterConfig(n_clients=1))
        server = FlockNode(sim, servers[0], fabric)
        client = FlockNode(sim, clients[0], fabric)
        handle = client.fl_connect(server, n_qps=6)
        assert len(handle.channels) == 6
        assert all(ch.client_qp.remote is ch.server_qp
                   for ch in handle.channels)
        # Separate rings per QP, registered on the right nodes.
        for ch in handle.channels:
            assert ch.request_ring.region in [
                server.node.memory.lookup(ch.request_ring.region.rkey)]
            assert clients[0].memory.lookup(ch.response_ring.region.rkey)

    def test_default_qp_pool_size(self):
        sim = Simulator()
        servers, clients, fabric = build_cluster(sim,
                                                 ClusterConfig(n_clients=1))
        cfg = FlockConfig(qps_per_handle=3)
        server = FlockNode(sim, servers[0], fabric, cfg)
        client = FlockNode(sim, clients[0], fabric, cfg)
        handle = client.fl_connect(server)  # n_qps defaults from config
        assert len(handle.channels) == 3

    @pytest.mark.parametrize("n_qps", [0, -1])
    def test_connect_rejects_fewer_than_one_qp(self, n_qps):
        """0 used to fall back to ``qps_per_handle`` and -1 connected no
        QP at all, failing only at the first call."""
        sim = Simulator()
        servers, clients, fabric = build_cluster(sim,
                                                 ClusterConfig(n_clients=1))
        server = FlockNode(sim, servers[0], fabric)
        client = FlockNode(sim, clients[0], fabric)
        with pytest.raises(ValueError, match="n_qps"):
            client.fl_connect(server, n_qps=n_qps)

    def test_two_handles_get_distinct_client_ids(self):
        sim = Simulator()
        servers, clients, fabric = build_cluster(sim,
                                                 ClusterConfig(n_clients=2))
        server = FlockNode(sim, servers[0], fabric)
        a = FlockNode(sim, clients[0], fabric).fl_connect(server, n_qps=1)
        b = FlockNode(sim, clients[1], fabric).fl_connect(server, n_qps=1)
        assert a.client_id != b.client_id
        assert len(server.server.clients) == 2
