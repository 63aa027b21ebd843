"""Hybrid-fidelity fabric: transport models, demotion controller, pins.

Covers the three fidelity modes end to end: packet stays the default
(and the kernel stays fidelity-blind — pinned structurally), fluid
conserves exactly what packet conserves on loss-free traffic, dispatches
O(1) events per transfer, and hybrid demotes hot egress ports to the
stepped model and promotes them back after the quiet period.
"""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    ClusterConfig,
    CongestionConfig,
    FIDELITY_ENV,
    FidelityConfig,
    NetConfig,
    resolved_fidelity_mode,
)
from repro.net import FidelityController, FluidModel, PacketModel, build_cluster
from repro.obs.audit import run_audit
from repro.obs.registry import Registry
from repro.sim.core import Simulator


def _cluster(mode, n_clients=4, seed=3, net=None, registry=False):
    """Build a cluster with the fidelity mode pinned (env ignored)."""
    sim = Simulator()
    reg = None
    if registry:
        reg = Registry()
        sim.metrics = reg
    net = net or NetConfig()
    net.fidelity = FidelityConfig(mode=mode, honor_env=False)
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=n_clients, seed=seed, net=net))
    return sim, servers, clients, fabric, reg


def _drive(sim, clients, server, fabric, sizes, rkeys=(), per_client=1):
    """Spawn ``per_client`` workers per client, each sending ``sizes``."""
    for node in clients:
        for w in range(per_client):
            def worker(node=node):
                for nbytes in sizes:
                    yield from fabric.transfer(
                        node, server, nbytes, 1, 2, rkeys=rkeys)
            sim.spawn(worker())
    sim.run()


def _totals(servers, clients, fabric):
    rnics = [n.rnic for n in list(servers) + list(clients)]
    return {
        "delivered": fabric.messages_delivered,
        "dropped": fabric.messages_dropped,
        "tx_msgs": sum(r.messages_tx for r in rnics),
        "rx_msgs": sum(r.messages_rx for r in rnics),
        "tx_bytes": sum(r.bytes_tx for r in rnics),
    }


class TestModeResolution:
    def test_default_is_packet(self, monkeypatch):
        monkeypatch.delenv(FIDELITY_ENV, raising=False)
        assert FidelityConfig().resolved().mode == "packet"
        assert resolved_fidelity_mode() == "packet"

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(FIDELITY_ENV, "fluid")
        assert FidelityConfig().resolved().mode == "fluid"
        assert resolved_fidelity_mode() == "fluid"

    def test_env_ignored_when_not_honored(self, monkeypatch):
        monkeypatch.setenv(FIDELITY_ENV, "hybrid")
        cfg = FidelityConfig(mode="fluid", honor_env=False)
        assert cfg.resolved().mode == "fluid"

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(FIDELITY_ENV, "quantum")
        with pytest.raises(ValueError):
            FidelityConfig().resolved()
        # The scorecard stamp resolves the same way: no silent "packet".
        with pytest.raises(ValueError):
            resolved_fidelity_mode()

    def test_unknown_mode_rejected_at_construction(self):
        with pytest.raises(ValueError):
            FidelityConfig(mode="quantum")

    def test_fabric_models_per_mode(self, monkeypatch):
        monkeypatch.delenv(FIDELITY_ENV, raising=False)
        _, _, _, fab_p, _ = _cluster("packet")
        assert isinstance(fab_p._model, PacketModel)
        assert fab_p.fidelity_controller is None
        _, _, _, fab_f, _ = _cluster("fluid")
        assert isinstance(fab_f._model, FluidModel)
        _, _, _, fab_h, _ = _cluster("hybrid")
        assert fab_h._model is None
        assert isinstance(fab_h.fidelity_controller, FidelityController)


class TestKernelStaysFidelityBlind:
    """Satellite pin: the packet default must be byte-identical because
    the kernel hot loop never learned the feature exists."""

    def test_simulator_run_has_no_fidelity_branches(self):
        src = inspect.getsource(Simulator.run).lower()
        for token in ("fidelity", "fluid", "transport", "demot"):
            assert token not in src, (
                "Simulator.run grew a %r branch — the PR 10 contract is "
                "that fidelity lives entirely in net/" % token)

    def test_event_loop_module_is_fidelity_free(self):
        src = inspect.getsource(inspect.getmodule(Simulator)).lower()
        assert "fidelity" not in src and "fluid" not in src


class TestConservationParity:
    """Satellite 3: on loss-free traffic FluidModel and PacketModel
    conserve exactly the same delivered bytes and messages."""

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=64_000),
                       min_size=1, max_size=6),
        n_clients=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=50),
        with_rkeys=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_fluid_matches_packet(self, sizes, n_clients, seed, with_rkeys):
        rkeys = (11, 12) if with_rkeys else ()
        totals = {}
        for mode in ("packet", "fluid"):
            sim, servers, clients, fabric, _ = _cluster(
                mode, n_clients=n_clients, seed=seed)
            _drive(sim, clients, servers[0], fabric, sizes, rkeys=rkeys)
            totals[mode] = _totals(servers, clients, fabric)
        assert totals["fluid"] == totals["packet"]
        sent = len(sizes) * n_clients
        assert totals["packet"]["delivered"] == sent
        assert totals["packet"]["dropped"] == 0
        assert totals["packet"]["tx_bytes"] == sum(sizes) * n_clients

    def test_uncontended_latency_agrees(self):
        """One stream, no queueing: the fluid analytic pipeline lands on
        the stepped pipeline's clock exactly, not just approximately."""
        ends = {}
        for mode in ("packet", "fluid"):
            sim, servers, clients, fabric, _ = _cluster(mode, n_clients=1)
            _drive(sim, clients[:1], servers[0], fabric, [4096] * 20,
                   rkeys=(7,))
            ends[mode] = sim.now
        assert ends["fluid"] == pytest.approx(ends["packet"], rel=1e-9)


class TestFluidEventEconomy:
    def test_fluid_dispatches_o1_events_per_transfer(self):
        """The point of the fluid model: a multi-packet transfer costs a
        constant number of kernel events instead of per-packet churn."""
        per_client, n_clients = 5, 8
        counts = {}
        for mode in ("packet", "fluid"):
            # a real switch plus QP/MTT-thrashing traffic (distinct QPs
            # and rkeys per message) makes the stepped path pay its true
            # per-packet, per-cache-miss price; the fluid path folds the
            # same work into one consolidated timeout per transfer.
            net = NetConfig(congestion=CongestionConfig(
                enabled=True, honor_env=False))
            sim, servers, clients, fabric, _ = _cluster(
                mode, n_clients=n_clients, net=net)
            for ci, node in enumerate(clients):
                def worker(node=node, ci=ci):
                    for i in range(per_client):
                        q = (ci * per_client + i) % 64 + 10
                        yield from fabric.transfer(
                            node, servers[0], 64 * 1024, q, q + 1000,
                            rkeys=(3 * q, 3 * q + 1, 3 * q + 2))
                sim.spawn(worker())
            sim.run()
            assert fabric.messages_delivered == per_client * n_clients
            counts[mode] = sim.events_processed
        n_transfers = per_client * n_clients
        # spawn + one consolidated timeout + completion per transfer,
        # plus a small constant for the run itself.
        assert counts["fluid"] <= 4 * n_transfers + 16
        assert counts["packet"] >= 4 * counts["fluid"]


def _hotspot_net():
    """A switch tuned so incast heat shows up fast at small scale."""
    return NetConfig(congestion=CongestionConfig(
        enabled=True, honor_env=False, buffer_bytes=10_240,
        ecn_kmin_bytes=2_560, ecn_kmax_bytes=7_680))


class TestHybridDemotion:
    def test_incast_demotes_only_the_hot_port(self):
        sim, servers, clients, fabric, reg = _cluster(
            "hybrid", n_clients=16, net=_hotspot_net(), registry=True)
        _drive(sim, clients, servers[0], fabric, [4096] * 8, per_client=2)
        ctl = fabric.fidelity_controller
        assert ctl.demotions > 0
        snap = fabric.fidelity_snapshot()
        assert snap["mode"] == "hybrid"
        assert servers[0].name in snap["ports"]
        # client egress ports stay fluid: the heat is all on server0.
        assert snap["demoted_ports"] in ([], [servers[0].name])
        for name in snap["ports"]:
            assert name == servers[0].name
        assert reg.counter("fidelity.demotions").value == ctl.demotions

    def test_quiet_port_promotes_back(self):
        sim, servers, clients, fabric, _ = _cluster(
            "hybrid", n_clients=16, net=_hotspot_net())
        server = servers[0]
        _drive(sim, clients, server, fabric, [4096] * 8, per_client=2)
        ctl = fabric.fidelity_controller
        assert ctl.demotions > 0

        def trickle():
            # wait out the hysteresis window, then send one cold message
            yield sim.timeout(ctl.cfg.promote_quiet_ns * 4)
            yield from fabric.transfer(clients[0], server, 64, 1, 2)
        sim.spawn(trickle())
        sim.run()
        assert ctl.promotions > 0
        assert not ctl.ports[server.name].demoted

    def test_cold_hybrid_never_demotes(self):
        sim, servers, clients, fabric, _ = _cluster("hybrid", n_clients=2)
        _drive(sim, clients, servers[0], fabric, [1024] * 4)
        assert fabric.fidelity_controller.demotions == 0
        assert fabric.fidelity_snapshot()["demoted_ports"] == []


class TestAuditsStayClean:
    @pytest.mark.parametrize("mode", ["fluid", "hybrid"])
    def test_auditors_pass(self, mode):
        sim, servers, clients, fabric, reg = _cluster(
            mode, n_clients=8, net=_hotspot_net(), registry=True)
        # sizes stay under the 10 KiB hotspot buffer: a message that can
        # never fit retries forever in either model (whole-message tail
        # drop), which is a property of the tiny buffer, not the models.
        _drive(sim, clients, servers[0], fabric, [4096, 64, 2048],
               rkeys=(3,), per_client=2)
        report = run_audit(sim, reg)
        assert report.ok, report.format()
