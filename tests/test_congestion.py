"""Switched-fabric congestion subsystem: switch queues, ECN/DCQCN, PFC."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GBPS, ClusterConfig, CongestionConfig, NetConfig
from repro.net import DcqcnState, build_cluster
from repro.obs.audit import run_audit
from repro.sim import Simulator

from sim_helpers import run_gen

LINE_RATE = 100 * GBPS  # 12.5 bytes/ns


def congested_cluster(n_clients=4, **congestion_kwargs):
    """(sim, server, clients, fabric) on the switched-fabric model."""
    congestion_kwargs.setdefault("enabled", True)
    cfg = ClusterConfig(
        n_clients=n_clients,
        net=replace(NetConfig(),
                    congestion=CongestionConfig(**congestion_kwargs)))
    sim = Simulator()
    servers, clients, fabric = build_cluster(sim, cfg)
    return sim, servers[0], clients, fabric


def blast(sim, fabric, srcs, dst, n_msgs, nbytes, *, reliable=False,
          gap_ns=0.0):
    """Spawn ``n_msgs`` transfers from each source to ``dst``."""
    def sender(src, base_qpn):
        for i in range(n_msgs):
            if gap_ns:
                yield sim.timeout(gap_ns)
            yield from fabric.transfer(src, dst, nbytes, base_qpn + i, 1,
                                       reliable=reliable)

    for idx, src in enumerate(srcs):
        sim.spawn(sender(src, 1000 * (idx + 1)), name="blast%d" % idx)


class TestSwitchQueue:
    def test_depth_bounded_by_buffer_and_drops_excess(self):
        sim, server, clients, fabric = congested_cluster(
            buffer_bytes=4096, ecn_kmin_bytes=1 << 20, ecn_kmax_bytes=2 << 20)
        blast(sim, fabric, clients, server, n_msgs=20, nbytes=1024)
        sim.run()
        port = fabric.switch.port_for(server.name)
        assert port.peak_depth_bytes <= 4096 + 1e-6
        assert fabric.switch.total_drops > 0
        # Tail drop conserves messages: offered = accepted + dropped.
        assert port.offered_msgs == port.accepted_msgs + port.dropped_msgs

    def test_uncontended_transfer_never_queues(self):
        sim, server, clients, fabric = congested_cluster(buffer_bytes=65536)

        def proc():
            yield from fabric.transfer(clients[0], server, 512, 1, 2)
            return sim.now

        run_gen(sim, proc())
        port = fabric.switch.port_for(server.name)
        assert port.queue_wait_ns == 0.0
        assert fabric.switch.total_drops == 0

    def test_port_utilization_between_zero_and_one(self):
        sim, server, clients, fabric = congested_cluster(buffer_bytes=65536)
        blast(sim, fabric, clients, server, n_msgs=10, nbytes=2048)
        sim.run()
        port = fabric.switch.port_for(server.name)
        assert 0.0 < port.utilization(sim.now) <= 1.0

    def test_n_ports_counts_every_node(self):
        sim, server, clients, fabric = congested_cluster(n_clients=4)
        assert fabric.n_ports == 5


class TestEcnMarking:
    def test_no_marks_below_kmin(self):
        sim, server, clients, fabric = congested_cluster(
            buffer_bytes=4096, ecn_kmin_bytes=1 << 20, ecn_kmax_bytes=2 << 20)
        blast(sim, fabric, clients, server, n_msgs=20, nbytes=1024)
        sim.run()
        assert fabric.switch.total_ecn_marks == 0

    def test_marks_above_kmax(self):
        sim, server, clients, fabric = congested_cluster(
            buffer_bytes=65536, ecn_kmin_bytes=256, ecn_kmax_bytes=512,
            ecn_pmax=1.0)
        blast(sim, fabric, clients, server, n_msgs=20, nbytes=1024)
        sim.run()
        assert fabric.switch.total_ecn_marks > 0

    def test_marks_on_reliable_flows_deliver_cnps_and_throttle(self):
        sim, server, clients, fabric = congested_cluster(
            buffer_bytes=65536, ecn_kmin_bytes=256, ecn_kmax_bytes=512,
            ecn_pmax=1.0)
        blast(sim, fabric, clients, server, n_msgs=20, nbytes=1024,
              reliable=True)
        sim.run()
        assert fabric.switch.total_ecn_marks > 0
        assert fabric.cnps_delivered > 0
        assert any(st.cnps > 0 and st.rate_cuts > 0
                   for st in fabric._dcqcn.values())

    def test_unreliable_flows_get_no_cnps(self):
        sim, server, clients, fabric = congested_cluster(
            buffer_bytes=65536, ecn_kmin_bytes=256, ecn_kmax_bytes=512,
            ecn_pmax=1.0)
        blast(sim, fabric, clients, server, n_msgs=20, nbytes=1024,
              reliable=False)
        sim.run()
        assert fabric.switch.total_ecn_marks > 0
        assert fabric.cnps_delivered == 0


class TestDcqcn:
    def cfg(self, **kw):
        return replace(CongestionConfig(enabled=True), **kw)

    def test_line_rate_flow_is_not_paced(self):
        state = DcqcnState(self.cfg(), LINE_RATE)
        assert not state.throttled
        assert state.send_delay(4096, now=100.0) == 0.0
        assert state.clearance(now=100.0) == 0.0
        assert state._next_allowed == 0.0  # pacing clock untouched

    def test_cnp_cuts_rate_toward_floor(self):
        state = DcqcnState(self.cfg(), LINE_RATE)
        state.on_cnp(now=0.0)
        assert state.throttled
        assert state.rc == pytest.approx(LINE_RATE / 2)
        # Cuts inside the decrease interval coalesce into one event.
        state.on_cnp(now=1.0)
        assert state.rate_cuts == 1
        for t in range(1, 50):
            state.on_cnp(now=t * 20_000.0)
        assert state.rc >= self.cfg().dcqcn_min_rate_bytes_per_ns - 1e-12

    def test_recovery_returns_to_line_rate(self):
        cfg = self.cfg()
        state = DcqcnState(cfg, LINE_RATE)
        state.on_cnp(now=0.0)
        assert state.throttled
        state.maybe_increase(now=1_000_000.0)
        assert not state.throttled
        assert state.rc == LINE_RATE and state.rt == LINE_RATE

    def test_throttled_flow_paces_at_current_rate(self):
        state = DcqcnState(self.cfg(), LINE_RATE)
        state.on_cnp(now=0.0)
        rc = state.rc
        assert state.send_delay(4096, now=0.0) == 0.0
        # The second message must wait for the first's serialization.
        delay = state.send_delay(4096, now=0.0)
        assert delay == pytest.approx(4096 / rc)
        assert state.throttle_ns == pytest.approx(delay)

    def test_clearance_matches_pacing_backlog(self):
        state = DcqcnState(self.cfg(), LINE_RATE)
        state.on_cnp(now=0.0)
        state.send_delay(4096, now=0.0)
        clearance = state.clearance(now=0.0)
        assert clearance == pytest.approx(4096 / state.rc)
        # After waiting out the clearance the flow may post immediately.
        assert state.send_delay(4096, now=clearance) == 0.0


class TestPfc:
    def test_pfc_never_drops_but_pauses(self):
        sim, server, clients, fabric = congested_cluster(
            buffer_bytes=4096, pfc=True, pfc_xoff_bytes=2048,
            pfc_xon_bytes=1024, ecn_kmin_bytes=1 << 20,
            ecn_kmax_bytes=2 << 20)
        blast(sim, fabric, clients, server, n_msgs=20, nbytes=1024,
              reliable=True)
        sim.run()
        sw = fabric.switch
        assert sw.total_drops == 0
        assert sw.total_pause_events > 0
        port = sw.port_for(server.name)
        assert port.offered_msgs == port.accepted_msgs

    def test_pause_blocks_innocent_flow_head_of_line(self):
        sim, server, clients, fabric = congested_cluster(
            buffer_bytes=4096, pfc=True, pfc_xoff_bytes=2048,
            pfc_xon_bytes=1024, ecn_kmin_bytes=1 << 20,
            ecn_kmax_bytes=2 << 20)
        sw = fabric.switch
        port = sw.port_for(server.name)
        # Manufacture a hot server port: backlog drains to XON (so the
        # PAUSE lifts) exactly 10us from now, and client0 is XOFF'd.
        pause_ns = 10_000.0
        port.busy_until = sim.now + pause_ns + sw.cfg.pfc_xon_bytes / sw.rate
        sw._assert_pause(port, clients[0].name)
        assert sw.is_paused(clients[0].name)

        def innocent():
            t0 = sim.now
            yield from fabric.transfer(clients[0], clients[1], 64, 7, 8)
            return sim.now - t0

        # Head-of-line blocking: client1's port is idle, yet the message
        # waits out the PAUSE asserted for the server port.
        elapsed = run_gen(sim, innocent())
        assert elapsed >= pause_ns
        assert not sw.is_paused(clients[0].name)
        # The same message with no PAUSE in force is far faster.
        again = run_gen(sim, innocent())
        assert again < pause_ns / 2


class TestLossByteConservation:
    @given(st.floats(min_value=0.05, max_value=0.95),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=64, max_value=20_000))
    @settings(max_examples=20, deadline=None)
    def test_per_packet_loss_preserves_byte_conservation(
            self, loss_prob, n_msgs, nbytes):
        sim = Simulator()
        servers, clients, fabric = build_cluster(
            sim, ClusterConfig(n_clients=2))
        fabric.loss_prob = loss_prob

        def sender(src, reliable, base_qpn):
            for i in range(n_msgs):
                yield from fabric.transfer(src, servers[0], nbytes,
                                           base_qpn + i, 1,
                                           reliable=reliable)

        sim.spawn(sender(clients[0], True, 100), name="rc")
        sim.spawn(sender(clients[1], False, 200), name="ud")
        sim.run()
        report = run_audit(sim)
        assert report.ok, report.format()

    def test_switch_audit_passes_after_incast(self):
        sim, server, clients, fabric = congested_cluster(
            buffer_bytes=4096, ecn_kmin_bytes=512, ecn_kmax_bytes=1024,
            ecn_pmax=0.5)
        blast(sim, fabric, clients, server, n_msgs=20, nbytes=1024,
              reliable=True)
        sim.run()
        report = run_audit(sim)
        assert report.ok, report.format()
