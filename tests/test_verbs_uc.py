"""Unreliable-connection (UC) transport semantics.

Table 1: UC supports writes and send/recv with a 2 GB limit, but gives
no reads, no atomics, and no hardware reliability — a lost UC write
vanishes silently while the sender still sees a local completion.
"""

import pytest

from repro.config import ClusterConfig
from repro.net import build_cluster
from repro.sim import Simulator
from repro.verbs import QueuePair, Transport, Verb, VerbError, WorkRequest

from sim_helpers import run_gen


@pytest.fixture
def uc_pair(small_cluster):
    sim, server, clients, fabric = small_cluster
    sqp = QueuePair(sim, server, fabric, Transport.UC)
    cqp = QueuePair(sim, clients[0], fabric, Transport.UC)
    cqp.connect(sqp)
    return sim, server, clients[0], fabric, cqp, sqp


class TestUcSemantics:
    def test_uc_write_works(self, uc_pair):
        sim, server, client, fabric, cqp, sqp = uc_pair
        region = server.memory.register(4096)
        landed = []
        region.sink = lambda p, a, l: landed.append(p)

        def proc():
            wc = yield cqp.post_send(WorkRequest(
                verb=Verb.WRITE, length=64, remote_addr=region.addr,
                rkey=region.rkey, payload="uc-data"))
            return wc

        assert run_gen(sim, proc()).ok
        assert landed == ["uc-data"]

    def test_uc_read_rejected(self, uc_pair):
        sim, server, client, fabric, cqp, sqp = uc_pair
        with pytest.raises(VerbError):
            cqp.post_send(WorkRequest(verb=Verb.READ, length=8))

    def test_uc_atomics_rejected(self, uc_pair):
        sim, server, client, fabric, cqp, sqp = uc_pair
        for verb in (Verb.FETCH_ADD, Verb.CMP_SWAP):
            with pytest.raises(VerbError):
                cqp.post_send(WorkRequest(verb=verb, length=8))

    def test_uc_send_recv_works(self, uc_pair):
        sim, server, client, fabric, cqp, sqp = uc_pair
        sqp.post_recv(4096)

        def proc():
            wc = yield cqp.post_send(WorkRequest(verb=Verb.SEND, length=64,
                                                 payload="msg"))
            return wc

        assert run_gen(sim, proc()).ok
        assert sqp.recv_cq.poll()[0].payload == "msg"

    def test_uc_large_messages_allowed(self, uc_pair):
        """UC keeps the 2 GB limit (unlike UD's 4 KB)."""
        sim, server, client, fabric, cqp, sqp = uc_pair
        region = server.memory.register(1 << 21)

        def proc():
            wc = yield cqp.post_send(WorkRequest(
                verb=Verb.WRITE, length=1 << 20, remote_addr=region.addr,
                rkey=region.rkey))
            return wc

        assert run_gen(sim, proc()).ok


class TestUcUnderLoss:
    def test_lost_uc_write_vanishes_silently(self, uc_pair):
        """No hardware retransmission: the payload never lands but the
        sender still completes locally — the application's problem."""
        sim, server, client, fabric, cqp, sqp = uc_pair
        fabric.loss_prob = 1.0
        region = server.memory.register(4096)
        landed = []
        region.sink = lambda p, a, l: landed.append(p)

        def proc():
            wc = yield cqp.post_send(WorkRequest(
                verb=Verb.WRITE, length=64, remote_addr=region.addr,
                rkey=region.rkey, payload="ghost"))
            return wc

        wc = run_gen(sim, proc())
        assert wc.ok            # sender-side completion regardless
        assert landed == []     # but nothing arrived
        assert fabric.messages_dropped == 1

    def test_rc_write_always_lands(self, small_cluster):
        """Contrast: the same write over RC retransmits and lands."""
        sim, server, clients, fabric = small_cluster
        fabric.loss_prob = 1.0
        sqp = QueuePair(sim, server, fabric, Transport.RC)
        cqp = QueuePair(sim, clients[0], fabric, Transport.RC)
        cqp.connect(sqp)
        region = server.memory.register(4096)
        landed = []
        region.sink = lambda p, a, l: landed.append(p)

        def proc():
            wc = yield cqp.post_send(WorkRequest(
                verb=Verb.WRITE, length=64, remote_addr=region.addr,
                rkey=region.rkey, payload="persistent"))
            return wc

        assert run_gen(sim, proc()).ok
        assert landed == ["persistent"]
