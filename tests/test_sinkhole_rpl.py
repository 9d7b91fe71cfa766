"""Tests for the RPL flavour of the sinkhole attack and its detection."""

import pytest

from repro.attacks.sinkhole import RplSinkholeNode
from repro.core.kalis import KalisNode
from repro.net.packets.rpl import ROOT_RANK
from repro.proto.rpl import RplNode
from repro.sim.engine import Simulator
from repro.util.ids import NodeId


@pytest.fixture
def rpl_world():
    """An RPL DODAG with a sinkhole lying about its rank."""
    sim = Simulator(seed=121)
    root = sim.add_node(
        RplNode(NodeId("border-router"), (0.0, 0.0), is_root=True,
                dio_interval=5.0)
    )
    # A chain: node-0 is a direct child (rank 512); node-1 and node-2
    # sit deeper (ranks 768 / 1024) — the victims a forged root rank
    # can actually out-bid.
    honest = [
        sim.add_node(
            RplNode(NodeId(f"node-{index}"), (25.0 * (index + 1), 0.0),
                    dio_interval=5.0, data_interval=4.0)
        )
        for index in range(3)
    ]
    attacker = sim.add_node(
        RplSinkholeNode(NodeId("sinker"), (55.0, 10.0), dio_interval=3.0)
    )
    return sim, root, honest, attacker


class TestRplSinkholeAttack:
    def test_attacker_attracts_parents(self, rpl_world):
        sim, root, honest, attacker = rpl_world
        sim.run(60.0)
        # Honest nodes adopted the liar: its advertised root rank beats
        # any genuine route.
        adopted = [node for node in honest if node.parent == attacker.node_id]
        assert adopted, "someone must have re-parented onto the sinkhole"

    def test_attracted_traffic_is_swallowed(self, rpl_world):
        sim, root, honest, attacker = rpl_world
        sim.run(90.0)
        assert len(attacker.log) > 0
        # Once a victim re-parents onto the sinkhole its samples stop
        # reaching the root; only pre-takeover deliveries exist.
        victims = {n.node_id for n in honest if n.parent == attacker.node_id}
        assert victims
        takeover_at = attacker.start_delay + 2 * attacker.dio_interval
        for origin, timestamp in root.collected:
            if origin in victims:
                assert timestamp <= takeover_at + 5.0

    def test_kalis_detects_the_forged_root_claim(self, rpl_world):
        sim, root, honest, attacker = rpl_world
        kalis = KalisNode(NodeId("kalis-1"))
        # Positioned to hear both the honest root and the attacker.
        kalis.deploy(sim, position=(28.0, 5.0))
        sim.run(90.0)
        sinkhole_alerts = kalis.alerts.by_attack("sinkhole")
        assert sinkhole_alerts
        assert sinkhole_alerts[0].suspects == (attacker.node_id,)
        assert sinkhole_alerts[0].details["protocol"] == "rpl"
        assert sinkhole_alerts[0].details["established_root"] == "border-router"

    def test_attacker_rank_is_the_roots(self):
        attacker = RplSinkholeNode(NodeId("sinker"), (0.0, 0.0))
        assert attacker.rank == ROOT_RANK
        assert attacker.advertised_rank() == ROOT_RANK
