"""Tests for the attack library: each attacker produces its documented
observable behaviour and honest ground truth."""

import pytest

from repro.attacks import (
    AlteringMote,
    BlackholeMote,
    HelloFloodNode,
    IcmpFloodAttacker,
    ReplicaMeshNode,
    ReplicaMote,
    SelectiveForwardingMote,
    SinkholeMote,
    SmurfAttacker,
    SpoofingNode,
    SybilNode,
    SynFloodAttacker,
    WormholePair,
)
from repro.devices.wsn import TelosbMote
from repro.net.packets.icmp import IcmpMessage, IcmpType
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.net.packets.ip import IpPacket
from repro.net.packets.tcp import TcpSegment
from repro.proto.iphost import IpHost, LanDirectory
from repro.proto.mesh import ZigbeeMeshNode
from repro.sim.engine import Simulator
from repro.sim.node import SnifferNode
from repro.util.ids import NodeId
from repro.util.rng import SeededRng


def sniffed_world(seed=31):
    sim = Simulator(seed=seed)
    captures = []
    sniffer = SnifferNode(NodeId("obs"), (5.0, 5.0))
    sim.add_node(sniffer)
    sniffer.add_listener(captures.append)
    return sim, captures


class TestIcmpFlood:
    def test_burst_of_spoofed_replies(self):
        sim, captures = sniffed_world()
        lan = LanDirectory()
        victim = sim.add_node(IpHost(NodeId("victim"), (3.0, 0.0), lan))
        attacker = sim.add_node(
            IcmpFloodAttacker(
                NodeId("evil"), (0.0, 0.0), lan,
                victim_ip=victim.ip, victim_link=victim.node_id,
                burst_size=10, start_delay=1.0, max_bursts=2,
                rng=SeededRng(1),
            )
        )
        sim.run(20.0)
        replies = [
            c for c in captures
            if (icmp := c.packet.find_layer(IcmpMessage)) is not None
            and icmp.icmp_type is IcmpType.ECHO_REPLY
        ]
        assert len(replies) == 20
        source_ips = {c.packet.find_layer(IpPacket).src_ip for c in replies}
        assert len(source_ips) == 20  # "several different identities"
        assert len(attacker.log) == 2

    def test_max_bursts_respected(self):
        sim, _ = sniffed_world()
        lan = LanDirectory()
        victim = sim.add_node(IpHost(NodeId("victim"), (3.0, 0.0), lan))
        attacker = sim.add_node(
            IcmpFloodAttacker(
                NodeId("evil"), (0.0, 0.0), lan,
                victim_ip=victim.ip, victim_link=victim.node_id,
                burst_interval=1.0, start_delay=0.5, max_bursts=3,
                rng=SeededRng(2),
            )
        )
        sim.run(60.0)
        assert len(attacker.log) == 3


class TestSmurf:
    def test_neighbours_reflect_onto_victim(self):
        sim, captures = sniffed_world()
        lan = LanDirectory()
        victim = sim.add_node(IpHost(NodeId("victim"), (3.0, 0.0), lan))
        helpers = [
            sim.add_node(IpHost(NodeId(f"helper-{i}"), (1.0 + i, 4.0), lan))
            for i in range(3)
        ]
        attacker = sim.add_node(
            SmurfAttacker(
                NodeId("evil"), (0.0, 0.0), lan, victim_ip=victim.ip,
                requests_per_burst=2, start_delay=1.0, max_bursts=1,
                rng=SeededRng(3),
            )
        )
        sim.run(10.0)
        # Every helper answered every spoofed broadcast request.
        for helper in helpers:
            assert helper.ping_replies_sent == 2
        replies_to_victim = [
            c for c in captures
            if (ip := c.packet.find_layer(IpPacket)) is not None
            and ip.dst_ip == victim.ip
            and (icmp := c.packet.find_layer(IcmpMessage)) is not None
            and icmp.icmp_type is IcmpType.ECHO_REPLY
        ]
        assert len(replies_to_victim) == 6  # 3 helpers x 2 requests
        # The attacker itself never pings back (it forged the source).
        assert attacker.ping_replies_sent == 0


class TestSynFlood:
    def test_spoofed_syn_storm(self):
        sim, captures = sniffed_world()
        lan = LanDirectory()
        victim = sim.add_node(IpHost(NodeId("victim"), (3.0, 0.0), lan))
        victim.tcp.listen(443)
        attacker = sim.add_node(
            SynFloodAttacker(
                NodeId("evil"), (0.0, 0.0), lan,
                victim_ip=victim.ip, victim_link=victim.node_id,
                burst_size=15, start_delay=1.0, max_bursts=1,
                rng=SeededRng(4),
            )
        )
        sim.run(10.0)
        syns = [
            c for c in captures
            if (seg := c.packet.find_layer(TcpSegment)) is not None and seg.is_syn
        ]
        assert len(syns) == 15
        # The victim piles up half-open connections — the DoS mechanism.
        assert victim.tcp.half_open_count() == 15


class TestWsnAttackers:
    def test_selective_forwarding_quota(self):
        sim = Simulator(seed=35)
        sim.add_node(TelosbMote(NodeId("mote-base"), (0.0, 0.0), is_root=True))
        sim.add_node(TelosbMote(NodeId("mote-1"), (25.0, 0.0)))
        attacker = sim.add_node(
            SelectiveForwardingMote(
                NodeId("evil"), (50.0, 0.0), drop_probability=1.0,
                max_drops=5, rng=SeededRng(5),
            )
        )
        sim.add_node(TelosbMote(NodeId("mote-3"), (75.0, 0.0)))
        sim.run(90.0)
        assert len(attacker.log) == 5
        assert attacker.forwarded_count > 0  # honest after the quota

    def test_blackhole_forwards_nothing(self):
        sim = Simulator(seed=36)
        base = sim.add_node(TelosbMote(NodeId("mote-base"), (0.0, 0.0), is_root=True))
        sim.add_node(TelosbMote(NodeId("mote-1"), (25.0, 0.0)))
        attacker = sim.add_node(BlackholeMote(NodeId("evil"), (50.0, 0.0)))
        sim.add_node(TelosbMote(NodeId("mote-3"), (75.0, 0.0)))
        sim.run(60.0)
        assert len(attacker.log) > 0
        assert attacker.forwarded_count == 0
        # mote-3's samples never arrive.
        origins = {o for o, _, _, _ in base.collected}
        assert NodeId("mote-3") not in origins

    def test_sinkhole_attracts_and_swallows(self):
        sim = Simulator(seed=37)
        base = sim.add_node(TelosbMote(NodeId("mote-base"), (0.0, 0.0), is_root=True))
        honest = sim.add_node(TelosbMote(NodeId("mote-1"), (20.0, 0.0)))
        attacker = sim.add_node(
            SinkholeMote(NodeId("evil"), (20.0, 10.0), advertised_etx=0)
        )
        sim.run(60.0)
        # The honest mote re-parented onto the liar.
        assert honest.parent == attacker.node_id
        assert len(attacker.log) > 0

    def test_altering_mote_changes_seqno(self):
        sim = Simulator(seed=38)
        base = sim.add_node(TelosbMote(NodeId("mote-base"), (0.0, 0.0), is_root=True))
        sim.add_node(TelosbMote(NodeId("mote-1"), (25.0, 0.0)))
        attacker = sim.add_node(
            AlteringMote(NodeId("evil"), (50.0, 0.0), alter_probability=1.0,
                         seqno_shift=7777, rng=SeededRng(6))
        )
        sim.add_node(TelosbMote(NodeId("mote-3"), (75.0, 0.0)))
        sim.run(60.0)
        assert len(attacker.log) > 0
        altered = [s for _, s, _, _ in base.collected if s > 7000]
        assert altered, "tampered sequence numbers must reach the root"

    def test_hello_flood_bursts(self):
        sim, captures = sniffed_world(seed=39)
        attacker = sim.add_node(
            HelloFloodNode(NodeId("evil"), (0.0, 0.0), beacons_per_burst=10,
                           start_delay=0.5, max_bursts=2, rng=SeededRng(7))
        )
        sim.run(30.0)
        assert len(attacker.log) == 2
        beacons = [c for c in captures if c.packet.find_layer(Ieee802154Frame)]
        assert len(beacons) == 20


class TestIdentityAttackers:
    def test_replica_sends_under_cloned_identity(self):
        sim, captures = sniffed_world(seed=40)
        replica = sim.add_node(
            ReplicaMeshNode(
                NodeId("replica"), (3.0, 0.0),
                cloned_identity=NodeId("member-1"),
                target=NodeId("coord"), next_hop=NodeId("coord"),
                start_delay=0.5, max_sends=4, rng=SeededRng(8),
            )
        )
        sim.run(30.0)
        assert len(replica.log) == 4
        for capture in captures:
            mac = capture.packet.find_layer(Ieee802154Frame)
            assert mac.src == NodeId("member-1")  # never its true identity

    def test_sybil_round_uses_all_identities(self):
        sim, captures = sniffed_world(seed=41)
        attacker = sim.add_node(
            SybilNode(NodeId("evil"), (3.0, 0.0), target=NodeId("coord"),
                      identity_count=4, start_delay=0.5, max_rounds=2,
                      rng=SeededRng(9))
        )
        sim.run(30.0)
        sources = {c.packet.find_layer(Ieee802154Frame).src for c in captures}
        assert len(sources) == 4
        assert NodeId("evil") not in sources

    def test_spoofing_claims_live_identity(self):
        sim, captures = sniffed_world(seed=42)
        attacker = sim.add_node(
            SpoofingNode(NodeId("evil"), (3.0, 0.0),
                         spoofed_identity=NodeId("mote-7"),
                         target=NodeId("parent"), start_delay=0.5,
                         max_sends=3, rng=SeededRng(10))
        )
        sim.run(30.0)
        assert len(attacker.log) == 3
        for capture in captures:
            assert capture.packet.find_layer(Ieee802154Frame).src == NodeId("mote-7")


class TestWormhole:
    def test_tunnel_moves_traffic_out_of_band(self):
        sim = Simulator(seed=43)
        source = ZigbeeMeshNode(NodeId("src"), (0.0, 0.0))
        pair = WormholePair(NodeId("B1"), (25.0, 0.0), NodeId("B2"), (300.0, 0.0))
        destination = ZigbeeMeshNode(NodeId("dst"), (325.0, 0.0))
        source.set_routes({destination.node_id: pair.entry.node_id})
        pair.entry.set_routes({destination.node_id: NodeId("unused")})
        pair.exit.set_routes({destination.node_id: destination.node_id})
        sim.add_node(source)
        pair.add_to(sim)
        sim.add_node(destination)
        sim.run_until(0.01)
        source.send_app(destination.node_id)
        sim.run(2.0)
        # The packet arrived across a radio gap no honest path crosses.
        assert len(destination.delivered) == 1
        assert len(pair.entry.log) == 1
        assert pair.exit.emitted_count == 1
        assert len(pair.log) == 1

    def test_detached_exit_ends_tunnel(self):
        sim = Simulator(seed=44)
        source = ZigbeeMeshNode(NodeId("src"), (0.0, 0.0))
        pair = WormholePair(NodeId("B1"), (25.0, 0.0), NodeId("B2"), (300.0, 0.0))
        destination = ZigbeeMeshNode(NodeId("dst"), (325.0, 0.0))
        source.set_routes({destination.node_id: pair.entry.node_id})
        pair.exit.set_routes({destination.node_id: destination.node_id})
        sim.add_node(source)
        pair.add_to(sim)
        sim.add_node(destination)
        sim.run_until(0.01)
        sim.remove_node(pair.exit.node_id)
        source.send_app(destination.node_id)
        sim.run(2.0)
        assert destination.delivered == []


#: The timer-driven attackers: (factory, interval keyword, quota keyword).
#: Each factory gets a LAN and a victim host, used or not.
RECURRING_ATTACKERS = [
    pytest.param(
        lambda lan, victim, **schedule: IcmpFloodAttacker(
            NodeId("evil"), (0.0, 0.0), lan, victim_ip=victim.ip,
            victim_link=victim.node_id, burst_size=2, **schedule),
        "burst_interval", "max_bursts", id="icmp_flood"),
    pytest.param(
        lambda lan, victim, **schedule: SmurfAttacker(
            NodeId("evil"), (0.0, 0.0), lan, victim_ip=victim.ip,
            requests_per_burst=1, **schedule),
        "burst_interval", "max_bursts", id="smurf"),
    pytest.param(
        lambda lan, victim, **schedule: SynFloodAttacker(
            NodeId("evil"), (0.0, 0.0), lan, victim_ip=victim.ip,
            victim_link=victim.node_id, burst_size=2, **schedule),
        "burst_interval", "max_bursts", id="syn_flood"),
    pytest.param(
        lambda lan, victim, **schedule: HelloFloodNode(
            NodeId("evil"), (0.0, 0.0), beacons_per_burst=2, **schedule),
        "burst_interval", "max_bursts", id="hello_flood"),
    pytest.param(
        lambda lan, victim, **schedule: ReplicaMote(
            NodeId("evil"), (0.0, 0.0), cloned_identity=NodeId("mote-1"),
            clone_parent=NodeId("mote-base"), **schedule),
        "send_interval", "max_sends", id="replica_mote"),
    pytest.param(
        lambda lan, victim, **schedule: ReplicaMeshNode(
            NodeId("evil"), (0.0, 0.0), cloned_identity=NodeId("member-1"),
            target=NodeId("coord"), next_hop=NodeId("coord"), **schedule),
        "send_interval", "max_sends", id="replica_mesh"),
    pytest.param(
        lambda lan, victim, **schedule: SpoofingNode(
            NodeId("evil"), (0.0, 0.0), spoofed_identity=NodeId("mote-7"),
            target=NodeId("parent"), **schedule),
        "send_interval", "max_sends", id="spoofing"),
    pytest.param(
        lambda lan, victim, **schedule: SybilNode(
            NodeId("evil"), (0.0, 0.0), target=NodeId("coord"),
            identity_count=2, **schedule),
        "round_interval", "max_rounds", id="sybil"),
]


@pytest.mark.parametrize("build, interval_kw, quota_kw", RECURRING_ATTACKERS)
class TestRecurringAttackContract:
    """Every timer-driven attacker strikes on the one shared schedule:
    first at ``start_delay``, then every ``interval`` +/-10%, until the
    symptom log holds ``max_instances`` or the node is detached."""

    START_DELAY = 2.0
    INTERVAL = 3.0

    def deploy(self, build, interval_kw, quota_kw, quota):
        sim = Simulator(seed=45)
        lan = LanDirectory()
        victim = sim.add_node(IpHost(NodeId("victim"), (3.0, 0.0), lan))
        attacker = sim.add_node(build(
            lan, victim, start_delay=self.START_DELAY, rng=SeededRng(11),
            **{interval_kw: self.INTERVAL, quota_kw: quota},
        ))
        return sim, attacker

    def test_strikes_on_schedule_up_to_quota(self, build, interval_kw, quota_kw):
        sim, attacker = self.deploy(build, interval_kw, quota_kw, quota=4)
        assert (attacker.interval, attacker.max_instances) == (self.INTERVAL, 4)
        sim.run(60.0)
        starts = [instance.start for instance in attacker.log.instances]
        assert len(starts) == 4
        assert starts[0] == pytest.approx(self.START_DELAY)
        for earlier, later in zip(starts, starts[1:]):
            assert 0.9 * self.INTERVAL <= later - earlier <= 1.1 * self.INTERVAL

    def test_nothing_fires_after_detach(self, build, interval_kw, quota_kw):
        sim, attacker = self.deploy(build, interval_kw, quota_kw, quota=None)
        sim.run(self.START_DELAY + 1.5 * self.INTERVAL)
        assert len(attacker.log) == 2
        sim.remove_node(attacker.node_id)
        sim.run(10 * self.INTERVAL)
        assert len(attacker.log) == 2


class TestValidation:
    def test_attack_parameter_validation(self):
        lan = LanDirectory()
        with pytest.raises(ValueError):
            IcmpFloodAttacker(NodeId("e"), (0, 0), lan, victim_ip="x",
                              victim_link=NodeId("v"), burst_size=0)
        with pytest.raises(ValueError):
            SelectiveForwardingMote(NodeId("e"), (0, 0), drop_probability=1.5)
        with pytest.raises(ValueError):
            SybilNode(NodeId("e"), (0, 0), target=NodeId("t"), identity_count=1)
        with pytest.raises(ValueError):
            SinkholeMote(NodeId("e"), (0, 0), advertised_etx=-1)
