"""Tests for the three sensing modules (Topology, Traffic, Mobility)."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.config import parse_config
from repro.core.datastore import DataStore
from repro.core.kalis import KalisNode
from repro.core.knowledge import KnowledgeBase, encode_value
from repro.core.modules.base import ModuleContext
from repro.core.modules.registry import create_module
from repro.core.modules.sensing import traffic
from repro.core.modules.sensing.mobility import MobilityAwarenessModule
from repro.core.modules.sensing.topology import DEFAULT_HOP_LIMIT, TopologyDiscoveryModule
from repro.core.modules.sensing.traffic import TrafficStatsModule, rate_text
from repro.eventbus.bus import EventBus
from repro.experiments import icmp_flood_scenario
from repro.net.packets.base import Medium
from repro.net.packets.ctp import CtpDataFrame, CtpRoutingFrame
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.net.packets.rpl import ROOT_RANK, RplDio
from repro.net.packets.sixlowpan import SixLowpanPacket
from repro.net.packets.wifi import WifiFrame
from repro.net.packets.zigbee import ZigbeePacket
from repro.sim.capture import Capture
from repro.util.ids import NodeId
from tests.conftest import (
    ctp_beacon_capture,
    ctp_data_capture,
    wifi_icmp_capture,
    wifi_tcp_capture,
)
from tests.test_packets_codec import any_packets

A, B, C = NodeId("a"), NodeId("b"), NodeId("c")


def bind(module):
    bus = EventBus()
    kb = KnowledgeBase(NodeId("kalis-1"), bus)
    module.bind(ModuleContext(kb=kb, datastore=DataStore(), bus=bus,
                              node_id=NodeId("kalis-1")))
    module.active = True
    return kb


class TestTopologyDiscovery:
    def test_ctp_thl_marks_multihop(self):
        module = TopologyDiscoveryModule()
        kb = bind(module)
        module.handle(ctp_data_capture(A, B, origin=C, seqno=1, timestamp=0.0, thl=1))
        assert kb.get("Multihop.802154", bool) is True
        assert kb.get("Multihop", bool) is True

    def test_ctp_etx_two_marks_multihop(self):
        module = TopologyDiscoveryModule()
        kb = bind(module)
        module.handle(ctp_beacon_capture(A, parent=B, etx=2, timestamp=0.0))
        assert kb.get("Multihop.802154", bool) is True

    def test_unjoined_beacon_not_multihop_evidence(self):
        module = TopologyDiscoveryModule()
        kb = bind(module)
        module.handle(ctp_beacon_capture(A, parent=A, etx=0xFFFF, timestamp=0.0))
        assert kb.get("Multihop.802154", bool) is None

    def test_zigbee_forwarded_frame_marks_multihop(self):
        module = TopologyDiscoveryModule()
        kb = bind(module)
        frame = Ieee802154Frame(
            pan_id=1, seq=1, src=B,  # transmitter differs from originator
            dst=C, payload=ZigbeePacket(src=A, dst=C, seq=1),
        )
        module.handle(Capture(packet=frame, timestamp=0.0,
                              medium=Medium.IEEE_802_15_4, rssi=-50))
        assert kb.get("Multihop.802154", bool) is True

    def test_hub_radius1_frames_are_not_evidence(self):
        module = TopologyDiscoveryModule(params={"minCaptures": 3})
        kb = bind(module)
        for i in range(3):
            frame = Ieee802154Frame(
                pan_id=1, seq=i, src=A, dst=B,
                payload=ZigbeePacket(src=A, dst=B, seq=i, radius=1),
            )
            module.handle(Capture(packet=frame, timestamp=float(i),
                                  medium=Medium.IEEE_802_15_4, rssi=-50))
        assert kb.get("Multihop.802154", bool) is False  # concluded single-hop

    def test_sixlowpan_decremented_hop_limit(self):
        module = TopologyDiscoveryModule()
        kb = bind(module)
        frame = Ieee802154Frame(
            pan_id=1, seq=1, src=A, dst=B,
            payload=SixLowpanPacket(src=C, dst=B, hop_limit=63),
        )
        module.handle(Capture(packet=frame, timestamp=0.0,
                              medium=Medium.IEEE_802_15_4, rssi=-50))
        assert kb.get("Multihop.802154", bool) is True

    def test_rpl_nonroot_rank(self):
        module = TopologyDiscoveryModule()
        kb = bind(module)
        frame = Ieee802154Frame(
            pan_id=1, seq=1, src=A, dst=B,
            payload=SixLowpanPacket(
                src=A, dst=B, payload=RplDio(dodag_id="d", rank=ROOT_RANK + 256)
            ),
        )
        module.handle(Capture(packet=frame, timestamp=0.0,
                              medium=Medium.IEEE_802_15_4, rssi=-50))
        assert kb.get("Multihop.802154", bool) is True

    def test_wifi_single_hop_concluded_after_min_captures(self):
        module = TopologyDiscoveryModule(params={"minCaptures": 5})
        kb = bind(module)
        for i in range(4):
            module.handle(wifi_icmp_capture(A, B, "10.23.0.1", float(i)))
        assert kb.get("Multihop.wifi", bool) is None  # undecided
        module.handle(wifi_icmp_capture(A, B, "10.23.0.1", 5.0))
        assert kb.get("Multihop.wifi", bool) is False

    def test_wifi_mesh_frame_marks_multihop(self):
        module = TopologyDiscoveryModule()
        kb = bind(module)
        frame = WifiFrame(src=A, dst=B, mesh_src=C, mesh_dst=B)
        module.handle(Capture(packet=frame, timestamp=0.0,
                              medium=Medium.WIFI, rssi=-50))
        assert kb.get("Multihop.wifi", bool) is True

    def test_evidence_overrides_earlier_single_hop_verdict(self):
        module = TopologyDiscoveryModule(params={"minCaptures": 2})
        kb = bind(module)
        for i in range(3):
            module.handle(wifi_icmp_capture(A, B, "10.23.0.1", float(i)))
        assert kb.get("Multihop.wifi", bool) is False
        frame = WifiFrame(src=A, dst=B, mesh_src=C, mesh_dst=B)
        module.handle(Capture(packet=frame, timestamp=5.0,
                              medium=Medium.WIFI, rssi=-50))
        assert kb.get("Multihop.wifi", bool) is True

    def test_monitored_nodes_counts_distinct_sources(self):
        module = TopologyDiscoveryModule()
        kb = bind(module)
        module.handle(wifi_icmp_capture(A, B, "x", 0.0))
        module.handle(wifi_icmp_capture(B, A, "x", 1.0))
        module.handle(wifi_icmp_capture(A, C, "x", 2.0))
        assert kb.get("MonitoredNodes", int) == 2


def reference_multihop_evidence(packet):
    """The multi-hop tests, each on the layer ``find_layer`` returns."""
    ctp_data = packet.find_layer(CtpDataFrame)
    if ctp_data is not None and ctp_data.thl >= 1:
        return True
    ctp_routing = packet.find_layer(CtpRoutingFrame)
    if ctp_routing is not None and 2 <= ctp_routing.etx < 0xFFFF:
        return True
    zigbee = packet.find_layer(ZigbeePacket)
    mac = packet.find_layer(Ieee802154Frame)
    if zigbee is not None and mac is not None and mac.src != zigbee.src:
        return True
    lowpan = packet.find_layer(SixLowpanPacket)
    if lowpan is not None and lowpan.hop_limit < DEFAULT_HOP_LIMIT:
        return True
    dio = packet.find_layer(RplDio)
    if dio is not None and dio.rank > ROOT_RANK:
        return True
    wifi = packet.find_layer(WifiFrame)
    return wifi is not None and wifi.is_mesh_relayed


@given(any_packets)
@example(  # only the outermost CTP layer counts: a relayed inner one does not
    CtpDataFrame(origin=A, seqno=1, thl=0, payload=CtpDataFrame(origin=B, seqno=2, thl=3))
)
def test_multihop_evidence_matches_find_layer_reference(packet):
    capture = Capture(packet=packet, timestamp=1.0, medium=Medium.WIFI, rssi=-50.0)
    module = TopologyDiscoveryModule()
    assert module._is_multihop_evidence(capture) == reference_multihop_evidence(packet)


class TestTrafficStats:
    def test_global_rate_knowgget(self):
        module = TrafficStatsModule(params={"window": 5.0})
        kb = bind(module)
        for i in range(10):
            module.handle(wifi_tcp_capture(A, B, "10.23.0.1", i * 0.5))
        assert kb.get("TrafficFrequency.TCPSYN", float) == pytest.approx(2.0)

    def test_per_sender_and_receiver_rates(self):
        module = TrafficStatsModule(params={"window": 5.0})
        kb = bind(module)
        for i in range(5):
            module.handle(wifi_icmp_capture(A, B, "10.23.0.1", i * 1.0))
        assert kb.get("TrafficOut.ICMPReply", float, entity=A) == 1.0
        assert kb.get("TrafficIn.ICMPReply", float, entity=B) == 1.0
        assert kb.get("TrafficOut.ICMPReply", float, entity=B) is None

    def test_rate_decays_as_window_slides(self):
        module = TrafficStatsModule(params={"window": 5.0})
        kb = bind(module)
        for i in range(5):
            module.handle(wifi_tcp_capture(A, B, "x", float(i)))
        peak = module.global_rate("TCPSYN")
        module.handle(wifi_tcp_capture(A, B, "x", 30.0))
        assert module.global_rate("TCPSYN") < peak

    def test_kind_separation(self):
        """TCP SYN and ACK are separate knowggets, as in Figure 5."""
        from repro.net.packets.tcp import TcpFlags

        module = TrafficStatsModule()
        kb = bind(module)
        module.handle(wifi_tcp_capture(A, B, "x", 0.0, flags=TcpFlags.SYN))
        module.handle(wifi_tcp_capture(A, B, "x", 0.1, flags=TcpFlags.ACK))
        assert kb.get("TrafficFrequency.TCPSYN", float) > 0
        assert kb.get("TrafficFrequency.TCPACK", float) > 0


def _unrendered_rate(count, window, precision):
    """The rate as a float, left for ``KnowledgeBase.put`` to encode."""
    return round(count / window, precision)


class TestRateText:
    @given(
        st.integers(0, 100_000),
        st.sampled_from([5.0, 5, 2, 2.5, 0.3, 0.7, 60.0]),
        st.integers(0, 6),
    )
    def test_matches_the_encoded_rounded_rate(self, count, window, precision):
        assert rate_text(count, window, precision) == encode_value(
            round(count / window, precision)
        )

    @pytest.mark.parametrize(
        "params", ["", "(window=2, precision=3)", "(window=0.7, precision=0)"]
    )
    def test_replay_writes_what_the_unrendered_rate_writes(self, params, monkeypatch):
        """Each rate put, event and stored value is the one a put of the
        float itself makes, for the default and configured windows."""
        spec = parse_config(f"modules = {{ TrafficStatsModule {params} }}").modules[0]
        captures = [
            record.capture
            for record in icmp_flood_scenario.build(seed=7, symptom_instances=4).trace
        ]
        runs = []
        for renderer in (rate_text, _unrendered_rate):
            monkeypatch.setattr(traffic, "rate_text", renderer)
            module = create_module("TrafficStatsModule", spec.params)
            kb = bind(module)
            events = []
            kb.subscribe_all(lambda event: events.append((event.topic, event.payload)))
            for capture in captures:
                module.handle(capture)
            runs.append((events, kb.snapshot(), kb.bus.topic_counts(), kb.change_count))
        assert runs[0] == runs[1]
        assert runs[0][0]

    def test_replay_leaves_the_module_state_size_unchanged(self):
        """The rendered rates live outside instance state: the RAM proxy
        of the replayed module is the value it had before the cache."""
        node = KalisNode(NodeId("kalis-1"))
        for record in icmp_flood_scenario.build(seed=7, symptom_instances=4).trace:
            node.feed(record.capture)
        assert node.manager.module("TrafficStatsModule").approximate_state_bytes() == 956


class TestMobilityAwareness:
    @staticmethod
    def _feed(module, source, rssis, start=0.0, spacing=1.0):
        for index, rssi in enumerate(rssis):
            module.handle(
                wifi_icmp_capture(source, B, "10.23.0.9",
                                  start + index * spacing, rssi=rssi)
            )

    def test_static_network_declared_static(self):
        module = MobilityAwarenessModule()
        kb = bind(module)
        self._feed(module, A, [-60.0] * 10)
        assert kb.get("Mobility", bool) is False

    def test_signal_strength_knowggets_published(self):
        module = MobilityAwarenessModule()
        kb = bind(module)
        self._feed(module, A, [-60.0] * 6)
        assert kb.get("SignalStrength", int, entity=A) == -60

    def test_single_jumpy_node_is_not_network_mobility(self):
        """One identity's RSSI flapping = suspicious device, not mobility."""
        module = MobilityAwarenessModule()
        kb = bind(module)
        self._feed(module, A, [-60, -60, -60, -60, -60, -60,
                               -80, -60, -80, -60, -80, -60])
        assert kb.get("Mobility", bool) is False

    def test_two_moving_nodes_declare_mobility(self):
        module = MobilityAwarenessModule()
        kb = bind(module)
        drift_a = [-60 - 2.5 * i for i in range(14)]
        drift_b = [-55 - 2.5 * i for i in range(14)]
        for index in range(14):
            module.handle(wifi_icmp_capture(A, B, "x", index * 1.0,
                                            rssi=drift_a[index]))
            module.handle(wifi_icmp_capture(C, B, "x", index * 1.0 + 0.5,
                                            rssi=drift_b[index]))
        assert kb.get("Mobility", bool) is True
        assert module.is_mobile

    def test_quiet_period_returns_to_static(self):
        module = MobilityAwarenessModule(params={"quietPeriod": 5.0})
        kb = bind(module)
        drift_a = [-60 - 3.0 * i for i in range(10)]
        drift_b = [-55 - 3.0 * i for i in range(10)]
        for index in range(10):
            module.handle(wifi_icmp_capture(A, B, "x", index * 1.0, rssi=drift_a[index]))
            module.handle(wifi_icmp_capture(C, B, "x", index * 1.0 + 0.5, rssi=drift_b[index]))
        assert kb.get("Mobility", bool) is True
        # Everything settles; samples keep arriving at stable levels.
        self._feed(module, A, [-90.0] * 12, start=20.0)
        assert kb.get("Mobility", bool) is False
