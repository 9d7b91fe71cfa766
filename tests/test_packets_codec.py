"""Codec round-trip tests, including a hypothesis-driven stack builder."""

import functools
import json
import operator
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.packets.base import Packet, PacketKind, RawPayload
from repro.net.packets.bluetooth import BlePacket, BleRole
from repro.net.packets.codec import (
    decode_packet,
    encode_packet,
    register_packet_type,
    registered_packet_types,
)
from repro.net.packets.ctp import CtpDataFrame, CtpRoutingFrame
from repro.net.packets.icmp import IcmpMessage, IcmpType
from repro.net.packets.ieee802154 import FrameType, Ieee802154Frame
from repro.net.packets.ip import IpPacket
from repro.net.packets.rpl import RplDao, RplDio, RplDis
from repro.net.packets.sixlowpan import SixLowpanPacket
from repro.net.packets.tcp import TcpFlags, TcpSegment
from repro.net.packets.udp import UdpDatagram
from repro.net.packets.wifi import WifiFrame, WifiFrameKind
from repro.net.packets.zigbee import ZigbeeKind, ZigbeePacket
from repro.util.ids import NodeId
from tests.codec_reference import reference_decode, reference_encode

A, B = NodeId("a"), NodeId("b")


class TestRoundTrips:
    def test_simple_frame(self):
        frame = Ieee802154Frame(pan_id=0x22, seq=9, src=A, dst=B,
                                frame_type=FrameType.ACK)
        assert decode_packet(encode_packet(frame)) == frame

    def test_nested_stack(self):
        frame = WifiFrame(
            src=A, dst=B,
            payload=IpPacket(
                src_ip="10.23.0.1", dst_ip="10.23.0.2",
                payload=TcpSegment(
                    sport=1, dport=2, flags=TcpFlags.SYN | TcpFlags.ACK, seq=5
                ),
            ),
        )
        assert decode_packet(encode_packet(frame)) == frame

    def test_flag_combination_roundtrip(self):
        segment = TcpSegment(
            sport=1, dport=2, flags=TcpFlags.FIN | TcpFlags.PSH | TcpFlags.ACK
        )
        assert decode_packet(encode_packet(segment)).flags == segment.flags

    def test_enum_roundtrip(self):
        message = IcmpMessage(icmp_type=IcmpType.DEST_UNREACHABLE)
        assert decode_packet(encode_packet(message)).icmp_type == message.icmp_type

    def test_encoded_form_is_json_safe(self):
        frame = Ieee802154Frame(
            pan_id=1, seq=0, src=A, dst=B,
            payload=CtpDataFrame(origin=A, seqno=3, thl=1),
        )
        text = json.dumps(encode_packet(frame))
        assert decode_packet(json.loads(text)) == frame


class TestErrors:
    def test_unknown_type_decode(self):
        with pytest.raises(ValueError):
            decode_packet({"__packet__": "NoSuchPacket"})

    def test_missing_discriminator(self):
        with pytest.raises(ValueError):
            decode_packet({"pan_id": 1})

    def test_unregistered_type_encode(self):
        class SecretPacket(Packet):
            pass

        with pytest.raises(TypeError):
            encode_packet(SecretPacket())

    def test_unregistered_type_sharing_a_registered_name(self):
        @dataclass(frozen=True)
        class RawPayload(Packet):
            length: int = 0

        with pytest.raises(TypeError):
            encode_packet(RawPayload())

    def test_register_rejects_non_packet(self):
        with pytest.raises(TypeError):
            register_packet_type(dict)

    def test_register_rejects_field_it_cannot_decode(self):
        @dataclass(frozen=True)
        class OpaquePacket(Packet):
            blob: Any = None

        with pytest.raises(TypeError, match="OpaquePacket.blob"):
            register_packet_type(OpaquePacket)
        assert "OpaquePacket" not in registered_packet_types()

    def test_unknown_field(self):
        data = encode_packet(IpPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2"))
        data["bogus"] = 1
        with pytest.raises(TypeError):
            decode_packet(data)

    def test_missing_required_field(self):
        data = encode_packet(IpPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2"))
        del data["src_ip"]
        with pytest.raises(TypeError):
            decode_packet(data)

    def test_unknown_enum_member(self):
        data = encode_packet(IcmpMessage(icmp_type=IcmpType.ECHO_REPLY))
        data["icmp_type"]["value"] = "NO_SUCH_TYPE"
        with pytest.raises(KeyError):
            decode_packet(data)

    def test_enum_tag_must_name_the_field_type(self):
        data = encode_packet(IcmpMessage(icmp_type=IcmpType.ECHO_REPLY))
        data["icmp_type"]["__enum__"] = "FrameType"
        with pytest.raises(ValueError, match="IcmpType"):
            decode_packet(data)

    def test_registry_contains_all_public_types(self):
        names = set(registered_packet_types())
        for expected in (
            "Ieee802154Frame", "ZigbeePacket", "CtpDataFrame", "CtpRoutingFrame",
            "SixLowpanPacket", "RplDio", "RplDao", "RplDis", "IpPacket",
            "TcpSegment", "UdpDatagram", "IcmpMessage", "WifiFrame",
            "BlePacket", "RawPayload",
        ):
            assert expected in names


# -- property-based round trip over every registered packet type ------------

#: A few ids recur so that one packet often carries the same id twice.
node_ids = st.one_of(
    st.sampled_from(["a", "b", "mote-1"]),
    st.from_regex(r"[a-z][a-z0-9\-]{0,8}", fullmatch=True),
).map(NodeId)
optional_node_ids = st.one_of(st.none(), node_ids)
texts = st.text(min_size=1, max_size=12)
tcp_flags = st.sets(st.sampled_from(list(TcpFlags))).map(
    lambda members: functools.reduce(operator.or_, members, TcpFlags.NONE)
)

#: Innermost layers: types without a ``payload`` field.
LEAF_STRATEGIES = {
    RawPayload: st.builds(RawPayload, length=st.integers(0, 500)),
    TcpSegment: st.builds(
        TcpSegment,
        sport=st.integers(0, 65535),
        dport=st.integers(0, 65535),
        flags=tcp_flags,
        seq=st.integers(0, 2**31),
        ack=st.integers(0, 2**31),
        data_length=st.integers(0, 1000),
    ),
    IcmpMessage: st.builds(
        IcmpMessage,
        icmp_type=st.sampled_from(list(IcmpType)),
        identifier=st.integers(0, 65535),
        sequence=st.integers(0, 65535),
        data_length=st.integers(0, 1000),
    ),
    CtpRoutingFrame: st.builds(
        CtpRoutingFrame, parent=node_ids, etx=st.integers(0, 100), pull=st.booleans()
    ),
    RplDio: st.builds(
        RplDio, dodag_id=texts, rank=st.integers(0, 5000), version=st.integers(0, 255)
    ),
    RplDao: st.builds(RplDao, target=node_ids, parent=node_ids),
    RplDis: st.builds(RplDis, solicited_dodag=st.one_of(st.none(), texts)),
}


def container_strategies(payloads):
    """Types with a ``payload`` field, each carrying one of ``payloads`` or None."""
    payload = st.one_of(st.none(), payloads)
    return {
        Ieee802154Frame: st.builds(
            Ieee802154Frame,
            pan_id=st.integers(0, 0xFFFF),
            seq=st.integers(0, 100000),
            src=node_ids,
            dst=node_ids,
            frame_type=st.sampled_from(list(FrameType)),
            payload=payload,
        ),
        WifiFrame: st.builds(
            WifiFrame,
            src=node_ids,
            dst=node_ids,
            bssid=texts,
            wifi_kind=st.sampled_from(list(WifiFrameKind)),
            mesh_src=optional_node_ids,
            mesh_dst=optional_node_ids,
            payload=payload,
        ),
        ZigbeePacket: st.builds(
            ZigbeePacket,
            src=node_ids,
            dst=node_ids,
            seq=st.integers(0, 100000),
            radius=st.integers(0, 30),
            zigbee_kind=st.sampled_from(list(ZigbeeKind)),
            payload=payload,
        ),
        CtpDataFrame: st.builds(
            CtpDataFrame,
            origin=node_ids,
            seqno=st.integers(0, 10000),
            thl=st.integers(0, 20),
            etx=st.integers(0, 100),
            collect_id=st.integers(0, 255),
            payload=payload,
        ),
        SixLowpanPacket: st.builds(
            SixLowpanPacket,
            src=node_ids,
            dst=node_ids,
            hop_limit=st.integers(0, 255),
            datagram_tag=st.integers(0, 65535),
            payload=payload,
        ),
        IpPacket: st.builds(
            IpPacket,
            src_ip=texts,
            dst_ip=texts,
            ttl=st.integers(0, 255),
            version=st.sampled_from([4, 6]),
            payload=payload,
        ),
        UdpDatagram: st.builds(
            UdpDatagram,
            sport=st.integers(0, 65535),
            dport=st.integers(0, 65535),
            payload=payload,
        ),
        BlePacket: st.builds(
            BlePacket,
            src=node_ids,
            dst=node_ids,
            role=st.sampled_from(list(BleRole)),
            channel=st.integers(0, 39),
            data_length=st.integers(0, 255),
            payload=payload,
        ),
    }


any_packets = st.recursive(
    st.one_of(*LEAF_STRATEGIES.values()),
    lambda inner: st.one_of(*container_strategies(inner).values()),
    max_leaves=4,
)


def test_strategies_cover_every_registered_packet_type():
    in_tree = {
        packet_type
        for packet_type in registered_packet_types().values()
        if packet_type.__module__.startswith("repro.net.packets.")
    }
    covered = set(LEAF_STRATEGIES) | set(container_strategies(st.nothing()))
    assert covered == in_tree - {Packet}
    assert len(covered) == 15


def node_id_objects(packet):
    return [
        value
        for layer in packet.layers()
        for value in vars(layer).values()
        if isinstance(value, NodeId)
    ]


def test_no_packet_type_subclasses_another():
    """Type identity and ``isinstance`` agree on every registered stack, so
    a walk that keys layers by exact type finds what ``find_layer`` finds."""
    types = [t for t in registered_packet_types().values() if t is not Packet]
    for packet_type in types:
        for other in types:
            assert packet_type is other or not issubclass(packet_type, other)


@given(any_packets)
def test_encode_matches_reference_encoder(packet):
    # Compared as JSON text, so the field order counts too.
    assert json.dumps(encode_packet(packet)) == json.dumps(reference_encode(packet))


@given(any_packets)
def test_decode_matches_reference_decoder(packet):
    encoded = json.loads(json.dumps(encode_packet(packet)))
    decoded = decode_packet(encoded)
    assert decoded == reference_decode(encoded) == packet
    first_seen = {}
    for node in node_id_objects(decoded):
        assert first_seen.setdefault(node.value, node) is node


@given(any_packets, any_packets)
def test_shared_nodes_table_interns_across_packets(first, second):
    nodes = {}
    decoded = [decode_packet(encode_packet(packet)) for packet in (first, second)]
    assert decoded == [first, second]
    for node in node_id_objects(decoded[0]) + node_id_objects(decoded[1]):
        assert nodes.setdefault(node.value, node) is node is NodeId(node.value)


@given(any_packets)
def test_codec_roundtrip_property(packet):
    assert decode_packet(encode_packet(packet)) == packet


@given(any_packets)
def test_size_is_nonnegative_and_consistent(packet):
    assert packet.size_bytes >= 0
    assert decode_packet(encode_packet(packet)).size_bytes == packet.size_bytes


@given(any_packets)
def test_find_layer_is_first_match_in_layers(packet):
    for layer_type in (Packet, *registered_packet_types().values()):
        first = next(
            (layer for layer in packet.layers() if isinstance(layer, layer_type)), None
        )
        assert packet.find_layer(layer_type) is first


@given(any_packets)
def test_traffic_kind_is_innermost_specific_kind_in_layers(packet):
    kinds = [layer.kind() for layer in packet.layers()]
    expected = next(
        (kind for kind in reversed(kinds) if kind is not PacketKind.OTHER),
        PacketKind.OTHER,
    )
    assert packet.traffic_kind() is expected
