"""Codec round-trip tests, including a hypothesis-driven stack builder."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.packets.base import Packet, RawPayload
from repro.net.packets.codec import (
    decode_packet,
    encode_packet,
    register_packet_type,
    registered_packet_types,
)
from repro.net.packets.ctp import CtpDataFrame
from repro.net.packets.icmp import IcmpMessage, IcmpType
from repro.net.packets.ieee802154 import FrameType, Ieee802154Frame
from repro.net.packets.ip import IpPacket
from repro.net.packets.tcp import TcpFlags, TcpSegment
from repro.net.packets.wifi import WifiFrame
from repro.net.packets.zigbee import ZigbeeKind, ZigbeePacket
from repro.util.ids import NodeId

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
        import json

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

    def test_register_rejects_non_packet(self):
        with pytest.raises(TypeError):
            register_packet_type(dict)

    def test_registry_contains_all_public_types(self):
        names = set(registered_packet_types())
        for expected in (
            "Ieee802154Frame", "ZigbeePacket", "CtpDataFrame", "CtpRoutingFrame",
            "SixLowpanPacket", "RplDio", "RplDao", "RplDis", "IpPacket",
            "TcpSegment", "UdpDatagram", "IcmpMessage", "WifiFrame",
            "BlePacket", "RawPayload",
        ):
            assert expected in names


# -- property-based round trip over randomly generated stacks ---------------

node_ids = st.from_regex(r"[a-z][a-z0-9\-]{0,8}", fullmatch=True).map(NodeId)

inner_packets = st.one_of(
    st.builds(RawPayload, length=st.integers(0, 500)),
    st.builds(
        TcpSegment,
        sport=st.integers(0, 65535),
        dport=st.integers(0, 65535),
        flags=st.sampled_from(
            [TcpFlags.SYN, TcpFlags.ACK, TcpFlags.SYN | TcpFlags.ACK, TcpFlags.NONE]
        ),
        seq=st.integers(0, 2**31),
        data_length=st.integers(0, 1000),
    ),
    st.builds(
        IcmpMessage,
        icmp_type=st.sampled_from(list(IcmpType)),
        identifier=st.integers(0, 65535),
        sequence=st.integers(0, 65535),
    ),
    st.builds(
        CtpDataFrame,
        origin=node_ids,
        seqno=st.integers(0, 10000),
        thl=st.integers(0, 20),
        etx=st.integers(0, 100),
    ),
)

outer_packets = st.one_of(
    st.builds(
        Ieee802154Frame,
        pan_id=st.integers(0, 0xFFFF),
        seq=st.integers(0, 100000),
        src=node_ids,
        dst=node_ids,
        frame_type=st.sampled_from(list(FrameType)),
        payload=st.one_of(st.none(), inner_packets),
    ),
    st.builds(
        WifiFrame,
        src=node_ids,
        dst=node_ids,
        payload=st.one_of(st.none(), inner_packets),
    ),
    st.builds(
        ZigbeePacket,
        src=node_ids,
        dst=node_ids,
        seq=st.integers(0, 100000),
        radius=st.integers(0, 30),
        zigbee_kind=st.sampled_from(list(ZigbeeKind)),
    ),
)


@given(outer_packets)
def test_codec_roundtrip_property(packet):
    assert decode_packet(encode_packet(packet)) == packet


@given(outer_packets)
def test_size_is_nonnegative_and_consistent(packet):
    assert packet.size_bytes >= 0
    assert decode_packet(encode_packet(packet)).size_bytes == packet.size_bytes


@given(outer_packets)
def test_find_layer_is_first_match_in_layers(packet):
    for layer_type in (Packet, *registered_packet_types().values()):
        first = next(
            (layer for layer in packet.layers() if isinstance(layer, layer_type)), None
        )
        assert packet.find_layer(layer_type) is first
