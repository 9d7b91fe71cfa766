"""Tests for the extension points: custom packet types, enums, config
files from disk — the "new modules without recompiling" story."""

import enum
from dataclasses import dataclass


from repro.core.config import parse_config_file, render_config
from repro.net.packets.base import Packet, PacketKind
from repro.net.packets.codec import (
    decode_packet,
    encode_packet,
    register_enum_type,
    register_packet_type,
)


class TestCustomPacketTypes:
    def test_third_party_packet_roundtrips_after_registration(self):
        @register_enum_type
        class LoraKind(enum.Enum):
            JOIN = "join"
            UPLINK = "uplink"

        @register_packet_type
        @dataclass(frozen=True)
        class LoraFrame(Packet):
            dev_addr: int = 0
            kind_field: LoraKind = LoraKind.UPLINK

            HEADER_BYTES = 13

            def kind(self) -> PacketKind:
                return PacketKind.OTHER

        frame = LoraFrame(dev_addr=0xABC, kind_field=LoraKind.JOIN)
        restored = decode_packet(encode_packet(frame))
        assert restored == frame
        assert restored.kind_field is LoraKind.JOIN

    def test_custom_module_via_registry_and_config(self, monkeypatch):
        """A new detection module plugs into a KalisNode purely by name
        — the paper's Java-Reflection extensibility, end to end."""
        from repro.core.kalis import KalisNode
        from repro.core.modules import registry
        from repro.core.modules.base import DetectionModule, Requirement
        from repro.core.modules.registry import register_module
        from repro.util.ids import NodeId

        # Register into a copy, so the fixture module leaves the
        # process-wide registry as it found it.
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))

        @register_module
        class LoraAnomalyModule(DetectionModule):
            """Example third-party module (test fixture)."""

            NAME = "LoraAnomalyModule"
            REQUIREMENTS = (Requirement(label="LoraPresent", equals=True),)
            DETECTS = ("lora_anomaly",)

        kalis = KalisNode(
            NodeId("kalis-1"),
            config="modules = { LoraAnomalyModule (sensitivity=3) }",
        )
        module = kalis.manager.module("LoraAnomalyModule")
        assert module.active  # named in config -> active by default
        assert module.params == {"sensitivity": 3}


class TestConfigFromDisk:
    def test_parse_config_file(self, tmp_path):
        from repro.core.config import KalisConfig, ModuleSpec, StaticKnowgget

        config = KalisConfig(
            modules=[ModuleSpec(name="TrafficStatsModule", params={"window": 5})],
            knowggets=[StaticKnowgget(label="Mobility", value=False)],
        )
        path = tmp_path / "kalis.conf"
        path.write_text(render_config(config))
        loaded = parse_config_file(path)
        assert loaded == config
