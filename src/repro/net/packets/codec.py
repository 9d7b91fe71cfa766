"""Packet (de)serialization for trace storage.

Encodes any registered packet type into a JSON-safe dict and back,
preserving nested layers, :class:`~repro.util.ids.NodeId` values, enums
and flag combinations.  The trace subsystem (:mod:`repro.trace`) uses
this to persist captures to disk and replay them later — the paper's
evaluation methodology records device traffic and replays it with
injected attack symptoms.

New packet types register themselves simply by being dataclasses that
subclass :class:`~repro.net.packets.base.Packet`; the registry is built
from the public packet modules at import time and can be extended with
:func:`register_packet_type`.

Both directions are driven by each type's field annotations, resolved
once at registration: every field that needs more than a passthrough
gets its own encoder and decoder (a ``NodeId`` as its tagged string and
back through the interning ``NodeId(value)``, an enum member by name, a
flag by value, or a nested packet through :func:`encode_packet` and
:func:`decode_packet`).
"""

from __future__ import annotations

import enum
import typing
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Type, Union

from repro.net.packets import base as _base
from repro.net.packets import (
    bluetooth as _bluetooth,
    ctp as _ctp,
    icmp as _icmp,
    ieee802154 as _ieee802154,
    ip as _ip,
    rpl as _rpl,
    sixlowpan as _sixlowpan,
    tcp as _tcp,
    udp as _udp,
    wifi as _wifi,
    zigbee as _zigbee,
)
from repro.net.packets.base import Packet
from repro.util.ids import NodeId

#: Encodes one non-None field value into its JSON-safe form.
_FieldEncoder = Callable[[Any], Any]
#: Decodes one encoded, non-None field value.
_FieldDecoder = Callable[[Any], Any]

_PASSTHROUGH_TYPES = (bool, int, float, str)


class _PacketCodec(NamedTuple):
    """A registered packet type with its field encoders and decoders.

    ``field_encoders`` lists every field in declaration order, with None
    for a passthrough; ``field_decoders`` lists only non-plain fields.
    """

    packet_type: Type[Packet]
    field_encoders: Tuple[Tuple[str, Optional[_FieldEncoder]], ...]
    field_decoders: Tuple[Tuple[str, _FieldDecoder], ...]


_PACKET_TYPES: Dict[str, _PacketCodec] = {}
_ENUM_TYPES: Dict[str, Type[enum.Enum]] = {}


def _encode_node(value: NodeId) -> Dict[str, str]:
    return {"__node__": value.value}


def _decode_node(value: Dict[str, str]) -> NodeId:
    return NodeId(value["__node__"])


# The nested codecs resolve encode_packet/decode_packet per call: a
# wrapper installed on the module attribute (the traced benchmark run
# installs one) sees nested layers too.
def _encode_nested(value: Packet) -> Dict[str, Any]:
    return encode_packet(value)


def _decode_nested(value: Dict[str, Any]) -> Packet:
    return decode_packet(value)


def _member_codec(enum_type: Type[enum.Enum]) -> Tuple[_FieldEncoder, _FieldDecoder]:
    """Flags go by value (any combination), other enums by member name."""
    name = enum_type.__name__
    flag = issubclass(enum_type, enum.Flag)
    if flag:
        tag, lookup = "__flag__", enum_type
    else:
        tag, lookup = "__enum__", enum_type.__members__.__getitem__

    def encode(value: enum.Enum) -> Dict[str, Any]:
        return {tag: name, "value": value.value if flag else value.name}

    def decode(value: Dict[str, Any]) -> enum.Enum:
        if _ENUM_TYPES.get(value[tag]) is not enum_type:
            raise ValueError(f"{tag} {value[tag]!r} is not the registered {name}")
        return lookup(value["value"])

    return encode, decode


def _field_codec(
    owner: str, name: str, annotation: Any
) -> Optional[Tuple[_FieldEncoder, _FieldDecoder]]:
    """The codec pair for one resolved field annotation; None for a passthrough."""
    if typing.get_origin(annotation) is Union:
        members = [arg for arg in typing.get_args(annotation) if arg is not type(None)]
        if len(members) == 1:
            annotation = members[0]
    if annotation in _PASSTHROUGH_TYPES:
        return None
    if isinstance(annotation, type):
        if issubclass(annotation, NodeId):
            return _encode_node, _decode_node
        if issubclass(annotation, enum.Enum):
            return _member_codec(annotation)
        if issubclass(annotation, Packet):
            return _encode_nested, _decode_nested
    raise TypeError(f"{owner}.{name}: the packet codec cannot decode {annotation!r}")


def register_packet_type(packet_type: Type[Packet]) -> Type[Packet]:
    """Register a packet dataclass for codec round-tripping.

    Usable as a decorator for packet types defined outside this package.
    Every field must be annotated with a plain JSON type, ``NodeId``, an
    enum, a packet type, or ``Optional`` of one of those.
    """
    if not (is_dataclass(packet_type) and issubclass(packet_type, Packet)):
        raise TypeError(f"{packet_type!r} is not a Packet dataclass")
    hints = typing.get_type_hints(packet_type)
    encoders = []
    decoders = []
    for field_info in fields(packet_type):
        codec = _field_codec(packet_type.__name__, field_info.name, hints[field_info.name])
        encoders.append((field_info.name, None if codec is None else codec[0]))
        if codec is not None:
            decoders.append((field_info.name, codec[1]))
    _PACKET_TYPES[packet_type.__name__] = _PacketCodec(
        packet_type, tuple(encoders), tuple(decoders)
    )
    return packet_type


def register_enum_type(enum_type: Type[enum.Enum]) -> Type[enum.Enum]:
    """Register an enum used inside packet fields."""
    _ENUM_TYPES[enum_type.__name__] = enum_type
    return enum_type


def _register_module(module: Any) -> None:
    for name in dir(module):
        candidate = getattr(module, name)
        if not isinstance(candidate, type):
            continue
        if is_dataclass(candidate) and issubclass(candidate, Packet):
            register_packet_type(candidate)
        elif issubclass(candidate, enum.Enum) and candidate is not enum.Enum:
            register_enum_type(candidate)


for _module in (
    _base,
    _bluetooth,
    _ctp,
    _icmp,
    _ieee802154,
    _ip,
    _rpl,
    _sixlowpan,
    _tcp,
    _udp,
    _wifi,
    _zigbee,
):
    _register_module(_module)


def encode_packet(packet: Packet) -> Dict[str, Any]:
    """Encode a packet (with all nested layers) into a JSON-safe dict."""
    type_name = type(packet).__name__
    codec = _PACKET_TYPES.get(type_name)
    if codec is None or codec.packet_type is not type(packet):
        raise TypeError(
            f"{type_name} is not a registered packet type; "
            "call register_packet_type() first"
        )
    encoded: Dict[str, Any] = {"__packet__": type_name}
    for name, encode in codec.field_encoders:
        value = getattr(packet, name)
        encoded[name] = value if encode is None or value is None else encode(value)
    return encoded


def decode_packet(data: Dict[str, Any]) -> Packet:
    """Reconstruct a packet from :func:`encode_packet` output."""
    if "__packet__" not in data:
        raise ValueError("missing __packet__ discriminator in encoded packet")
    codec = _PACKET_TYPES.get(data["__packet__"])
    if codec is None:
        raise ValueError(f"unknown packet type {data['__packet__']!r}")
    kwargs = dict(data)
    del kwargs["__packet__"]
    for name, decode in codec.field_decoders:
        value = kwargs.get(name)
        if value is not None:
            kwargs[name] = decode(value)
    return codec.packet_type(**kwargs)


def registered_packet_types() -> Dict[str, Type[Packet]]:
    """Copy of the current packet type registry (for tests/diagnostics)."""
    return {name: codec.packet_type for name, codec in _PACKET_TYPES.items()}
