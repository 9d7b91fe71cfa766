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

Decoding is driven by each type's field annotations, resolved once at
registration: every field that needs more than a passthrough gets its
own decoder (an interned ``NodeId``, an enum member by name, a flag by
value, or a nested packet through :func:`decode_packet`).  Equal id
strings decode to one shared ``NodeId`` per ``nodes`` table, so a trace
load validates each distinct id once.
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
from repro.util.ids import NodeId, interned_node_id

#: Decodes one encoded, non-None field value; the dict interns NodeIds.
_FieldDecoder = Callable[[Any, Dict[str, NodeId]], Any]

_PASSTHROUGH_TYPES = (bool, int, float, str)


class _PacketCodec(NamedTuple):
    """A registered packet type and the decoders of its non-plain fields."""

    packet_type: Type[Packet]
    field_decoders: Tuple[Tuple[str, _FieldDecoder], ...]


_PACKET_TYPES: Dict[str, _PacketCodec] = {}
_ENUM_TYPES: Dict[str, Type[enum.Enum]] = {}


def _decode_node(value: Dict[str, str], nodes: Dict[str, NodeId]) -> NodeId:
    return interned_node_id(value["__node__"], nodes)


def _decode_nested(value: Dict[str, Any], nodes: Dict[str, NodeId]) -> Packet:
    # Resolved per call: a wrapper installed on the module attribute (the
    # traced benchmark run installs one) sees nested layers too.
    return decode_packet(value, nodes)


def _member_decoder(enum_type: Type[enum.Enum]) -> _FieldDecoder:
    """Flags decode by value (any combination), other enums by member name."""
    name = enum_type.__name__
    if issubclass(enum_type, enum.Flag):
        tag, lookup = "__flag__", enum_type
    else:
        tag, lookup = "__enum__", enum_type.__members__.__getitem__

    def decode(value: Dict[str, Any], nodes: Dict[str, NodeId]) -> enum.Enum:
        if _ENUM_TYPES.get(value[tag]) is not enum_type:
            raise ValueError(f"{tag} {value[tag]!r} is not the registered {name}")
        return lookup(value["value"])

    return decode


def _field_decoder(owner: str, name: str, annotation: Any) -> Optional[_FieldDecoder]:
    """The decoder for one resolved field annotation; None for a passthrough."""
    if typing.get_origin(annotation) is Union:
        members = [arg for arg in typing.get_args(annotation) if arg is not type(None)]
        if len(members) == 1:
            annotation = members[0]
    if annotation in _PASSTHROUGH_TYPES:
        return None
    if isinstance(annotation, type):
        if issubclass(annotation, NodeId):
            return _decode_node
        if issubclass(annotation, enum.Enum):
            return _member_decoder(annotation)
        if issubclass(annotation, Packet):
            return _decode_nested
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
    decoders = []
    for field_info in fields(packet_type):
        decoder = _field_decoder(
            packet_type.__name__, field_info.name, hints[field_info.name]
        )
        if decoder is not None:
            decoders.append((field_info.name, decoder))
    _PACKET_TYPES[packet_type.__name__] = _PacketCodec(packet_type, tuple(decoders))
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


def _encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, NodeId):
        return {"__node__": value.value}
    if isinstance(value, enum.Flag):
        return {"__flag__": type(value).__name__, "value": value.value}
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": value.name}
    if isinstance(value, Packet):
        return encode_packet(value)
    raise TypeError(f"cannot encode packet field value of type {type(value).__name__}")


def encode_packet(packet: Packet) -> Dict[str, Any]:
    """Encode a packet (with all nested layers) into a JSON-safe dict."""
    type_name = type(packet).__name__
    if type_name not in _PACKET_TYPES:
        raise TypeError(
            f"{type_name} is not a registered packet type; "
            "call register_packet_type() first"
        )
    encoded: Dict[str, Any] = {"__packet__": type_name}
    for field_info in fields(packet):
        encoded[field_info.name] = _encode_value(getattr(packet, field_info.name))
    return encoded


def decode_packet(
    data: Dict[str, Any], nodes: Optional[Dict[str, NodeId]] = None
) -> Packet:
    """Reconstruct a packet from :func:`encode_packet` output.

    :param nodes: id string -> ``NodeId`` table shared by every address
        this call decodes, nested layers included; pass one table across
        many calls (as :meth:`repro.trace.Trace.load` does per file) to
        share ids across packets too.  A fresh table by default.
    """
    if "__packet__" not in data:
        raise ValueError("missing __packet__ discriminator in encoded packet")
    codec = _PACKET_TYPES.get(data["__packet__"])
    if codec is None:
        raise ValueError(f"unknown packet type {data['__packet__']!r}")
    if nodes is None:
        nodes = {}
    kwargs = dict(data)
    del kwargs["__packet__"]
    for name, decode in codec.field_decoders:
        value = kwargs.get(name)
        if value is not None:
            kwargs[name] = decode(value, nodes)
    return codec.packet_type(**kwargs)


def registered_packet_types() -> Dict[str, Type[Packet]]:
    """Copy of the current packet type registry (for tests/diagnostics)."""
    return {name: codec.packet_type for name, codec in _PACKET_TYPES.items()}
