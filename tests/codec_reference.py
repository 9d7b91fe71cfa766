"""Test-only reference for the packet codec: the generic value walkers.

:func:`repro.net.packets.codec.encode_packet` and
:func:`~repro.net.packets.codec.decode_packet` handle each field with a
codec chosen at registration from the field's annotation.  The
references do the same work the slow, obvious way.
:func:`reference_encode` reads the packet's ``dataclasses.fields()`` and
picks each value's form from its runtime type; it must produce the same
dict as ``encode_packet``.  :func:`reference_decode` inspects every
value and decides from its ``__node__``/``__flag__``/``__enum__``/
``__packet__`` tag alone, building a fresh ``NodeId`` for every address;
on ``encode_packet`` output it must produce a packet equal to
``decode_packet``'s.
"""

from __future__ import annotations

import enum
from dataclasses import fields
from typing import Any, Dict

from repro.net.packets.base import Packet
from repro.net.packets.codec import _ENUM_TYPES, registered_packet_types
from repro.util.ids import NodeId


def reference_encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, NodeId):
        return {"__node__": value.value}
    if isinstance(value, enum.Flag):
        return {"__flag__": type(value).__name__, "value": value.value}
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": value.name}
    if isinstance(value, Packet):
        return reference_encode(value)
    raise TypeError(f"cannot encode packet field value of type {type(value).__name__}")


def reference_encode(packet: Packet) -> Dict[str, Any]:
    """Encode a packet into a JSON-safe dict, value by value."""
    type_name = type(packet).__name__
    if type_name not in registered_packet_types():
        raise TypeError(f"{type_name} is not a registered packet type")
    encoded: Dict[str, Any] = {"__packet__": type_name}
    for field_info in fields(packet):
        encoded[field_info.name] = reference_encode_value(getattr(packet, field_info.name))
    return encoded


def reference_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__node__" in value:
            return NodeId(value["__node__"])
        if "__flag__" in value:
            flag_type = _ENUM_TYPES[value["__flag__"]]
            return flag_type(value["value"])
        if "__enum__" in value:
            enum_type = _ENUM_TYPES[value["__enum__"]]
            return enum_type[value["value"]]
        if "__packet__" in value:
            return reference_decode(value)
        raise ValueError(f"unrecognised encoded value: {value!r}")
    return value


def reference_decode(data: Dict[str, Any]) -> Packet:
    """Reconstruct a packet from :func:`encode_packet` output, tag by tag."""
    if "__packet__" not in data:
        raise ValueError("missing __packet__ discriminator in encoded packet")
    type_name = data["__packet__"]
    packet_type = registered_packet_types().get(type_name)
    if packet_type is None:
        raise ValueError(f"unknown packet type {type_name!r}")
    kwargs = {
        key: reference_value(value)
        for key, value in data.items()
        if key != "__packet__"
    }
    return packet_type(**kwargs)
